//! `semester-paper`: the paper's course (58 teams × 35 days, 176
//! students) with the paper's arrival model and three-phase fleet, on
//! today's KiB-scale projects.
//!
//! The run is an event loop on `rai_sim`: each arrival packages and
//! submits through the client, then a dispatch pass claims up to the
//! fleet's free capacity in FIFO order, executes, commits and drains the
//! client's log stream; a completion event frees the capacity after the
//! job's service time. Arrivals are spread out, so every scheduling
//! round holds one job.

use crate::trace::Tracer;
use crate::{
    audit, collect_counts, status_mb, timed_setup, Ledger, Ranked, RunOutcome, Scale, Stopwatch,
};
use rai_auth::Credentials;
use rai_cluster::PhaseSchedule;
use rai_core::client::PendingJob;
use rai_core::worker::StepEvent;
use rai_core::{RaiSystem, SubmitMode, SystemConfig, Worker};
use rai_sim::{SimDuration, SimTime, Simulation, VirtualClock};
use rai_workload::circadian::CircadianModel;
use rai_workload::teams::TeamRoster;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// Course shape per scale: (teams, students, days).
fn shape(scale: Scale) -> (usize, u32, u64) {
    match scale {
        Scale::Full => (58, 176, 35),
        Scale::Tiny => (6, 18, 6),
    }
}

/// Worker fleet deployed (the phase schedule caps how many take jobs).
const WORKERS: usize = 32;

struct State {
    system: RaiSystem,
    tracer: Arc<Tracer>,
    creds: Vec<Credentials>,
    roster: TeamRoster,
    rng: StdRng,
    deadline: SimTime,
    schedule: PhaseSchedule,
    waiting: VecDeque<u64>,
    in_flight: usize,
    pending: HashMap<u64, PendingJob>,
    next_worker: usize,
    ledger: Ledger,
    out: RunOutcome,
}

type Sched = rai_sim::Scheduler<State>;

fn capacity(state: &State, now: SimTime) -> usize {
    state
        .schedule
        .phase_at(now)
        .map_or(1, |p| p.fleet * p.jobs_per_worker)
}

fn dispatch(state: &mut State, sched: &mut Sched) {
    let now = sched.now();
    loop {
        let budget = capacity(state, now)
            .saturating_sub(state.in_flight)
            .min(state.waiting.len())
            .min(WORKERS);
        if budget == 0 {
            return;
        }
        let tracer = state.tracer.clone();
        let mut popped = Vec::with_capacity(budget);
        for _ in 0..budget {
            let job = state.waiting.pop_front().expect("bounded by len");
            let wi = state.next_worker % WORKERS;
            state.next_worker = state.next_worker.wrapping_add(1);
            let task = tracer
                .time("core.worker.pop_task", job, || {
                    state.system.workers_mut()[wi].pop_task()
                })
                .expect("broker held a queued job");
            popped.push((wi, task));
        }
        let first = popped[0].1.job_id();
        let claims = tracer.time("core.system.claim_tasks", first, || {
            state.system.claim_tasks(popped)
        });
        let executor = state.system.executor().clone();
        executor.run_jobs(
            claims,
            |(wi, claimed)| {
                let job = claimed.job_id();
                (
                    wi,
                    tracer.time("core.worker.execute", job, || Worker::execute(claimed)),
                )
            },
            |(wi, executed)| {
                let job = executed.job_id();
                let event = tracer.time("core.worker.commit", job, || {
                    state.system.workers_mut()[wi].commit(executed)
                });
                let StepEvent::Done(outcome) = event else {
                    unreachable!("fault-free semester jobs neither crash nor idle")
                };
                state
                    .ledger
                    .finish(outcome.job_id, now + outcome.service_time);
                let pending = state
                    .pending
                    .remove(&outcome.job_id)
                    .expect("every queued job is pending");
                let receipt = tracer.time("core.client.wait", job, || {
                    pending.wait(Duration::from_millis(50))
                });
                if receipt.map(|r| r.success) != Ok(outcome.success) {
                    state.out.fail(format!(
                        "job {job}: client receipt disagrees with its outcome"
                    ));
                }
                state.in_flight += 1;
                sched.after(
                    outcome.service_time,
                    |state: &mut State, sched: &mut Sched| {
                        state.in_flight -= 1;
                        dispatch(state, sched);
                    },
                );
            },
        );
    }
}

fn submit(state: &mut State, sched: &mut Sched, team: usize, mode: SubmitMode) {
    let now = sched.now();
    let model = &state.roster.teams[team];
    let project = match mode {
        SubmitMode::Run => model.project_at(now, state.deadline, &mut state.rng),
        SubmitMode::Submit => model.final_project(),
    };
    let tracer = state.tracer.clone();
    let submitted = crate::submit(
        &state.system,
        &state.creds[team],
        &project,
        mode,
        &tracer,
        &mut state.ledger,
        &mut state.out,
    );
    let Some(pending) = submitted else { return };
    let job = pending.job_id;
    state.waiting.push_back(job);
    state.pending.insert(job, pending);
    if state.ledger.accepted.len().is_multiple_of(1000) {
        state.out.rss_samples_mb.push(status_mb("VmRSS"));
    }
    dispatch(state, sched);
}

fn deploy(seed: u64, clock: &VirtualClock, roster: &TeamRoster) -> (RaiSystem, Vec<Credentials>) {
    let mut system = RaiSystem::with_clock(
        SystemConfig {
            workers: WORKERS,
            jobs_per_worker: 1,
            rate_limit: None,
            seed,
            ..Default::default()
        },
        clock.clone(),
    );
    let creds = roster
        .teams
        .iter()
        .map(|t| system.register_team(&t.name, &[]))
        .collect();
    (system, creds)
}

/// Run the course once.
pub fn run(seed: u64, scale: Scale, tracer: &Arc<Tracer>) -> RunOutcome {
    let (teams, students, days) = shape(scale);
    let mut out = RunOutcome::default();
    let roster = TeamRoster::generate(teams, students, seed);
    let clock = VirtualClock::new();
    let (system, creds) = timed_setup(&mut out, || deploy(seed, &clock, &roster));

    let deadline = SimTime::ZERO + SimDuration::from_days(days);
    let mut arrivals = CircadianModel::paper_calibrated();
    arrivals.horizon_days = days as f64;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA11CE);
    let mut events: Vec<(SimTime, usize, SubmitMode)> = Vec::new();
    for (i, team) in roster.teams.iter().enumerate() {
        for t in arrivals.sample_team_events(
            team.activity,
            SimTime::ZERO,
            deadline,
            SimDuration::from_secs(30),
            &mut rng,
        ) {
            events.push((t, i, SubmitMode::Run));
        }
        events.push((
            deadline - SimDuration::from_hours(1 + (i as u64 % 20)),
            i,
            SubmitMode::Submit,
        ));
    }
    let team_names: Vec<String> = roster.teams.iter().map(|t| t.name.clone()).collect();

    let state = State {
        system,
        tracer: tracer.clone(),
        creds,
        roster,
        rng: StdRng::seed_from_u64(seed ^ 0xF00D),
        deadline,
        schedule: PhaseSchedule::paper_semester(),
        waiting: VecDeque::new(),
        in_flight: 0,
        pending: HashMap::new(),
        next_worker: 0,
        ledger: Ledger::default(),
        out,
    };
    let mut sim = Simulation::with_clock(state, clock);
    for (t, team, mode) in events {
        sim.scheduler()
            .at(t, move |state: &mut State, sched: &mut Sched| {
                submit(state, sched, team, mode)
            });
    }

    let watch = Stopwatch::start();
    sim.run();

    let mut state = sim.into_state();
    watch.stop(&mut state.out);
    audit(
        &state.system,
        &state.ledger,
        &[],
        Ranked::All(&team_names),
        &mut state.out,
    );
    collect_counts(&state.system, tracer, &mut state.out);
    state.out
}
