//! `chaos-durable`: the chaos fault plan (worker crashes and stalls,
//! store, db and broker faults, poison jobs) on a durable deployment
//! whose database and store journal to in-memory disks.
//!
//! Teams submit in rounds, each drained by `RaiSystem::drive_until`.
//! At seeded points the whole process dies mid-drain: every in-memory
//! structure is dropped, the disks keep what was synced, and a fresh
//! process comes back through `recover_with_clock`, re-registers the
//! teams and re-publishes the accepted submissions that never reached a
//! terminal row. The fault injector and the clock model the outside
//! world, so both carry over a kill.

use crate::trace::Tracer;
use crate::{
    audit, collect_counts, drive, submit, timed_setup, Ledger, Ranked, RunOutcome, Scale, Stopwatch,
};
use rai_auth::Credentials;
use rai_broker::{dead_letter_topic, Subscription};
use rai_core::client::PendingJob;
use rai_core::protocol::{routes, JobRequest};
use rai_core::{JobOutcome, ProjectDir, RaiSystem, SubmitMode, SystemConfig};
use rai_faults::FaultPlan;
use rai_sim::{SimDuration, VirtualClock};
use rai_wal::{DurabilityConfig, MemDisk};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Duration;

/// Workload shape per scale: (teams, rounds, kills).
fn shape(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (12, 1000, 5),
        Scale::Tiny => (6, 10, 1),
    }
}

/// Worker fleet.
const WORKERS: usize = 4;
/// Simulated time between submission rounds.
const ROUND_GAP: SimDuration = SimDuration::from_mins(3);

fn config(seed: u64) -> SystemConfig {
    // The chaos plan minus instance deaths: those model the cluster
    // pool, which this deployment does not run.
    let plan = FaultPlan {
        instance_deaths: Vec::new(),
        ..FaultPlan::chaos(seed)
    };
    SystemConfig {
        workers: WORKERS,
        jobs_per_worker: 1,
        rate_limit: None,
        seed,
        broker_attempts: 8,
        fault_plan: Some(plan),
        durability: DurabilityConfig::durable(),
        ..Default::default()
    }
}

fn dead_letter_tap(system: &RaiSystem) -> Subscription {
    system.broker().subscribe(
        &dead_letter_topic(routes::TASK_TOPIC, routes::TASK_CHANNEL),
        "audit",
    )
}

/// Note the outcome of each job that reached one; the first one wins,
/// as in the ledger.
fn note_outcomes(outcomes: &[JobOutcome], success: &mut HashMap<u64, bool>) {
    for o in outcomes {
        success.entry(o.job_id).or_insert(o.success);
    }
}

/// Read the client receipts of the jobs that reached an outcome and
/// check that each agrees with it; keep the others pending. A finished
/// job's frames are all published before its drain returns, so the read
/// does not wait. Log frames are best-effort and faultable (an injected
/// broker publish fault drops one), so a receipt whose `End` frame was
/// dropped is counted, not failed.
fn check_receipts(
    pendings: &mut Vec<PendingJob>,
    success: &HashMap<u64, bool>,
    tracer: &Tracer,
    out: &mut RunOutcome,
) {
    for pending in std::mem::take(pendings) {
        let job = pending.job_id;
        let Some(&ok) = success.get(&job) else {
            pendings.push(pending);
            continue;
        };
        let receipt = tracer.time("core.client.wait", job, || pending.wait(Duration::ZERO));
        match receipt {
            Ok(r) if r.success != ok => out.fail(format!(
                "job {job}: client receipt disagrees with its outcome"
            )),
            Ok(_) => out.add_count("fact.receipts_checked", 1.0),
            Err(_) => out.add_count("fact.receipts_lost", 1.0),
        }
    }
}

/// Run the rounds once.
pub fn run(seed: u64, scale: Scale, tracer: &Arc<Tracer>) -> RunOutcome {
    let (teams, rounds, kills) = shape(scale);
    let mut out = RunOutcome::default();
    let names: Vec<String> = (0..teams).map(|i| format!("chaos-team-{i:02}")).collect();
    let cfg = config(seed);
    let clock = VirtualClock::new();
    let (mut system, creds, db_disk, store_disk) = timed_setup(&mut out, || {
        let (db_disk, store_disk) = (MemDisk::new(), MemDisk::new());
        let mut system = RaiSystem::with_clock_durable(
            cfg.clone(),
            clock.clone(),
            Arc::new(db_disk.clone()),
            Arc::new(store_disk.clone()),
        );
        let creds: Vec<Credentials> = names.iter().map(|n| system.register_team(n, &[])).collect();
        (system, creds, db_disk, store_disk)
    });
    let mut dead = dead_letter_tap(&system);

    // Seeded kills: one in each of `kills` equal stretches of the run,
    // at a seeded round within the middle half of its stretch and after
    // a seeded number of outcomes into that round's drain.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A05);
    let stretch = rounds / (kills + 1);
    let kill_rounds: BTreeSet<usize> = (1..=kills)
        .map(|i| i * stretch + rng.gen_range(0..stretch / 2) - stretch / 4)
        .collect();

    let mut ledger = Ledger::default();
    // Log subscriptions stay open until the job's outcome is checked
    // against its receipt, the process dies or the run ends, so late
    // frames from redelivered attempts land somewhere.
    let mut pendings = Vec::new();
    let mut success = HashMap::new();
    let (mut republished, mut replayed_records) = (0u64, 0u64);
    let watch = Stopwatch::start();
    for round in 0..rounds {
        system.clock().advance(ROUND_GAP);
        let mode = if round + 1 == rounds {
            SubmitMode::Submit
        } else {
            SubmitMode::Run
        };
        for (i, cred) in creds.iter().enumerate() {
            let ms = 400.0 + ((seed ^ (round as u64) << 8 ^ i as u64) % 900) as f64;
            let project = ProjectDir::cuda_project_with_perf(ms, 0.92, 1024).with_final_artifacts();
            pendings.extend(submit(
                &system,
                cred,
                &project,
                mode,
                tracer,
                &mut ledger,
                &mut out,
            ));
        }
        // Kill while the queue still holds at least one more round.
        let kill_after = kill_rounds
            .contains(&round)
            .then(|| rng.gen_range(1..=(teams - WORKERS) as u64));
        let outcomes = drive(&mut system, tracer, &mut ledger, &mut out, kill_after);
        note_outcomes(&outcomes, &mut success);
        check_receipts(&mut pendings, &success, tracer, &mut out);
        if kill_after.is_some() {
            // ---- The process dies mid-drain. ----
            collect_counts(&system, tracer, &mut out);
            let injector = system.fault_injector().cloned();
            let kill_time = system.clock().now();
            pendings.clear();
            drop(dead);
            drop(system);
            db_disk.crash_clean();
            store_disk.crash_clean();
            // ---- A fresh process on the same disks and world. ----
            let report;
            (system, report) = tracer.time("core.system.recover_with_clock", 0, || {
                RaiSystem::recover_with_clock(
                    cfg.clone(),
                    VirtualClock::starting_at(kill_time),
                    Arc::new(db_disk.clone()),
                    Arc::new(store_disk.clone()),
                    injector,
                )
            });
            replayed_records += report.db.applied + report.store.applied;
            for name in &names {
                tracer.time("core.system.reregister_team", 0, || {
                    system.reregister_team(name)
                });
            }
            dead = dead_letter_tap(&system);
            republished += tracer.time("core.system.republish_pending", 0, || {
                system.republish_pending()
            });
            // Finish the killed round's queue before the next arrivals.
            let outcomes = drive(&mut system, tracer, &mut ledger, &mut out, None);
            note_outcomes(&outcomes, &mut success);
        }
        // Round boundaries are quiesced points: compact oversized logs.
        tracer.time("core.system.maybe_compact", 0, || system.maybe_compact());
    }
    tracer.time("core.system.sync_wals", 0, || system.sync_wals());
    watch.stop(&mut out);
    drop(pendings);

    // Every life re-publishes what never reached a row, so the last
    // life's tap holds every dead letter the run left.
    let mut dead_lettered = Vec::new();
    while let Some(msg) = dead.try_recv() {
        if let Some(req) = JobRequest::decode(&msg.body_str()) {
            dead_lettered.push(req.job_id);
        }
        dead.ack(msg.id);
    }
    audit(
        &system,
        &ledger,
        &dead_lettered,
        Ranked::SuccessfulFinals,
        &mut out,
    );
    collect_counts(&system, tracer, &mut out);
    for (k, v) in [
        ("fact.kills", kills as u64),
        ("fact.republished", republished),
        ("fact.replayed_records", replayed_records),
    ] {
        out.counts.insert(k.to_string(), v as f64);
    }
    out
}
