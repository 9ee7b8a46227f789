//! The chaos semester: a fault-injected workload proving the
//! no-lost-submissions guarantee.
//!
//! A scaled course runs with a deterministic [`FaultPlan`] active —
//! store/db/broker faults, worker crashes and stalls at named pipeline
//! points, poison jobs that can never complete, and instance deaths
//! mid-run — and the driver then audits the invariant the paper's
//! architecture is meant to provide: **every accepted submission
//! reaches a terminal state exactly once** — either one terminal row in
//! the submissions collection or one appearance on the dead-letter
//! topic — with nothing lost, nothing double-counted, and the whole run
//! byte-identical across same-seed executions.

use rai_broker::dead_letter_topic;
use rai_cluster::{InstanceId, InstanceType, WorkerPool};
use rai_core::protocol::{routes, JobRequest};
use rai_core::worker::StepEvent;
use rai_core::{ProjectDir, RaiSystem, SubmitMode, SystemConfig, Worker};
use rai_faults::{CrashKind, FaultKind, FaultPlan};
use rai_sim::{SimDuration, SimTime, VirtualClock};
use rai_telemetry::{component, stage, JobTrace, MetricsSnapshot};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Chaos-run parameters.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Teams submitting.
    pub teams: usize,
    /// Submission rounds; each round every team submits once.
    pub rounds: usize,
    /// Sim-time gap between rounds (the arrival spacing — what lets
    /// the run reach the plan's instance-death times).
    pub arrival_gap: SimDuration,
    /// Worker fleet size (must exceed the plan's instance deaths).
    pub workers: usize,
    /// Per-message delivery cap before dead-lettering.
    pub broker_attempts: u32,
    /// Seed for teams, projects, and the fault plan.
    pub seed: u64,
    /// The fault plan to execute.
    pub plan: FaultPlan,
}

impl ChaosConfig {
    /// The acceptance profile: ≥5% worker crash rate, ≥2% store/db
    /// fault rate, poison jobs, and an instance death at six hours —
    /// with enough rounds to get there.
    pub fn acceptance(seed: u64) -> Self {
        ChaosConfig {
            teams: 6,
            rounds: 160,
            arrival_gap: SimDuration::from_mins(3),
            workers: 4,
            broker_attempts: 8,
            seed,
            plan: FaultPlan::chaos(seed),
        }
    }

    /// A fast profile for unit tests: smaller scale, earlier death.
    pub fn quick(seed: u64) -> Self {
        let mut plan = FaultPlan::chaos(seed);
        plan.instance_deaths = vec![SimDuration::from_mins(8)];
        plan.poison_every = Some(13);
        ChaosConfig {
            teams: 4,
            rounds: 12,
            arrival_gap: SimDuration::from_mins(1),
            workers: 3,
            broker_attempts: 6,
            seed,
            plan,
        }
    }
}

/// Audited outputs of a chaos run.
#[derive(Debug)]
pub struct ChaosResult {
    /// Job ids the system accepted (client `begin_submit` returned Ok).
    pub accepted: Vec<u64>,
    /// Job ids the client was *told* failed to submit (visible errors,
    /// not losses).
    pub rejected: u64,
    /// Job ids with a terminal row in the submissions collection.
    pub terminal: Vec<u64>,
    /// Job ids that left the queue through the dead-letter topic.
    pub dead_lettered: Vec<u64>,
    /// Job ids with more than one submissions row (must be empty).
    pub duplicated: Vec<u64>,
    /// Accepted ids with neither a terminal row nor a dead-letter
    /// appearance (must be empty).
    pub lost: Vec<u64>,
    /// Worker instances that died mid-run.
    pub instances_failed: usize,
    /// Injected-fault counts by kind label.
    pub injected: Vec<(String, u64)>,
    /// Final leaderboard.
    pub standings: Vec<(String, f64)>,
    /// FNV-1a digest of the terminal database state + dead-letter
    /// order: byte-identical across same-seed runs.
    pub fingerprint: u64,
    /// Telemetry snapshot at run end.
    pub metrics: MetricsSnapshot,
    /// Per-job causal span trees. Crash-redelivered jobs carry one
    /// subtree per delivery attempt (non-final attempts are the wasted
    /// work the critical-path extractor charges to `retry-wait`).
    pub traces: Vec<JobTrace>,
    /// File-server usage at run end (dedup ratios must hold under
    /// faults too — crash-redelivered uploads land on the same chunks).
    pub store: rai_store::StoreUsage,
}

impl ChaosResult {
    /// The no-lost-submissions guarantee, as one checkable statement.
    pub fn verify(&self) -> Result<(), String> {
        if !self.lost.is_empty() {
            return Err(format!("lost submissions: {:?}", self.lost));
        }
        if !self.duplicated.is_empty() {
            return Err(format!("double-counted submissions: {:?}", self.duplicated));
        }
        let accounted = self.terminal.len() + self.dead_lettered.len();
        if accounted < self.accepted.len() {
            return Err(format!(
                "{} accepted but only {} accounted for",
                self.accepted.len(),
                accounted
            ));
        }
        Ok(())
    }
}

/// In-flight timeout used when a stalled worker holds a claim.
const MESSAGE_TIMEOUT: SimDuration = SimDuration::from_mins(10);

struct Driver {
    system: RaiSystem,
    clock: VirtualClock,
    pool: WorkerPool,
    instance_ids: Vec<InstanceId>,
    alive: Vec<bool>,
    deaths: VecDeque<SimTime>,
}

impl Driver {
    /// Kill fleet instances whose scheduled death time has passed: the
    /// pool stops billing them, their worker releases its claims (the
    /// un-acked job redelivers elsewhere) and stops taking work.
    fn apply_due_deaths(&mut self) {
        while let Some(&at) = self.deaths.front() {
            if self.clock.now() < at {
                break;
            }
            self.deaths.pop_front();
            let Some(victim) = self.alive.iter().position(|a| *a) else { continue };
            self.alive[victim] = false;
            self.pool.fail(self.instance_ids[victim]);
            self.system.workers_mut()[victim].crash_recover();
            if let Some(inj) = self.system.fault_injector() {
                inj.note_injected(FaultKind::InstanceDeath);
            }
        }
    }

    /// Drive every live worker until none makes progress, one
    /// scheduling round at a time: deaths land at the round boundary,
    /// each live worker claims at most one job (serially, in worker
    /// order — fault draws included), the round executes, and commits
    /// apply in claim order, so fault draws, crashes and the final
    /// fingerprint follow the round shape. Crashes restart the worker
    /// at the end of the round; stalls wait out the in-flight timeout
    /// so the broker reclaims the held message.
    fn drive(&mut self) {
        loop {
            self.apply_due_deaths();
            // Pop serially in worker order, then run the claim tails in
            // that same order, so fault draws stay in pop order.
            let mut popped = Vec::new();
            for i in 0..self.alive.len() {
                if !self.alive[i] {
                    continue;
                }
                if let Some(task) = self.system.workers_mut()[i].pop_task() {
                    popped.push((i, task));
                }
            }
            if popped.is_empty() {
                return;
            }
            let claims = self.system.claim_tasks(popped);
            let executor = self.system.executor().clone();
            let mut advance = SimDuration::ZERO;
            let mut stalled = false;
            let mut crashed = Vec::new();
            executor.run_jobs(
                claims,
                |(wi, claimed)| (wi, Worker::execute(claimed)),
                |(wi, executed)| match self.system.workers_mut()[wi].commit(executed) {
                    StepEvent::Idle => unreachable!("commit always seals its claim"),
                    StepEvent::Done(outcome) => advance += outcome.service_time,
                    StepEvent::Crashed(report) => {
                        advance += report.wasted;
                        stalled |= report.kind == CrashKind::Stall;
                        crashed.push(wi);
                    }
                },
            );
            self.clock.advance(advance);
            if stalled {
                self.clock.advance(MESSAGE_TIMEOUT);
                self.system.broker().reclaim_expired(MESSAGE_TIMEOUT);
            }
            for wi in crashed {
                self.system.workers_mut()[wi].crash_recover();
            }
        }
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// The terminal-state audit shared by the chaos and restart-resume
/// scenarios (`crate::recovery`): row/dead-letter accounting plus the
/// run fingerprint. One implementation, so "recovered run equals
/// uninterrupted run" compares the exact same bytes.
pub(crate) struct AuditOutcome {
    pub terminal: Vec<u64>,
    pub duplicated: Vec<u64>,
    pub lost: Vec<u64>,
    pub standings: Vec<(String, f64)>,
    pub fingerprint: u64,
}

pub(crate) fn audit_terminal_state(
    system: &RaiSystem,
    accepted: &[u64],
    dead_lettered: &[u64],
) -> AuditOutcome {
    let mut rows_per_id: BTreeMap<u64, u64> = BTreeMap::new();
    let submissions = system.db().collection("submissions");
    let all_rows = submissions.read().find(&rai_db::doc! {});
    for row in &all_rows {
        if let Some(id) = row.get("job_id").and_then(rai_db::Value::as_i64) {
            *rows_per_id.entry(id as u64).or_insert(0) += 1;
        }
    }
    let dead_set: BTreeSet<u64> = dead_lettered.iter().copied().collect();
    let terminal: Vec<u64> = rows_per_id.keys().copied().collect();
    let duplicated: Vec<u64> = rows_per_id
        .iter()
        .filter(|(_, n)| **n > 1)
        .map(|(id, _)| *id)
        .collect();
    let lost: Vec<u64> = accepted
        .iter()
        .copied()
        .filter(|id| !rows_per_id.contains_key(id) && !dead_set.contains(id))
        .collect();
    let standings = system.rankings().standings();

    // Fingerprint: terminal rows (sorted by job id) + dead-letter order
    // + standings. Presigned URLs are deliberately excluded (their
    // secret is process-global, not seed-derived).
    let mut fp: u64 = 0xcbf2_9ce4_8422_2325;
    for id in rows_per_id.keys() {
        let row = submissions
            .read()
            .find_one(&rai_db::doc! { "job_id" => *id })
            .expect("counted above");
        fnv1a(&mut fp, &id.to_le_bytes());
        fnv1a(&mut fp, row.get("team").and_then(rai_db::Value::as_str).unwrap_or("").as_bytes());
        fnv1a(&mut fp, row.get("kind").and_then(rai_db::Value::as_str).unwrap_or("").as_bytes());
        fnv1a(&mut fp, &[u8::from(row.get("success").and_then(rai_db::Value::as_bool).unwrap_or(false))]);
        let secs = row.get("internal_secs").and_then(rai_db::Value::as_f64).unwrap_or(0.0);
        fnv1a(&mut fp, &secs.to_bits().to_le_bytes());
    }
    for id in dead_lettered {
        fnv1a(&mut fp, &id.to_le_bytes());
    }
    for (team, secs) in &standings {
        fnv1a(&mut fp, team.as_bytes());
        fnv1a(&mut fp, &secs.to_bits().to_le_bytes());
    }
    AuditOutcome {
        terminal,
        duplicated,
        lost,
        standings,
        fingerprint: fp,
    }
}

/// Run the chaos scenario and audit it.
pub fn run_chaos(config: &ChaosConfig) -> ChaosResult {
    let clock = VirtualClock::new();
    let system = RaiSystem::with_clock(
        SystemConfig {
            workers: config.workers,
            jobs_per_worker: 1,
            rate_limit: None,
            seed: config.seed,
            broker_attempts: config.broker_attempts,
            fault_plan: Some(config.plan.clone()),
            ..Default::default()
        },
        clock.clone(),
    );
    // Audit tap on the dead-letter topic, created before any traffic.
    let dead_sub = system.broker().subscribe(
        &dead_letter_topic(routes::TASK_TOPIC, routes::TASK_CHANNEL),
        "audit",
    );
    // A billing pool mirroring the worker fleet, so instance deaths
    // show up in cost and failure accounting.
    let pool = WorkerPool::new(clock.clone());
    let instance_ids = pool.launch(InstanceType::p2(), config.workers);
    clock.advance(InstanceType::p2().provision_latency);

    let start = clock.now();
    let mut driver = Driver {
        alive: vec![true; config.workers],
        deaths: config
            .plan
            .instance_deaths
            .iter()
            .map(|d| start + *d)
            .collect(),
        system,
        clock: clock.clone(),
        pool,
        instance_ids,
    };

    let creds: Vec<_> = (0..config.teams)
        .map(|i| driver.system.register_team(&format!("chaos-team-{i:02}"), &[]))
        .collect();

    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    let mut pendings = Vec::new();
    for round in 0..config.rounds {
        driver.clock.advance(config.arrival_gap);
        driver.apply_due_deaths();
        for (i, cred) in creds.iter().enumerate() {
            // Vary the project per (team, round) so runtimes differ
            // deterministically.
            let ms = 400.0 + ((config.seed ^ (round as u64) << 8 ^ i as u64) % 900) as f64;
            let project = ProjectDir::cuda_project_with_perf(ms, 0.92, 1024).with_final_artifacts();
            let mode = if round == config.rounds - 1 { SubmitMode::Submit } else { SubmitMode::Run };
            let client = driver.system.client_for(cred);
            match client.begin_submit(&project, mode) {
                Ok(pending) => {
                    accepted.push(pending.job_id);
                    let now = driver.clock.now();
                    let t = driver.system.telemetry();
                    t.trace_span(pending.job_id, 0, stage::SUBMITTED, component::CLIENT, now, now);
                    t.trace_span(pending.job_id, 0, stage::ENQUEUED, component::BROKER, now, now);
                    // Keep the log subscription alive until the end so
                    // late frames from redelivered attempts land
                    // somewhere; dropped in bulk after the run.
                    pendings.push(pending);
                }
                // A submit error after the client's bounded retries is
                // a *visible* failure, not a lost submission.
                Err(_) => rejected += 1,
            }
        }
        driver.drive();
    }
    // Final drain: anything still queued (e.g. claims released by the
    // last instance death) runs to completion.
    driver.drive();
    drop(pendings);

    // Audit. Dead letters, in arrival order.
    let mut dead_lettered = Vec::new();
    while let Some(msg) = dead_sub.try_recv() {
        if let Some(req) = JobRequest::decode(&msg.body_str()) {
            dead_lettered.push(req.job_id);
        }
        dead_sub.ack(msg.id);
    }
    let AuditOutcome {
        terminal,
        duplicated,
        lost,
        standings,
        fingerprint: fp,
    } = audit_terminal_state(&driver.system, &accepted, &dead_lettered);

    let injected = driver
        .system
        .fault_injector()
        .map(|inj| {
            inj.injected_counts()
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect()
        })
        .unwrap_or_default();
    let metrics = driver.system.telemetry().snapshot();
    let traces = driver.system.telemetry().job_traces();
    let store = driver.system.store().usage();
    ChaosResult {
        accepted,
        rejected,
        terminal,
        dead_lettered,
        duplicated,
        lost,
        instances_failed: driver.pool.stats().failed,
        injected,
        standings,
        fingerprint: fp,
        metrics,
        traces,
        store,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_telemetry::names;

    #[test]
    fn quick_chaos_loses_nothing_and_dead_letters_poison() {
        let result = run_chaos(&ChaosConfig::quick(42));
        result.verify().expect("no-lost-submissions invariant");
        assert!(!result.accepted.is_empty());
        // Poison jobs (id % 13 == 0) can only leave via dead-letter.
        for id in &result.dead_lettered {
            assert_eq!(id % 13, 0, "only poison jobs should dead-letter, got {id}");
        }
        assert!(
            !result.dead_lettered.is_empty(),
            "accepted {} jobs but no poison id dead-lettered",
            result.accepted.len()
        );
        assert_eq!(result.instances_failed, 1, "the scheduled death happened");
        assert!(
            result.metrics.counter_total(names::FAULTS_INJECTED_TOTAL) > 0,
            "faults were injected"
        );
        assert_eq!(
            result.metrics.counter_total(names::DEAD_LETTERED_TOTAL),
            result.dead_lettered.len() as u64
        );
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        let a = run_chaos(&ChaosConfig::quick(7));
        let b = run_chaos(&ChaosConfig::quick(7));
        assert_eq!(a.fingerprint, b.fingerprint, "same seed, same bytes");
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.dead_lettered, b.dead_lettered);
        let c = run_chaos(&ChaosConfig::quick(8));
        assert_ne!(a.fingerprint, c.fingerprint, "different seed, different run");
    }

    #[test]
    fn fault_free_plan_matches_no_injector_row_counts() {
        let mut cfg = ChaosConfig::quick(3);
        cfg.plan = FaultPlan::none(3);
        let result = run_chaos(&cfg);
        result.verify().unwrap();
        assert!(result.dead_lettered.is_empty());
        assert_eq!(result.rejected, 0);
        assert_eq!(result.terminal.len(), result.accepted.len());
        assert_eq!(result.metrics.counter_total(names::WORKER_CRASHES_TOTAL), 0);
    }
}
