//! The restart-resume chaos audit: kill the whole process mid-semester,
//! recover from the write-ahead logs, resume, and prove nothing was
//! lost.
//!
//! This is the durability counterpart of [`crate::chaos`]. The same
//! round-structured course runs on a *durable* deployment
//! ([`rai_core::RaiSystem::with_clock_durable`]) whose database and
//! object store journal every committed mutation to a pair of
//! simulated disks. At a seeded kill point the process "dies": every
//! piece of in-memory state — broker queues, worker claims, credential
//! registry, telemetry — is dropped on the floor, optionally with
//! seeded disk faults chewing on the unsynced log tails. The harness
//! then recovers a fresh deployment from the two logs, re-registers
//! the course's teams, re-publishes the accepted-but-unfinished
//! submissions found in the intent ledger, resumes the remaining
//! rounds, and audits the combined run with the exact audit
//! (and fingerprint) the chaos scenario uses:
//!
//! * **zero lost** — every accepted submission reaches a terminal row
//!   or the dead-letter topic, across the kill;
//! * **zero duplicated** — recovery's re-publish never double-counts a
//!   job that already completed;
//! * with a clean kill and a fault-free plan, the recovered run's
//!   fingerprint is **byte-identical** to an uninterrupted same-seed
//!   run, at any payload-pipeline width.

use crate::chaos::{audit_terminal_state, AuditOutcome, ChaosConfig};
use rai_broker::dead_letter_topic;
use rai_cluster::{InstanceId, InstanceType, WorkerPool};
use rai_core::protocol::{routes, JobRequest};
use rai_core::worker::StepEvent;
use rai_core::{ProjectDir, RaiSystem, RecoveryReport, SubmitMode, SystemConfig, Worker};
use rai_faults::{CrashKind, DiskFault, DiskFaultProfile, FaultKind};
use rai_sim::{SimDuration, SimTime, VirtualClock};
use rai_telemetry::MetricsSnapshot;
use rai_wal::{DurabilityConfig, MemDisk, WalStats};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Where in the run the process dies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillPoint {
    /// The submission round the kill lands in (0-based). A round ≥ the
    /// configured round count never fires.
    pub round: usize,
    /// When within the round: `None` kills right after the round's
    /// submissions are accepted (jobs queued, none processed);
    /// `Some(n)` kills after `n` job commits of the round's
    /// processing — between two serial commit points, whatever the
    /// pool width; `Some(u64::MAX)` kills at the round boundary, after
    /// the queue fully drains.
    pub after_steps: Option<u64>,
}

impl KillPoint {
    /// Kill after round `round`'s submissions, before any processing.
    pub fn before_drive(round: usize) -> Self {
        KillPoint { round, after_steps: None }
    }

    /// Kill mid-drive, `steps` worker step events into round `round`.
    pub fn mid_drive(round: usize, steps: u64) -> Self {
        KillPoint { round, after_steps: Some(steps) }
    }

    /// Kill at the boundary after round `round` fully drains.
    pub fn at_boundary(round: usize) -> Self {
        KillPoint { round, after_steps: Some(u64::MAX) }
    }
}

/// Restart-resume run parameters.
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// The underlying course + fault plan (shared with [`crate::chaos`]
    /// so recovered runs can be compared against uninterrupted ones).
    pub chaos: ChaosConfig,
    /// The seeded kill point; `None` runs uninterrupted (on the same
    /// durable deployment — the cross-validation baseline).
    pub kill: Option<KillPoint>,
    /// Disk-fault profile applied to the logs' unsynced tails at the
    /// kill ("dirty" crash); `None` crashes clean.
    pub disk_faults: Option<DiskFaultProfile>,
    /// Durability knobs for the two write-ahead logs.
    pub durability: DurabilityConfig,
}

impl RecoveryConfig {
    /// A clean kill of a fault-free quick course — the byte-identity
    /// profile.
    pub fn clean(seed: u64, kill: KillPoint) -> Self {
        let mut chaos = ChaosConfig::quick(seed);
        chaos.plan = rai_faults::FaultPlan::none(seed);
        RecoveryConfig {
            chaos,
            kill: Some(kill),
            disk_faults: None,
            durability: DurabilityConfig::durable(),
        }
    }

    /// A dirty crash of the full quick chaos course: process kill plus
    /// seeded disk faults on the unsynced log tails.
    pub fn dirty(seed: u64, kill: KillPoint) -> Self {
        RecoveryConfig {
            chaos: ChaosConfig::quick(seed),
            kill: Some(kill),
            disk_faults: Some(DiskFaultProfile::chaos(seed)),
            durability: DurabilityConfig::durable(),
        }
    }
}

/// Audited outputs of a restart-resume run.
#[derive(Debug)]
pub struct RecoveryResult {
    /// Job ids accepted across both lives of the process.
    pub accepted: Vec<u64>,
    /// Visible submit failures (not losses).
    pub rejected: u64,
    /// Job ids with a terminal submissions row after the full run.
    pub terminal: Vec<u64>,
    /// Job ids that left via the dead-letter topic (post-recovery tap;
    /// pre-kill dead letters die with the broker and re-earn their
    /// place by re-executing).
    pub dead_lettered: Vec<u64>,
    /// Job ids with more than one row (must be empty).
    pub duplicated: Vec<u64>,
    /// Accepted ids never reaching a terminal state (must be empty).
    pub lost: Vec<u64>,
    /// Final leaderboard.
    pub standings: Vec<(String, f64)>,
    /// The chaos-scenario fingerprint of the terminal state.
    pub fingerprint: u64,
    /// Whether the kill actually fired.
    pub killed: bool,
    /// Jobs the recovered process re-published from the intent ledger.
    pub republished: u64,
    /// What replay reported, when a recovery happened.
    pub recovery: Option<RecoveryReport>,
    /// Disk faults injected at the kill.
    pub disk_faults: Vec<DiskFault>,
    /// Final db-log statistics (appends, replays, corruption drops…).
    pub db_wal: WalStats,
    /// Final store-log statistics.
    pub store_wal: WalStats,
    /// Fleet instances that died mid-run (both lives).
    pub instances_failed: usize,
    /// Telemetry snapshot of the final process.
    pub metrics: MetricsSnapshot,
}

impl RecoveryResult {
    /// The crash-consistency guarantee as one checkable statement:
    /// nothing lost, nothing double-counted, everything accounted.
    pub fn verify(&self) -> Result<(), String> {
        if !self.lost.is_empty() {
            return Err(format!("lost submissions across restart: {:?}", self.lost));
        }
        if !self.duplicated.is_empty() {
            return Err(format!(
                "double-counted submissions after re-publish: {:?}",
                self.duplicated
            ));
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

/// The chaos driver, extended with a step budget so a kill can land
/// between any two worker step events.
struct Driver {
    system: RaiSystem,
    clock: VirtualClock,
    pool: WorkerPool,
    instance_ids: Vec<InstanceId>,
    alive: Vec<bool>,
    deaths: VecDeque<SimTime>,
    steps: u64,
}

impl Driver {
    fn deploy(
        config: &ChaosConfig,
        clock: VirtualClock,
        system: RaiSystem,
        deaths: VecDeque<SimTime>,
    ) -> Self {
        let pool = WorkerPool::new(clock.clone());
        let instance_ids = pool.launch(InstanceType::p2(), config.workers);
        clock.advance(InstanceType::p2().provision_latency);
        Driver {
            alive: vec![true; config.workers],
            deaths,
            system,
            clock,
            pool,
            instance_ids,
            steps: 0,
        }
    }

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

    /// Drive every live worker until none makes progress, or until the
    /// cumulative *commit* count reaches `kill_at_step` (returns
    /// `true`: the process dies here, mid-queue, claims and all).
    ///
    /// Rounds follow the chaos driver's shape — serial claims in
    /// worker order, pooled execution, serial commits in claim order —
    /// so the kill always lands between two commits regardless of pool
    /// width. Execution is pure (commits are the only store/db/broker
    /// mutation points), so a mid-round kill simply drops the round's
    /// executed-but-uncommitted jobs on the floor: their claims were
    /// never acked and their effects were never applied, exactly as if
    /// the process had died holding them.
    fn drive(&mut self, kill_at_step: Option<u64>) -> bool {
        let kill_due = |steps: u64| kill_at_step.is_some_and(|k| steps >= k);
        if kill_due(self.steps) {
            return true;
        }
        loop {
            self.apply_due_deaths();
            let mut claims = Vec::new();
            for i in 0..self.alive.len() {
                if !self.alive[i] {
                    continue;
                }
                if let Some(claimed) = self.system.workers_mut()[i].claim() {
                    claims.push((i, claimed));
                }
            }
            if claims.is_empty() {
                return false;
            }
            let executor = self.system.executor().clone();
            let mut advance = SimDuration::ZERO;
            let mut stalled = false;
            let mut crashed = Vec::new();
            let mut killed = false;
            executor.run_jobs(
                claims,
                |(wi, claimed)| (wi, Worker::execute(claimed)),
                |(wi, executed)| {
                    if killed {
                        // The process is dead: un-acked, un-committed
                        // work evaporates with it.
                        return;
                    }
                    match self.system.workers_mut()[wi].commit(executed) {
                        StepEvent::Idle => unreachable!("commit always seals its claim"),
                        StepEvent::Done(outcome) => advance += outcome.service_time,
                        StepEvent::Crashed(report) => {
                            advance += report.wasted;
                            stalled |= report.kind == CrashKind::Stall;
                            crashed.push(wi);
                        }
                    }
                    self.steps += 1;
                    killed = kill_due(self.steps);
                },
            );
            self.clock.advance(advance);
            if killed {
                return true;
            }
            if stalled {
                self.clock.advance(MESSAGE_TIMEOUT);
                self.system.broker().reclaim_expired(MESSAGE_TIMEOUT);
            }
            for wi in crashed {
                self.system.workers_mut()[wi].crash_recover();
            }
        }
    }

    /// Submit one round for every team — the exact chaos-round shape,
    /// so same-seed runs produce the same projects and job ids.
    fn submit_round(
        &mut self,
        config: &ChaosConfig,
        creds: &[rai_auth::Credentials],
        round: usize,
        accepted: &mut Vec<u64>,
        rejected: &mut u64,
        pendings: &mut Vec<rai_core::PendingJob>,
    ) {
        self.clock.advance(config.arrival_gap);
        self.apply_due_deaths();
        for (i, cred) in creds.iter().enumerate() {
            let ms = 400.0 + ((config.seed ^ (round as u64) << 8 ^ i as u64) % 900) as f64;
            let project = ProjectDir::cuda_project_with_perf(ms, 0.92, 1024).with_final_artifacts();
            let mode = if round == config.rounds - 1 { SubmitMode::Submit } else { SubmitMode::Run };
            let client = self.system.client_for(cred);
            match client.begin_submit(&project, mode) {
                Ok(pending) => {
                    accepted.push(pending.job_id);
                    let now = self.clock.now();
                    let t = self.system.telemetry();
                    t.trace_span(
                        pending.job_id,
                        0,
                        rai_telemetry::stage::SUBMITTED,
                        rai_telemetry::component::CLIENT,
                        now,
                        now,
                    );
                    t.trace_span(
                        pending.job_id,
                        0,
                        rai_telemetry::stage::ENQUEUED,
                        rai_telemetry::component::BROKER,
                        now,
                        now,
                    );
                    pendings.push(pending);
                }
                Err(_) => *rejected += 1,
            }
        }
    }
}

/// Run the restart-resume scenario and audit it.
pub fn run_recovery(config: &RecoveryConfig) -> RecoveryResult {
    let chaos = &config.chaos;
    let sys_config = SystemConfig {
        workers: chaos.workers,
        jobs_per_worker: 1,
        rate_limit: None,
        seed: chaos.seed,
        broker_attempts: chaos.broker_attempts,
        fault_plan: Some(chaos.plan.clone()),
        parallelism: chaos.parallelism,
        durability: config.durability,
        ..Default::default()
    };
    let db_disk = MemDisk::new();
    let store_disk = MemDisk::new();
    let clock = VirtualClock::new();
    let system = RaiSystem::with_clock_durable(
        sys_config.clone(),
        clock.clone(),
        Arc::new(db_disk.clone()),
        Arc::new(store_disk.clone()),
    );
    let dead_sub = system
        .broker()
        .subscribe(&dead_letter_topic(routes::TASK_TOPIC, routes::TASK_CHANNEL), "audit");
    let start_deaths = |start: SimTime| -> VecDeque<SimTime> {
        chaos.plan.instance_deaths.iter().map(|d| start + *d).collect()
    };
    let mut driver = Driver::deploy(chaos, clock.clone(), system, VecDeque::new());
    let start = clock.now();
    driver.deaths = start_deaths(start);

    let team_names: Vec<String> = (0..chaos.teams).map(|i| format!("chaos-team-{i:02}")).collect();
    let creds: Vec<_> = team_names
        .iter()
        .map(|name| driver.system.register_team(name, &[]))
        .collect();

    let mut accepted = Vec::new();
    let mut rejected = 0u64;
    let mut pendings = Vec::new();
    let mut killed_after_round = None;
    for round in 0..chaos.rounds {
        driver.submit_round(chaos, &creds, round, &mut accepted, &mut rejected, &mut pendings);
        let kill_here = config.kill.filter(|k| k.round == round);
        if let Some(k) = kill_here {
            if k.after_steps.is_none() {
                killed_after_round = Some(round);
                break;
            }
            let budget = k
                .after_steps
                .map(|n| driver.steps.saturating_add(n))
                .filter(|_| k.after_steps != Some(u64::MAX));
            driver.drive(budget);
            // Mid-drive budgets that outlast the round's work, and
            // explicit boundary kills, both land here: the queue is
            // drained and the process dies between rounds.
            killed_after_round = Some(round);
            break;
        }
        driver.drive(None);
        // Round boundaries are quiesced points: compact the logs if
        // they have outgrown their last snapshot (a later kill then
        // recovers from snapshot + tail instead of the full history).
        driver.system.maybe_compact();
    }

    let (mut driver, dead_sub, killed, republished, recovery, disk_faults) =
        if let Some(kill_round) = killed_after_round {
            // ---- The process dies. ----
            let kill_time = driver.clock.now();
            let remaining_deaths: VecDeque<SimTime> =
                driver.deaths.iter().copied().filter(|t| *t > kill_time).collect();
            let injector = driver.system.fault_injector().cloned();
            let pre_kill_failed = driver.pool.stats().failed;
            drop(pendings);
            drop(dead_sub);
            drop(driver);
            // The crash chews on the unsynced log tails (or doesn't,
            // for a clean kill). Distinct crash indices keep the two
            // logs' fault draws independent.
            let mut faults = Vec::new();
            match &config.disk_faults {
                Some(profile) => {
                    faults.extend(db_disk.crash_with(profile, 0));
                    faults.extend(store_disk.crash_with(profile, 1));
                }
                None => {
                    db_disk.crash_clean();
                    store_disk.crash_clean();
                }
            }

            // ---- Recovery: a fresh process, the same environment. ----
            // The clock and the fault injector's draw state are the
            // *world*, not process memory — the world does not rewind
            // when a service restarts.
            let clock2 = VirtualClock::starting_at(kill_time);
            let (mut system, report) = RaiSystem::recover_with_clock(
                sys_config.clone(),
                clock2.clone(),
                Arc::new(db_disk.clone()),
                Arc::new(store_disk.clone()),
                injector,
            );
            // Re-register teams in their original order: the key
            // generator is deterministic in (seed, order), so the
            // journaled job signatures verify against the re-issued
            // credentials.
            for name in &team_names {
                system.reregister_team(name);
            }
            let dead_sub = system
                .broker()
                .subscribe(&dead_letter_topic(routes::TASK_TOPIC, routes::TASK_CHANNEL), "audit");
            let republished = system.republish_pending();
            let mut driver = Driver::deploy(chaos, clock2, system, remaining_deaths);
            // Pre-seed the failure ledger with the first life's losses.
            for _ in 0..pre_kill_failed {
                let extra = driver.pool.launch(InstanceType::p2(), 1);
                driver.pool.fail(extra[0]);
            }
            // Finish the killed round: re-published jobs and any the
            // kill left queued run to completion here.
            driver.drive(None);
            // Resume the remaining rounds.
            pendings = Vec::new();
            for round in kill_round + 1..chaos.rounds {
                driver.submit_round(chaos, &creds, round, &mut accepted, &mut rejected, &mut pendings);
                driver.drive(None);
                driver.system.maybe_compact();
            }
            (driver, dead_sub, true, republished, Some(report), faults)
        } else {
            (driver, dead_sub, false, 0, None, Vec::new())
        };

    // Final drain + audit, exactly as the chaos scenario does it.
    driver.drive(None);
    driver.system.sync_wals();
    drop(pendings);

    let mut dead_lettered = Vec::new();
    let mut dead_seen = BTreeSet::new();
    while let Some(msg) = dead_sub.try_recv() {
        if let Some(req) = JobRequest::decode(&msg.body_str()) {
            // At-least-once re-publish can (rarely) dead-letter the
            // same job in both lives of a claim; the audit counts the
            // first appearance.
            if dead_seen.insert(req.job_id) {
                dead_lettered.push(req.job_id);
            }
        }
        dead_sub.ack(msg.id);
    }
    let AuditOutcome {
        terminal,
        duplicated,
        lost,
        standings,
        fingerprint,
    } = audit_terminal_state(&driver.system, &accepted, &dead_lettered);

    let db_wal = driver.system.db().wal().expect("durable deployment").stats();
    let store_wal = driver.system.store().wal().expect("durable deployment").stats();
    let metrics = driver.system.telemetry().snapshot();
    RecoveryResult {
        accepted,
        rejected,
        terminal,
        dead_lettered,
        duplicated,
        lost,
        standings,
        fingerprint,
        killed,
        republished,
        recovery,
        disk_faults,
        db_wal,
        store_wal,
        instances_failed: driver.pool.stats().failed,
        metrics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::run_chaos;

    #[test]
    fn uninterrupted_durable_run_matches_chaos_fingerprint() {
        // Journaling must be an observer: the same seed on a durable
        // deployment produces the exact bytes the in-memory chaos run
        // does.
        let chaos = run_chaos(&ChaosConfig::quick(42));
        let durable = run_recovery(&RecoveryConfig {
            chaos: ChaosConfig::quick(42),
            kill: None,
            disk_faults: None,
            durability: DurabilityConfig::durable(),
        });
        assert!(!durable.killed);
        durable.verify().expect("invariant holds");
        assert_eq!(durable.fingerprint, chaos.fingerprint);
        assert_eq!(durable.accepted, chaos.accepted);
        assert!(durable.db_wal.appends > 0, "db mutations journaled");
        assert!(durable.store_wal.appends > 0, "store mutations journaled");
        // The per-log telemetry collectors see the same numbers.
        for (label, stats) in [("db", &durable.db_wal), ("store", &durable.store_wal)] {
            assert_eq!(
                durable
                    .metrics
                    .counter(rai_telemetry::names::WAL_APPENDS_TOTAL, &[("log", label)]),
                Some(stats.appends)
            );
            assert_eq!(
                durable
                    .metrics
                    .counter(rai_telemetry::names::WAL_FSYNC_BATCHES_TOTAL, &[("log", label)]),
                Some(stats.fsync_batches)
            );
        }
    }

    #[test]
    fn clean_kill_resume_is_byte_identical_fault_free() {
        for kill in [
            KillPoint::before_drive(3),
            KillPoint::mid_drive(5, 2),
            KillPoint::at_boundary(7),
        ] {
            let baseline = run_recovery(&RecoveryConfig { kill: None, ..RecoveryConfig::clean(9, kill) });
            let resumed = run_recovery(&RecoveryConfig::clean(9, kill));
            assert!(resumed.killed, "kill {kill:?} fired");
            resumed.verify().expect("invariant holds");
            assert!(resumed.recovery.is_some());
            assert_eq!(
                resumed.fingerprint, baseline.fingerprint,
                "kill {kill:?}: recovered run differs from uninterrupted run"
            );
            assert_eq!(resumed.accepted, baseline.accepted);
            assert_eq!(resumed.duplicated, Vec::<u64>::new());
        }
    }

    #[test]
    fn clean_kill_resume_is_byte_identical_at_width_4() {
        let kill = KillPoint::mid_drive(4, 3);
        let mut base_cfg = RecoveryConfig::clean(11, kill);
        base_cfg.chaos = base_cfg.chaos.with_parallelism(4);
        let baseline = run_recovery(&RecoveryConfig { kill: None, ..base_cfg.clone() });
        let resumed = run_recovery(&base_cfg);
        assert!(resumed.killed);
        resumed.verify().unwrap();
        assert_eq!(resumed.fingerprint, baseline.fingerprint);
        // And the pool width changes nothing vs the sequential run.
        let sequential = run_recovery(&RecoveryConfig::clean(11, kill));
        assert_eq!(resumed.fingerprint, sequential.fingerprint);
    }

    #[test]
    fn mid_drive_kill_under_chaos_plan_loses_nothing() {
        let cfg = RecoveryConfig {
            chaos: ChaosConfig::quick(21),
            kill: Some(KillPoint::mid_drive(6, 3)),
            disk_faults: None,
            durability: DurabilityConfig::durable(),
        };
        let result = run_recovery(&cfg);
        assert!(result.killed);
        result.verify().expect("no-lost across restart under chaos plan");
        assert!(result.recovery.is_some());
        let report = result.recovery.unwrap();
        assert!(report.db.stats.replayed > 0);
        assert!(report.store.stats.replayed > 0);
        assert_eq!(report.db.malformed_dropped, 0, "clean crash corrupts nothing");
        assert_eq!(result.db_wal.corrupt_dropped, 0);
    }

    #[test]
    fn kill_after_compaction_recovers_from_snapshot_plus_tail() {
        // Aggressive compaction thresholds force snapshots mid-course;
        // a later kill must recover from snapshot + tail to the same
        // bytes as the uninterrupted run.
        let durability = DurabilityConfig {
            segment_bytes: 16 << 10,
            compact_min_bytes: 4 << 10,
            compact_factor: 2,
            ..DurabilityConfig::durable()
        };
        let mut cfg = RecoveryConfig::clean(17, KillPoint::mid_drive(9, 1));
        cfg.durability = durability;
        let baseline = run_recovery(&RecoveryConfig { kill: None, ..cfg.clone() });
        assert!(
            baseline.db_wal.compactions > 0 && baseline.store_wal.compactions > 0,
            "thresholds low enough that both logs compacted (db {}, store {})",
            baseline.db_wal.compactions,
            baseline.store_wal.compactions
        );
        let resumed = run_recovery(&cfg);
        assert!(resumed.killed);
        resumed.verify().unwrap();
        assert_eq!(resumed.fingerprint, baseline.fingerprint);
        // Compaction actually bounded the resident log: far fewer
        // bytes on disk than were ever appended.
        assert!(baseline.db_wal.log_bytes < baseline.db_wal.bytes);
    }

    #[test]
    fn dirty_crash_detects_corruption_and_still_loses_nothing() {
        // Disk faults on the unsynced tails: replay must detect and
        // drop the damage (never panic, never silently accept), and
        // the at-least-once path must still account for every
        // accepted submission.
        let mut checked_any_faults = false;
        for seed in [5u64, 6, 7] {
            let result = run_recovery(&RecoveryConfig::dirty(seed, KillPoint::mid_drive(5, 2)));
            assert!(result.killed);
            result.verify().expect("zero lost, zero duplicated after dirty crash");
            if !result.disk_faults.is_empty() {
                checked_any_faults = true;
                // Torn/corrupt damage shows up in the replay ledger,
                // not as lost submissions.
                let stats = [&result.db_wal, &result.store_wal];
                assert!(
                    stats.iter().any(|s| s.corrupt_dropped > 0 || s.torn_bytes > 0),
                    "seed {seed}: faults {:?} left no trace in replay stats",
                    result.disk_faults
                );
            }
        }
        assert!(checked_any_faults, "no seed injected any disk fault");
    }
}
