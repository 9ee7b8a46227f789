//! Outside-in benchmark of an in-process RAI deployment.
//!
//! Three workloads each load a different layer:
//!
//! * [`semester`] — the paper's 58-team, 35-day course with its arrival
//!   model and phase fleet; every scheduling round holds one job, so
//!   per-submission fixed costs dominate;
//! * [`deadline`] — megabyte-scale project trees arriving in deadline
//!   waves and drained by `drive_until` on a 16-worker fleet, so the
//!   archive, dedup-store and delta-upload byte path does the work;
//! * [`chaos`] — the chaos fault plan on a durable deployment with
//!   seeded whole-process kills, recovery and re-publish, so journaling,
//!   replay, redelivery and dead-lettering do the work.
//!
//! Every workload calls only public `rai-core` entry points and times each
//! call from outside through a [`trace::Tracer`]. A run returns a
//! [`RunOutcome`]; [`report`] turns outcomes into metrics.

pub mod chaos;
pub mod deadline;
pub mod payloads;
pub mod report;
pub mod semester;
pub mod trace;

use rai_auth::Credentials;
use rai_core::client::PendingJob;
use rai_core::{BuildSpec, JobOutcome, ProjectDir, RaiClient, RaiSystem, SubmitError, SubmitMode};
use rai_db::Value;
use rai_sim::SimTime;
use rai_telemetry::{component, stage};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The paper's course at KiB-scale projects.
    SemesterPaper,
    /// Paper-sized trees in deadline waves.
    DeadlinePayloads,
    /// Chaos faults on a durable deployment with process kills.
    ChaosDurable,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [
        Workload::SemesterPaper,
        Workload::DeadlinePayloads,
        Workload::ChaosDurable,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SemesterPaper => "semester-paper",
            Workload::DeadlinePayloads => "deadline-payloads",
            Workload::ChaosDurable => "chaos-durable",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run the workload once.
    pub fn run(
        self,
        seed: u64,
        scale: Scale,
        tracer: &std::sync::Arc<trace::Tracer>,
    ) -> RunOutcome {
        match self {
            Workload::SemesterPaper => semester::run(seed, scale, tracer),
            Workload::DeadlinePayloads => deadline::run(seed, scale, tracer),
            Workload::ChaosDurable => chaos::run(seed, scale, tracer),
        }
    }
}

/// How big a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's measured size.
    Full,
    /// A seconds-long version of the same workload, for tests.
    Tiny,
}

/// Deploys timed per run; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 21;

/// What one run of a workload produced.
#[derive(Debug, Default)]
pub struct RunOutcome {
    /// Submissions the students tried to make.
    pub attempted: u64,
    /// Submissions the client reported as failed (visible errors).
    pub refused: u64,
    /// Accepted submissions with exactly one terminal row.
    pub terminal: u64,
    /// Accepted submissions that left through the dead-letter topic.
    pub dead_lettered: u64,
    /// Accepted submissions that ended otherwise than the fault plan
    /// calls for: a job the plan poisons that reached a terminal row,
    /// or any other job that dead-lettered.
    pub unplanned: u64,
    /// Accepted submissions with neither a row nor a dead letter.
    pub lost: u64,
    /// Submissions with more than one terminal row.
    pub duplicated: u64,
    /// The first correctness check the run failed, if any.
    pub failure: Option<String>,
    /// FNV-1a digest of every deterministic output of the run.
    pub digest: u64,
    /// Wall seconds of each timed deploy + team registration.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the measured phase (set-up excluded).
    pub wall_s: f64,
    /// CPU seconds (user + system) of the measured phase.
    pub cpu_s: f64,
    /// Submit → terminal, in simulated seconds, per terminal submission.
    pub turnaround_s: Vec<f64>,
    /// Physical bytes resident in the store at the end.
    pub stored_bytes: u64,
    /// Logical bytes uploaded to the store.
    pub uploaded_bytes: u64,
    /// Bytes that crossed the wire on uploads.
    pub wire_bytes: u64,
    /// Per-layer counts from the layers' accessors, and workload facts.
    pub counts: BTreeMap<String, f64>,
    /// Process RSS (MiB) sampled every 1000 accepted submissions.
    pub rss_samples_mb: Vec<f64>,
}

impl RunOutcome {
    /// Submissions the student never got exactly one result for:
    /// refused, lost, duplicated or dead-lettered.
    pub fn undelivered(&self) -> u64 {
        self.refused + self.lost + self.duplicated + self.dead_lettered
    }

    /// Submissions the program got wrong: refused, lost, duplicated, or
    /// ended otherwise than the fault plan calls for. A poison job that
    /// dead-letters is the plan's intended outcome, not a failure.
    pub fn failed(&self) -> u64 {
        self.refused + self.lost + self.duplicated + self.unplanned
    }

    /// Terminal submissions (row or dead letter).
    pub fn finished(&self) -> u64 {
        self.terminal + self.dead_lettered
    }

    /// Add `v` to the count `name`.
    pub fn add_count(&mut self, name: &str, v: f64) {
        *self.counts.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Note a failed check unless an earlier one already failed.
    pub fn fail(&mut self, why: String) {
        self.failure.get_or_insert(why);
    }
}

/// CPU seconds (user + system) this process has used so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th fields overall, in clock ticks (USER_HZ = 100).
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / 100.0
}

/// A `/proc/self/status` memory field (e.g. `VmHWM`), in MiB.
pub fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times the measured phase of a run: wall and CPU from `start` on.
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            wall: Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Record wall and CPU seconds since `start` into `out`.
    pub fn stop(self, out: &mut RunOutcome) {
        out.wall_s = self.wall.elapsed().as_secs_f64();
        out.cpu_s = cpu_seconds() - self.cpu;
    }
}

/// Time `SETUP_SAMPLES - 1` throwaway deploys, then the kept one. A
/// throwaway is dropped after its sample, so every sample times the
/// same work.
pub fn timed_setup<T>(out: &mut RunOutcome, mut deploy: impl FnMut() -> T) -> T {
    for _ in 1..SETUP_SAMPLES {
        let t = Instant::now();
        let throwaway = std::hint::black_box(deploy());
        out.setup_s.push(t.elapsed().as_secs_f64());
        drop(throwaway);
    }
    let t = Instant::now();
    let kept = deploy();
    out.setup_s.push(t.elapsed().as_secs_f64());
    kept
}

/// Submissions the run saw accepted, with their submit instants.
#[derive(Default)]
pub struct Ledger {
    /// Accepted job ids, in acceptance order.
    pub accepted: Vec<u64>,
    /// Simulated submit instant per accepted job.
    pub submitted_at: HashMap<u64, SimTime>,
    /// Turnaround (simulated seconds) per completed job.
    pub turnaround: BTreeMap<u64, f64>,
}

impl Ledger {
    /// Note an accepted submission.
    pub fn accept(&mut self, job_id: u64, at: SimTime) {
        self.accepted.push(job_id);
        self.submitted_at.insert(job_id, at);
    }

    /// Note a job's terminal instant. The first terminal instant wins.
    pub fn finish(&mut self, job_id: u64, at: SimTime) {
        if let Some(sub) = self.submitted_at.get(&job_id) {
            self.turnaround
                .entry(job_id)
                .or_insert_with(|| at.duration_since(*sub).as_secs_f64());
        }
    }
}

/// Times a student runs `rai` again after it reports an upload or
/// queue error. The client has already retried the failed step by then,
/// so only a submission still refused after these reruns counts as
/// refused.
pub const STUDENT_RERUNS: usize = 3;

/// Package and submit `project` through a fresh client, as each `rai`
/// invocation does, timing every call. Traced runs first time the pure
/// layer functions the client runs inside `begin_submit` on the same
/// inputs; those shadow spans are reported beside the stage, never
/// counted in the wall it splits. A student whose submission is refused
/// with an upload or queue error runs `rai` again, up to
/// [`STUDENT_RERUNS`] times.
pub fn submit(
    system: &RaiSystem,
    creds: &Credentials,
    project: &ProjectDir,
    mode: SubmitMode,
    tracer: &Tracer,
    ledger: &mut Ledger,
    out: &mut RunOutcome,
) -> Option<PendingJob> {
    let now = system.clock().now();
    out.attempted += 1;
    if tracer.is_on() {
        let container = tracer.time("archive.write_container", 0, || {
            rai_archive::write_container(&project.tree)
        });
        out.add_count("fact.container_bytes", container.len() as f64);
        if let Ok(yml) = RaiClient::effective_build_yml(project, mode) {
            let _ = tracer.time("yaml.spec_parse", 0, || BuildSpec::parse(&yml));
        }
    }
    let mut reruns = 0;
    let submitted = loop {
        let client = tracer.time("core.system.client_for", 0, || system.client_for(creds));
        let start = Instant::now();
        let submitted = client.begin_submit(project, mode);
        let job = submitted.as_ref().map_or(0, |p| p.job_id);
        tracer.record("core.client.begin_submit", job, start, Instant::now());
        match submitted {
            Err(SubmitError::Upload(_) | SubmitError::Publish(_)) if reruns < STUDENT_RERUNS => {
                reruns += 1;
                out.add_count("fact.reruns", 1.0);
            }
            submitted => break submitted,
        }
    };
    let Ok(pending) = submitted else {
        out.refused += 1;
        return None;
    };
    let job = pending.job_id;
    // Attempt 0 of the job's causal trace is the client's submit.
    tracer.time("telemetry.trace_span", job, || {
        let t = system.telemetry();
        t.trace_span(job, 0, stage::SUBMITTED, component::CLIENT, now, now);
        t.trace_span(job, 0, stage::ENQUEUED, component::BROKER, now, now);
    });
    ledger.accept(job, now);
    Some(pending)
}

/// Drain the queue with `drive_until`, timed as one span, stopping after
/// `stop_after` outcomes when given. The predicate sees each outcome
/// before the round's clock advance, so a job finishes at the round's
/// start plus its own service time.
pub fn drive(
    system: &mut RaiSystem,
    tracer: &Tracer,
    ledger: &mut Ledger,
    out: &mut RunOutcome,
    stop_after: Option<u64>,
) -> Vec<JobOutcome> {
    let clock = system.clock().clone();
    let finished = RefCell::new(Vec::new());
    let outcomes = tracer.time("core.system.drive_until", 0, || {
        system.drive_until(|o| {
            let mut f = finished.borrow_mut();
            f.push((o.job_id, clock.now() + o.service_time));
            stop_after.is_some_and(|k| f.len() as u64 >= k)
        })
    });
    for (job, at) in finished.into_inner() {
        ledger.finish(job, at);
    }
    out.add_count("fact.drive_until_jobs", outcomes.len() as f64);
    outcomes
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *h ^= u64::from(*b);
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Teams the final leaderboard must hold.
pub enum Ranked<'a> {
    /// Every listed team.
    All(&'a [String]),
    /// Every team with a successful final-submission row.
    SuccessfulFinals,
}

/// The correctness gate shared by every workload: every accepted
/// submission is terminal exactly once or dead-lettered, nothing is lost
/// or duplicated, the teams that must be ranked are, and the run's
/// outputs fold into one digest. Runs that wait on client receipts check
/// them where they wait.
pub fn audit(
    system: &RaiSystem,
    ledger: &Ledger,
    dead_lettered: &[u64],
    ranked: Ranked<'_>,
    out: &mut RunOutcome,
) {
    let submissions = system.db().collection("submissions");
    let mut rows: BTreeMap<u64, Vec<rai_db::Document>> = BTreeMap::new();
    for row in submissions.read().find(&rai_db::doc! {}) {
        if let Some(id) = row.get("job_id").and_then(Value::as_i64) {
            rows.entry(id as u64).or_default().push(row);
        }
    }
    let dead: BTreeSet<u64> = dead_lettered.iter().copied().collect();
    let accepted: BTreeSet<u64> = ledger.accepted.iter().copied().collect();
    out.terminal = rows.keys().filter(|id| accepted.contains(id)).count() as u64;
    out.duplicated = rows.values().filter(|r| r.len() > 1).count() as u64;
    out.dead_lettered = dead.iter().filter(|id| !rows.contains_key(id)).count() as u64;
    // The fault plan poisons some jobs: they crash on every attempt and
    // can only leave through the dead-letter topic.
    let poisoned = |id: &u64| {
        system
            .fault_injector()
            .is_some_and(|f| f.plan().is_poison(*id))
    };
    let poison = accepted.iter().filter(|id| poisoned(id)).count();
    out.unplanned = accepted
        .iter()
        .filter(|id| {
            if poisoned(id) {
                rows.contains_key(id)
            } else {
                dead.contains(id) && !rows.contains_key(id)
            }
        })
        .count() as u64;
    out.counts.insert("fact.poison".to_string(), poison as f64);
    out.counts
        .insert("fact.dead_lettered".to_string(), out.dead_lettered as f64);
    out.lost = accepted
        .iter()
        .filter(|id| !rows.contains_key(id) && !dead.contains(id))
        .count() as u64;
    let strays = rows.keys().filter(|id| !accepted.contains(id)).count();
    // Under faults a job can land its row and then crash before the ack;
    // if it then dead-letters, or a kill leaves it unqueued (it already
    // has a row), the run never sees it end. Without faults every
    // row must come with an outcome.
    let unfinished = rows
        .keys()
        .filter(|id| accepted.contains(id) && !ledger.turnaround.contains_key(id))
        .count();

    let standings = system.rankings().standings();
    let ranked_teams: BTreeSet<&str> = standings.iter().map(|(t, _)| t.as_str()).collect();
    let must_rank: BTreeSet<String> = match ranked {
        Ranked::All(teams) => teams.iter().cloned().collect(),
        Ranked::SuccessfulFinals => rows
            .values()
            .flatten()
            .filter(|r| {
                r.get("kind").and_then(Value::as_str) == Some("submit")
                    && r.get("success").and_then(Value::as_bool) == Some(true)
            })
            .filter_map(|r| r.get("team").and_then(Value::as_str).map(str::to_string))
            .collect(),
    };
    let unranked: Vec<&String> = must_rank
        .iter()
        .filter(|t| !ranked_teams.contains(t.as_str()))
        .collect();

    let failure = if out.lost > 0 {
        Some(format!("{} accepted submissions lost", out.lost))
    } else if out.duplicated > 0 {
        Some(format!(
            "{} submissions have more than one terminal row",
            out.duplicated
        ))
    } else if strays > 0 {
        Some(format!(
            "{strays} terminal rows belong to no accepted submission"
        ))
    } else if unfinished > 0 && system.fault_injector().is_none() {
        Some(format!(
            "{unfinished} terminal rows never came back as an outcome"
        ))
    } else if !unranked.is_empty() {
        Some(format!("teams missing from the leaderboard: {unranked:?}"))
    } else if must_rank.is_empty() {
        Some("no team is ranked".to_string())
    } else {
        None
    };
    if let Some(why) = failure {
        out.fail(why);
    }
    out.turnaround_s = ledger.turnaround.values().copied().collect();

    let usage = system.store().usage();
    out.stored_bytes = usage.bytes_physical;
    out.uploaded_bytes = usage.bytes_uploaded;
    out.wire_bytes = usage.bytes_wire;

    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (id, rs) in &rows {
        fnv(&mut h, &id.to_le_bytes());
        for r in rs {
            for key in ["team", "user", "kind", "worker", "upload_key"] {
                fnv(
                    &mut h,
                    r.get(key).and_then(Value::as_str).unwrap_or("").as_bytes(),
                );
            }
            fnv(
                &mut h,
                &[u8::from(
                    r.get("success").and_then(Value::as_bool).unwrap_or(false),
                )],
            );
            for key in ["internal_secs", "wall_secs"] {
                let secs = r.get(key).and_then(Value::as_f64).unwrap_or(0.0);
                fnv(&mut h, &secs.to_bits().to_le_bytes());
            }
            let log_bytes = r.get("log_bytes").and_then(Value::as_i64).unwrap_or(0);
            fnv(&mut h, &log_bytes.to_le_bytes());
        }
    }
    for id in &dead {
        fnv(&mut h, &id.to_le_bytes());
    }
    for (team, secs) in &standings {
        fnv(&mut h, team.as_bytes());
        fnv(&mut h, &secs.to_bits().to_le_bytes());
    }
    for (id, t) in &ledger.turnaround {
        fnv(&mut h, &id.to_le_bytes());
        fnv(&mut h, &t.to_bits().to_le_bytes());
    }
    for n in [
        out.attempted,
        out.refused,
        usage.bytes_stored,
        usage.bytes_physical,
        usage.bytes_uploaded,
        usage.bytes_wire,
        usage.bytes_downloaded,
        usage.chunks,
        usage.puts,
        usage.delta_puts,
    ] {
        fnv(&mut h, &n.to_le_bytes());
    }
    out.digest = h;
}

/// Add the layers' own counters for `system` (one process life) to
/// `out.counts`. Traced runs also walk the retained job traces, timed as
/// the benchmark's own `bench.retained_spans` span so that the walk can
/// be taken out of the wall the stages split.
pub fn collect_counts(system: &RaiSystem, tracer: &Tracer, out: &mut RunOutcome) {
    // Store usage is journaled and replayed, so a recovered process
    // starts from the totals of the one before it: keep the latest.
    let u = system.store().usage();
    for (name, v) in [
        ("store.bytes_uploaded", u.bytes_uploaded),
        ("store.bytes_wire", u.bytes_wire),
        ("store.bytes_downloaded", u.bytes_downloaded),
        ("store.puts", u.puts),
        ("store.delta_puts", u.delta_puts),
        ("store.chunks", u.chunks),
        ("store.chunks_dedup", u.chunks_dedup_total),
    ] {
        out.counts.insert(name.to_string(), v as f64);
    }
    // Everything else counts one process life's work: sum the lives.
    for (name, v) in [
        ("store.lock_wait_us", system.store().lock_wait_micros()),
        (
            "store.arena_read_acq",
            system.store().arena_read_acquisitions(),
        ),
        (
            "store.arena_write_acq",
            system.store().arena_write_acquisitions(),
        ),
        ("broker.lock_wait_us", system.broker().lock_wait_micros()),
    ] {
        out.add_count(name, v as f64);
    }
    let b = system.broker().stats();
    for (name, v) in [
        ("broker.published", b.published),
        ("broker.acked", b.acked),
        ("broker.requeued", b.requeued),
        ("broker.dead_lettered", b.dead_lettered),
    ] {
        out.add_count(name, v as f64);
    }
    let db = system.db();
    let t = db.total_stats();
    out.add_count("db.inserts", t.inserts as f64);
    out.add_count("db.queries", t.queries as f64);
    out.add_count("db.updates", t.updates as f64);
    let docs: usize = db
        .stats()
        .iter()
        .map(|(name, _)| db.collection(name).read().len())
        .sum();
    out.counts.insert("db.docs".to_string(), docs as f64);
    let wals = db
        .wal()
        .into_iter()
        .chain(system.store().wal())
        .chain(system.store().chunk_wals());
    for w in wals {
        let s = w.stats();
        for (name, v) in [
            ("wal.appends", s.appends),
            ("wal.bytes", s.bytes),
            ("wal.fsync_batches", s.fsync_batches),
            ("wal.compactions", s.compactions),
            ("wal.replayed", s.replayed),
        ] {
            out.add_count(name, v as f64);
        }
    }
    let e = system.executor().stats();
    for (name, v) in [
        ("exec.batches", e.batches),
        ("exec.batch_jobs", e.batch_jobs),
        ("exec.spawned", e.spawned),
        ("exec.stolen", e.stolen),
        ("exec.parked", e.parked),
    ] {
        out.add_count(name, v as f64);
    }
    if let Some(inj) = system.fault_injector() {
        // The injector outlives kills (it models the environment), so
        // its totals are cumulative: keep the latest, never sum.
        let n: u64 = inj.injected_counts().iter().map(|(_, n)| n).sum();
        out.counts.insert("faults.injected".to_string(), n as f64);
    }
    if tracer.is_on() {
        let spans: usize = tracer.time("bench.retained_spans", 0, || {
            system
                .telemetry()
                .job_traces()
                .iter()
                .map(|t| t.spans.len())
                .sum()
        });
        out.add_count("telemetry.spans_retained", spans as f64);
    }
}
