//! The RAI worker (paper §V "Worker Operations").
//!
//! A worker ① subscribes to the `rai` task channel, ② parses and
//! authenticates incoming job messages, ③ starts a sandboxed container
//! from the whitelisted base image (pulling it on first use), ④
//! downloads the client's project archive and mounts it at `/src` with
//! `/build` as the working directory, ⑤ executes the build commands,
//! forwarding stdout/stderr to the job's log topic, and ⑥ uploads the
//! `/build` directory to the file server, publishes its URL, destroys
//! the container and sends `End`.
//!
//! "The worker can be configured to have multiple jobs in flight" —
//! the `max_in_flight` knob; contention noise from co-scheduled jobs is
//! what made the staff switch to single-job workers for the benchmark
//! weeks (reproduced by the concurrency ablation).
//!
//! ## Failure model
//!
//! Processing is at-least-once: a job message is acked only after its
//! terminal database record lands. Transient store/db faults are
//! absorbed by a bounded [`RetryPolicy`] whose backoff accrues into the
//! job's simulated service time. An injected crash or stall
//! ([`FaultInjector::crash_decision`]) aborts processing *without*
//! acking, so the broker redelivers; side effects are idempotent (the
//! `/build` upload overwrites the same key, the submission row is an
//! upsert keyed on `job_id`), so redelivered work records exactly once.

use crate::client::BUILD_BUCKET;
use crate::delta::{DeltaUploader, PreparedUpload};
use crate::protocol::{routes, JobKind, JobRequest, LogFrame};
use crate::spec::BuildSpec;
use rai_archive::{restore, write_container, FileTree};
use rai_auth::{CredentialRegistry, CredentialSnapshot};
use rai_broker::{Broker, MessageId, Subscription};
use rai_db::{doc, Database, DbError, Value};
use rai_faults::{CrashKind, CrashPoint, FaultInjector, RetryPolicy};
use rai_sandbox::{Container, ContainerStatus, Image, ImageRegistry, ResourceLimits};
use rai_sim::{SimDuration, SimTime};
use rai_telemetry::{component, names, stage, Telemetry};
use parking_lot::RwLock;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::Cell;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Worker configuration ("these limits can be changed using the RAI
/// worker configuration file").
#[derive(Clone, Debug)]
pub struct WorkerConfig {
    /// Identifier recorded with each submission (e.g. `p2-worker-07`).
    pub worker_id: String,
    /// Concurrent jobs accepted (1 during benchmarking weeks).
    pub max_in_flight: usize,
    /// Relative GPU throughput of this host (K80 = 1.0, K40 ≈ 0.6).
    pub gpu_speed: f64,
    /// Container resource limits.
    pub limits: ResourceLimits,
    /// Seed for this worker's contention-noise RNG.
    pub noise_seed: u64,
    /// Retry policy wrapping worker↔store and worker↔db operations.
    pub retry: RetryPolicy,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            worker_id: "worker-0".to_string(),
            max_in_flight: 1,
            gpu_speed: 1.0,
            limits: ResourceLimits::default(),
            noise_seed: 0,
            retry: RetryPolicy::default(),
        }
    }
}

/// What processing one job produced (consumed by the discrete-event
/// driver to advance virtual time).
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job id.
    pub job_id: u64,
    /// Team that submitted.
    pub team: String,
    /// Run or final submission.
    pub kind: JobKind,
    /// Whether the build+run succeeded.
    pub success: bool,
    /// Total simulated time the job occupied the worker (pull +
    /// transfers + container execution + retry backoff).
    pub service_time: SimDuration,
    /// The measured program runtime (internal timer), if a program ran.
    pub measured_secs: Option<f64>,
}

/// An injected mid-job failure: the worker died (or froze) while
/// holding an unacked message.
#[derive(Clone, Debug)]
pub struct CrashReport {
    /// Job being processed when the fault hit.
    pub job_id: u64,
    /// Team that submitted it.
    pub team: String,
    /// Pipeline point where the fault landed.
    pub point: CrashPoint,
    /// Death vs freeze (a freeze holds its claim until the broker's
    /// message timeout reclaims it).
    pub kind: CrashKind,
    /// Simulated time burnt before the fault hit (the driver still
    /// advances the clock by this much).
    pub wasted: SimDuration,
}

/// What one scheduling step of the worker produced.
#[derive(Clone, Debug)]
pub enum StepEvent {
    /// Queue empty or at the in-flight limit.
    Idle,
    /// A job ran to a terminal state and its message was acked.
    Done(JobOutcome),
    /// The worker crashed or stalled mid-job; the message was *not*
    /// acked. After a crash, call [`Worker::crash_recover`]; after a
    /// stall, the claim times out via `Broker::reclaim_expired`.
    Crashed(CrashReport),
}

/// Clamp a broker delivery-attempt number into the span tree's `u32`
/// attempt tag (attempt 0 is reserved for the client submit subtree).
fn attempt_no(attempt: u64) -> u32 {
    u32::try_from(attempt.max(1)).unwrap_or(u32::MAX)
}

/// A task message popped from the broker but not yet claimed: the
/// output of the order-defining half of the claim phase.
///
/// The pop half — `try_recv_batch`, message decode, malformed-ack,
/// in-flight accounting — is what fixes the round's job composition
/// and claim order. Drivers that schedule their own pops (the
/// semester's FIFO dispatch) pop first and then hand the tasks to
/// [`Worker::claim_popped`] for auth, spec parse, image pull and
/// project fetch.
pub struct PoppedTask {
    msg_id: MessageId,
    request: JobRequest,
    attempt: u64,
    co_scheduled: usize,
}

impl PoppedTask {
    /// Id of the popped job.
    pub fn job_id(&self) -> u64 {
        self.request.job_id
    }
}

/// A job claimed from the broker with its claim-phase work done.
///
/// The claim phase (DESIGN.md §15) runs everything that touches shared
/// services or per-worker state — message pop, parse, auth, build-spec
/// parse, image whitelist + pull accounting, and the project fetch from
/// the store — so it must run serially on the event loop. What remains
/// is pure: a `ClaimedJob` owns every input the build+run needs
/// (project tree, image, limits, dilation, pre-drawn crash decisions),
/// which is why [`Worker::execute`] can take it by value onto a pool
/// task without touching the worker at all.
pub struct ClaimedJob {
    /// Broker message backing this claim (`None` when driven directly
    /// via [`Worker::run_job`], which manages queueing itself).
    msg_id: Option<MessageId>,
    request: JobRequest,
    attempt: u64,
    /// Claim-time clock: every stage span of this attempt is stamped
    /// `started + accumulated service time`.
    started: SimTime,
    /// Service time accrued during the claim phase (pull + fetch
    /// backoff + transfer).
    service_time: SimDuration,
    /// Log-frame bytes published during the claim phase.
    log_bytes: u64,
    plan: ClaimPlan,
}

impl ClaimedJob {
    /// Id of the claimed job.
    pub fn job_id(&self) -> u64 {
        self.request.job_id
    }
}

/// How the claim phase resolved.
// One plan exists per in-flight claim (bounded by the fleet size), so
// the `Run` variant's size costs nothing worth an indirection.
#[allow(clippy::large_enum_variant)]
enum ClaimPlan {
    /// Rejected before a container could start (auth, spec, image, or
    /// fetch failure); commit records the terminal row and acks.
    Reject {
        user: String,
        outcome: &'static str,
    },
    /// An injected crash/stall landed during the claim phase.
    Crashed { kind: CrashKind, point: CrashPoint },
    /// Everything the sandbox run needs, self-contained.
    Run {
        user: String,
        spec: BuildSpec,
        image: Image,
        project: FileTree,
        limits: ResourceLimits,
        gpu_speed: f64,
        dilation: f64,
        /// Crash decisions are pure functions of (seed, job, attempt,
        /// point), so they are drawn at claim time; the execute phase
        /// then needs no access to the injector.
        crash_build: Option<CrashKind>,
        crash_upload: Option<CrashKind>,
    },
}

/// A lifecycle span observed on a pool task, replayed through
/// telemetry at commit so trace insertion stays in claim order.
struct StagedSpan {
    stage: &'static str,
    component: &'static str,
    from: SimDuration,
    to: SimDuration,
}

/// Sandbox facts recorded once the commit phase reaches telemetry.
struct RunFacts {
    elapsed: SimDuration,
    limit_killed: bool,
}

/// A claim after its execute phase: the container ran (or the claim
/// carried a rejection/crash through untouched) and every side effect
/// is buffered, waiting for [`Worker::commit`] to apply it in claim
/// order.
pub struct ExecutedJob {
    msg_id: Option<MessageId>,
    request: JobRequest,
    attempt: u64,
    started: SimTime,
    service_time: SimDuration,
    log_bytes: u64,
    /// Stdout/stderr frames from the container, unpublished: log
    /// publishing is faultable, so frames must hit the broker in
    /// deterministic claim order.
    frames: Vec<LogFrame>,
    /// BUILT/RAN spans observed on the pool task.
    spans: Vec<StagedSpan>,
    run_facts: Option<RunFacts>,
    outcome: ExecOutcome,
}

impl ExecutedJob {
    /// Id of the executed job.
    pub fn job_id(&self) -> u64 {
        self.request.job_id
    }
}

/// How the execute phase resolved.
enum ExecOutcome {
    Reject {
        user: String,
        outcome: &'static str,
    },
    Crashed { kind: CrashKind, point: CrashPoint },
    Built {
        user: String,
        prepared: PreparedUpload,
        container_len: u64,
        build_key: String,
        success: bool,
        measured: Option<f64>,
        elapsed: SimDuration,
    },
}

/// The worker agent.
pub struct Worker {
    config: WorkerConfig,
    broker: Broker,
    store: rai_store::ObjectStore,
    db: Database,
    registry: Arc<RwLock<CredentialRegistry>>,
    images: Arc<ImageRegistry>,
    subscription: Subscription,
    cached_images: HashSet<String>,
    active_jobs: usize,
    rng: StdRng,
    telemetry: Option<Telemetry>,
    injector: Option<FaultInjector>,
    /// Delta uploader for `/build` outputs; its digest cache persists
    /// across jobs, so near-identical build trees (the overwhelmingly
    /// common case for resubmissions) upload almost nothing.
    delta: DeltaUploader,
    /// Read-only credential snapshot for claim-phase auth. Steady
    /// state, authentication costs one atomic generation load and zero
    /// registry locks; the snapshot rebuilds (one registry read lock)
    /// only after a register/revoke bumps the generation.
    auth_snapshot: Option<CredentialSnapshot>,
    /// The registry's mutation counter, shared without a lock.
    auth_generation: Arc<AtomicU64>,
}

impl Worker {
    /// Create a worker and subscribe it to `rai/tasks`.
    pub fn new(
        config: WorkerConfig,
        broker: Broker,
        store: rai_store::ObjectStore,
        db: Database,
        registry: Arc<RwLock<CredentialRegistry>>,
        images: Arc<ImageRegistry>,
    ) -> Self {
        let subscription = broker.subscribe(routes::TASK_TOPIC, routes::TASK_CHANNEL);
        let rng = StdRng::seed_from_u64(config.noise_seed);
        let auth_generation = registry.read().generation_handle();
        Worker {
            config,
            broker,
            store,
            db,
            registry,
            images,
            subscription,
            cached_images: HashSet::new(),
            active_jobs: 0,
            rng,
            telemetry: None,
            injector: None,
            delta: DeltaUploader::new(),
            auth_snapshot: None,
            auth_generation,
        }
    }

    /// Attach a telemetry handle; stage timings, job traces, and the
    /// active-jobs gauge are recorded through it from then on.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = Some(telemetry);
    }

    /// Attach a fault injector; crash/stall decisions consult it per
    /// job attempt from then on.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Route this worker's `/build` chunking + digesting onto `exec`.
    /// Call before traffic flows: the replacement uploader starts with
    /// an empty digest cache (as at worker boot), and uploads are
    /// byte-identical at any parallelism (DESIGN.md §12).
    pub fn set_executor(&mut self, exec: rai_exec::Executor) {
        self.delta = DeltaUploader::with_executor(exec);
    }

    /// This worker's id.
    pub fn id(&self) -> &str {
        &self.config.worker_id
    }

    /// Jobs currently being executed (used by the in-flight constraint).
    pub fn active_jobs(&self) -> usize {
        self.active_jobs
    }

    /// Contention-noise multiplier for the current load: a single job
    /// measures cleanly; co-scheduled jobs add up to ~12% noise each
    /// (PCIe/host contention on a shared K80 host).
    fn contention_dilation(&mut self, co_scheduled: usize) -> f64 {
        if co_scheduled == 0 {
            1.0
        } else {
            let per_job: f64 = self.rng.gen_range(0.02..0.12);
            1.0 + per_job * co_scheduled as f64
        }
    }

    /// Pop and fully process one task message. Returns `None` when the
    /// queue is empty, this worker is at its in-flight limit, or the
    /// job crashed mid-flight (in which case the worker restarts
    /// immediately and the message redelivers). Fault-aware drivers
    /// should use [`Worker::try_step`] instead.
    pub fn step(&mut self) -> Option<JobOutcome> {
        match self.try_step() {
            StepEvent::Idle => None,
            StepEvent::Done(outcome) => Some(outcome),
            StepEvent::Crashed(_) => {
                self.crash_recover();
                None
            }
        }
    }

    /// Pop one task message and run it, reporting crashes instead of
    /// hiding them. A crashed job's message is left unacked: a `Crash`
    /// releases it when [`Worker::crash_recover`] drops the old
    /// subscription; a `Stall` holds it until the broker's message
    /// timeout (`reclaim_expired`) fires.
    ///
    /// Equivalent to claim → execute → commit back to back; batch
    /// drivers call the three phases separately so independent jobs'
    /// execute phases overlap on a pool (DESIGN.md §15).
    pub fn try_step(&mut self) -> StepEvent {
        match self.claim() {
            None => StepEvent::Idle,
            Some(claimed) => {
                let executed = Worker::execute(claimed);
                self.commit(executed)
            }
        }
    }

    /// Claim one task message from the broker and run its claim phase.
    /// Returns `None` when the queue is empty or this worker is at its
    /// in-flight limit. The claim counts against `active_jobs` until
    /// [`Worker::commit`] (or [`Worker::crash_recover`]) releases it.
    pub fn claim(&mut self) -> Option<ClaimedJob> {
        self.pop_task().map(|p| self.claim_popped(p))
    }

    /// The serial half of [`Worker::claim`]: pop one task message and
    /// run its order-defining bookkeeping (decode, malformed-ack,
    /// redelivery counting, in-flight accounting) without touching
    /// auth, images, or the store. Returns `None` when the queue is
    /// empty or this worker is at its in-flight limit.
    pub fn pop_task(&mut self) -> Option<PoppedTask> {
        loop {
            if self.active_jobs >= self.config.max_in_flight {
                return None;
            }
            let msg = self.subscription.try_recv_batch(1).pop()?;
            let Some(request) = JobRequest::decode(&msg.body_str()) else {
                if let Some(t) = &self.telemetry {
                    t.counter(names::JOBS_MALFORMED_TOTAL, &[]).inc();
                }
                rai_telemetry::log!(
                    warn,
                    "worker {}: dropping malformed task message {} ({} bytes)",
                    self.config.worker_id,
                    msg.id,
                    msg.body.len()
                );
                // Batch-ack so a settled topic leaves the broker's
                // dirty list in the same call (one-pass cleanup).
                self.subscription.ack_batch(&[msg.id]);
                continue;
            };
            let attempt = u64::from(msg.attempts.max(1));
            if attempt > 1 {
                if let Some(t) = &self.telemetry {
                    t.counter(names::REDELIVERIES_TOTAL, &[]).inc();
                }
            }
            self.active_jobs += 1;
            self.set_active_gauge();
            let co_scheduled = self.active_jobs.saturating_sub(1);
            return Some(PoppedTask {
                msg_id: msg.id,
                request,
                attempt,
                co_scheduled,
            });
        }
    }

    /// The claim tail for an already-popped task: auth, build-spec
    /// parse, image resolve/pull, and the project fetch.
    pub fn claim_popped(&mut self, popped: PoppedTask) -> ClaimedJob {
        let PoppedTask { msg_id, request, attempt, co_scheduled } = popped;
        self.claim_request(&request, attempt, co_scheduled, Some(msg_id))
    }

    /// Claim up to `max` task messages in one broker round trip
    /// (`Subscription::try_recv_batch`), bounded by the remaining
    /// in-flight budget, and run each claim phase in queue order.
    ///
    /// Malformed messages are dropped (batch-acked) — they can never
    /// become valid — and do not count against `max`. Claims beyond the
    /// first are flagged co-scheduled, reproducing the contention noise
    /// the paper saw on multi-job workers; the deterministic drivers
    /// keep `max_in_flight` at 1, so their claims always measure clean.
    pub fn claim_batch(&mut self, max: usize) -> Vec<ClaimedJob> {
        let mut claims = Vec::new();
        while claims.len() < max {
            let Some(popped) = self.pop_task() else { break };
            claims.push(self.claim_popped(popped));
        }
        claims
    }

    /// Restart after a crash: a fresh subscription claims a new
    /// subscriber id, and dropping the old one releases its unacked
    /// claims back to the queue (or to the dead-letter topic once over
    /// the broker's attempt cap).
    pub fn crash_recover(&mut self) {
        let fresh = self.broker.subscribe(routes::TASK_TOPIC, routes::TASK_CHANNEL);
        drop(std::mem::replace(&mut self.subscription, fresh));
        self.active_jobs = 0;
        self.set_active_gauge();
    }

    fn set_active_gauge(&self) {
        if let Some(t) = &self.telemetry {
            t.gauge(names::WORKER_ACTIVE_JOBS, &[("worker", &self.config.worker_id)])
                .set(self.active_jobs as f64);
        }
    }

    /// Count a finished job and record its end-to-end service time.
    fn note_outcome(&self, request: &JobRequest, outcome: &str, service_time: SimDuration) {
        if let Some(t) = &self.telemetry {
            let kind = match request.kind {
                JobKind::Run => "run",
                JobKind::Submit => "submit",
            };
            t.counter(names::JOBS_TOTAL, &[("kind", kind), ("outcome", outcome)]).inc();
            t.histogram(names::JOB_TOTAL_SECONDS, &[], 0.0, 30.0, 40)
                .record(service_time.as_secs_f64());
        }
    }

    /// Count the extra attempts a retried operation burnt.
    fn note_retries(&self, op: &'static str, attempts: u32) {
        if attempts > 1 {
            if let Some(t) = &self.telemetry {
                t.counter(names::RETRIES_TOTAL, &[("op", op)])
                    .add(u64::from(attempts - 1));
            }
        }
    }

    /// Record a lifecycle stage as a causal span `[started + from,
    /// started + to]` under this delivery attempt's subtree, and its
    /// duration in the per-stage histogram. A zero-width span
    /// (`from == to`) marks an instantaneous lifecycle event.
    #[allow(clippy::too_many_arguments)]
    fn note_stage(
        &self,
        request: &JobRequest,
        attempt: u32,
        stage_name: &'static str,
        comp: &'static str,
        started: rai_sim::SimTime,
        from: SimDuration,
        to: SimDuration,
    ) {
        if let Some(t) = &self.telemetry {
            t.trace_span(request.job_id, attempt, stage_name, comp, started + from, started + to);
            t.histogram(names::JOB_STAGE_SECONDS, &[("stage", stage_name)], 0.0, 5.0, 24)
                .record((to.saturating_sub(from)).as_secs_f64());
        }
    }

    /// Seed for one operation's retry jitter, stable across runs.
    fn op_seed(&self, job_id: u64, attempt: u64, op: u64) -> u64 {
        self.config.noise_seed
            ^ job_id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ attempt.rotate_left(32)
            ^ op.wrapping_mul(0xD1B5_4A32_D192_ED03)
    }

    /// The injector's crash/stall decision for `point`, if any. Pure in
    /// (seed, job, attempt, point) — drawing it early at claim time
    /// yields the same decision the sequential pipeline drew in place.
    fn crash_decision_at(
        &self,
        request: &JobRequest,
        attempt: u64,
        point: CrashPoint,
    ) -> Option<CrashKind> {
        self.injector
            .as_ref()
            .and_then(|inj| inj.crash_decision(request.job_id, attempt, point))
    }

    /// Consult the injector (if any) for a crash/stall at `point`.
    fn crash_check(
        &self,
        request: &JobRequest,
        attempt: u64,
        point: CrashPoint,
        wasted: SimDuration,
    ) -> Result<(), CrashReport> {
        let Some(inj) = &self.injector else { return Ok(()) };
        match inj.crash_decision(request.job_id, attempt, point) {
            Some(kind) => Err(CrashReport {
                job_id: request.job_id,
                team: request.team.clone(),
                point,
                kind,
                wasted,
            }),
            None => Ok(()),
        }
    }

    /// The crash report for a database record that would not persist
    /// even after retries: the worker gives up without acking so the
    /// message redelivers to a (hopefully healthier) attempt.
    fn db_crash(&self, request: &JobRequest, wasted: SimDuration) -> CrashReport {
        CrashReport {
            job_id: request.job_id,
            team: request.team.clone(),
            point: CrashPoint::Record,
            kind: CrashKind::Crash,
            wasted,
        }
    }

    /// Process an already-accepted request (also used directly by the
    /// discrete-event driver, which manages queueing itself).
    pub fn process(&mut self, request: &JobRequest) -> JobOutcome {
        let co = self.active_jobs.saturating_sub(1);
        self.process_with_coscheduled(request, co)
    }

    /// Process a request while `co_scheduled` other jobs share this
    /// host — the lever behind the paper's "the worker accepts only one
    /// task at a time – this makes the performance timing more accurate
    /// and repeatable" (measured by the concurrency ablation). Crashes
    /// are folded into a failed outcome; fault-aware drivers use
    /// [`Worker::run_job`].
    pub fn process_with_coscheduled(&mut self, request: &JobRequest, co_scheduled: usize) -> JobOutcome {
        match self.run_job(request, 1, co_scheduled) {
            Ok(outcome) => outcome,
            Err(report) => JobOutcome {
                job_id: report.job_id,
                team: report.team,
                kind: request.kind,
                success: false,
                service_time: report.wasted,
                measured_secs: None,
            },
        }
    }

    /// Run delivery `attempt` of a request end to end. `Ok` means the
    /// job reached a terminal state *and* its database record
    /// persisted; `Err` means an injected crash/stall (or a db record
    /// that outlasted its retries) aborted processing and the message
    /// must not be acked.
    pub fn run_job(
        &mut self,
        request: &JobRequest,
        attempt: u64,
        co_scheduled: usize,
    ) -> Result<JobOutcome, CrashReport> {
        let claimed = self.claim_request(request, attempt, co_scheduled, None);
        let executed = Worker::execute(claimed);
        self.commit_job(executed)
    }

    /// Run the claim phase of a request: everything up to (and
    /// including) the project fetch, serially against shared services.
    fn claim_request(
        &mut self,
        request: &JobRequest,
        attempt: u64,
        co_scheduled: usize,
        msg_id: Option<MessageId>,
    ) -> ClaimedJob {
        let log_topic = routes::log_topic(request.job_id);
        let attempt_no = attempt_no(attempt);
        // All stage timestamps are `started + accumulated service time`:
        // the driver advances the shared clock only after the batch
        // commits, so stamping the logical time keeps per-job traces
        // monotone (and identical at every pool width).
        let started = self.store.clock().now();
        if let Some(t) = &self.telemetry {
            // Delivery from the broker opens this attempt's subtree.
            t.trace_span(request.job_id, attempt_no, stage::DEQUEUED, component::BROKER, started, started);
        }
        // Bytes of log traffic this job generates (the paper reports
        // 25 GB of logs and metadata across the semester).
        let log_bytes = Cell::new(0u64);
        let publish = |broker: &Broker, frame: LogFrame| {
            let encoded = frame.encode();
            log_bytes.set(log_bytes.get() + encoded.len() as u64);
            // Log publishing is best-effort: a full log topic must not
            // take the worker down.
            let _ = broker.publish_ephemeral(&log_topic, encoded);
        };
        let reject = |broker: &Broker, reason: String| {
            publish(broker, LogFrame::Err(reason));
            publish(broker, LogFrame::End { success: false });
        };

        publish(
            &self.broker,
            LogFrame::Status(format!("job accepted by {}", self.config.worker_id)),
        );
        let mut service_time = SimDuration::ZERO;
        macro_rules! claimed {
            ($plan:expr) => {
                ClaimedJob {
                    msg_id,
                    request: request.clone(),
                    attempt,
                    started,
                    service_time,
                    log_bytes: log_bytes.get(),
                    plan: $plan,
                }
            };
        }

        // ② Check the credentials — against the worker's read-only
        // snapshot, not the registry lock. One atomic load detects
        // staleness; the snapshot rebuilds only after a register or
        // revoke, so steady-state claims authenticate without
        // contending on the registry at all. `CredentialSnapshot::authenticate` has exactly the
        // registry's semantics, so outcomes are byte-identical.
        let current_generation = self.auth_generation.load(Ordering::Acquire);
        if self.auth_snapshot.as_ref().map(CredentialSnapshot::generation)
            != Some(current_generation)
        {
            self.auth_snapshot = Some(self.registry.read().snapshot());
        }
        let auth = self
            .auth_snapshot
            .as_ref()
            .expect("snapshot just refreshed")
            .authenticate(
                &request.access_key,
                &request.signing_payload(),
                &request.signature,
            )
            .map(str::to_string);
        let user = match auth {
            Ok(u) => u,
            Err(e) => {
                reject(&self.broker, format!("authentication failed: {e}"));
                // The recorded row carries the rejection in place of a
                // user name — there is no authenticated user to name.
                return claimed!(ClaimPlan::Reject {
                    user: "auth-rejected".to_string(),
                    outcome: "auth-rejected",
                });
            }
        };

        // Parse the build file embedded in the job message.
        let spec = match BuildSpec::parse(&request.build_yml) {
            Ok(s) => s,
            Err(e) => {
                reject(&self.broker, e.to_string());
                return claimed!(ClaimPlan::Reject { user, outcome: "bad-spec" });
            }
        };

        // ③ Resolve the image (whitelist) and pull if not cached.
        let image = match self.images.resolve(&spec.image) {
            Ok(img) => img.clone(),
            Err(e) => {
                reject(&self.broker, e.to_string());
                return claimed!(ClaimPlan::Reject { user, outcome: "image-rejected" });
            }
        };
        if !self.cached_images.contains(&image.name) {
            publish(
                &self.broker,
                LogFrame::Status(format!("pulling image {}...", image.name)),
            );
            let before_pull = service_time;
            service_time += self.images.pull_latency(&image.name);
            self.cached_images.insert(image.name.clone());
            self.note_stage(
                request,
                attempt_no,
                stage::PULLED,
                component::SANDBOX,
                started,
                before_pull,
                service_time,
            );
            if let Some(t) = &self.telemetry {
                t.counter(names::SANDBOX_IMAGE_PULLS_TOTAL, &[]).inc();
            }
        }

        // ④ Download the project archive and mount it.
        if let Some(kind) = self.crash_decision_at(request, attempt, CrashPoint::Fetch) {
            return claimed!(ClaimPlan::Crashed { kind, point: CrashPoint::Fetch });
        }
        let before_fetch = service_time;
        let fetched = self.config.retry.run(
            self.op_seed(request.job_id, attempt, 1),
            |_| self.store.get(&request.upload_bucket, &request.upload_key),
        );
        self.note_retries("store_get", fetched.attempts);
        service_time += fetched.backoff;
        let project = match fetched
            .result
            .map_err(|e| e.to_string())
            .and_then(|obj| restore(&obj.data).map_err(|e| e.to_string()))
        {
            Ok(tree) => tree,
            Err(e) => {
                reject(&self.broker, format!("failed to fetch project: {e}"));
                return claimed!(ClaimPlan::Reject { user, outcome: "fetch-failed" });
            }
        };
        // Transfer latency: 100 MB/s from the file server. The span
        // covers backoff + transfer — everything the store fetch cost.
        service_time += SimDuration::from_millis(project.total_size() / (100 * 1024) + 1);
        self.note_stage(
            request,
            attempt_no,
            stage::FETCHED,
            component::STORE,
            started,
            before_fetch,
            service_time,
        );

        let mut limits = self.config.limits;
        if let Some(gpus) = spec.gpus {
            // The spec may *lower* the GPU count (future machine
            // requirements); it cannot exceed what the worker offers.
            limits.gpus = limits.gpus.min(gpus);
        }
        let dilation = self.contention_dilation(co_scheduled);
        let crash_build = self.crash_decision_at(request, attempt, CrashPoint::Build);
        let crash_upload = self.crash_decision_at(request, attempt, CrashPoint::Upload);
        claimed!(ClaimPlan::Run {
            user,
            spec,
            image,
            project,
            limits,
            gpu_speed: self.config.gpu_speed,
            dilation,
            crash_build,
            crash_upload,
        })
    }

    /// Run a claimed job's execute phase: the sandboxed build + run
    /// and upload preparation (⑤ and the pure half of ⑥).
    ///
    /// This is an associated function on purpose — it consumes the
    /// claim by value and touches neither the worker nor any shared
    /// service, so independent claims execute concurrently on pool
    /// tasks (`rai_exec::Executor::run_jobs`) with results that are
    /// byte-identical at any width. Every side effect (log frames,
    /// stage spans, the upload) is buffered into the returned
    /// [`ExecutedJob`] for [`Worker::commit`] to apply in claim order.
    pub fn execute(claimed: ClaimedJob) -> ExecutedJob {
        let ClaimedJob {
            msg_id,
            request,
            attempt,
            started,
            mut service_time,
            log_bytes,
            plan,
        } = claimed;
        let mut frames = Vec::new();
        let mut spans = Vec::new();
        let mut run_facts = None;
        let outcome = match plan {
            ClaimPlan::Reject { user, outcome } => ExecOutcome::Reject { user, outcome },
            ClaimPlan::Crashed { kind, point } => ExecOutcome::Crashed { kind, point },
            ClaimPlan::Run {
                user,
                spec,
                image,
                project,
                limits,
                gpu_speed,
                dilation,
                crash_build,
                crash_upload,
            } => 'run: {
                if let Some(kind) = crash_build {
                    break 'run ExecOutcome::Crashed { kind, point: CrashPoint::Build };
                }
                let mut container = Container::create(&image, limits);
                container.mount("/src", &project);
                container.set_gpu_speed(gpu_speed);
                container.set_time_dilation(dilation);

                // ⑤ Execute the build commands, buffering output.
                container.run_script(spec.build.iter().map(String::as_str));
                let report = container.destroy();
                for line in &report.log {
                    frames.push(match line.stream {
                        rai_sandbox::LogStream::Stdout => LogFrame::Out(line.text.clone()),
                        rai_sandbox::LogStream::Stderr => LogFrame::Err(line.text.clone()),
                    });
                }
                spans.push(StagedSpan {
                    stage: stage::BUILT,
                    component: component::SANDBOX,
                    from: service_time,
                    to: service_time,
                });
                let before_run = service_time;
                service_time += report.elapsed;
                spans.push(StagedSpan {
                    stage: stage::RAN,
                    component: component::SANDBOX,
                    from: before_run,
                    to: service_time,
                });
                run_facts = Some(RunFacts {
                    elapsed: report.elapsed,
                    limit_killed: matches!(report.status, ContainerStatus::Killed(_)),
                });

                if let Some(kind) = crash_upload {
                    break 'run ExecOutcome::Crashed { kind, point: CrashPoint::Upload };
                }
                // The pure half of ⑥: archive /build and chunk it.
                // The store conversation happens at commit.
                let build_container = write_container(&report.build_dir);
                let build_key = format!(
                    "{}/{:08x}-build.tar.bz2",
                    request.team.replace(' ', "-"),
                    request.job_id
                );
                ExecOutcome::Built {
                    user,
                    container_len: build_container.len() as u64,
                    prepared: PreparedUpload::prepare(&build_container),
                    build_key,
                    success: report.success(),
                    measured: report.internal_timer_secs(),
                    elapsed: report.elapsed,
                }
            }
        };
        ExecutedJob {
            msg_id,
            request,
            attempt,
            started,
            service_time,
            log_bytes,
            frames,
            spans,
            run_facts,
            outcome,
        }
    }

    /// Apply an executed job's buffered effects and seal it: flush log
    /// frames, replay spans, commit the upload and database records,
    /// then ack the message (terminal) or report the crash (unacked).
    /// Batch schedulers must call this in claim order — it is the only
    /// phase that talks to broker/store/db, so commit order *is* the
    /// fault-draw order.
    pub fn commit(&mut self, executed: ExecutedJob) -> StepEvent {
        let msg_id = executed.msg_id;
        let result = self.commit_job(executed);
        if msg_id.is_some() {
            self.active_jobs = self.active_jobs.saturating_sub(1);
            self.set_active_gauge();
        }
        match result {
            Ok(outcome) => {
                if let Some(id) = msg_id {
                    self.subscription.ack(id);
                }
                StepEvent::Done(outcome)
            }
            Err(report) => {
                if msg_id.is_some() {
                    if let Some(t) = &self.telemetry {
                        t.counter(names::WORKER_CRASHES_TOTAL, &[("kind", report.kind.label())])
                            .inc();
                    }
                }
                StepEvent::Crashed(report)
            }
        }
    }

    /// Commit an executed job without touching message or in-flight
    /// accounting (shared by [`Worker::commit`] and [`Worker::run_job`]).
    fn commit_job(&mut self, executed: ExecutedJob) -> Result<JobOutcome, CrashReport> {
        let attempt = executed.attempt;
        let started = executed.started;
        let job_id = executed.request.job_id;
        let result = self.commit_apply(executed);
        if let Err(report) = &result {
            // Close the attempt's subtree with a zero-width crash
            // marker so the trace shows where the wasted work ended —
            // the next delivery opens a sibling attempt subtree.
            if let Some(t) = &self.telemetry {
                let at = started + report.wasted;
                t.trace_span(job_id, attempt_no(attempt), stage::CRASHED, component::FAULT, at, at);
            }
        }
        result
    }

    fn commit_apply(&mut self, executed: ExecutedJob) -> Result<JobOutcome, CrashReport> {
        let ExecutedJob {
            msg_id: _,
            request,
            attempt,
            started,
            mut service_time,
            log_bytes,
            frames,
            spans,
            run_facts,
            outcome,
        } = executed;
        let attempt_no = attempt_no(attempt);
        let log_topic = routes::log_topic(request.job_id);
        let log_bytes = Cell::new(log_bytes);
        let publish = |broker: &Broker, frame: LogFrame| {
            let encoded = frame.encode();
            log_bytes.set(log_bytes.get() + encoded.len() as u64);
            let _ = broker.publish_ephemeral(&log_topic, encoded);
        };
        // Flush the execute phase's buffered effects first, preserving
        // the per-job order of the sequential pipeline: stdout/stderr
        // frames (publishing is faultable — the draw stream must not
        // depend on pool interleaving), then spans, then sandbox
        // metrics.
        for frame in frames {
            publish(&self.broker, frame);
        }
        for s in &spans {
            self.note_stage(&request, attempt_no, s.stage, s.component, started, s.from, s.to);
        }
        if let Some(facts) = &run_facts {
            if let Some(t) = &self.telemetry {
                t.histogram(names::SANDBOX_RUN_SECONDS, &[], 0.0, 5.0, 24)
                    .record(facts.elapsed.as_secs_f64());
                if facts.limit_killed {
                    t.counter(names::SANDBOX_LIMIT_KILLS_TOTAL, &[]).inc();
                }
            }
        }

        match outcome {
            ExecOutcome::Crashed { kind, point } => Err(CrashReport {
                job_id: request.job_id,
                team: request.team.clone(),
                point,
                kind,
                wasted: service_time,
            }),
            ExecOutcome::Reject { user, outcome } => {
                let backoff = self
                    .record_submission(&request, &user, None, SimDuration::ZERO, false, log_bytes.get())
                    .map_err(|_| self.db_crash(&request, service_time))?;
                let total = service_time + backoff;
                self.note_stage(&request, attempt_no, stage::RECORDED, component::DB, started, service_time, total);
                self.note_outcome(&request, outcome, total);
                Ok(JobOutcome {
                    job_id: request.job_id,
                    team: request.team.clone(),
                    kind: request.kind,
                    success: false,
                    service_time: total,
                    measured_secs: None,
                })
            }
            ExecOutcome::Built {
                user,
                prepared,
                container_len,
                build_key,
                success,
                measured,
                elapsed,
            } => {
                // ⑥ Commit the upload and send the URL + End. The key
                // is a pure function of (team, job_id): a redelivered
                // attempt overwrites its own previous upload instead of
                // duplicating it.
                let before_upload = service_time;
                let upload = self.config.retry.run(
                    self.op_seed(request.job_id, attempt, 2),
                    |_| {
                        self.delta.upload_prepared(
                            &self.store,
                            BUILD_BUCKET,
                            &build_key,
                            &prepared,
                            [
                                ("team".to_string(), request.team.clone()),
                                (
                                    "kind".to_string(),
                                    match request.kind {
                                        JobKind::Run => "run".to_string(),
                                        JobKind::Submit => "final".to_string(),
                                    },
                                ),
                                ("source".to_string(), request.upload_key.clone()),
                            ],
                        )
                    },
                );
                self.note_retries("store_put", upload.attempts);
                service_time += upload.backoff;
                if upload.result.is_ok() {
                    // A presigned URL (valid 7 days) so the student
                    // downloads the archive without holding file-server
                    // credentials.
                    let expires = self.store.clock().now() + SimDuration::from_days(7);
                    publish(
                        &self.broker,
                        LogFrame::BuildUrl(self.store.presign(BUILD_BUCKET, &build_key, expires)),
                    );
                }
                // Transfer time is charged on the bytes that actually
                // crossed the wire: a delta upload of a near-identical
                // build tree is a few manifest-sized writes, not a
                // whole re-archive. The span covers backoff + transfer,
                // mirroring the fetch span.
                let wire_bytes = match &upload.result {
                    Ok(receipt) => receipt.wire_bytes(),
                    Err(_) => container_len,
                };
                service_time += SimDuration::from_millis(wire_bytes / (100 * 1024) + 1);
                self.note_stage(
                    &request,
                    attempt_no,
                    stage::UPLOADED,
                    component::STORE,
                    started,
                    before_upload,
                    service_time,
                );
                publish(&self.broker, LogFrame::End { success });

                // ⑦ Record the submission metadata. Failure to persist
                // is a crash: the message stays unacked and redelivers.
                let before_record = service_time;
                let mut backoff = self
                    .record_submission(&request, &user, measured, elapsed, success, log_bytes.get())
                    .map_err(|_| self.db_crash(&request, service_time))?;
                if request.kind == JobKind::Submit && success {
                    backoff += self
                        .record_ranking(&request, measured, elapsed, &build_key)
                        .map_err(|_| self.db_crash(&request, service_time))?;
                }
                service_time += backoff;
                self.note_stage(
                    &request,
                    attempt_no,
                    stage::RECORDED,
                    component::DB,
                    started,
                    before_record,
                    service_time,
                );
                self.crash_check(&request, attempt, CrashPoint::Ack, service_time)?;
                if let Some(t) = &self.telemetry {
                    t.trace_span(
                        request.job_id,
                        attempt_no,
                        stage::GRADED,
                        component::WORKER,
                        started + service_time,
                        started + service_time,
                    );
                    let span = t.span("worker.job").label("worker", &self.config.worker_id);
                    span.finish_at(started + service_time);
                }
                self.note_outcome(&request, if success { "ok" } else { "failed" }, service_time);

                Ok(JobOutcome {
                    job_id: request.job_id,
                    team: request.team.clone(),
                    kind: request.kind,
                    success,
                    service_time,
                    measured_secs: measured,
                })
            }
        }
    }

    /// Submission metadata — "execution times, run-times, and logs …
    /// useful for grading or any other coursework auditing process."
    /// Upserts keyed on `job_id` so a redelivered attempt overwrites
    /// its own row rather than double-counting the submission. Returns
    /// the retry backoff to fold into the job's service time.
    #[allow(clippy::too_many_arguments)]
    fn record_submission(
        &self,
        request: &JobRequest,
        user: &str,
        measured_secs: Option<f64>,
        wall: SimDuration,
        success: bool,
        log_bytes: u64,
    ) -> Result<SimDuration, DbError> {
        let guarded = self.config.retry.run(
            self.op_seed(request.job_id, 0, 3),
            |_| self.db.guard("record_submission"),
        );
        self.note_retries("db_record", guarded.attempts);
        guarded.result?;
        self.db.collection("submissions").write().update_one(
            &doc! { "job_id" => request.job_id },
            &doc! { "$set" => doc!{
                "team" => request.team.as_str(),
                "user" => user,
                "kind" => match request.kind { JobKind::Run => "run", JobKind::Submit => "submit" },
                "success" => success,
                "internal_secs" => measured_secs.map(Value::from).unwrap_or(Value::Null),
                "wall_secs" => wall.as_secs_f64(),
                "worker" => self.config.worker_id.as_str(),
                "upload_key" => request.upload_key.as_str(),
                "log_bytes" => log_bytes,
            } },
            true,
        );
        Ok(guarded.backoff)
    }

    /// Final-submission ranking — "the timing results are recorded onto
    /// the ranking database, and overwrites existing timing records.
    /// Both the results from the internal timer and the output from
    /// /usr/bin/time are recorded with only the internal timer visible
    /// to students."
    fn record_ranking(
        &self,
        request: &JobRequest,
        measured_secs: Option<f64>,
        wall: SimDuration,
        build_key: &str,
    ) -> Result<SimDuration, DbError> {
        let Some(secs) = measured_secs else { return Ok(SimDuration::ZERO) };
        let guarded = self.config.retry.run(
            self.op_seed(request.job_id, 0, 4),
            |_| self.db.guard("record_ranking"),
        );
        self.note_retries("db_record", guarded.attempts);
        guarded.result?;
        self.db.collection("rankings").write().update_one(
            &doc! { "team" => request.team.as_str() },
            &doc! { "$set" => doc!{
                "runtime_secs" => secs,
                "time_cmd_secs" => wall.as_secs_f64(),
                "job_id" => request.job_id,
                "build_key" => build_key,
            } },
            true,
        );
        Ok(guarded.backoff)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ProjectDir, RaiClient, SubmitMode};
    use rai_auth::KeyGenerator;
    use rai_faults::FaultPlan;
    use rai_sim::VirtualClock;
    use rai_store::{LifecycleRule, ObjectStore};
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    struct Rig {
        broker: Broker,
        store: ObjectStore,
        db: Database,
        registry: Arc<RwLock<CredentialRegistry>>,
        images: Arc<ImageRegistry>,
        next_id: Arc<AtomicU64>,
    }

    fn rig() -> Rig {
        let store = ObjectStore::new(VirtualClock::new());
        store
            .create_bucket(crate::client::UPLOAD_BUCKET, LifecycleRule::one_month_after_last_use())
            .unwrap();
        store
            .create_bucket(BUILD_BUCKET, LifecycleRule::Keep)
            .unwrap();
        Rig {
            broker: Broker::default(),
            store,
            db: Database::new(),
            registry: Arc::new(RwLock::new(CredentialRegistry::new())),
            images: Arc::new(ImageRegistry::course_default()),
            next_id: Arc::new(AtomicU64::new(1)),
        }
    }

    fn client_and_worker(rig: &Rig, team: &str) -> (RaiClient, Worker) {
        let creds = KeyGenerator::from_seed(99).generate(team);
        rig.registry.write().register(creds.clone());
        let client = RaiClient::new(
            creds,
            team,
            rig.broker.clone(),
            rig.store.clone(),
            rig.next_id.clone(),
        );
        let worker = Worker::new(
            WorkerConfig::default(),
            rig.broker.clone(),
            rig.store.clone(),
            rig.db.clone(),
            rig.registry.clone(),
            rig.images.clone(),
        );
        (client, worker)
    }

    #[test]
    fn end_to_end_run_submission() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "gpu-gophers");
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let outcome = worker.step().expect("worker should pick up the job");
        assert!(outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(receipt.success);
        assert!(receipt.log.iter().any(|l| l.contains("Building project")));
        assert!(receipt.log.iter().any(|l| l.contains("Built target ece408")));
        assert!(receipt.build_url.is_some());
        assert!(receipt.internal_timer_secs.is_some());
        // Submission recorded in the database.
        let subs = rig.db.collection("submissions");
        assert_eq!(subs.read().len(), 1);
        // Run (not submit): no ranking entry.
        assert_eq!(rig.db.collection("rankings").read().len(), 0);
    }

    #[test]
    fn end_to_end_final_submission_records_ranking() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "gpu-gophers");
        let project = ProjectDir::sample_cuda_project().with_final_artifacts();
        let pending = client.begin_submit(&project, SubmitMode::Submit).unwrap();
        worker.step().unwrap();
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(receipt.success, "log: {:#?}", receipt.log);
        // Enforced Listing 2: full dataset + submission_code copy.
        assert!(receipt.log.iter().any(|l| l.contains("Submitting project")));
        // ~505ms for the 470ms spec.
        let secs = receipt.internal_timer_secs.unwrap();
        assert!((0.4..0.7).contains(&secs), "got {secs}");
        let rankings = rig.db.collection("rankings");
        let row = rankings.read().find_one(&doc! { "team" => "gpu-gophers" }).unwrap();
        assert!(row.get("runtime_secs").unwrap().as_f64().unwrap() > 0.0);
        assert!(row.get("time_cmd_secs").unwrap().as_f64().is_some());
        // The /build archive includes the submitted source snapshot.
        let build_url = receipt.build_url.unwrap();
        let obj = rig.store.get_presigned(&build_url).unwrap();
        let tree = restore(&obj.data).unwrap();
        assert!(tree.contains("submission_code/main.cu"));
    }

    #[test]
    fn ranking_overwritten_by_later_submission() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        for _ in 0..2 {
            let project = ProjectDir::sample_cuda_project().with_final_artifacts();
            let pending = client.begin_submit(&project, SubmitMode::Submit).unwrap();
            worker.step().unwrap();
            pending.wait(Duration::from_millis(500)).unwrap();
        }
        assert_eq!(rig.db.collection("rankings").read().len(), 1, "one row per team");
        assert_eq!(rig.db.collection("submissions").read().len(), 2);
    }

    #[test]
    fn unauthenticated_job_rejected() {
        let rig = rig();
        // Client whose creds were never registered server-side.
        let creds = KeyGenerator::from_seed(123).generate("intruder");
        let client = RaiClient::new(
            creds,
            "intruder",
            rig.broker.clone(),
            rig.store.clone(),
            rig.next_id.clone(),
        );
        let mut worker = Worker::new(
            WorkerConfig::default(),
            rig.broker.clone(),
            rig.store.clone(),
            rig.db.clone(),
            rig.registry.clone(),
            rig.images.clone(),
        );
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let outcome = worker.step().unwrap();
        assert!(!outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(!receipt.success);
        assert!(receipt
            .log
            .iter()
            .any(|l| l.contains("authentication failed")));
    }

    #[test]
    fn non_whitelisted_image_rejected() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "sneaky");
        let mut project = ProjectDir::sample_cuda_project();
        project
            .tree
            .insert(
                "rai-build.yml",
                &b"rai:\n  version: 0.1\n  image: malicious/miner:latest\ncommands:\n  build:\n    - echo mining\n"[..],
            )
            .unwrap();
        let pending = client.begin_submit(&project, SubmitMode::Run).unwrap();
        let outcome = worker.step().unwrap();
        assert!(!outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(receipt.log.iter().any(|l| l.contains("not whitelisted")));
    }

    #[test]
    fn build_failure_reported_to_client() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-broken");
        let mut project = ProjectDir::sample_cuda_project();
        project
            .tree
            .insert("main.cu", &b"RAI_SYNTAX_ERROR\n"[..])
            .unwrap();
        let pending = client.begin_submit(&project, SubmitMode::Run).unwrap();
        let outcome = worker.step().unwrap();
        assert!(!outcome.success);
        let receipt = pending.wait(Duration::from_millis(500)).unwrap();
        assert!(!receipt.success);
        assert!(receipt.log.iter().any(|l| l.contains("error:")));
    }

    #[test]
    fn image_pull_charged_once() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let p1 = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let first = worker.step().unwrap();
        p1.wait(Duration::from_millis(500)).unwrap();
        let p2 = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        let second = worker.step().unwrap();
        p2.wait(Duration::from_millis(500)).unwrap();
        // First job pays the multi-GB image pull; the second doesn't.
        assert!(first.service_time > second.service_time + SimDuration::from_secs(20));
    }

    #[test]
    fn worker_step_on_empty_queue_is_none() {
        let rig = rig();
        let (_client, mut worker) = client_and_worker(&rig, "team-a");
        assert!(worker.step().is_none());
    }

    #[test]
    fn malformed_message_dropped_and_counted() {
        let rig = rig();
        let (_client, mut worker) = client_and_worker(&rig, "team-a");
        let telemetry = Telemetry::new(rig.store.clock().clone());
        worker.set_telemetry(telemetry.clone());
        rig.broker
            .publish(routes::TASK_TOPIC, &b"totally not a job"[..])
            .unwrap();
        assert!(worker.step().is_none());
        // Message was acked, not requeued.
        let stats = rig.broker.topic_stats(routes::TASK_TOPIC).unwrap();
        assert_eq!(stats.depth, 0);
        assert_eq!(stats.in_flight, 0);
        assert_eq!(
            telemetry.snapshot().counter_total(names::JOBS_MALFORMED_TOTAL),
            1,
            "malformed message counted"
        );
    }

    #[test]
    fn transient_store_fault_retried_within_job() {
        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        let telemetry = Telemetry::new(rig.store.clock().clone());
        worker.set_telemetry(telemetry.clone());
        let pending = client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        // One store fault after the client's upload: the worker's fetch
        // hits it and retries.
        rig.store.inject_faults(1);
        let outcome = worker.step().expect("job still completes");
        assert!(outcome.success);
        pending.wait(Duration::from_millis(500)).unwrap();
        let retried = telemetry.snapshot().counter_total(names::RETRIES_TOTAL);
        assert!(retried >= 1, "fetch retry counted, got {retried}");
    }

    #[test]
    fn crash_after_record_redelivers_and_records_exactly_once() {
        // Find a seed where job 1 dies at the Ack point on attempt 1
        // (after its upload + db record landed) and survives attempt 2
        // — the idempotency stress case.
        let plan_for = |seed: u64| FaultPlan {
            worker_crash: 0.35,
            ..FaultPlan::none(seed)
        };
        let all_points = [CrashPoint::Fetch, CrashPoint::Build, CrashPoint::Upload, CrashPoint::Ack];
        let seed = (0..2_000u64)
            .find(|&s| {
                let inj = FaultInjector::new(plan_for(s));
                matches!(inj.crash_decision(1, 1, CrashPoint::Ack), Some(CrashKind::Crash))
                    && all_points.iter().all(|&p| inj.crash_decision(1, 2, p).is_none())
            })
            .expect("some seed crashes job 1 at Ack on attempt 1 only");

        let rig = rig();
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        worker.set_fault_injector(FaultInjector::new(plan_for(seed)));
        let project = ProjectDir::sample_cuda_project().with_final_artifacts();
        let pending = client.begin_submit(&project, SubmitMode::Submit).unwrap();

        let StepEvent::Crashed(report) = worker.try_step() else {
            panic!("attempt 1 should crash");
        };
        assert_eq!(report.point, CrashPoint::Ack);
        // Side effects of attempt 1 already landed...
        assert_eq!(rig.db.collection("submissions").read().len(), 1);
        assert_eq!(rig.db.collection("rankings").read().len(), 1);

        // ...the restart releases the claim and attempt 2 reprocesses.
        worker.crash_recover();
        let StepEvent::Done(outcome) = worker.try_step() else {
            panic!("attempt 2 should complete");
        };
        assert!(outcome.success);
        pending.wait(Duration::from_millis(500)).unwrap();

        // Exactly one terminal row per job / per team, no duplicates.
        assert_eq!(rig.db.collection("submissions").read().len(), 1);
        assert_eq!(rig.db.collection("rankings").read().len(), 1);
        let row = rig
            .db
            .collection("submissions")
            .read()
            .find_one(&doc! { "job_id" => 1 })
            .unwrap();
        assert_eq!(row.get("success"), Some(&Value::Bool(true)));
        // Queue fully drained: nothing lost, nothing stuck in flight.
        let stats = rig.broker.topic_stats(routes::TASK_TOPIC).unwrap();
        assert_eq!((stats.depth, stats.in_flight), (0, 0));
    }

    #[test]
    fn poison_job_crashes_every_attempt_until_dead_lettered() {
        let mut plan = FaultPlan::none(7);
        plan.poison_every = Some(1); // every job is poison
        let mut rig = rig();
        rig.broker = Broker::new(rai_broker::BrokerConfig {
            max_attempts: 3,
            ..Default::default()
        });
        let (client, mut worker) = client_and_worker(&rig, "team-a");
        worker.set_fault_injector(FaultInjector::new(plan));
        let dead = rig.broker.subscribe(
            &rai_broker::dead_letter_topic(routes::TASK_TOPIC, routes::TASK_CHANNEL),
            "audit",
        );
        client
            .begin_submit(&ProjectDir::sample_cuda_project(), SubmitMode::Run)
            .unwrap();
        for _ in 0..3 {
            match worker.try_step() {
                StepEvent::Crashed(r) => {
                    assert_eq!(r.point, CrashPoint::Build);
                    worker.crash_recover();
                }
                other => panic!("poison job should crash every attempt, got {other:?}"),
            }
        }
        // Attempt cap reached: the message moved to the dead-letter
        // topic instead of the ready queue.
        assert!(worker.step().is_none(), "queue is empty for the worker");
        let msg = dead.try_recv().expect("poison job dead-lettered");
        assert!(JobRequest::decode(&msg.body_str()).is_some());
        dead.ack(msg.id);
        assert_eq!(rig.db.collection("submissions").read().len(), 0, "never reached a record");
    }
}
