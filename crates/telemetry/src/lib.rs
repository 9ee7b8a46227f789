//! # rai-telemetry — structured telemetry for the RAI reproduction
//!
//! One [`Telemetry`] handle is threaded through the whole pipeline
//! (broker, workers, sandbox, object store, database, autoscaler) and
//! provides four things:
//!
//! 1. a thread-safe [`MetricsRegistry`] of counters, gauges, and
//!    fixed-bucket histograms;
//! 2. lightweight [`Span`]s stamped with [`VirtualClock`] sim-time;
//! 3. per-job [`JobTrace`]s — attempt-aware *causal span trees* over
//!    the submission lifecycle (submit → enqueue → dequeue → fetch →
//!    build → run → upload → grade), where every delivery attempt owns
//!    a root span, stages hang off it tagged with the component that
//!    did the work, and retries become sibling attempt subtrees;
//! 4. exposition of the registry as Prometheus text or JSON, plus
//!    trace-derived reports: [`critical_path`] / [`attribute`] turn
//!    span trees into wall-clock attribution tables and
//!    [`render_chrome_trace`] exports Perfetto-loadable JSON.
//!
//! Instrumented hot paths push directly into the registry; components
//! that already keep their own cumulative stats (broker, store, db,
//! the `rai-exec` pool) register a *collector* closure instead, which
//! mirrors those stats into the registry every time
//! [`Telemetry::snapshot`] runs.
//!
//! The crate also owns the shared statistics toolkit ([`OnlineStats`],
//! [`Histogram`], [`TimeSeries`], [`GaugeSeries`], [`Percentiles`],
//! and the deterministic log-bucketed [`LogHistogram`]) that used to
//! live in `rai-sim`, plus the [`log!`] leveled diagnostic macro.

pub mod chrome;
pub mod critical;
pub mod export;
pub mod json;
pub mod latency;
pub mod logging;
pub mod registry;
pub mod span;
pub mod stats;
pub mod trace;

pub use chrome::render_chrome_trace;
pub use critical::{attribute, critical_path, segment, Attribution, CriticalPath, PathSegment};
pub use export::{parse_json_snapshot, parse_prometheus, render_json, render_prometheus, PromSample};
pub use latency::{duration_micros, LatencySummary, LogHistogram};
pub use logging::Level;
pub use registry::{Counter, Gauge, HistogramHandle, MetricKey, MetricsRegistry, MetricsSnapshot};
pub use span::{Span, SpanCollector, SpanRecord};
pub use stats::{GaugeSeries, Histogram, OnlineStats, Percentiles, TimeSeries};
pub use trace::{component, stage, JobTrace, SpanId, StageEvent, TraceSpan, TraceStore};

use rai_sim::{SimTime, VirtualClock};
use std::sync::Arc;

/// Metric name constants used across the pipeline. Centralized so the
/// exposition output, instrumentation sites, and tests agree.
pub mod names {
    pub const JOBS_TOTAL: &str = "rai_jobs_total";
    pub const JOB_STAGE_SECONDS: &str = "rai_job_stage_seconds";
    pub const JOB_TOTAL_SECONDS: &str = "rai_job_total_seconds";
    pub const WORKER_ACTIVE_JOBS: &str = "rai_worker_active_jobs";
    pub const BROKER_PUBLISHED_TOTAL: &str = "rai_broker_published_total";
    pub const BROKER_ACKED_TOTAL: &str = "rai_broker_acked_total";
    pub const BROKER_REQUEUED_TOTAL: &str = "rai_broker_requeued_total";
    pub const BROKER_QUEUE_DEPTH: &str = "rai_broker_queue_depth";
    pub const BROKER_IN_FLIGHT: &str = "rai_broker_in_flight";
    pub const BROKER_CHANNELS: &str = "rai_broker_channels";
    pub const STORE_BYTES_UPLOADED_TOTAL: &str = "rai_store_bytes_uploaded_total";
    pub const STORE_BYTES_DOWNLOADED_TOTAL: &str = "rai_store_bytes_downloaded_total";
    pub const STORE_PUTS_TOTAL: &str = "rai_store_puts_total";
    pub const STORE_GETS_TOTAL: &str = "rai_store_gets_total";
    pub const STORE_EXPIRED_TOTAL: &str = "rai_store_expired_total";
    pub const STORE_BYTES_STORED: &str = "rai_store_bytes_stored";
    pub const STORE_OBJECTS: &str = "rai_store_objects";
    // Dedup (content-addressed storage) metrics.
    pub const STORE_BYTES_LOGICAL: &str = "rai_store_bytes_logical";
    pub const STORE_BYTES_PHYSICAL: &str = "rai_store_bytes_physical";
    pub const STORE_CHUNKS: &str = "rai_store_chunks";
    pub const STORE_CHUNKS_DEDUP_TOTAL: &str = "rai_store_chunks_dedup_total";
    pub const STORE_BYTES_WIRE_TOTAL: &str = "rai_store_bytes_wire_total";
    pub const STORE_DELTA_PUTS_TOTAL: &str = "rai_store_delta_puts_total";
    // Contended wait on the store arena and broker dirty-list locks.
    pub const LOCK_WAIT_MICROS_TOTAL: &str = "rai_lock_wait_micros_total";
    pub const DB_INSERTS_TOTAL: &str = "rai_db_inserts_total";
    pub const DB_QUERIES_TOTAL: &str = "rai_db_queries_total";
    pub const DB_UPDATES_TOTAL: &str = "rai_db_updates_total";
    pub const SANDBOX_IMAGE_PULLS_TOTAL: &str = "rai_sandbox_image_pulls_total";
    pub const SANDBOX_RUN_SECONDS: &str = "rai_sandbox_run_seconds";
    pub const SANDBOX_LIMIT_KILLS_TOTAL: &str = "rai_sandbox_limit_kills_total";
    pub const AUTOSCALER_POOL_SIZE: &str = "rai_autoscaler_pool_size";
    pub const AUTOSCALER_SCALE_EVENTS_TOTAL: &str = "rai_autoscaler_scale_events_total";
    pub const RATELIMIT_DENIED_TOTAL: &str = "rai_ratelimit_denied_total";
    // Failure & recovery (chaos) metrics.
    pub const RETRIES_TOTAL: &str = "rai_retries_total";
    pub const REDELIVERIES_TOTAL: &str = "rai_redeliveries_total";
    pub const DEAD_LETTERED_TOTAL: &str = "rai_dead_lettered_total";
    pub const FAULTS_INJECTED_TOTAL: &str = "rai_faults_injected_total";
    pub const JOBS_MALFORMED_TOTAL: &str = "rai_jobs_malformed_total";
    pub const WORKER_CRASHES_TOTAL: &str = "rai_worker_crashes_total";
    // Trace-store hygiene.
    pub const TRACES_DROPPED_LATE_TOTAL: &str = "rai_traces_dropped_late_total";
    // Work-stealing executor pool counters (mirrored by a collector).
    pub const EXEC_SPAWNED_TOTAL: &str = "rai_exec_spawned_total";
    pub const EXEC_INLINE_RUNS_TOTAL: &str = "rai_exec_inline_runs_total";
    pub const EXEC_STOLEN_TOTAL: &str = "rai_exec_stolen_total";
    pub const EXEC_PARKED_TOTAL: &str = "rai_exec_parked_total";
    pub const EXEC_INJECTED_TOTAL: &str = "rai_exec_injected_total";
    pub const EXEC_BATCHES_TOTAL: &str = "rai_exec_batches_total";
    pub const EXEC_BATCH_JOBS_TOTAL: &str = "rai_exec_batch_jobs_total";
    // Write-ahead log counters, labeled per log ("log" = "db"/"store").
    pub const WAL_APPENDS_TOTAL: &str = "rai_wal_appends_total";
    pub const WAL_BYTES_TOTAL: &str = "rai_wal_bytes_total";
    pub const WAL_FSYNC_BATCHES_TOTAL: &str = "rai_wal_fsync_batches_total";
    pub const WAL_REPLAYED_RECORDS_TOTAL: &str = "rai_wal_replayed_records_total";
    pub const WAL_CORRUPT_RECORDS_DROPPED_TOTAL: &str = "rai_wal_corrupt_records_dropped_total";
    pub const WAL_COMPACTIONS_TOTAL: &str = "rai_wal_compactions_total";
    pub const WAL_SEGMENTS: &str = "rai_wal_segments";
    pub const WAL_LOG_BYTES: &str = "rai_wal_log_bytes";
}

type Collector = Box<dyn Fn(&MetricsRegistry) + Send + Sync>;

struct Inner {
    clock: VirtualClock,
    registry: MetricsRegistry,
    spans: Arc<SpanCollector>,
    traces: TraceStore,
    collectors: parking_lot::Mutex<Vec<Collector>>,
}

/// Cheaply cloneable handle to the telemetry pipeline. All clones share
/// the same registry, span collector, and trace store.
#[derive(Clone)]
pub struct Telemetry {
    inner: Arc<Inner>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("spans", &self.inner.spans.len())
            .field("traces", &self.inner.traces.len())
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Telemetry sharing `clock` for all timestamps.
    pub fn new(clock: VirtualClock) -> Self {
        Telemetry {
            inner: Arc::new(Inner {
                spans: Arc::new(SpanCollector::new(clock.clone())),
                clock,
                registry: MetricsRegistry::new(),
                traces: TraceStore::new(),
                collectors: parking_lot::Mutex::new(Vec::new()),
            }),
        }
    }

    /// The shared virtual clock.
    pub fn clock(&self) -> &VirtualClock {
        &self.inner.clock
    }

    /// Current sim-time.
    pub fn now(&self) -> SimTime {
        self.inner.clock.now()
    }

    /// The underlying registry, for direct handle acquisition.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Get or create a counter.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.inner.registry.counter(name, labels)
    }

    /// Get or create a gauge.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.inner.registry.gauge(name, labels)
    }

    /// Get or create a histogram.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        origin: f64,
        bin_width: f64,
        nbins: usize,
    ) -> HistogramHandle {
        self.inner.registry.histogram(name, labels, origin, bin_width, nbins)
    }

    /// Start a span at the current sim-time.
    pub fn span(&self, name: &str) -> Span {
        self.inner.spans.start(name)
    }

    /// Completed spans, oldest first.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.inner.spans.finished()
    }

    /// Record that a job reached a lifecycle stage at the current
    /// sim-time.
    pub fn trace_stage(&self, job_id: u64, stage: &'static str) {
        self.inner.traces.record(job_id, stage, self.inner.clock.now());
    }

    /// Record a lifecycle stage at an explicit sim-time. Workers use
    /// this to stamp logical completion times that the shared clock has
    /// not reached yet.
    pub fn trace_stage_at(&self, job_id: u64, stage: &'static str, at: SimTime) {
        self.inner.traces.record(job_id, stage, at);
    }

    /// Record a causal span: `stage` work done by `component` on
    /// delivery `attempt` of `job_id`, covering `[start, end]`
    /// sim-time. Retries land in sibling attempt subtrees.
    pub fn trace_span(
        &self,
        job_id: u64,
        attempt: u32,
        stage: &'static str,
        component: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        self.inner.traces.record_span(job_id, attempt, stage, component, start, end);
    }

    /// Late span records dropped because their job's trace was evicted.
    pub fn traces_dropped_late(&self) -> u64 {
        self.inner.traces.dropped_late()
    }

    /// One job's lifecycle trace, if retained.
    pub fn job_trace(&self, job_id: u64) -> Option<JobTrace> {
        self.inner.traces.get(job_id)
    }

    /// All retained job traces, oldest job first.
    pub fn job_traces(&self) -> Vec<JobTrace> {
        self.inner.traces.all()
    }

    /// Register a pull-style collector: a closure that mirrors some
    /// component's internal stats into the registry. Collectors run, in
    /// registration order, at the start of every [`Telemetry::snapshot`].
    pub fn register_collector<F>(&self, collector: F)
    where
        F: Fn(&MetricsRegistry) + Send + Sync + 'static,
    {
        self.inner.collectors.lock().push(Box::new(collector));
    }

    /// Run all collectors, then copy out the registry.
    pub fn snapshot(&self) -> MetricsSnapshot {
        for collector in self.inner.collectors.lock().iter() {
            collector(&self.inner.registry);
        }
        self.inner
            .registry
            .counter(names::TRACES_DROPPED_LATE_TOTAL, &[])
            .store(self.inner.traces.dropped_late());
        self.inner.registry.snapshot()
    }

    /// Snapshot rendered in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        export::render_prometheus(&self.snapshot())
    }

    /// Snapshot rendered as a JSON document.
    pub fn render_json(&self) -> String {
        export::render_json(&self.snapshot())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rai_sim::SimDuration;

    #[test]
    fn handle_clones_share_state() {
        let telemetry = Telemetry::new(VirtualClock::new());
        let clone = telemetry.clone();
        telemetry.counter(names::JOBS_TOTAL, &[("kind", "submit")]).inc();
        clone.counter(names::JOBS_TOTAL, &[("kind", "submit")]).inc();
        assert_eq!(telemetry.snapshot().counter_total(names::JOBS_TOTAL), 2);
    }

    #[test]
    fn collectors_run_on_snapshot() {
        let telemetry = Telemetry::new(VirtualClock::new());
        telemetry.register_collector(|registry| {
            registry.gauge("collected", &[]).set(7.0);
        });
        assert_eq!(telemetry.snapshot().gauge("collected", &[]), Some(7.0));
    }

    #[test]
    fn trace_stages_stamp_sim_time() {
        let clock = VirtualClock::new();
        let telemetry = Telemetry::new(clock.clone());
        telemetry.trace_stage(1, stage::SUBMITTED);
        clock.advance(SimDuration::from_secs(2));
        telemetry.trace_stage(1, stage::ENQUEUED);
        telemetry.trace_stage_at(1, stage::DEQUEUED, SimTime::from_secs(5));
        let trace = telemetry.job_trace(1).expect("trace exists");
        assert!(trace.is_monotone());
        assert_eq!(trace.total_duration(), SimDuration::from_secs(5));
    }

    #[test]
    fn spans_use_shared_clock() {
        let clock = VirtualClock::new();
        let telemetry = Telemetry::new(clock.clone());
        let span = telemetry.span("broker.publish").label("channel", "jobs");
        clock.advance(SimDuration::from_millis(250));
        span.finish();
        let spans = telemetry.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].duration(), SimDuration::from_millis(250));
    }

    #[test]
    fn render_outputs_parse() {
        let telemetry = Telemetry::new(VirtualClock::new());
        telemetry.counter(names::BROKER_PUBLISHED_TOTAL, &[]).add(3);
        telemetry
            .histogram(names::JOB_STAGE_SECONDS, &[("stage", "queue")], 0.0, 1.0, 8)
            .record(2.5);
        let samples = parse_prometheus(&telemetry.render_prometheus()).expect("prom parses");
        assert!(!samples.is_empty());
        let parsed = parse_json_snapshot(&telemetry.render_json()).expect("json parses");
        assert_eq!(parsed.counter(names::BROKER_PUBLISHED_TOTAL, &[]), Some(3));
    }
}
