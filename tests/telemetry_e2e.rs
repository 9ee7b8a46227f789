//! End-to-end telemetry: drive real submissions through a deployment
//! and check that the job traces, registry snapshot, and both
//! exposition formats reflect what happened.

use rai::core::client::ProjectDir;
use rai::core::system::{RaiSystem, SystemConfig};
use rai::telemetry::{names, parse_json_snapshot, parse_prometheus, stage};

fn driven_system(jobs: usize) -> (RaiSystem, Vec<u64>) {
    let mut system = RaiSystem::new(SystemConfig {
        workers: 2,
        rate_limit: None,
        ..Default::default()
    });
    let creds = system.register_team("observed", &["ada"]);
    let mut job_ids = Vec::new();
    for _ in 0..jobs {
        let receipt = system
            .submit(&creds, &ProjectDir::sample_cuda_project())
            .expect("submission should succeed");
        assert!(receipt.success);
        job_ids.push(receipt.job_id);
    }
    (system, job_ids)
}

#[test]
fn job_traces_are_monotone_and_complete() {
    let (system, job_ids) = driven_system(3);
    for job_id in job_ids {
        let trace = system
            .telemetry()
            .job_trace(job_id)
            .expect("every job is traced");
        assert!(trace.is_monotone(), "stages out of order: {trace:?}");
        for name in [
            stage::SUBMITTED,
            stage::ENQUEUED,
            stage::DEQUEUED,
            stage::FETCHED,
            stage::BUILT,
            stage::RAN,
            stage::UPLOADED,
            stage::GRADED,
        ] {
            assert!(
                trace.stage_time(name).is_some(),
                "job {} missing stage {name}",
                trace.job_id
            );
        }
        assert!(trace.total_duration() > rai::sim::SimDuration::ZERO);
    }
}

#[test]
fn report_metrics_are_populated() {
    let (system, _) = driven_system(3);
    let metrics = system.report().metrics;

    assert_eq!(metrics.counter_total(names::JOBS_TOTAL), 3);
    assert!(!metrics.histograms_named(names::JOB_STAGE_SECONDS).is_empty());
    assert!(!metrics.histograms_named(names::JOB_TOTAL_SECONDS).is_empty());
    // Worker concurrency gauges exist for the fleet (back to 0 when idle).
    assert!(!metrics.gauges_named(names::WORKER_ACTIVE_JOBS).is_empty());
    // Broker mirror: everything published was consumed, depth gauge at 0.
    assert_eq!(metrics.gauge(names::BROKER_QUEUE_DEPTH, &[]), Some(0.0));
    assert!(metrics.counter(names::BROKER_PUBLISHED_TOTAL, &[]).unwrap() >= 3);
    // Store and db mirrors counted traffic.
    assert!(metrics.counter(names::STORE_BYTES_UPLOADED_TOTAL, &[]).unwrap() > 0);
    assert!(metrics.counter(names::DB_INSERTS_TOTAL, &[]).unwrap() > 0);
}

#[test]
fn prometheus_exposition_parses_and_matches() {
    let (system, _) = driven_system(2);
    let metrics = system.report().metrics;
    let text = rai::telemetry::render_prometheus(&metrics);

    let samples = parse_prometheus(&text).expect("exposition must parse");
    assert!(!samples.is_empty());
    let jobs: f64 = samples
        .iter()
        .filter(|s| s.name == names::JOBS_TOTAL)
        .map(|s| s.value)
        .sum();
    assert_eq!(jobs, 2.0);
    // Histogram series carry cumulative buckets plus _sum/_count.
    assert!(samples.iter().any(|s| s.name == format!("{}_count", names::JOB_STAGE_SECONDS)));
    assert!(samples
        .iter()
        .any(|s| s.labels.iter().any(|(k, _)| k == "le")));
}

#[test]
fn lock_wait_metric_survives_prometheus_round_trip() {
    let (system, _) = driven_system(3);
    let metrics = system.report().metrics;
    // The contended-wait counter exists (zero is fine on an idle or
    // single-core host — it only counts waits that actually blocked)
    // and mirrors the store and broker lock accounting.
    let exported = metrics
        .counter(names::LOCK_WAIT_MICROS_TOTAL, &[])
        .expect("lock-wait counter is exported");
    let source = system.store().lock_wait_micros() + system.broker().lock_wait_micros();
    assert!(exported <= source, "collector reads the live lock counters");
    let text = rai::telemetry::render_prometheus(&metrics);
    let samples = parse_prometheus(&text).expect("exposition must parse");
    let series: Vec<_> = samples
        .iter()
        .filter(|s| s.name == names::LOCK_WAIT_MICROS_TOTAL)
        .collect();
    assert_eq!(series.len(), 1, "one unlabelled lock-wait series");
    assert!(series[0].labels.is_empty());
    assert_eq!(series[0].value, exported as f64);
}

#[test]
fn json_exposition_round_trips() {
    let (system, _) = driven_system(2);
    let metrics = system.report().metrics;
    let text = rai::telemetry::render_json(&metrics);

    let parsed = parse_json_snapshot(&text).expect("JSON must parse");
    assert_eq!(parsed.counters, metrics.counters);
    assert_eq!(parsed.gauges.len(), metrics.gauges.len());
    assert_eq!(parsed.histograms.len(), metrics.histograms.len());
    assert_eq!(
        parsed.counter_total(names::JOBS_TOTAL),
        metrics.counter_total(names::JOBS_TOTAL)
    );
}
