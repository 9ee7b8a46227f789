//! From run outcomes to named metrics: the end-to-end figures of an
//! untraced run, the per-layer figures of a traced one, and the Amdahl
//! and growth views derived from them.

use crate::trace::Tracer;
use crate::RunOutcome;
use std::collections::BTreeMap;

/// End-to-end metrics and their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_sub_per_s", "sub/s"),
    ("setup_s", "s"),
    ("cpu_ms_per_sub", "ms"),
    ("peak_rss_mb", "MB"),
    ("turnaround_s_p50", "sim_s"),
    ("turnaround_s_p999", "sim_s"),
    ("delivered_share", "ratio"),
    ("stored_bytes_per_upload_byte", "ratio"),
    ("wire_bytes_per_upload_byte", "ratio"),
];

/// Timed calls whose share of the traced wall is reported, with the
/// statistics printed for each beyond `share`.
const STAGES: &[(&str, &[&str])] = &[
    (
        "core.client.begin_submit",
        &["calls", "us_p50", "us_p99", "us_q1", "us_q4"],
    ),
    ("core.client.wait", &["us_p50"]),
    ("core.system.client_for", &[]),
    (
        "core.system.claim_tasks",
        &["us_p50", "us_p99", "us_q1", "us_q4"],
    ),
    ("core.worker.pop_task", &["us_p50"]),
    ("core.worker.execute", &["us_p50", "us_p99"]),
    (
        "core.worker.commit",
        &["us_p50", "us_p99", "us_q1", "us_q4"],
    ),
    ("core.system.drive_until", &["us_per_job"]),
    ("core.system.recover_with_clock", &["us_per_record"]),
    ("core.system.reregister_team", &[]),
    ("core.system.republish_pending", &[]),
    ("core.system.maybe_compact", &[]),
    ("core.system.sync_wals", &[]),
    ("telemetry.trace_span", &[]),
];

/// Pure layer functions the traced run calls beside the stages on the
/// same inputs, and the benchmark's own traced-only bookkeeping. Their
/// time is taken out of the wall the stages split; the shadow calls'
/// time is reported beside the stages.
const NOT_IN_WALL: &[&str] = &[
    "archive.write_container",
    "yaml.spec_parse",
    "bench.retained_spans",
];

/// Stages the Amdahl table covers (plus `sim.loop`).
pub const AMDAHL: &[&str] = &[
    "core.client.begin_submit",
    "core.client.wait",
    "core.system.claim_tasks",
    "core.worker.pop_task",
    "core.worker.execute",
    "core.worker.commit",
    "core.system.drive_until",
    "core.system.recover_with_clock",
];

/// Counters read from the layers' accessors after the run.
const COUNTERS: &[&str] = &[
    "store.bytes_uploaded",
    "store.bytes_wire",
    "store.bytes_downloaded",
    "store.puts",
    "store.delta_puts",
    "store.lock_wait_us",
    "store.arena_read_acq",
    "store.arena_write_acq",
    "broker.published",
    "broker.acked",
    "broker.requeued",
    "broker.dead_lettered",
    "broker.lock_wait_us",
    "db.inserts",
    "db.queries",
    "db.updates",
    "db.docs",
    "exec.batches",
    "exec.spawned",
    "exec.stolen",
    "exec.parked",
    "wal.appends",
    "wal.bytes",
    "wal.fsync_batches",
    "wal.compactions",
    "wal.replayed",
    "faults.injected",
    "telemetry.spans_retained",
];

/// Every per-layer metric name with its unit, in reporting order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (stage, stats) in STAGES {
        names.push((format!("{stage}.share"), "ratio"));
        for s in *stats {
            let unit = if *s == "calls" { "count" } else { "us" };
            names.push((format!("{stage}.{s}"), unit));
        }
    }
    names.push(("sim.loop.share".to_string(), "ratio"));
    names.push(("trace.timed_share".to_string(), "ratio"));
    names.push(("trace.overhead".to_string(), "ratio"));
    names.push(("archive.write_container.us_p50".to_string(), "us"));
    names.push(("archive.container_bytes_per_sub".to_string(), "B"));
    names.push(("yaml.spec_parse.us_p50".to_string(), "us"));
    for c in COUNTERS {
        let unit = if c.ends_with("_us") {
            "us"
        } else if c.contains("bytes") {
            "B"
        } else {
            "count"
        };
        names.push((c.to_string(), unit));
    }
    names.push(("store.dedup_hit_ratio".to_string(), "ratio"));
    names.push(("broker.useful_delivery_ratio".to_string(), "ratio"));
    names.push(("exec.jobs_per_round_mean".to_string(), "count"));
    names.push(("wal.bytes_per_user_byte".to_string(), "ratio"));
    names.push(("growth.rss_mb_per_1k_sub".to_string(), "MB"));
    names
}

/// Nearest-rank quantile of `values` (unsorted); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// End-to-end figures of one untraced run (every name in
/// [`END_TO_END`] except `setup_s`, whose samples travel separately).
pub fn end_to_end(out: &RunOutcome, peak_rss_mb: f64) -> BTreeMap<&'static str, f64> {
    let finished = out.finished() as f64;
    let attempted = out.attempted as f64;
    BTreeMap::from([
        ("throughput_sub_per_s", ratio(finished, out.wall_s)),
        ("cpu_ms_per_sub", ratio(out.cpu_s * 1e3, finished)),
        ("peak_rss_mb", peak_rss_mb),
        ("turnaround_s_p50", quantile(&out.turnaround_s, 0.50)),
        ("turnaround_s_p999", quantile(&out.turnaround_s, 0.999)),
        (
            "delivered_share",
            ratio(attempted - out.undelivered() as f64, attempted),
        ),
        (
            "stored_bytes_per_upload_byte",
            ratio(out.stored_bytes as f64, out.uploaded_bytes as f64),
        ),
        (
            "wire_bytes_per_upload_byte",
            ratio(out.wire_bytes as f64, out.uploaded_bytes as f64),
        ),
    ])
}

/// RSS growth in MB per 1000 accepted submissions, from the samples a
/// run took every 1000 of them; 0 with fewer than two samples.
pub fn rss_growth_mb_per_1k(out: &RunOutcome) -> f64 {
    match out.rss_samples_mb.as_slice() {
        [first, .., last] => (last - first) / (out.rss_samples_mb.len() - 1) as f64 * 1.048_576,
        _ => 0.0,
    }
}

/// Per-layer figures of one traced run. `trace.overhead` and
/// `growth.rss_mb_per_1k_sub` are left to the caller, which holds the
/// untraced run: it has no span buffer to grow and no traced-only work.
pub fn per_layer(out: &RunOutcome, tracer: &Tracer) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let count = |k: &str| out.counts.get(k).copied().unwrap_or(0.0);
    let added_us: f64 = NOT_IN_WALL
        .iter()
        .flat_map(|s| tracer.durations_us(s))
        .sum::<f64>()
        + 0.0;
    // The traced wall the stages split: measured wall minus the calls
    // the benchmark added.
    let wall_us = (out.wall_s * 1e6 - added_us).max(1.0);
    m.insert("trace.wall_s".to_string(), wall_us / 1e6);
    let mut timed_us = 0.0;
    for (stage, stats) in STAGES {
        let d = tracer.durations_us(stage);
        let total: f64 = d.iter().sum::<f64>() + 0.0;
        timed_us += total;
        m.insert(format!("{stage}.share"), total / wall_us);
        let quarter = d.len() / 4;
        for s in *stats {
            let v = match *s {
                "calls" => d.len() as f64,
                "us_p50" => quantile(&d, 0.50),
                "us_p99" => quantile(&d, 0.99),
                "us_q1" => median(&d[..quarter]),
                "us_q4" => median(&d[d.len() - quarter..]),
                "us_per_job" => ratio(total, count("fact.drive_until_jobs")),
                "us_per_record" => ratio(total, count("fact.replayed_records")),
                other => unreachable!("unknown stage statistic {other}"),
            };
            m.insert(format!("{stage}.{s}"), v);
        }
    }
    let loop_share = (1.0 - timed_us / wall_us).max(0.0);
    m.insert("sim.loop.share".to_string(), loop_share);
    // Raw, so overlapping spans would show as a sum above 1.
    m.insert("trace.timed_share".to_string(), timed_us / wall_us);
    m.insert(
        "archive.write_container.us_p50".to_string(),
        quantile(&tracer.durations_us("archive.write_container"), 0.5),
    );
    m.insert(
        "archive.container_bytes_per_sub".to_string(),
        ratio(count("fact.container_bytes"), out.attempted as f64),
    );
    m.insert(
        "yaml.spec_parse.us_p50".to_string(),
        quantile(&tracer.durations_us("yaml.spec_parse"), 0.5),
    );
    for c in COUNTERS {
        m.insert(c.to_string(), count(c));
    }
    m.insert(
        "store.dedup_hit_ratio".to_string(),
        ratio(
            count("store.chunks_dedup"),
            count("store.chunks_dedup") + count("store.chunks"),
        ),
    );
    let acked = count("broker.acked");
    m.insert(
        "broker.useful_delivery_ratio".to_string(),
        ratio(
            acked,
            acked + count("broker.requeued") + count("broker.dead_lettered"),
        ),
    );
    m.insert(
        "exec.jobs_per_round_mean".to_string(),
        ratio(count("exec.batch_jobs"), count("exec.batches")),
    );
    m.insert(
        "wal.bytes_per_user_byte".to_string(),
        ratio(count("wal.bytes"), count("store.bytes_uploaded")),
    );
    m
}
