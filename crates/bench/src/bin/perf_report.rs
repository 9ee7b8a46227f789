//! The **end-to-end perf baseline**: wall-clock and throughput for the
//! pinned semester and chaos workloads, per-subsystem micro-timings,
//! and the speedup the hot-path overhaul buys over the pre-overhaul
//! configuration — written to `BENCH_perf.json`.
//!
//! Write mode (default) runs, per seed:
//!
//! 1. an indexed-query micro scenario: the same query batch against an
//!    indexed and an unindexed collection, asserting identical results
//!    and a >= 2x speedup from the planner;
//! 2. the semester workload twice — once as shipped and once with
//!    `db_hot_indexes: false`, the pre-overhaul full-scan planner
//!    configuration that serves as the recorded reference run —
//!    asserting byte-identical fingerprints (the overhaul is
//!    observationally pure) and a >= 1.3x end-to-end speedup;
//! 3. the chaos acceptance scenario (audit must pass);
//! 4. chunker, LZSS, and broker fan-out micro-timings;
//! 5. a scaling sweep over the `rai-exec` pool (parallelism 1/2/4/8):
//!    single-run semester wall at each width (fingerprints must be
//!    byte-identical to the width-1 reference) and a replica fan-out
//!    measure — four independent semester replicas `par_map`'d across
//!    the pool. Since the job-level scheduler (DESIGN.md §15), the
//!    single-run semester itself scales: independent submissions of a
//!    scheduling round execute concurrently between their serial
//!    claim/commit points, so `semester_speedup_at_4` is the headline
//!    intra-run measure and the replica fan-out the embarrassingly
//!    parallel ceiling.
//!
//! Check mode (`--check`, the CI smoke job) re-runs the semester and
//! chaos scenarios at the requested pool width (`--parallelism N`,
//! default 1), verifies the committed `BENCH_perf.json` schema,
//! asserts the fingerprints still match the committed values exactly
//! (the committed fingerprints were recorded at width 1, so this *is*
//! the cross-width determinism gate), and fails if semester
//! wall-clock — one warmup run, then the median of three timed runs —
//! regressed more than 25% over the committed baseline. When the
//! requested width and the host both have >= 4 cores it re-measures
//! the single-run semester and the replica fan-out at widths 1 and 4
//! and enforces the >= 1.5x job-level speedup floor on both. It
//! writes nothing.
//!
//! ```text
//! cargo run --release -p rai-bench --bin perf_report [--check] [--parallelism N] [seed]
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md. Fingerprints are
//! exact gates; wall-clock numbers are machine-dependent and only
//! gated within the 25% drift band.

use rai_archive::chunk::{chunk_bytes, ChunkerParams};
use rai_archive::lzss;
use rai_broker::Broker;
use rai_db::{doc, Collection};
use rai_exec::Executor;
use rai_workload::chaos::{run_chaos, ChaosConfig, ChaosResult};
use rai_workload::semester::{run_semester, SemesterConfig, SemesterResult};
use std::time::Instant;

/// Pinned scale, matching the store baseline (`store_report`).
const TEAMS: usize = 12;
const DAYS: u64 = 21;

/// Allowed semester wall-clock drift over the committed baseline
/// before `--check` fails (same machine class assumed).
const MAX_WALL_DRIFT: f64 = 1.25;

/// Floors asserted in write mode (ISSUE acceptance criteria).
const MIN_E2E_SPEEDUP: f64 = 1.3;
const MIN_MICRO_SPEEDUP: f64 = 2.0;

/// Pool widths swept by the scaling section.
const SCALING_LEVELS: [usize; 4] = [1, 2, 4, 8];
/// Independent semester replicas fanned out per width.
const REPLICAS: usize = 4;
/// Replica scale — small enough that the sweep stays a smoke job.
const REPLICA_TEAMS: usize = 6;
const REPLICA_DAYS: u64 = 10;
/// Replica fan-out speedup floor at width 4 vs 1, enforced whenever
/// the host actually has >= 4 cores to scale onto.
const MIN_FANOUT_SPEEDUP: f64 = 1.5;
/// Single-run semester speedup floor at width 4 vs 1 — the job-level
/// scheduling gate (DESIGN.md §15). Same arming rule as the fan-out
/// floor: a real multi-core gate needs real cores.
const MIN_SEMESTER_SPEEDUP: f64 = 1.5;

fn host_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

struct Timed<T> {
    result: T,
    wall: f64,
}

fn timed<T>(f: impl FnOnce() -> T) -> Timed<T> {
    let start = Instant::now();
    let result = f();
    Timed {
        result,
        wall: start.elapsed().as_secs_f64(),
    }
}

// ---------------------------------------------------------------- micro

/// Indexed-query micro scenario: a point-lookup + range batch against
/// two collections holding identical documents, one with secondary
/// indexes and one without. Returns (indexed_wall, scan_wall).
fn indexed_query_micro() -> (f64, f64) {
    const DOCS: usize = 8_000;
    const QUERIES: u64 = 400;

    let build = |indexed: bool| {
        let mut c = Collection::new();
        if indexed {
            c.create_index("job_id");
            c.create_index("kind");
        }
        let docs = (0..DOCS as u64)
            .map(|i| {
                doc! {
                    "job_id" => i,
                    "kind" => format!("kind-{}", i % 8),
                    "runtime_secs" => 0.25 + (i as f64 * 3.77) % 90.0,
                }
            })
            .collect::<Vec<_>>();
        c.insert_many(docs);
        c
    };
    let indexed = build(true);
    let scan = build(false);

    let run_batch = |c: &Collection| {
        let mut touched = 0usize;
        for q in 0..QUERIES {
            let id = (q * 19) % DOCS as u64;
            touched += c.find_one(&doc! { "job_id" => id }).is_some() as usize;
            let lo = (q * 13) % (DOCS as u64 - 64);
            touched += c
                .find(&doc! {
                    "kind" => format!("kind-{}", q % 8),
                    "job_id" => doc! { "$gte" => lo, "$lt" => lo + 64 },
                })
                .len();
        }
        touched
    };

    // Results must agree before the timings mean anything.
    assert_eq!(
        run_batch(&indexed),
        run_batch(&scan),
        "planner and full scan disagree on the micro batch"
    );
    let fast = timed(|| run_batch(&indexed));
    let slow = timed(|| run_batch(&scan));
    assert_eq!(fast.result, slow.result);
    (fast.wall, slow.wall)
}

/// Deterministic pseudorandom buffer for the chunker timing.
fn synthetic_buffer(len: usize) -> Vec<u8> {
    let mut state = 0x5EEDu64;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

fn chunker_micro() -> f64 {
    let buf = synthetic_buffer(8 << 20);
    let t = timed(|| chunk_bytes(&buf, ChunkerParams::DEFAULT));
    assert_eq!(t.result.0.total_len, buf.len() as u64);
    (buf.len() as f64 / (1 << 20) as f64) / t.wall
}

fn lzss_micro() -> f64 {
    // Repetitive project-log-like text: the shape the upload path sees.
    let data = b"make && ./ece408 /data/test10.hdf5 /data/model.hdf5 10000\n".repeat(40_000);
    let t = timed(|| lzss::compress(&data));
    assert_eq!(
        lzss::decompress(&t.result).expect("round trip"),
        data,
        "lzss round trip"
    );
    (data.len() as f64 / (1 << 20) as f64) / t.wall
}

fn broker_fanout_micro() -> f64 {
    const CHANNELS: usize = 16;
    const MESSAGES: usize = 10_000;
    let broker = Broker::default();
    let subs: Vec<_> = (0..CHANNELS)
        .map(|i| broker.subscribe("perf", &format!("ch{i}")))
        .collect();
    let body = vec![0x42u8; 256];
    let t = timed(|| {
        for _ in 0..MESSAGES {
            broker.publish("perf", body.clone()).expect("publish");
        }
        let mut delivered = 0usize;
        for s in &subs {
            while let Some(m) = s.try_recv() {
                s.ack(m.id);
                delivered += 1;
            }
        }
        delivered
    });
    assert_eq!(t.result, CHANNELS * MESSAGES, "every copy delivered");
    (CHANNELS * MESSAGES) as f64 / t.wall
}

// -------------------------------------------------------------- scaling

struct ScalingLevel {
    parallelism: usize,
    semester_wall: f64,
    fanout_wall: f64,
}

/// Fan `REPLICAS` independent semester replicas (distinct seeds, each a
/// pure function of its config) across a `width`-worker pool and return
/// (wall, per-replica fingerprints). The fingerprint vector must be
/// identical at every width — that is asserted by the callers.
fn replica_fanout(width: usize, seed: u64) -> Timed<Vec<u64>> {
    let exec = Executor::new(width);
    timed(|| {
        exec.par_map((0..REPLICAS as u64).collect(), |i: u64| {
            run_semester(&SemesterConfig::scaled(
                REPLICA_TEAMS,
                REPLICA_DAYS,
                seed ^ (i << 8),
            ))
            .fingerprint()
        })
    })
}

/// The write-mode scaling sweep. Asserts single-run semester
/// fingerprints and replica fingerprint vectors are byte-identical at
/// every width; returns the per-width walls.
fn scaling_sweep(seed: u64, reference_fp: u64) -> Vec<ScalingLevel> {
    let mut levels = Vec::new();
    let mut reference_replicas: Option<Vec<u64>> = None;
    for &width in &SCALING_LEVELS {
        let cfg = SemesterConfig::scaled(TEAMS, DAYS, seed).with_parallelism(width);
        let semester = timed(|| run_semester(&cfg));
        assert_eq!(
            semester.result.fingerprint(),
            reference_fp,
            "semester fingerprint diverged at parallelism {width}"
        );
        let fanout = replica_fanout(width, seed);
        match &reference_replicas {
            None => reference_replicas = Some(fanout.result.clone()),
            Some(reference) => assert_eq!(
                reference, &fanout.result,
                "replica fingerprints diverged at parallelism {width}"
            ),
        }
        levels.push(ScalingLevel {
            parallelism: width,
            semester_wall: semester.wall,
            fanout_wall: fanout.wall,
        });
    }
    levels
}

fn fanout_speedup_at_4(levels: &[ScalingLevel]) -> f64 {
    let wall_at = |p: usize| {
        levels
            .iter()
            .find(|l| l.parallelism == p)
            .expect("swept width")
            .fanout_wall
    };
    wall_at(1) / wall_at(4)
}

fn semester_speedup_at_4(levels: &[ScalingLevel]) -> f64 {
    let wall_at = |p: usize| {
        levels
            .iter()
            .find(|l| l.parallelism == p)
            .expect("swept width")
            .semester_wall
    };
    wall_at(1) / wall_at(4)
}

/// Enforce the replica fan-out floor — a real multi-core speedup gate,
/// armed only when the host has the cores to show one.
fn assert_fanout_floor(speedup: f64, cpus: usize) {
    if cpus >= 4 {
        assert!(
            speedup >= MIN_FANOUT_SPEEDUP,
            "replica fan-out speedup {speedup:.2}x at parallelism 4 below the \
             {MIN_FANOUT_SPEEDUP}x floor on a {cpus}-core host"
        );
    } else {
        println!(
            "  (fan-out floor dormant: host has {cpus} core(s), needs >= 4 to scale)"
        );
    }
}

/// Enforce the single-run semester floor — the job-level scheduler's
/// gate — under the same arming rule.
fn assert_semester_floor(speedup: f64, cpus: usize) {
    if cpus >= 4 {
        assert!(
            speedup >= MIN_SEMESTER_SPEEDUP,
            "single-run semester speedup {speedup:.2}x at parallelism 4 below the \
             {MIN_SEMESTER_SPEEDUP}x job-level floor on a {cpus}-core host"
        );
    } else {
        println!(
            "  (semester floor dormant: host has {cpus} core(s), needs >= 4 to scale)"
        );
    }
}

// ----------------------------------------------------------------- json

struct Report {
    seed: u64,
    semester: Timed<SemesterResult>,
    reference_wall: f64,
    chaos: Timed<ChaosResult>,
    micro_indexed_wall: f64,
    micro_scan_wall: f64,
    chunker_mib_s: f64,
    lzss_mib_s: f64,
    fanout_msgs_s: f64,
    scaling: Vec<ScalingLevel>,
    host_cpus: usize,
}

fn render(r: &Report) -> String {
    let sem = &r.semester.result;
    let chaos = &r.chaos.result;
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rai-perf-bench/6\",\n");
    out.push_str(&format!("  \"seed\": {},\n", r.seed));
    out.push_str("  \"reference\": {\n");
    out.push_str(
        "    \"description\": \"same semester workload with db_hot_indexes=false (pre-overhaul full-scan planner)\",\n",
    );
    out.push_str(&format!(
        "    \"semester_wall_secs\": {:.4},\n",
        r.reference_wall
    ));
    out.push_str(&format!(
        "    \"speedup_vs_reference\": {:.2}\n",
        r.reference_wall / r.semester.wall
    ));
    out.push_str("  },\n");
    out.push_str("  \"semester\": {\n");
    out.push_str(&format!("    \"teams\": {TEAMS},\n"));
    out.push_str(&format!("    \"days\": {DAYS},\n"));
    out.push_str(&format!(
        "    \"submissions\": {},\n",
        sem.total_submissions
    ));
    out.push_str(&format!("    \"wall_secs\": {:.4},\n", r.semester.wall));
    out.push_str(&format!(
        "    \"throughput_sub_per_sec\": {:.1},\n",
        sem.total_submissions as f64 / r.semester.wall
    ));
    out.push_str(&format!(
        "    \"fingerprint\": \"{:#018x}\"\n",
        sem.fingerprint()
    ));
    out.push_str("  },\n");
    out.push_str("  \"chaos\": {\n");
    out.push_str(&format!("    \"accepted\": {},\n", chaos.accepted.len()));
    out.push_str("    \"audit\": \"pass\",\n");
    out.push_str(&format!("    \"wall_secs\": {:.4},\n", r.chaos.wall));
    out.push_str(&format!(
        "    \"throughput_sub_per_sec\": {:.1},\n",
        chaos.accepted.len() as f64 / r.chaos.wall
    ));
    out.push_str(&format!(
        "    \"fingerprint\": \"{:#018x}\"\n",
        chaos.fingerprint
    ));
    out.push_str("  },\n");
    out.push_str("  \"micro\": {\n");
    out.push_str(&format!(
        "    \"indexed_query_wall_secs\": {:.6},\n",
        r.micro_indexed_wall
    ));
    out.push_str(&format!(
        "    \"full_scan_wall_secs\": {:.6},\n",
        r.micro_scan_wall
    ));
    out.push_str(&format!(
        "    \"indexed_query_speedup\": {:.2},\n",
        r.micro_scan_wall / r.micro_indexed_wall
    ));
    out.push_str(&format!(
        "    \"chunker_mib_per_sec\": {:.0},\n",
        r.chunker_mib_s
    ));
    out.push_str(&format!(
        "    \"lzss_compress_mib_per_sec\": {:.0},\n",
        r.lzss_mib_s
    ));
    out.push_str(&format!(
        "    \"broker_fanout_msgs_per_sec\": {:.0}\n",
        r.fanout_msgs_s
    ));
    out.push_str("  },\n");
    out.push_str("  \"scaling\": {\n");
    out.push_str(&format!("    \"host_cpus\": {},\n", r.host_cpus));
    out.push_str(&format!("    \"replicas\": {REPLICAS},\n"));
    out.push_str(&format!(
        "    \"replica_scale\": \"{REPLICA_TEAMS} teams x {REPLICA_DAYS} days\",\n"
    ));
    out.push_str("    \"levels\": [\n");
    for (i, l) in r.scaling.iter().enumerate() {
        let sem = &r.semester.result;
        out.push_str(&format!(
            "      {{ \"parallelism\": {}, \"semester_wall_secs\": {:.4}, \"semester_throughput_sub_per_sec\": {:.1}, \"replica_fanout_wall_secs\": {:.4} }}{}\n",
            l.parallelism,
            l.semester_wall,
            sem.total_submissions as f64 / l.semester_wall,
            l.fanout_wall,
            if i + 1 < r.scaling.len() { "," } else { "" }
        ));
    }
    out.push_str("    ],\n");
    out.push_str(&format!(
        "    \"semester_speedup_at_4\": {:.2},\n",
        semester_speedup_at_4(&r.scaling)
    ));
    out.push_str(&format!(
        "    \"replica_fanout_speedup_at_4\": {:.2},\n",
        fanout_speedup_at_4(&r.scaling)
    ));
    out.push_str(&format!(
        "    \"floor\": \"semester_speedup_at_4 >= {MIN_SEMESTER_SPEEDUP} and replica_fanout_speedup_at_4 >= {MIN_FANOUT_SPEEDUP} enforced when host_cpus >= 4\",\n"
    ));
    out.push_str(
        "    \"note\": \"fingerprints are byte-identical at every width; the job-level scheduler executes independent submissions of a scheduling round concurrently between their serial claim/commit points (DESIGN.md 15), so the single-run semester scales with width and the replica fan-out is the embarrassingly parallel ceiling\"\n",
    );
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Pull `"key": value` out of the named top-level section of the
/// committed report (the file is our own hand-rendered format, so a
/// positional scan is exact).
fn extract<'a>(json: &'a str, section: &str, key: &str) -> &'a str {
    let sec = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCH_perf.json: no \"{section}\" section"));
    let rest = &json[sec..];
    let k = rest
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCH_perf.json: no \"{key}\" in \"{section}\""));
    let after = &rest[k..];
    let colon = after.find(':').expect("key has a value");
    after[colon + 1..]
        .split([',', '\n', '}'])
        .next()
        .expect("value before delimiter")
        .trim()
        .trim_matches('"')
}

// ----------------------------------------------------------------- main

fn check(seed: u64, parallelism: usize) {
    let committed =
        std::fs::read_to_string("BENCH_perf.json").expect("read committed BENCH_perf.json");
    let schema = extract(&committed, "schema", "schema");
    assert_eq!(schema, "rai-perf-bench/6", "unexpected schema");
    let committed_sem_fp = extract(&committed, "semester", "fingerprint").to_string();
    let committed_chaos_fp = extract(&committed, "chaos", "fingerprint").to_string();
    let committed_wall: f64 = extract(&committed, "semester", "wall_secs")
        .parse()
        .expect("semester wall_secs is a number");
    // The scaling section must be present and well-formed; the
    // committed speedup only gates when the *recording* machine had
    // the cores to show one.
    let committed_cpus: usize = extract(&committed, "scaling", "host_cpus")
        .parse()
        .expect("scaling host_cpus is a number");
    let committed_fanout: f64 = extract(&committed, "scaling", "replica_fanout_speedup_at_4")
        .parse()
        .expect("scaling replica_fanout_speedup_at_4 is a number");
    let committed_semester_speedup: f64 = extract(&committed, "scaling", "semester_speedup_at_4")
        .parse()
        .expect("scaling semester_speedup_at_4 is a number");
    if committed_cpus >= 4 {
        assert!(
            committed_fanout >= MIN_FANOUT_SPEEDUP,
            "committed replica fan-out speedup {committed_fanout:.2}x below the \
             {MIN_FANOUT_SPEEDUP}x floor (recorded on a {committed_cpus}-core host)"
        );
        assert!(
            committed_semester_speedup >= MIN_SEMESTER_SPEEDUP,
            "committed single-run semester speedup {committed_semester_speedup:.2}x below the \
             {MIN_SEMESTER_SPEEDUP}x job-level floor (recorded on a {committed_cpus}-core host)"
        );
    }

    // Wall-clock is noisy (cold caches, co-tenant load): one warmup
    // run primes the allocator and page cache, then the gate reads the
    // *median* of three timed runs — robust to a single co-tenant
    // spike in either direction, where the old best-of-3 systematically
    // under-reported steady-state cost. Fingerprints are exact and
    // must match on every run, warmup included — the committed values
    // were recorded at width 1, so re-running at the requested width
    // is the cross-width determinism gate.
    let run_semester_once = || {
        timed(|| {
            run_semester(
                &SemesterConfig::scaled(TEAMS, DAYS, seed).with_parallelism(parallelism),
            )
        })
    };
    let assert_sem_fp = |semester: &Timed<SemesterResult>| {
        let sem_fp = format!("{:#018x}", semester.result.fingerprint());
        assert_eq!(
            sem_fp, committed_sem_fp,
            "semester fingerprint at parallelism {parallelism} drifted from the committed baseline"
        );
    };
    let warmup = run_semester_once();
    assert_sem_fp(&warmup);
    let mut walls = Vec::with_capacity(3);
    for _ in 0..3 {
        let semester = run_semester_once();
        assert_sem_fp(&semester);
        walls.push(semester.wall);
    }
    walls.sort_by(f64::total_cmp);
    let median_wall = walls[1];
    let chaos = timed(|| {
        run_chaos(&ChaosConfig::acceptance(seed).with_parallelism(parallelism))
    });
    chaos.result.verify().expect("chaos audit");
    let chaos_fp = format!("{:#018x}", chaos.result.fingerprint);
    assert_eq!(
        chaos_fp, committed_chaos_fp,
        "chaos fingerprint at parallelism {parallelism} drifted from the committed baseline"
    );
    // The drift band gates the reference configuration only: at width
    // > 1 an under-provisioned host pays pool-parking overhead that
    // says nothing about a code regression (the width-1 CI job already
    // guards the wall; this job guards fingerprints and the floor).
    if parallelism == 1 {
        assert!(
            median_wall <= committed_wall * MAX_WALL_DRIFT,
            "semester wall {median_wall:.3}s (median of 3 after warmup) regressed more than {:.0}% over committed {committed_wall:.3}s",
            (MAX_WALL_DRIFT - 1.0) * 100.0,
        );
    }

    // Live scaling floors: when asked to check a multi-core width on a
    // multi-core host, the speedups must still be there — not just in
    // the committed file.
    if parallelism >= 4 {
        let cpus = host_cpus();
        // Job-level floor: the same single semester, width 1 vs 4.
        let seq_sem =
            timed(|| run_semester(&SemesterConfig::scaled(TEAMS, DAYS, seed)));
        let par_sem = timed(|| {
            run_semester(&SemesterConfig::scaled(TEAMS, DAYS, seed).with_parallelism(4))
        });
        assert_eq!(
            seq_sem.result.fingerprint(),
            par_sem.result.fingerprint(),
            "semester fingerprints diverged between widths 1 and 4"
        );
        let sem_speedup = seq_sem.wall / par_sem.wall;
        println!(
            "perf check: single-run semester {:.3}s -> {:.3}s ({sem_speedup:.2}x) on {cpus} core(s)",
            seq_sem.wall, par_sem.wall
        );
        assert_semester_floor(sem_speedup, cpus);
        let sequential = replica_fanout(1, seed);
        let pooled = replica_fanout(4, seed);
        assert_eq!(
            sequential.result, pooled.result,
            "replica fingerprints diverged between widths 1 and 4"
        );
        let speedup = sequential.wall / pooled.wall;
        println!(
            "perf check: replica fan-out {:.3}s -> {:.3}s ({speedup:.2}x) on {cpus} core(s)",
            sequential.wall, pooled.wall
        );
        assert_fanout_floor(speedup, cpus);
    }

    if parallelism == 1 {
        println!(
            "perf check: fingerprints match ({committed_sem_fp} / {chaos_fp}) at parallelism 1, wall {median_wall:.3}s (median of 3) within {:.0}% of committed {committed_wall:.3}s",
            (MAX_WALL_DRIFT - 1.0) * 100.0,
        );
    } else {
        println!(
            "perf check: fingerprints match ({committed_sem_fp} / {chaos_fp}) at parallelism {parallelism}, wall {median_wall:.3}s (committed {committed_wall:.3}s, drift gated by the width-1 job)"
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let parallelism: usize = args
        .iter()
        .position(|a| a == "--parallelism")
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("--parallelism takes a positive integer"))
        .unwrap_or(1);
    let seed: u64 = args
        .iter()
        .enumerate()
        .filter(|(i, _)| {
            // Skip the --parallelism value; any other bare integer is
            // the seed.
            args.get(i.wrapping_sub(1)).is_none_or(|prev| prev != "--parallelism")
        })
        .find_map(|(_, a)| a.parse().ok())
        .unwrap_or(2016);

    if check_mode {
        check(seed, parallelism);
        return;
    }

    rai_bench::header(&format!("hot-path perf baseline — seed {seed}"));

    let (micro_indexed_wall, micro_scan_wall) = indexed_query_micro();
    let micro_speedup = micro_scan_wall / micro_indexed_wall;
    println!(
        "  indexed-query micro         {micro_speedup:.1}x (indexed {:.2}ms vs scan {:.2}ms)",
        micro_indexed_wall * 1e3,
        micro_scan_wall * 1e3
    );

    let config = SemesterConfig::scaled(TEAMS, DAYS, seed);
    let semester = timed(|| run_semester(&config));
    let mut legacy_config = SemesterConfig::scaled(TEAMS, DAYS, seed);
    legacy_config.db_hot_indexes = false;
    let reference = timed(|| run_semester(&legacy_config));
    let e2e_speedup = reference.wall / semester.wall;
    println!(
        "  semester ({TEAMS} teams x {DAYS} days, {} submissions)",
        semester.result.total_submissions
    );
    println!(
        "    wall                      {:.3}s ({:.0} sub/s)",
        semester.wall,
        semester.result.total_submissions as f64 / semester.wall
    );
    println!("    reference (no indexes)    {:.3}s", reference.wall);
    println!("    speedup                   {e2e_speedup:.2}x");
    println!(
        "    fingerprint               {:#018x}",
        semester.result.fingerprint()
    );

    let chaos = timed(|| run_chaos(&ChaosConfig::acceptance(seed)));
    chaos.result.verify().expect("chaos audit");
    println!(
        "  chaos ({} accepted, audit pass)",
        chaos.result.accepted.len()
    );
    println!(
        "    wall                      {:.3}s ({:.0} sub/s)",
        chaos.wall,
        chaos.result.accepted.len() as f64 / chaos.wall
    );
    println!(
        "    fingerprint               {:#018x}",
        chaos.result.fingerprint
    );

    let chunker_mib_s = chunker_micro();
    let lzss_mib_s = lzss_micro();
    let fanout_msgs_s = broker_fanout_micro();
    println!("  chunker                     {chunker_mib_s:.0} MiB/s");
    println!("  lzss compress               {lzss_mib_s:.0} MiB/s");
    println!("  broker fan-out (16ch)       {fanout_msgs_s:.0} msg/s");

    let cpus = host_cpus();
    let scaling = scaling_sweep(seed, semester.result.fingerprint());
    println!("  scaling ({cpus} host core(s), {REPLICAS} replicas of {REPLICA_TEAMS} teams x {REPLICA_DAYS} days)");
    for l in &scaling {
        println!(
            "    parallelism {}: semester {:.3}s, replica fan-out {:.3}s",
            l.parallelism, l.semester_wall, l.fanout_wall
        );
    }
    let sem_speedup = semester_speedup_at_4(&scaling);
    println!("    semester speedup          {sem_speedup:.2}x at parallelism 4");
    assert_semester_floor(sem_speedup, cpus);
    let fanout_speedup = fanout_speedup_at_4(&scaling);
    println!("    replica fan-out speedup   {fanout_speedup:.2}x at parallelism 4");
    assert_fanout_floor(fanout_speedup, cpus);

    // The observational-purity gate: the planner, broker, chunker, and
    // store optimisations must not change a single observable byte.
    assert_eq!(
        semester.result.fingerprint(),
        reference.result.fingerprint(),
        "optimised and reference semester runs diverged — the overhaul is not observationally pure"
    );
    assert!(
        micro_speedup >= MIN_MICRO_SPEEDUP,
        "indexed-query micro speedup {micro_speedup:.2}x below the {MIN_MICRO_SPEEDUP}x floor"
    );
    assert!(
        e2e_speedup >= MIN_E2E_SPEEDUP,
        "end-to-end semester speedup {e2e_speedup:.2}x below the {MIN_E2E_SPEEDUP}x floor"
    );

    let report = Report {
        seed,
        semester,
        reference_wall: reference.wall,
        chaos,
        micro_indexed_wall,
        micro_scan_wall,
        chunker_mib_s,
        lzss_mib_s,
        fanout_msgs_s,
        scaling,
        host_cpus: cpus,
    };
    std::fs::write("BENCH_perf.json", render(&report)).expect("write BENCH_perf.json");
    println!(
        "\nwrote BENCH_perf.json (e2e {e2e_speedup:.2}x >= {MIN_E2E_SPEEDUP}x, micro {micro_speedup:.1}x >= {MIN_MICRO_SPEEDUP}x)"
    );
}
