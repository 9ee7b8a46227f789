//! The **store dedup baseline**: measures what the content-addressed
//! store saves on the semester and chaos workloads and writes the
//! numbers to `BENCH_store.json` as the perf-trajectory baseline.
//!
//! Per seed, this bin:
//!
//! 1. runs the pinned semester workload and reports logical vs
//!    physical resident bytes, wire bytes vs logical upload bytes,
//!    and chunk/dedup counts;
//! 2. runs the chaos acceptance scenario and asserts the
//!    no-lost/no-duplicated audit still holds with dedup enabled;
//! 3. asserts the dedup ratio floor (physical ≤ 1/3 of logical);
//! 4. re-runs the semester on the same seed and asserts the rendered
//!    JSON is byte-identical (determinism gate);
//! 5. measures chunker throughput on a synthetic buffer (printed to
//!    stdout only — wall-clock numbers never go into the JSON).
//!
//! The three scenario runs are independent pure functions of the seed,
//! so they are fanned out across scoped threads, at most one per host
//! core; rendering and assertions stay sequential.
//!
//! ```text
//! cargo run --release -p rai-bench --bin store_report [seed]
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md.

use rai_archive::chunk::{chunk_bytes, ChunkerParams};
use rai_store::StoreUsage;
use rai_workload::chaos::{run_chaos, ChaosConfig, ChaosResult};
use rai_workload::semester::{run_semester, SemesterConfig, SemesterResult};

/// Pinned semester scale for the baseline: big enough for the dedup
/// ratios to stabilize, small enough for a CI smoke job.
const TEAMS: usize = 12;
const DAYS: u64 = 21;

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn usage_json(u: &StoreUsage, indent: &str) -> String {
    format!(
        "{indent}\"bytes_logical_resident\": {},\n\
         {indent}\"bytes_physical_resident\": {},\n\
         {indent}\"bytes_uploaded\": {},\n\
         {indent}\"bytes_wire\": {},\n\
         {indent}\"chunks_resident\": {},\n\
         {indent}\"chunks_dedup_total\": {},\n\
         {indent}\"puts\": {},\n\
         {indent}\"delta_puts\": {},\n\
         {indent}\"dedup_ratio\": {:.4},\n\
         {indent}\"wire_savings_ratio\": {:.4}",
        u.bytes_stored,
        u.bytes_physical,
        u.bytes_uploaded,
        u.bytes_wire,
        u.chunks,
        u.chunks_dedup_total,
        u.puts,
        u.delta_puts,
        ratio(u.bytes_stored, u.bytes_physical),
        ratio(u.bytes_uploaded, u.bytes_wire),
    )
}

fn render(seed: u64, semester: &StoreUsage, submissions: u64, chaos: &StoreUsage, accepted: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rai-store-bench/1\",\n");
    out.push_str(&format!("  \"seed\": {seed},\n"));
    out.push_str("  \"semester\": {\n");
    out.push_str(&format!("    \"teams\": {TEAMS},\n"));
    out.push_str(&format!("    \"days\": {DAYS},\n"));
    out.push_str(&format!("    \"submissions\": {submissions},\n"));
    out.push_str(&usage_json(semester, "    "));
    out.push_str("\n  },\n");
    out.push_str("  \"chaos\": {\n");
    out.push_str(&format!("    \"accepted\": {accepted},\n"));
    out.push_str("    \"audit\": \"pass\",\n");
    out.push_str(&usage_json(chaos, "    "));
    out.push_str("\n  }\n");
    out.push_str("}\n");
    out
}

fn chunker_throughput() {
    // 8 MiB of pseudorandom bytes; wall-clock only, never in the JSON.
    let mut state = 0x5EEDu64;
    let buf: Vec<u8> = (0..8 << 20)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect();
    let start = std::time::Instant::now();
    let (manifest, _) = chunk_bytes(&buf, ChunkerParams::DEFAULT);
    let elapsed = start.elapsed().as_secs_f64();
    println!(
        "  chunker throughput          {:.0} MiB/s ({} chunks, mean {} B)",
        (buf.len() as f64 / (1 << 20) as f64) / elapsed,
        manifest.chunks.len(),
        buf.len() / manifest.chunks.len().max(1),
    );
}

fn main() {
    let seed: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(2016);

    let sem_config = SemesterConfig::scaled(TEAMS, DAYS, seed);
    let chaos_config = ChaosConfig::acceptance(seed);

    // All three scenario runs are pure functions of their configs: fan
    // them out, then render and assert sequentially.
    enum Run {
        Semester(Box<SemesterResult>),
        Chaos(Box<ChaosResult>),
    }
    let runs = rai_bench::fan_out(&[false, false, true], |&is_chaos| {
        if is_chaos {
            Run::Chaos(Box::new(run_chaos(&chaos_config)))
        } else {
            Run::Semester(Box::new(run_semester(&sem_config)))
        }
    });
    let Ok([Run::Semester(semester), Run::Semester(semester2), Run::Chaos(chaos)]) =
        <[Run; 3]>::try_from(runs)
    else {
        unreachable!("fan_out returns the three runs in input order")
    };
    chaos
        .verify()
        .expect("chaos no-lost/no-duplicated audit must hold with dedup enabled");

    let json = render(
        seed,
        &semester.store,
        semester.total_submissions,
        &chaos.store,
        chaos.accepted.len(),
    );

    // Determinism gate: a same-seed re-run must render byte-identical
    // JSON (the semester is the trajectory baseline; flapping numbers
    // would poison every future comparison).
    assert_eq!(
        json,
        render(
            seed,
            &semester2.store,
            semester2.total_submissions,
            &chaos.store,
            chaos.accepted.len(),
        ),
        "same-seed semester must be byte-identical"
    );

    rai_bench::header(&format!("store dedup baseline — seed {seed}"));
    let u = &semester.store;
    println!("  semester ({TEAMS} teams x {DAYS} days, {} submissions)", semester.total_submissions);
    println!("    logical resident bytes    {}", u.bytes_stored);
    println!("    physical resident bytes   {}", u.bytes_physical);
    println!("    dedup ratio               {:.2}x", ratio(u.bytes_stored, u.bytes_physical));
    println!("    uploaded (logical) bytes  {}", u.bytes_uploaded);
    println!("    wire bytes                {}", u.bytes_wire);
    println!("    wire savings              {:.2}x", ratio(u.bytes_uploaded, u.bytes_wire));
    println!("    chunks resident           {}", u.chunks);
    println!("    dedup hits                {}", u.chunks_dedup_total);
    println!("    puts / delta puts         {} / {}", u.puts, u.delta_puts);
    let c = &chaos.store;
    println!("  chaos ({} accepted, audit pass)", chaos.accepted.len());
    println!("    dedup ratio               {:.2}x", ratio(c.bytes_stored, c.bytes_physical));
    println!("    wire savings              {:.2}x", ratio(c.bytes_uploaded, c.bytes_wire));
    chunker_throughput();

    // The acceptance floor: dedup must collapse the semester's
    // resident bytes at least 3x.
    let dedup = ratio(u.bytes_stored, u.bytes_physical);
    assert!(
        dedup >= 3.0,
        "dedup ratio {dedup:.2}x below the 3x floor (physical {} vs logical {})",
        u.bytes_physical,
        u.bytes_stored
    );

    std::fs::write("BENCH_store.json", &json).expect("write BENCH_store.json");
    println!("\nwrote BENCH_store.json (dedup {dedup:.2}x >= 3x floor)");
}
