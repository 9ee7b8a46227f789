//! **Crash-recovery baseline**: kill the durable deployment at seeded
//! points, recover from the write-ahead logs, and commit the replay
//! numbers to `BENCH_recovery.json`.
//!
//! Write mode (default) runs, per pinned seed:
//!
//! 1. the **clean-kill byte-identity gate** — a fault-free quick course
//!    killed mid-drive, recovered, resumed, at payload-pipeline widths
//!    1 and 4, asserting every recovered fingerprint equals the
//!    uninterrupted same-seed run's;
//! 2. the **chaos restart audit** — the full quick fault plan with a
//!    mid-drive kill: zero lost, zero duplicated, everything accounted
//!    across the restart;
//! 3. the **dirty-crash audit** — the same kill plus seeded disk
//!    faults on the logs' unsynced tails: the damage must surface in
//!    the replay ledger (torn bytes / corrupt records dropped), never
//!    as lost submissions or a panic;
//! 4. the **compaction gate** — aggressive thresholds so both logs
//!    snapshot mid-course, then a post-compaction kill recovering from
//!    snapshot + tail, byte-identical again;
//! 5. a **replay wall-clock** measurement (stdout + a `host` section
//!    the check mode deliberately ignores — wall time is a host fact).
//!
//! Check mode (`--check`, the CI recovery job) re-runs everything and
//! requires every *deterministic* field to match the committed JSON
//! exactly: fingerprints, accepted/terminal/dead-letter/republish
//! counts, replayed-record counts, corruption drops, compaction
//! counts. The `host` section is exempt. It writes nothing.
//!
//! ```text
//! cargo run --release -p rai-bench --bin recovery_report [--check] [seed...]
//! ```
//!
//! The JSON schema is documented in EXPERIMENTS.md.

use rai_wal::DurabilityConfig;
use rai_workload::chaos::ChaosConfig;
use rai_workload::recovery::{run_recovery, KillPoint, RecoveryConfig, RecoveryResult};

/// Pinned seeds, matching the chaos acceptance job.
const SEEDS: [u64; 3] = [2016, 408, 50181];

/// Exec widths the clean-kill byte-identity gate sweeps.
const WIDTHS: [usize; 2] = [1, 4];

/// The seeded kill point every scenario uses: mid-drive, a few worker
/// steps into round 5 of the 12-round quick course.
const KILL: KillPoint = KillPoint { round: 5, after_steps: Some(2) };

/// Everything deterministic one seed's sweep produces.
struct SeedReport {
    seed: u64,
    /// Fingerprint shared by the uninterrupted run and every recovered
    /// run of the clean fault-free course.
    clean_fingerprint: u64,
    clean_accepted: usize,
    /// Chaos-plan restart audit numbers.
    chaos_accepted: usize,
    chaos_terminal: usize,
    chaos_dead_lettered: usize,
    chaos_republished: u64,
    chaos_db_replayed: u64,
    chaos_store_replayed: u64,
    /// Dirty-crash audit numbers (disk-fault draws are seeded, so
    /// these reproduce exactly).
    dirty_disk_faults: usize,
    dirty_corrupt_dropped: u64,
    dirty_torn_bytes: u64,
    dirty_terminal: usize,
    dirty_dead_lettered: usize,
    /// Compaction-gate numbers.
    compactions: u64,
    /// Cumulative bytes ever appended across both logs vs bytes
    /// resident after compaction — the log-bound the snapshots buy.
    compaction_ratio: f64,
}

/// Host facts: replay wall clock. Reported, committed for reference,
/// never drift-checked.
struct HostReport {
    replay_wall_ms: f64,
    replayed_records: u64,
}

fn aggressive(durability: DurabilityConfig) -> DurabilityConfig {
    DurabilityConfig {
        segment_bytes: 16 << 10,
        compact_min_bytes: 4 << 10,
        compact_factor: 2,
        ..durability
    }
}

fn run_seed(seed: u64) -> SeedReport {
    // 1. Clean-kill byte-identity, widths 1 and 4.
    let clean_cfg = RecoveryConfig::clean(seed, KILL);
    let baseline = run_recovery(&RecoveryConfig { kill: None, ..clean_cfg.clone() });
    baseline.verify().expect("uninterrupted clean run audits");
    for width in WIDTHS {
        let mut cfg = clean_cfg.clone();
        cfg.chaos = cfg.chaos.with_parallelism(width);
        let resumed = run_recovery(&cfg);
        assert!(resumed.killed, "seed {seed}: kill point never fired");
        resumed.verify().expect("recovered clean run audits");
        assert_eq!(
            resumed.fingerprint, baseline.fingerprint,
            "seed {seed} width {width}: recovered run differs from uninterrupted run"
        );
    }

    // 2. Chaos restart audit.
    let chaos = run_recovery(&RecoveryConfig {
        chaos: ChaosConfig::quick(seed),
        kill: Some(KILL),
        disk_faults: None,
        durability: DurabilityConfig::durable(),
    });
    assert!(chaos.killed);
    chaos
        .verify()
        .expect("zero lost / zero duplicated across the chaos restart");
    let report = chaos.recovery.expect("a recovery happened");
    assert_eq!(report.db.malformed_dropped, 0, "clean crash corrupts nothing");
    // 3. Dirty crash.
    let dirty = run_recovery(&RecoveryConfig::dirty(seed, KILL));
    assert!(dirty.killed);
    dirty
        .verify()
        .expect("zero lost / zero duplicated after the dirty crash");
    if !dirty.disk_faults.is_empty() {
        assert!(
            dirty.db_wal.corrupt_dropped + dirty.store_wal.corrupt_dropped > 0
                || dirty.db_wal.torn_bytes + dirty.store_wal.torn_bytes > 0,
            "seed {seed}: injected faults {:?} left no trace in the replay ledger",
            dirty.disk_faults
        );
    }

    // 4. Compaction gate: snapshots mid-course, then a byte-identical
    // post-compaction recovery.
    let mut compact_cfg = RecoveryConfig::clean(seed, KillPoint::mid_drive(9, 1));
    compact_cfg.durability = aggressive(compact_cfg.durability);
    let compact_base = run_recovery(&RecoveryConfig { kill: None, ..compact_cfg.clone() });
    assert!(
        compact_base.db_wal.compactions > 0 && compact_base.store_wal.compactions > 0,
        "seed {seed}: compaction thresholds never tripped"
    );
    let compact_resumed = run_recovery(&compact_cfg);
    compact_resumed.verify().unwrap();
    assert_eq!(
        compact_resumed.fingerprint, compact_base.fingerprint,
        "seed {seed}: snapshot + tail recovery differs from uninterrupted run"
    );
    let appended = compact_base.db_wal.bytes + compact_base.store_wal.bytes;
    let resident = compact_base.db_wal.log_bytes + compact_base.store_wal.log_bytes;
    assert!(resident < appended, "compaction must shrink the resident log");

    SeedReport {
        seed,
        clean_fingerprint: baseline.fingerprint,
        clean_accepted: baseline.accepted.len(),
        chaos_accepted: chaos.accepted.len(),
        chaos_terminal: chaos.terminal.len(),
        chaos_dead_lettered: chaos.dead_lettered.len(),
        chaos_republished: chaos.republished,
        chaos_db_replayed: report.db.stats.replayed,
        chaos_store_replayed: report.store.stats.replayed,
        dirty_disk_faults: dirty.disk_faults.len(),
        dirty_corrupt_dropped: dirty.db_wal.corrupt_dropped + dirty.store_wal.corrupt_dropped,
        dirty_torn_bytes: dirty.db_wal.torn_bytes + dirty.store_wal.torn_bytes,
        dirty_terminal: dirty.terminal.len(),
        dirty_dead_lettered: dirty.dead_lettered.len(),
        compactions: compact_base.db_wal.compactions + compact_base.store_wal.compactions,
        compaction_ratio: appended as f64 / resident.max(1) as f64,
    }
}

/// Time one recovery in isolation: the fault-free course killed at the
/// pinned point, clock started when the logs are handed to replay.
fn measure_replay_wall(seed: u64) -> HostReport {
    // The killed run's logs are rebuilt inside run_recovery; timing the
    // whole killed run vs the uninterrupted run would mix workload wall
    // into the number. Instead, time N recovered runs against N
    // uninterrupted ones and attribute the difference to recovery
    // (replay + re-publish + re-drive of the killed round).
    let cfg = RecoveryConfig::clean(seed, KILL);
    let base_cfg = RecoveryConfig { kill: None, ..cfg.clone() };
    const N: u32 = 5;
    let time = |c: &RecoveryConfig| -> (f64, RecoveryResult) {
        let start = std::time::Instant::now();
        let mut last = None;
        for _ in 0..N {
            last = Some(run_recovery(c));
        }
        (start.elapsed().as_secs_f64() * 1e3 / f64::from(N), last.expect("ran"))
    };
    let (uninterrupted_ms, _) = time(&base_cfg);
    let (killed_ms, result) = time(&cfg);
    let report = result.recovery.expect("recovery happened");
    HostReport {
        replay_wall_ms: (killed_ms - uninterrupted_ms).max(0.0),
        replayed_records: report.db.stats.replayed + report.store.stats.replayed,
    }
}

fn render_json(seeds: &[SeedReport], host: &HostReport) -> String {
    let list = |f: &dyn Fn(&SeedReport) -> String| -> String {
        seeds.iter().map(f).collect::<Vec<_>>().join(", ")
    };
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"rai-recovery-bench/4\",\n");
    out.push_str(&format!("  \"seeds\": [{}],\n", list(&|s| s.seed.to_string())));
    out.push_str(&format!(
        "  \"widths_checked\": [{}, {}],\n",
        WIDTHS[0], WIDTHS[1]
    ));
    out.push_str("  \"clean_kill\": {\n");
    out.push_str(&format!(
        "    \"fingerprints\": [{}],\n",
        list(&|s| format!("\"{:#018x}\"", s.clean_fingerprint))
    ));
    out.push_str(&format!(
        "    \"accepted\": [{}]\n",
        list(&|s| s.clean_accepted.to_string())
    ));
    out.push_str("  },\n");
    out.push_str("  \"chaos_restart\": {\n");
    out.push_str(&format!("    \"accepted\": [{}],\n", list(&|s| s.chaos_accepted.to_string())));
    out.push_str(&format!("    \"terminal\": [{}],\n", list(&|s| s.chaos_terminal.to_string())));
    out.push_str(&format!(
        "    \"dead_lettered\": [{}],\n",
        list(&|s| s.chaos_dead_lettered.to_string())
    ));
    out.push_str(&format!(
        "    \"republished\": [{}],\n",
        list(&|s| s.chaos_republished.to_string())
    ));
    out.push_str(&format!(
        "    \"db_records_replayed\": [{}],\n",
        list(&|s| s.chaos_db_replayed.to_string())
    ));
    out.push_str(&format!(
        "    \"store_records_replayed\": [{}]\n",
        list(&|s| s.chaos_store_replayed.to_string())
    ));
    out.push_str("  },\n");
    out.push_str("  \"dirty_crash\": {\n");
    out.push_str(&format!(
        "    \"disk_faults_injected\": [{}],\n",
        list(&|s| s.dirty_disk_faults.to_string())
    ));
    out.push_str(&format!(
        "    \"corrupt_records_dropped\": [{}],\n",
        list(&|s| s.dirty_corrupt_dropped.to_string())
    ));
    out.push_str(&format!(
        "    \"torn_bytes\": [{}],\n",
        list(&|s| s.dirty_torn_bytes.to_string())
    ));
    out.push_str(&format!("    \"terminal\": [{}],\n", list(&|s| s.dirty_terminal.to_string())));
    out.push_str(&format!(
        "    \"dead_lettered\": [{}],\n",
        list(&|s| s.dirty_dead_lettered.to_string())
    ));
    out.push_str("    \"audit\": \"pass\"\n");
    out.push_str("  },\n");
    out.push_str("  \"compaction\": {\n");
    out.push_str(&format!("    \"compactions\": [{}],\n", list(&|s| s.compactions.to_string())));
    out.push_str(&format!(
        "    \"ratio\": [{}]\n",
        list(&|s| format!("{:.4}", s.compaction_ratio))
    ));
    out.push_str("  },\n");
    out.push_str("  \"host\": {\n");
    out.push_str("    \"note\": \"wall-clock facts; excluded from --check\",\n");
    out.push_str(&format!("    \"replayed_records\": {},\n", host.replayed_records));
    out.push_str(&format!("    \"replay_wall_ms\": {:.2}\n", host.replay_wall_ms));
    out.push_str("  }\n");
    out.push_str("}\n");
    out
}

/// Blank out the `host` section (host facts are not drift-checked).
fn strip_host(json: &str) -> String {
    let Some(start) = json.find("  \"host\": {") else { return json.to_string() };
    let rest = &json[start..];
    let end = rest.find("\n  }").map(|i| i + 4).unwrap_or(rest.len());
    format!("{}{}", &json[..start], &rest[end..])
}

fn print_seed(s: &SeedReport) {
    println!("  seed {}", s.seed);
    println!(
        "    clean kill       fingerprint {:#018x} over {} accepted, identical at widths {:?}",
        s.clean_fingerprint, s.clean_accepted, WIDTHS
    );
    println!(
        "    chaos restart    {} accepted -> {} terminal + {} dead-lettered, {} republished",
        s.chaos_accepted, s.chaos_terminal, s.chaos_dead_lettered, s.chaos_republished
    );
    println!(
        "    replayed         {} db + {} store records",
        s.chaos_db_replayed, s.chaos_store_replayed
    );
    println!(
        "    dirty crash      {} disk faults -> {} corrupt dropped, {} torn bytes, audit pass",
        s.dirty_disk_faults, s.dirty_corrupt_dropped, s.dirty_torn_bytes
    );
    println!(
        "    compaction       {} snapshots, {:.2}x log-bound",
        s.compactions, s.compaction_ratio
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let check_mode = args.iter().any(|a| a == "--check");
    let seeds: Vec<u64> = {
        let parsed: Vec<u64> = args.iter().filter_map(|a| a.parse().ok()).collect();
        if parsed.is_empty() { SEEDS.to_vec() } else { parsed }
    };

    rai_bench::header(&format!(
        "crash-recovery {} — seeds {seeds:?}",
        if check_mode { "check" } else { "baseline" }
    ));
    let reports: Vec<SeedReport> = seeds.iter().map(|&s| run_seed(s)).collect();
    for r in &reports {
        print_seed(r);
    }
    let host = measure_replay_wall(seeds[0]);
    println!(
        "  replay wall (seed {}): {:.2} ms over {} records (host fact, not gated)",
        seeds[0], host.replay_wall_ms, host.replayed_records
    );

    // Poison-job sanity: with the quick plan, dead letters exist and
    // every one is a poison id — re-publish must not dead-letter a
    // healthy job.
    for r in &reports {
        assert!(
            r.chaos_dead_lettered > 0,
            "seed {}: quick plan should dead-letter its poison jobs",
            r.seed
        );
    }

    let json = render_json(&reports, &host);
    if check_mode {
        let committed = std::fs::read_to_string("BENCH_recovery.json")
            .expect("read committed BENCH_recovery.json");
        assert_eq!(
            strip_host(&committed),
            strip_host(&json),
            "recovery baseline drifted from BENCH_recovery.json \
             (regenerate it if the durability model changed on purpose)"
        );
        println!("\nrecovery check: all deterministic fields match BENCH_recovery.json");
    } else {
        std::fs::write("BENCH_recovery.json", &json).expect("write BENCH_recovery.json");
        println!("\nwrote BENCH_recovery.json");
    }
}
