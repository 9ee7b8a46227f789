//! Determinism smoke: the committed reference fingerprints reproduce
//! from the root package's own test run, so `cargo test -q` catches a
//! determinism break without the workspace suites or the bench bins.

use rai::workload::chaos::{run_chaos, ChaosConfig};
use rai::workload::recovery::{run_recovery, KillPoint, RecoveryConfig};
use rai::workload::semester::{run_semester, SemesterConfig};

/// `semester.fingerprint` in BENCH_perf.json (12 teams x 21 days,
/// seed 2016).
const SEMESTER_REFERENCE: u64 = 0xc9f1_c2aa_0b01_e04a;

/// `chaos.fingerprint` in BENCH_perf.json (acceptance profile, seed
/// 2016).
const CHAOS_REFERENCE: u64 = 0x1912_eb6b_bacb_8fe9;

/// Seed 2016's `clean_kill.fingerprints` entry in BENCH_recovery.json.
const CLEAN_KILL_REFERENCE: u64 = 0x924d_0aa1_7f9a_0929;

#[test]
fn semester_reference_fingerprint() {
    let result = run_semester(&SemesterConfig::scaled(12, 21, 2016));
    assert_eq!(result.fingerprint(), SEMESTER_REFERENCE);
}

#[test]
fn acceptance_chaos_reproduces_reference_fingerprint() {
    let result = run_chaos(&ChaosConfig::acceptance(2016));
    assert_eq!(result.fingerprint, CHAOS_REFERENCE);
}

#[test]
fn clean_kill_recovery_reproduces_reference_fingerprint() {
    // The kill point `recovery_report` uses: two worker steps into
    // round 5 of the quick course.
    let kill = KillPoint {
        round: 5,
        after_steps: Some(2),
    };
    let result = run_recovery(&RecoveryConfig::clean(2016, kill));
    assert!(result.killed, "the kill point fired");
    result.verify().expect("recovered run audits");
    assert_eq!(result.fingerprint, CLEAN_KILL_REFERENCE);
}
