//! `deadline-payloads`: megabyte-scale project trees arriving in
//! deadline waves.
//!
//! Every team submits at the same simulated instant, once per wave; a
//! resubmission edits a few sources and rebuilds (see [`crate::payloads`]).
//! Each wave is drained by `RaiSystem::drive_until` on a 16-worker
//! fleet, so scheduling rounds hold many jobs. The last wave is every
//! team's final submission.

use crate::payloads::TeamTree;
use crate::trace::Tracer;
use crate::{
    audit, collect_counts, drive, submit, timed_setup, Ledger, Ranked, RunOutcome, Scale, Stopwatch,
};
use rai_auth::Credentials;
use rai_core::{RaiSystem, SubmitMode, SystemConfig};
use rai_sim::{SimDuration, VirtualClock};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Workload shape per scale: (teams, waves, workers).
fn shape(scale: Scale) -> (usize, usize, usize) {
    match scale {
        Scale::Full => (20, 5, 16),
        Scale::Tiny => (5, 3, 4),
    }
}

/// Simulated time between deadline waves.
const WAVE_GAP: SimDuration = SimDuration::from_mins(20);

fn deploy(
    seed: u64,
    workers: usize,
    clock: &VirtualClock,
    names: &[String],
) -> (RaiSystem, Vec<Credentials>) {
    let mut system = RaiSystem::with_clock(
        SystemConfig {
            workers,
            jobs_per_worker: 1,
            rate_limit: None,
            seed,
            ..Default::default()
        },
        clock.clone(),
    );
    let creds = names.iter().map(|n| system.register_team(n, &[])).collect();
    (system, creds)
}

/// Run the waves once.
pub fn run(seed: u64, scale: Scale, tracer: &Arc<Tracer>) -> RunOutcome {
    let (teams, waves, workers) = shape(scale);
    let mut out = RunOutcome::default();
    let names: Vec<String> = (0..teams)
        .map(|i| format!("deadline-team-{i:02}"))
        .collect();
    let clock = VirtualClock::new();
    let (mut system, creds) = timed_setup(&mut out, || deploy(seed, workers, &clock, &names));
    let mut trees: Vec<TeamTree> = (0..teams)
        .map(|t| TeamTree::generate(seed, t, teams))
        .collect();

    let mut ledger = Ledger::default();
    let (mut tree_bytes, mut changed_bytes, mut resubmissions) = (0u64, 0u64, 0u64);
    let watch = Stopwatch::start();
    for wave in 0..waves {
        clock.advance(WAVE_GAP);
        let last = wave + 1 == waves;
        let mut pendings = Vec::new();
        for (team, tree) in trees.iter_mut().enumerate() {
            if wave > 0 {
                changed_bytes += tree.resubmit();
                resubmissions += 1;
            }
            let (project, mode) = if last {
                (tree.final_project(), SubmitMode::Submit)
            } else {
                (tree.project.clone(), SubmitMode::Run)
            };
            tree_bytes += project.tree.total_size();
            let submitted = submit(
                &system,
                &creds[team],
                &project,
                mode,
                tracer,
                &mut ledger,
                &mut out,
            );
            pendings.extend(submitted);
        }
        let outcomes = drive(&mut system, tracer, &mut ledger, &mut out, None);
        let success: HashMap<u64, bool> = outcomes.iter().map(|o| (o.job_id, o.success)).collect();
        for pending in pendings {
            let job = pending.job_id;
            let receipt = tracer.time("core.client.wait", job, || {
                pending.wait(Duration::from_millis(50))
            });
            if receipt.ok().map(|r| r.success) != success.get(&job).copied() {
                out.fail(format!(
                    "job {job}: client receipt disagrees with its outcome"
                ));
            }
        }
    }
    watch.stop(&mut out);

    audit(&system, &ledger, &[], Ranked::All(&names), &mut out);
    collect_counts(&system, tracer, &mut out);
    for (k, v) in [
        ("fact.tree_bytes", tree_bytes),
        ("fact.changed_bytes", changed_bytes),
        ("fact.resubmissions", resubmissions),
    ] {
        out.counts.insert(k.to_string(), v as f64);
    }
    out
}
