//! Tests of the benchmark's own runs and input generators, on the
//! seconds-long `Scale::Tiny` version of each workload.

use perfbench::payloads::{
    TeamTree, DATASET_BYTES, MAX_EDITED_FILES, MEAN_TREE_BYTES, TREE_SPREAD,
};
use perfbench::report::{per_layer, per_layer_names, END_TO_END};
use perfbench::trace::Tracer;
use perfbench::{RunOutcome, Scale, Workload};
use std::collections::BTreeMap;
use std::sync::Arc;

fn run(w: Workload, seed: u64, traced: bool) -> (RunOutcome, BTreeMap<String, f64>) {
    let tracer = Arc::new(Tracer::new(traced));
    let out = w.run(seed, Scale::Tiny, &tracer);
    let layers = if traced {
        per_layer(&out, &tracer)
    } else {
        BTreeMap::new()
    };
    (out, layers)
}

/// Offload thresholds below which the payload pipeline stays inline.
const OFFLOAD_BYTES: u64 = 32 * 1024;

#[test]
fn same_seed_same_inputs_and_digest_other_seed_differs() {
    let a = TeamTree::generate(7, 3, 20);
    let b = TeamTree::generate(7, 3, 20);
    let c = TeamTree::generate(8, 3, 20);
    assert_eq!(a.project, b.project, "same seed, same tree");
    assert_ne!(a.project, c.project, "another seed, another tree");
    for w in Workload::ALL {
        let (x, _) = run(w, 5, false);
        let (y, _) = run(w, 5, false);
        let (z, _) = run(w, 6, false);
        assert_eq!(x.digest, y.digest, "{}: same seed, same outcome", w.name());
        assert_eq!(x.attempted, y.attempted);
        assert_ne!(
            x.digest,
            z.digest,
            "{}: another seed, another outcome",
            w.name()
        );
    }
}

#[test]
fn deadline_trees_stay_in_their_size_and_edit_bands() {
    for seed in [1u64, 2, 3] {
        let teams = 20;
        let mut trees: Vec<TeamTree> = (0..teams)
            .map(|t| TeamTree::generate(seed, t, teams))
            .collect();
        let sizes: Vec<u64> = trees.iter().map(TeamTree::bytes).collect();
        let dataset = trees[0].project.tree.get("data/test10.hdf5");
        assert_eq!(dataset.map(|d| d.len()), Some(DATASET_BYTES));
        assert!(
            trees
                .iter()
                .all(|t| t.project.tree.get("data/test10.hdf5") == dataset),
            "every team uploads the same dataset copy"
        );
        let mean = sizes.iter().sum::<u64>() as f64 / teams as f64;
        let rel = mean / MEAN_TREE_BYTES as f64;
        assert!(
            (0.98..1.02).contains(&rel),
            "seed {seed}: mean tree {mean} B"
        );
        for s in &sizes {
            let share = *s as f64 / MEAN_TREE_BYTES as f64;
            assert!(
                (1.0 - TREE_SPREAD - 0.01..=1.0 + TREE_SPREAD + 0.01).contains(&share),
                "tree of {s} B"
            );
            assert!(
                *s >= 16 * OFFLOAD_BYTES,
                "tree of {s} B is near the offload threshold"
            );
        }
        let mut changed = Vec::new();
        for tree in &mut trees {
            for _ in 0..4 {
                let before = tree.project.clone();
                let bytes = tree.resubmit() as f64 / tree.bytes() as f64;
                let files = before
                    .tree
                    .iter()
                    .filter(|(path, data)| tree.project.tree.get(path) != Some(*data))
                    .count();
                // main.cu, the edited sources and their objects, the
                // linked binary and the profile.
                assert!(
                    (5..=2 * MAX_EDITED_FILES + 3).contains(&files),
                    "{files} files changed"
                );
                for kept in ["data/test10.hdf5", "build/Makefile"] {
                    assert_eq!(before.tree.get(kept), tree.project.tree.get(kept));
                }
                changed.push(bytes);
            }
        }
        let mean_edit = changed.iter().sum::<f64>() / changed.len() as f64;
        assert!(
            (0.08..0.20).contains(&mean_edit),
            "seed {seed}: mean edit share {mean_edit}"
        );
    }
}

#[test]
fn tiny_runs_pass_their_audits_and_load_their_layers() {
    let mut jobs_per_round = BTreeMap::new();
    let mut container = BTreeMap::new();
    for w in Workload::ALL {
        let (plain, _) = run(w, 3, false);
        let (traced, layers) = run(w, 3, true);
        assert_eq!(plain.failure, None, "{}", w.name());
        assert_eq!(traced.failure, None, "{}", w.name());
        assert_eq!(
            plain.digest,
            traced.digest,
            "{}: tracing changed the outcome",
            w.name()
        );
        assert!(plain.attempted > 0 && plain.finished() > 0);
        assert_eq!(plain.lost + plain.duplicated, 0);
        // Only jobs the fault plan poisons may dead-letter.
        assert_eq!(plain.failed(), 0, "{}", w.name());
        assert_eq!(
            plain.dead_lettered as f64,
            plain.counts["fact.poison"],
            "{}",
            w.name()
        );
        let timed = layers["trace.timed_share"];
        let sum = timed + layers["sim.loop.share"];
        assert!(timed <= 1.03, "{}: timed spans overlap: {timed}", w.name());
        assert!(
            (0.97..1.03).contains(&sum),
            "{}: shares sum to {sum}",
            w.name()
        );
        for (name, _) in per_layer_names() {
            // Both come from the untraced run, which the caller holds.
            if name != "trace.overhead" && name != "growth.rss_mb_per_1k_sub" {
                assert!(layers.contains_key(&name), "{}: missing {name}", w.name());
            }
        }
        let chaos = w == Workload::ChaosDurable;
        assert_eq!(
            layers["wal.appends"] > 0.0,
            chaos,
            "{}: wal.appends",
            w.name()
        );
        assert_eq!(
            layers["broker.requeued"] > 0.0,
            chaos,
            "{}: broker.requeued",
            w.name()
        );
        jobs_per_round.insert(w.name(), layers["exec.jobs_per_round_mean"]);
        container.insert(w.name(), layers["archive.container_bytes_per_sub"]);
    }
    assert_eq!(jobs_per_round["semester-paper"], 1.0);
    assert!(jobs_per_round["deadline-payloads"] > 1.0);
    assert!(container["deadline-payloads"] >= 1000.0 * container["semester-paper"]);
}

#[test]
fn command_prints_every_metric_and_a_json_verdict() {
    let exe = env!("CARGO_BIN_EXE_perfbench");
    for (trace, names) in [
        (
            "0",
            END_TO_END
                .iter()
                .map(|(n, _)| n.to_string())
                .collect::<Vec<_>>(),
        ),
        ("1", per_layer_names().into_iter().map(|(n, _)| n).collect()),
    ] {
        let out = std::process::Command::new(exe)
            .args([
                "--workload",
                "chaos-durable",
                "--seed",
                "4",
                "--seconds",
                "0",
                "--trace",
                trace,
            ])
            .args(["--scale", "tiny"])
            .output()
            .expect("benchmark runs");
        assert!(
            out.status.success(),
            "trace {trace}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().expect("output");
        assert!(
            last.starts_with("{\"correct\": true, \"attempted\": "),
            "{last}"
        );
        assert!(last.contains("\"failed\": 0, "), "{last}");
        for n in names {
            assert!(
                last.contains(&format!("\"{n}\": {{\"value\": ")),
                "trace {trace}: {n} missing"
            );
        }
    }
}

#[test]
fn unknown_workload_is_refused() {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "nope", "--seed", "1"])
        .output()
        .expect("benchmark runs");
    assert!(!out.status.success());
}
