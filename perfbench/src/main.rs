//! The benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <semester-paper|deadline-payloads|chaos-durable|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the command runs the workload in fresh child
//! processes, one run each, until `--seconds` have passed, and reports
//! the median of each end-to-end metric. With `--trace 1` it runs the
//! workload once untraced and once traced, checks that both produce the
//! same outcome digest, and reports the per-layer metrics, the Amdahl
//! table and the growth view. Every run passes the correctness audit or
//! the command exits non-zero. The last line of standard output is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`.

use perfbench::report::{self, median, END_TO_END};
use perfbench::trace::Tracer;
use perfbench::{status_mb, Scale, Workload};
use std::collections::BTreeMap;
use std::io::Write;
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--child" {
            args.child = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?
            }
            "--trace" => args.trace = value == "1",
            "--scale" if value == "tiny" => args.scale = Scale::Tiny,
            "--scale" => args.scale = Scale::Full,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Directory for span dumps: beside the build output this executable
/// runs from (`<target>/<profile>/perfbench`), which the checkout ignores.
fn span_dir() -> std::path::PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let target = exe.parent().and_then(std::path::Path::parent);
    target
        .unwrap_or(std::path::Path::new("."))
        .join("perfbench-spans")
}

/// Child mode: run the workload once in this fresh process and print
/// one `key value` line per figure.
fn child(args: &Args) -> ExitCode {
    let workload = args.workloads[0];
    let tracer = Arc::new(Tracer::new(args.trace));
    let out = workload.run(args.seed, args.scale, &tracer);
    let peak = status_mb("VmHWM") * 1.048_576;
    let mut lines = vec![
        format!("digest {:016x}", out.digest),
        format!("audit {}", out.failure.as_deref().unwrap_or("ok")),
        format!("attempted {}", out.attempted),
        format!("failed {}", out.failed()),
        format!("turnarounds {}", out.turnaround_s.len()),
        format!("wall_s {}", out.wall_s),
        format!("rss_growth {}", report::rss_growth_mb_per_1k(&out)),
    ];
    lines.extend(out.setup_s.iter().map(|s| format!("setup {s}")));
    lines.extend(
        report::end_to_end(&out, peak)
            .into_iter()
            .map(|(k, v)| format!("e2e {k} {v}")),
    );
    lines.extend(
        out.counts
            .iter()
            .filter(|(k, _)| k.starts_with("fact."))
            .map(|(k, v)| format!("fact {k} {v}")),
    );
    if args.trace {
        lines.extend(
            report::per_layer(&out, &tracer)
                .into_iter()
                .map(|(k, v)| format!("layer {k} {v}")),
        );
        let dir = span_dir();
        let path = dir.join(format!("spans-{}-seed{}.csv", workload.name(), args.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::File::create(&path))
            .and_then(|f| {
                let mut w = std::io::BufWriter::new(f);
                tracer.write_csv(&mut w)?;
                w.flush()
            });
        match written {
            Ok(()) => lines.push(format!("spans {}", path.display())),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }
    println!("{}", lines.join("\n"));
    ExitCode::SUCCESS
}

/// What one child run reported.
#[derive(Default)]
struct ChildReport {
    digest: String,
    audit: String,
    attempted: u64,
    failed: u64,
    turnarounds: u64,
    wall_s: f64,
    rss_growth: f64,
    setup: Vec<f64>,
    e2e: BTreeMap<String, f64>,
    facts: BTreeMap<String, f64>,
    layers: BTreeMap<String, f64>,
    spans: String,
}

fn run_child(args: &Args, workload: Workload, traced: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args([
            "--child",
            "--workload",
            workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args([
            "--scale",
            if args.scale == Scale::Tiny {
                "tiny"
            } else {
                "full"
            },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("child run failed with {}", output.status));
    }
    let mut r = ChildReport::default();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let mut parts = line.splitn(3, ' ');
        let (key, a, b) = (
            parts.next().unwrap_or(""),
            parts.next().unwrap_or(""),
            parts.next(),
        );
        let num = |s: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("bad child line {line:?}"))
        };
        match key {
            "digest" => r.digest = a.to_string(),
            "audit" => r.audit = line["audit ".len()..].to_string(),
            "attempted" => r.attempted = num(a)? as u64,
            "failed" => r.failed = num(a)? as u64,
            "turnarounds" => r.turnarounds = num(a)? as u64,
            "wall_s" => r.wall_s = num(a)?,
            "rss_growth" => r.rss_growth = num(a)?,
            "setup" => r.setup.push(num(a)?),
            "e2e" => {
                r.e2e.insert(a.to_string(), num(b.unwrap_or(""))?);
            }
            "fact" => {
                r.facts.insert(a.to_string(), num(b.unwrap_or(""))?);
            }
            "layer" => {
                r.layers.insert(a.to_string(), num(b.unwrap_or(""))?);
            }
            "spans" => r.spans = a.to_string(),
            _ => return Err(format!("unexpected child line {line:?}")),
        }
    }
    if r.digest.is_empty() {
        return Err("child printed no result".to_string());
    }
    Ok(r)
}

/// The result of one workload: metrics plus the correctness verdict.
struct WorkloadResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn print_facts(workload: Workload, r: &ChildReport) {
    let f = |k: &str| r.facts.get(k).copied().unwrap_or(0.0);
    let mut facts = vec![format!("submissions {}", r.attempted)];
    if f("fact.container_bytes") > 0.0 {
        facts.push(format!(
            "mean container {:.0} B",
            f("fact.container_bytes") / r.attempted.max(1) as f64
        ));
    }
    if f("fact.resubmissions") > 0.0 {
        let tree = f("fact.tree_bytes") / r.attempted.max(1) as f64;
        let edit = f("fact.changed_bytes") / f("fact.resubmissions");
        facts.push(format!(
            "mean tree {tree:.0} B, {:.3}% of bytes changed per resubmission",
            100.0 * edit / tree
        ));
    }
    if let Some(j) = r.layers.get("exec.jobs_per_round_mean") {
        facts.push(format!("{j:.2} jobs per round"));
    }
    if let Some(n) = r.layers.get("faults.injected") {
        facts.push(format!("{n:.0} faults injected"));
    }
    if f("fact.kills") > 0.0 {
        facts.push(format!(
            "{:.0} kills, {:.0} re-published",
            f("fact.kills"),
            f("fact.republished")
        ));
    }
    if f("fact.reruns") > 0.0 {
        facts.push(format!(
            "{:.0} reruns after an upload or queue error",
            f("fact.reruns")
        ));
    }
    if f("fact.dead_lettered") + f("fact.poison") > 0.0 {
        facts.push(format!(
            "{:.0} dead-lettered, {:.0} poisoned by the fault plan",
            f("fact.dead_lettered"),
            f("fact.poison")
        ));
    }
    if f("fact.receipts_checked") > 0.0 {
        facts.push(format!(
            "{:.0} receipts checked, {:.0} lost to dropped log frames",
            f("fact.receipts_checked"),
            f("fact.receipts_lost")
        ));
    }
    facts.push(format!("nproc {}", nproc()));
    println!("facts[{}]: {}", workload.name(), facts.join(", "));
}

fn run_workload(args: &Args, workload: Workload) -> WorkloadResult {
    let started = Instant::now();
    let mut reports: Vec<ChildReport> = Vec::new();
    let mut errors: Vec<String> = Vec::new();
    // Untraced: fresh processes until the window closes. Traced: one
    // untraced and one traced run of the same inputs.
    let mut i = 0;
    while if args.trace {
        i < 2
    } else {
        i == 0 || started.elapsed().as_secs_f64() < args.seconds
    } {
        let traced = args.trace && i == 1;
        i += 1;
        match run_child(args, workload, traced) {
            Ok(r) => {
                println!(
                    "run {i} ({}): {} submissions, wall {:.3} s, digest {}, audit {}",
                    if traced { "traced" } else { "untraced" },
                    r.attempted,
                    r.wall_s,
                    r.digest,
                    r.audit
                );
                if r.audit != "ok" {
                    errors.push(format!("run {i}: audit failed: {}", r.audit));
                }
                reports.push(r);
            }
            Err(e) => {
                errors.push(format!("run {i}: {e}"));
                break;
            }
        }
    }
    if let Some(first) = reports.first() {
        if let Some(r) = reports.iter().find(|r| r.digest != first.digest) {
            errors.push(format!(
                "outcome digests differ across runs of one seed: {} vs {}",
                first.digest, r.digest
            ));
        }
    }
    let untraced: Vec<&ChildReport> = reports.iter().filter(|r| r.layers.is_empty()).collect();
    let traced: Option<&ChildReport> = reports.iter().find(|r| !r.layers.is_empty());
    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    if args.trace {
        if let (Some(t), Some(u)) = (traced, untraced.first()) {
            println!(
                "\nper-layer metrics [{}] (traced run; spans in {}):",
                workload.name(),
                t.spans
            );
            let overhead =
                t.layers.get("trace.wall_s").copied().unwrap_or(0.0) / u.wall_s.max(1e-9);
            for (name, unit) in report::per_layer_names() {
                let v = match name.as_str() {
                    "trace.overhead" => overhead,
                    "growth.rss_mb_per_1k_sub" => u.rss_growth,
                    _ => t.layers.get(&name).copied().unwrap_or(0.0),
                };
                println!("  {name:<44} {v:>16.4} {unit}");
                metrics.push((name, v, unit));
            }
            print_amdahl(workload, t);
            print_growth(workload, t, u);
        }
        if let Some(r) = reports.last() {
            print_facts(workload, r);
        }
    } else if !untraced.is_empty() {
        println!(
            "\nend-to-end metrics [{}] (median of {} runs):",
            workload.name(),
            untraced.len()
        );
        for (name, unit) in END_TO_END {
            let (v, n) = if *name == "setup_s" {
                let all: Vec<f64> = untraced
                    .iter()
                    .flat_map(|r| r.setup.iter().copied())
                    .collect();
                (median(&all), format!("n={} deploys", all.len()))
            } else {
                let vals: Vec<f64> = untraced
                    .iter()
                    .filter_map(|r| r.e2e.get(*name).copied())
                    .collect();
                let n = if name.starts_with("turnaround") {
                    format!("n={} submissions per run", untraced[0].turnarounds)
                } else {
                    format!("n={} runs", vals.len())
                };
                (median(&vals), n)
            };
            println!("  {name:<30} {v:>16.6} {unit:<6} {n}");
            metrics.push((name.to_string(), v, unit));
        }
        print_facts(workload, untraced[untraced.len() - 1]);
    }
    for e in &errors {
        println!("FAILED [{}]: {e}", workload.name());
    }
    WorkloadResult {
        correct: errors.is_empty() && !reports.is_empty(),
        attempted: reports.iter().map(|r| r.attempted).sum::<u64>().max(1),
        failed: reports.iter().map(|r| r.failed).sum::<u64>() + errors.len() as u64,
        metrics,
    }
}

fn print_amdahl(workload: Workload, t: &ChildReport) {
    println!(
        "\nAmdahl table [{}]: largest throughput gain from removing each layer",
        workload.name()
    );
    for stage in report::AMDAHL.iter().chain(&["sim.loop"]) {
        let share = t
            .layers
            .get(&format!("{stage}.share"))
            .copied()
            .unwrap_or(0.0);
        let gain = 1.0 / (1.0 - share).max(1e-9);
        println!(
            "  {stage:<34} share {:>6.2}%  max gain {gain:>8.3}x",
            100.0 * share
        );
    }
}

fn print_growth(workload: Workload, t: &ChildReport, u: &ChildReport) {
    println!(
        "\ngrowth view [{}]: per-call µs, first vs last quarter of submissions",
        workload.name()
    );
    let get = |k: &str| t.layers.get(k).copied().unwrap_or(0.0);
    for stage in [
        "core.client.begin_submit",
        "core.system.claim_tasks",
        "core.worker.commit",
    ] {
        let (q1, q4) = (
            get(&format!("{stage}.us_q1")),
            get(&format!("{stage}.us_q4")),
        );
        let pct = if q1 > 0.0 {
            100.0 * (q4 / q1 - 1.0)
        } else {
            0.0
        };
        println!("  {stage:<34} q1 {q1:>9.2}  q4 {q4:>9.2}  ({pct:+.1}%)");
    }
    println!(
        "  RSS growth (untraced run)          {:.3} MB per 1k submissions",
        u.rss_growth
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.child {
        return child(&args);
    }
    println!(
        "perfbench: seed {} seconds {} trace {} nproc {}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    let several = args.workloads.len() > 1;
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for &w in &args.workloads {
        println!("\n== {} ==", w.name());
        let r = run_workload(&args, w);
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
        for (name, v, unit) in r.metrics {
            let name = if several {
                format!("{}.{name}", w.name())
            } else {
                name
            };
            metrics.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
