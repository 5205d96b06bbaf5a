//! `dbaugur-e2e-bench`: one command, one process, every end-to-end
//! metric by name and unit, every correctness check.
//!
//! ```text
//! cargo run --release --offline --manifest-path bench_e2e/Cargo.toml -- \
//!     --workload <bus|skeleton_churn|wide|all> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Every run prints all end-to-end metrics. The last line of standard
//! output is one JSON object: `{"correct", "attempted", "failed",
//! "metrics"}`; with `--trace 0` the metrics are the gated end-to-end
//! ones ([`GATED`]), with `--trace 1` the per-layer ones (from a traced
//! session run after an untraced one, whose difference is reported as
//! the tracing overhead) plus the untraced session's other end-to-end
//! timings. Exits non-zero when any check fails.

use dbaugur_e2e_bench::session::{self, Metric, Outcome};
use dbaugur_e2e_bench::spans::{self_times, uncovered_share};
use dbaugur_e2e_bench::workload::Workload;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Scratch directory, relative to the working directory.
const RUN_DIR: &str = ".bench_run";
/// Layers whose self time the traced run reports.
const LAYERS: [&str; 8] = [
    "stream", "shard", "core", "sqlproc", "cluster", "dtw", "models", "bench",
];
/// Phases whose uncovered share the traced run reports.
const PHASES: [&str; 4] = ["load", "train", "live", "recover"];
/// The end-to-end metrics `BENCHMARK.json` gates: the ones that hold
/// still from run to run on a shared host. The session's timings swing
/// with the host's speed (see README.md); every run prints them, and the
/// traced run reports them, from its untraced session, with the
/// per-layer metrics.
const GATED: [&str; 4] = [
    "setup_s",
    "forecast_coverage",
    "forecast_smape",
    "peak_rss_mb",
];

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workloads: vec![Workload::Bus],
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => args.workloads = Workload::ALL.to_vec(),
            "--workload" => {
                args.workloads =
                    vec![Workload::parse(&value)
                        .ok_or_else(|| format!("unknown workload {value}"))?]
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&args.seconds) {
                    return Err("--seconds must be 1..=600".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn fresh_dir(base: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = base.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn print_outcome(o: &Outcome, metrics: &[Metric]) {
    print!("{}", o.report);
    for m in metrics {
        println!("  {:<34} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for (name, ok) in &o.checks {
        println!("  check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "  error_rate {:.6} ({} failed of {} attempted)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
}

/// Traced-run report and the per-layer metrics it adds: self time per
/// layer, uncovered share per phase, and traced − untraced overhead.
fn trace_report(w: Workload, plain: &Outcome, traced: &Outcome) -> (String, Vec<Metric>) {
    let mut out = String::new();
    let mut extra = Vec::new();
    let spans = traced.tracer.spans();
    let per_name = self_times(spans);
    let _ = writeln!(
        out,
        "  traced {}: self time per span ({} spans)",
        w.name(),
        spans.len()
    );
    for (name, (calls, total, own)) in &per_name {
        let _ = writeln!(
            out,
            "    {name:<30} calls {calls:>8}  total {:>10.3} ms  self {:>10.3} ms",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    for layer in LAYERS {
        let own: u64 = per_name
            .iter()
            .filter(|(n, _)| n.split('.').next() == Some(layer))
            .map(|(_, v)| v.2)
            .sum();
        extra.push(Metric {
            name: format!("self_s.{layer}"),
            value: own as f64 / 1e9,
            unit: "s",
        });
    }
    for phase in PHASES {
        let share = uncovered_share(spans, &format!("phase.{phase}")).unwrap_or(f64::NAN);
        let _ = writeln!(
            out,
            "  phase {phase}: {:.2}% of busy wall time outside any span",
            share * 100.0
        );
        extra.push(Metric {
            name: format!("uncovered.{phase}"),
            value: share,
            unit: "ratio",
        });
    }
    for (p, t) in plain.e2e.iter().zip(&traced.e2e) {
        let d = t.value - p.value;
        let _ = writeln!(
            out,
            "  overhead {:<20} untraced {:>14.4} traced {:>14.4} diff {:>+12.4} {}",
            p.name, p.value, t.value, d, p.unit
        );
        extra.push(Metric {
            name: format!("overhead.{}", p.name),
            value: d,
            unit: p.unit,
        });
    }
    (out, extra)
}

fn run_workload(w: Workload, args: &Args, base: &Path) -> Result<bool, String> {
    let pid = std::process::id();
    let dir = fresh_dir(base, &format!("state-{}-{pid}", w.name())).map_err(|e| e.to_string())?;
    let plain = session::run(w, args.seed, args.seconds, &dir, false);
    let mut ok = plain.checks.iter().all(|c| c.1);
    let (mut attempted, mut failed) = (plain.attempted, plain.failed);
    let metrics = if args.trace {
        let dir =
            fresh_dir(base, &format!("state-{}-{pid}", w.name())).map_err(|e| e.to_string())?;
        let traced = session::run(w, args.seed, args.seconds, &dir, true);
        ok &= traced.checks.iter().all(|c| c.1);
        attempted += traced.attempted;
        failed += traced.failed;
        let spans_path = base.join(format!("spans-{}-seed{}.tsv", w.name(), args.seed));
        std::fs::write(&spans_path, traced.tracer.to_tsv()).map_err(|e| e.to_string())?;
        let (text, extra) = trace_report(w, &plain, &traced);
        let mut metrics = traced.layers.clone();
        metrics.extend(
            plain
                .e2e
                .iter()
                .filter(|m| !GATED.contains(&m.name.as_str()))
                .cloned(),
        );
        metrics.extend(extra);
        print_outcome(&traced, &metrics);
        print!("{text}");
        println!("  spans written to {}", spans_path.display());
        metrics
    } else {
        print_outcome(&plain, &plain.e2e);
        plain
            .e2e
            .iter()
            .filter(|m| GATED.contains(&m.name.as_str()))
            .cloned()
            .collect()
    };
    std::fs::remove_dir_all(&dir).ok();
    let all_measured = metrics.iter().all(|m| m.value.is_finite());
    if !all_measured {
        println!("  check FAIL: every metric measured");
        failed += 1;
    }
    attempted += 1;
    ok &= all_measured;
    println!("{}", result_line(ok, attempted, failed, &metrics));
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let base = PathBuf::from(RUN_DIR);
    if let Err(e) = std::fs::create_dir_all(&base) {
        eprintln!("error: cannot create {RUN_DIR}: {e}");
        return ExitCode::from(2);
    }
    let mut all_ok = true;
    for &w in &args.workloads {
        match run_workload(w, &args, &base) {
            Ok(ok) => all_ok &= ok,
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::from(2);
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
