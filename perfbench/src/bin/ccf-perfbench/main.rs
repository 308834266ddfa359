//! One benchmark for the conditional-cuckoo-filter stack.
//!
//! ```text
//! ccf-perfbench --workload <inproc_read|churn_strkeys|joblight|service>
//!               --seed <n> --seconds <s> --trace <0|1> [--size full|tiny]
//! ```
//!
//! Each run generates its inputs from `--seed` (outside every timed phase), sets
//! up the system under test several times and keeps the last, runs one untimed
//! warm-up pass, runs a timed phase of fixed work sized by `--seconds` (see
//! [`report::budget`]), checks the answers, and prints every metric as
//! `metric <name> = <value> <unit>`. The last line is a JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is non-zero
//! when a correctness check fails. `perfbench/README.md` explains the workloads
//! and which layer metric should move which end-to-end metric.

mod churn;
mod inproc;
mod joblight;
mod probes;
mod report;
mod service;
mod trace;

use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER, REPORTED};

/// Input sizes: `Full` is the benchmark; `Tiny` keeps every code path and metric
/// but runs in a second, for the self-test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Settings shared by every workload.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Corrupt one answer before the correctness checks (self-test only).
    pub plant_fault: bool,
}

impl Ctx {
    /// `full` at full size, `tiny` at the self-test size.
    pub fn pick<T>(&self, full: T, tiny: T) -> T {
        match self.size {
            Size::Full => full,
            Size::Tiny => tiny,
        }
    }
}

const WORKLOADS: &[&str] = &["inproc_read", "churn_strkeys", "joblight", "service"];

fn arg<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_args(args: &[String]) -> Result<(String, Ctx), String> {
    let workload = arg(args, "--workload").ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = arg(args, "--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = arg(args, "--seconds")
        .unwrap_or("10")
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is outside (0, 600]"));
    }
    let trace = match arg(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is not 0 or 1")),
    };
    let size = match arg(args, "--size").unwrap_or("full") {
        "full" => Size::Full,
        "tiny" => Size::Tiny,
        other => return Err(format!("--size {other:?} is not full or tiny")),
    };
    let plant_fault = args.iter().any(|a| a == "--plant-fault");
    Ok((
        workload.to_string(),
        Ctx {
            seed,
            seconds,
            trace,
            size,
            plant_fault,
        },
    ))
}

fn git_revision() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (workload, ctx) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("ccf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let storage = match ccf_cuckoo::StorageKind::try_from_env() {
        Ok(kind) => kind,
        Err(e) => {
            eprintln!("ccf-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# ccf-perfbench workload={workload} seed={} seconds={} trace={} size={:?}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.size
    );
    println!(
        "# available_parallelism={} git_rev={} CCF_STORAGE={} (storage {storage})",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_revision(),
        std::env::var("CCF_STORAGE").unwrap_or_else(|_| "unset".into()),
    );
    if ctx.trace {
        trace::set_enabled(false, 0);
    }

    let (report, spans) = match workload.as_str() {
        "inproc_read" => inproc::run(&ctx),
        "churn_strkeys" => churn::run(&ctx),
        "joblight" => joblight::run(&ctx),
        _ => service::run(&ctx),
    };

    for n in &report.notes {
        println!("# {n}");
    }
    if ctx.trace {
        let dir = std::path::Path::new(
            &std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into()),
        )
        .join("perfbench-traces");
        let file = format!("{workload}-seed{}.tsv", ctx.seed);
        match trace::write_out(&dir, &file, &spans) {
            Some(path) => println!("# {} spans written to {}", spans.len(), path.display()),
            None => println!("# could not write spans under {}", dir.display()),
        }
    }
    for (what, ok) in &report.checks {
        println!("check {}: {what}", if *ok { "ok" } else { "FAILED" });
    }
    let catalog = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut json_metrics = Vec::new();
    for &(name, unit) in catalog {
        let Some(&value) = report.metrics.get(name) else {
            eprintln!("ccf-perfbench: workload {workload} did not produce metric {name}");
            return ExitCode::from(2);
        };
        if !value.is_finite() {
            eprintln!("ccf-perfbench: metric {name} is not finite ({value})");
            return ExitCode::from(2);
        }
        println!("metric {name} = {value} {unit}");
        json_metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let fail_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "# attempted {} failed {} fail_ratio {fail_ratio}",
        report.attempted, report.failed
    );
    if !ctx.trace {
        for &(name, unit) in REPORTED {
            let value = if name == "fail_ratio" {
                fail_ratio
            } else {
                report.metrics.get(name).copied().unwrap_or(f64::NAN)
            };
            println!("metric {name} = {value} {unit} (reported, not gated)");
        }
    }
    let correct = report.correct();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        json_metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Per-layer metrics every traced workload derives the same way from its spans:
/// each layer's self time as a share of all traced time (the root spans'
/// durations), and zeros for layers the workload never reached.
pub fn finish_trace(report: &mut Report, spans: &[trace::Span]) {
    let totals = trace::totals(spans);
    let traced_wall_ns: u64 = spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    for (layer, name) in [
        ("ccf-hash", "ccf-hash.self_share"),
        ("ccf-cuckoo", "ccf-cuckoo.self_share"),
        ("ccf-core", "ccf-core.self_share"),
        ("ccf-shard", "ccf-shard.self_share"),
        ("ccf-join", "ccf-join.self_share"),
        ("ccf-service", "ccf-service.self_share"),
    ] {
        let share = trace::layer_self_ns(&totals, layer) as f64 / traced_wall_ns.max(1) as f64;
        report.set(name, share);
    }
    report.set(
        "proc.fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    for &(name, _) in PER_LAYER {
        report.metrics.entry(name).or_insert(0.0);
    }
    for (name, t) in &totals {
        report.note(format!(
            "span {name}: {} calls, {} items, {:.3} ms total, {:.3} ms self",
            t.calls,
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
}
