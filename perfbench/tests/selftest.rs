//! Minimal-size self-test of the benchmark harness.
//!
//! For every workload, an untraced and a traced run at `--size tiny` must print
//! every metric `BENCHMARK.json` names, with its unit, both as a `metric` line and
//! in the final JSON line; and a run with a planted wrong answer must fail its
//! correctness check and exit non-zero.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;
use std::sync::Mutex;

const WORKLOADS: &[&str] = &["inproc_read", "churn_strkeys", "joblight", "service"];

/// Printed by every untraced run, with their units, but not gated by
/// `BENCHMARK.json`.
const REPORTED: &[(&str, &str)] = &[("batch_p99_us", "us"), ("fail_ratio", "ratio")];

/// The runs share two CPUs with their own worker threads; one at a time keeps
/// the tiny runs' latency samples meaningful.
static SERIAL: Mutex<()> = Mutex::new(());

/// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
fn catalog(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("the list is closed")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("entry {entry:?} has no {key}"));
        let rest = &entry[at + key.len() + 2..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ccf-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "2",
            "--trace",
            if trace { "1" } else { "0" },
            "--size",
            "tiny",
        ])
        .args(extra)
        .output()
        .expect("the harness runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn every_metric_is_printed_with_its_unit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let metrics = catalog(section);
        assert!(!metrics.is_empty(), "{section} lists metrics");
        for workload in WORKLOADS {
            let (code, stdout) = run(workload, trace, &[]);
            assert_eq!(code, 0, "{workload} trace={trace} failed:\n{stdout}");
            let json = stdout.lines().last().expect("output has a last line");
            assert!(json.starts_with("{\"correct\": true"), "{json}");
            for (name, unit) in &metrics {
                let line = stdout
                    .lines()
                    .find(|l| l.starts_with(&format!("metric {name} = ")))
                    .unwrap_or_else(|| panic!("{workload} did not print {name}:\n{stdout}"));
                assert!(
                    line.ends_with(&format!(" {unit}")),
                    "{line} lacks unit {unit}"
                );
                assert!(
                    json.contains(&format!("\"{name}\": {{\"value\": "))
                        && json.contains(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} missing from the JSON line"
                );
            }
            for (name, unit) in REPORTED.iter().filter(|_| !trace) {
                assert!(
                    stdout
                        .lines()
                        .any(|l| l.starts_with(&format!("metric {name} = "))
                            && l.contains(&format!(" {unit} "))),
                    "{workload} did not print {name} in {unit}:\n{stdout}"
                );
            }
        }
    }
}

#[test]
fn a_planted_wrong_answer_fails_the_run() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for workload in WORKLOADS {
        let (code, stdout) = run(workload, false, &["--plant-fault"]);
        assert_ne!(
            code, 0,
            "{workload} accepted a planted wrong answer:\n{stdout}"
        );
        assert!(
            stdout.lines().any(|l| l.starts_with("check FAILED")),
            "{workload} named no failed check:\n{stdout}"
        );
        assert!(
            stdout
                .lines()
                .last()
                .is_some_and(|l| l.starts_with("{\"correct\": false")),
            "{workload} reported itself correct:\n{stdout}"
        );
    }
}
