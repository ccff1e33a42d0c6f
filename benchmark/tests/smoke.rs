//! Drives the built benchmark at `--smoke` scale (seconds): every workload,
//! untraced and traced, must print every metric `BENCHMARK.json` names
//! exactly once with its unit, pass every check, and repeat its model
//! outputs exactly.

use std::process::Command;
use std::sync::OnceLock;

const BIN: &str = env!("CARGO_BIN_EXE_scout-benchmark");
const WORKLOADS: [&str; 4] = ["follow", "gaps", "fleet", "fleet_degraded"];

fn stdout_of(args: &[&str]) -> (bool, String) {
    let output = Command::new(BIN).args(args).output().expect("the benchmark binary runs");
    (output.status.success(), String::from_utf8(output.stdout).expect("UTF-8 output"))
}

/// One child's part of the suite output.
#[derive(Debug, Default)]
struct Section {
    workload: String,
    traced: bool,
    /// (name, value as printed, unit)
    metrics: Vec<(String, String, String)>,
    digest: String,
    /// (name, verdict)
    checks: Vec<(String, String)>,
    last_line: String,
}

fn parse_suite(stdout: &str) -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::new();
    for line in stdout.lines() {
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["==", "summary", "=="] => break,
            ["==", workload, trace, "=="] => sections.push(Section {
                workload: workload.to_string(),
                traced: *trace == "trace=1",
                ..Section::default()
            }),
            _ => {
                let section = sections.last_mut().expect("output starts with a section header");
                match words.as_slice() {
                    ["metric", name, "=", value, unit, ..] => section.metrics.push((
                        name.to_string(),
                        value.to_string(),
                        unit.to_string(),
                    )),
                    ["model_digest", "=", digest] => section.digest = digest.to_string(),
                    ["check", name, _, verdict, ..] => {
                        section.checks.push((name.to_string(), verdict.to_string()))
                    }
                    _ => {}
                }
                section.last_line = line.to_string();
            }
        }
    }
    sections
}

fn smoke_suite() -> String {
    let (ok, stdout) = stdout_of(&["--smoke", "--seed", "42"]);
    assert!(ok, "the smoke suite failed:\n{stdout}");
    stdout
}

/// The first smoke run, shared by the tests that only read it.
fn first_run() -> &'static str {
    static RUN: OnceLock<String> = OnceLock::new();
    RUN.get_or_init(smoke_suite)
}

/// `--spec` lines of one table: (name, unit, the `BENCHMARK.json` entry).
fn spec(section: &str) -> Vec<(String, String, String)> {
    let (ok, stdout) = stdout_of(&["--spec"]);
    assert!(ok);
    let field = |entry: &str, key: &str| {
        entry
            .split(&format!("\"{key}\": \""))
            .nth(1)
            .and_then(|rest| rest.split('"').next())
            .unwrap_or_default()
            .to_string()
    };
    stdout
        .lines()
        .filter_map(|l| l.strip_prefix(section).map(|e| e.trim().to_string()))
        .map(|entry| (field(&entry, "name"), field(&entry, "unit"), entry))
        .collect()
}

#[test]
fn every_metric_is_printed_once_with_its_unit_and_every_check_passes() {
    let sections = parse_suite(first_run());
    assert_eq!(sections.len(), 8, "four workloads, untraced and traced");
    for (i, section) in sections.iter().enumerate() {
        assert_eq!(section.workload, WORKLOADS[i / 2]);
        assert_eq!(section.traced, i % 2 == 1);
        let table = spec(if section.traced { "per_layer" } else { "end_to_end" });
        let printed: Vec<(&str, &str)> =
            section.metrics.iter().map(|(n, _, u)| (n.as_str(), u.as_str())).collect();
        let expected: Vec<(&str, &str)> =
            table.iter().map(|(n, u, _)| (n.as_str(), u.as_str())).collect();
        assert_eq!(printed, expected, "{} traced={}", section.workload, section.traced);
        for (name, value, _) in &section.metrics {
            let value: f64 = value.parse().unwrap_or_else(|_| panic!("{name} = {value}"));
            assert!(value.is_finite(), "{name} = {value}");
        }
        assert!(!section.checks.is_empty());
        for (name, verdict) in &section.checks {
            assert!(
                verdict == "pass" || verdict == "skip",
                "{} traced={}: check {name} is {verdict}",
                section.workload,
                section.traced
            );
        }
        assert!(section.checks.iter().any(|(_, v)| v == "pass"));
        assert!(
            section.last_line.starts_with("{\"correct\": true, \"attempted\": "),
            "{}",
            section.last_line
        );
        assert_eq!(section.digest.len(), 16, "a 64-bit digest in hex");
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    for section in parse_suite(first_run()).iter().filter(|s| !s.traced) {
        for (name, value, _) in &section.metrics {
            assert_ne!(value.parse::<f64>().unwrap(), 0.0, "{} {name}", section.workload);
        }
    }
}

#[test]
fn two_runs_print_identical_model_outputs() {
    let first = parse_suite(first_run());
    let second_run = smoke_suite();
    let second = parse_suite(&second_run);
    assert_eq!(first.len(), second.len());
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.digest, b.digest, "{} traced={}", a.workload, a.traced);
        // Width-`nproc` steals are a race by design; every other count
        // and every simulated quantity repeats exactly.
        let stable = |s: &Section| -> Vec<(String, String)> {
            s.metrics
                .iter()
                .filter(|(n, _, u)| {
                    n.starts_with("model_")
                        || n == "served_share"
                        || (u == "count" && n != "sim.sched.steals_wmax")
                        || u.starts_with("sim_")
                })
                .map(|(n, v, _)| (n.clone(), v.clone()))
                .collect()
        };
        assert!(!stable(a).is_empty());
        assert_eq!(stable(a), stable(b), "{} traced={}", a.workload, a.traced);
    }
}

#[test]
fn benchmark_json_names_what_the_benchmark_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    let mut entries = 0;
    for section in ["workload", "end_to_end", "per_layer"] {
        for (name, _, entry) in spec(section) {
            assert!(json.contains(&entry), "BENCHMARK.json lacks {section} entry {entry}");
            assert_eq!(json.matches(&format!("\"name\": \"{name}\"")).count(), 1, "{name}");
            entries += 1;
        }
    }
    assert_eq!(json.matches("\"name\": ").count(), entries, "BENCHMARK.json names something else");
    assert!(json.contains("\"paths\": [\"benchmark\"]"));
}

#[test]
fn one_workload_ends_with_the_result_object() {
    let (ok, stdout) = stdout_of(&[
        "--workload",
        "fleet",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--smoke",
    ]);
    assert!(ok, "{stdout}");
    let last = stdout.lines().last().expect("some output");
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": 2400, \"failed\": 0, \"metrics\": {")
    );
    assert!(last.contains("\"setup_s\": {\"value\": ") && last.ends_with("}}}"));
    assert!(stdout.starts_with("host nproc="), "the host block comes first");
}

#[test]
fn bad_arguments_are_refused() {
    for args in [&["--workload", "nope"][..], &["--trace", "2"], &["--seconds", "0"], &["--what"]] {
        let output = Command::new(BIN).args(args).output().expect("the benchmark binary runs");
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a result");
    }
}
