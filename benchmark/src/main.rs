//! `scout-benchmark`: four workloads, ten end-to-end metrics and a layer
//! budget measured from outside the engine. See README.md.
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints, as its last line, one JSON
//!   object (`correct`, `attempted`, `failed`, `metrics`).
//! * without `--workload` it runs the suite: every workload, untraced and
//!   traced, each in a child process; non-zero exit on any failed check.
//! * `--aa` runs the untraced suite twice on the same binary and seed and
//!   holds every end-to-end metric to its own bound.

mod adapter;
mod host;
mod spec;
mod stats;
mod trace;
mod workloads;

use spec::{Workload, END_TO_END, FULL_SCALE_SECONDS, PER_LAYER};
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use workloads::{CheckKind, Outcome};

/// One workload run in this process.
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    /// Scales the work: the timed passes take about this long on the
    /// reference host (see `spec::sizes`).
    pub seconds: u64,
    /// Self-test scale: small beds, a few queries.
    pub smoke: bool,
    /// The per-layer run (spans around every layer call) instead of the
    /// end-to-end one.
    pub trace: bool,
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    aa: bool,
    spec: bool,
}

const USAGE: &str = "usage: scout-benchmark [--workload follow|gaps|fleet|fleet_degraded] \
                     [--seed N] [--seconds N] [--trace 0|1] [--smoke] [--aa] [--spec]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: FULL_SCALE_SECONDS,
        trace: false,
        smoke: false,
        aa: false,
        spec: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be between 1 and 60".to_string());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                };
            }
            "--smoke" => args.smoke = true,
            "--aa" => args.aa = true,
            "--spec" => args.spec = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.spec {
        print_spec();
        return ExitCode::SUCCESS;
    }
    let ok = match (args.workload, args.aa) {
        (Some(workload), false) => run_one(&Run {
            workload,
            seed: args.seed,
            seconds: args.seconds,
            smoke: args.smoke,
            trace: args.trace,
        }),
        (None, false) => run_suite(&args),
        (None, true) => run_aa(&args),
        (Some(_), true) => {
            eprintln!("--aa runs every workload; drop --workload\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workload and metric tables as the `BENCHMARK.json` entries they
/// must equal, one per line (`tests/smoke.rs` compares the two).
fn print_spec() {
    for workload in Workload::ALL {
        println!("workload {{\"name\": \"{}\"", workload.name());
    }
    for (section, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        for m in table {
            let bound = m.bound.map_or(String::new(), |b| format!(", \"bound\": {b}"));
            println!(
                "{section} {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// One workload, this process
// ---------------------------------------------------------------------------

/// One line of the human-readable report.
pub fn say(out: &mut dyn Write, line: std::fmt::Arguments<'_>) {
    writeln!(out, "{line}").expect("stdout is writable");
}

fn run_one(run: &Run) -> bool {
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    say(
        &mut out,
        format_args!(
            "host {} seed={} seconds={} smoke={} trace={}",
            host::describe(),
            run.seed,
            run.seconds,
            run.smoke,
            u8::from(run.trace)
        ),
    );
    let outcome = workloads::run(run, &mut out);
    let correct = print_outcome(&outcome, &mut out);
    say(&mut out, format_args!("{}", result_json(&outcome, correct)));
    correct
}

/// Prints every metric by name with its unit and every check as a
/// pass/FAIL line; returns whether every output check passed.
fn print_outcome(outcome: &Outcome, out: &mut dyn Write) -> bool {
    for (metric, value) in &outcome.metrics {
        // Simulated quantities and counts repeat exactly at equal seed;
        // measurements are of this host.
        let kind = if metric.name.starts_with("model_") || metric.unit.starts_with("sim_") {
            "model"
        } else if metric.unit == "count" {
            "count"
        } else {
            "measured"
        };
        say(out, format_args!("metric {} = {value} {} [{kind}]", metric.name, metric.unit));
    }
    say(out, format_args!("model_digest = {:016x}", outcome.digest.0));
    say(
        out,
        format_args!(
            "failed_share = {} ({} of {} attempted)",
            outcome.failed as f64 / outcome.attempted as f64,
            outcome.failed,
            outcome.attempted
        ),
    );
    let mut correct = true;
    for check in &outcome.checks {
        let verdict = match check.pass {
            Some(true) => "pass",
            Some(false) => "FAIL",
            None => "skip",
        };
        let kind = match check.kind {
            CheckKind::Output => "output",
            CheckKind::Wall => "wall",
        };
        say(out, format_args!("check {} [{kind}]: {verdict} ({})", check.name, check.detail));
        correct &= !(check.kind == CheckKind::Output && check.pass == Some(false));
    }
    correct
}

fn result_json(outcome: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(m, v)| format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

// ---------------------------------------------------------------------------
// The suite: every workload in a child process
// ---------------------------------------------------------------------------

/// What the suite reads back from a child's output.
struct ChildReport {
    workload: Workload,
    metrics: Vec<(String, f64)>,
    digest: String,
    failed_checks: Vec<String>,
    exit_ok: bool,
}

/// Runs one workload in a child process (a fresh address space, so peak
/// memory and allocator state are the workload's own), echoing its output.
fn run_child(args: &Args, workload: Workload, trace: bool) -> ChildReport {
    println!("== {} trace={} ==", workload.name(), u8::from(trace));
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let mut child = command.spawn().expect("the benchmark can start itself");
    let mut report = ChildReport {
        workload,
        metrics: Vec::new(),
        digest: String::new(),
        failed_checks: Vec::new(),
        exit_ok: false,
    };
    let stdout = child.stdout.take().expect("stdout was piped");
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("the child writes UTF-8");
        println!("{line}");
        let words: Vec<&str> = line.split_whitespace().collect();
        match words.as_slice() {
            ["metric", name, "=", value, ..] => {
                report
                    .metrics
                    .push((name.to_string(), value.parse().expect("a metric is a number")));
            }
            ["model_digest", "=", digest] => report.digest = digest.to_string(),
            ["check", name, _, "FAIL", ..] => report.failed_checks.push(name.to_string()),
            _ => {}
        }
    }
    report.exit_ok = child.wait().expect("the child can be waited for").success();
    report
}

fn child_failed(report: &ChildReport) -> bool {
    !report.exit_ok || !report.failed_checks.is_empty()
}

fn run_suite(args: &Args) -> bool {
    let mut failures = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run_child(args, workload, trace);
            if child_failed(&report) {
                failures.push(format!(
                    "{} trace={}: exit ok = {}, failed checks {:?}",
                    workload.name(),
                    u8::from(trace),
                    report.exit_ok,
                    report.failed_checks
                ));
            }
        }
    }
    println!("== summary ==");
    for failure in &failures {
        println!("FAILED {failure}");
    }
    println!(
        "suite: {} of 8 runs failed; claim: none (this benchmark claims no gain)",
        failures.len()
    );
    failures.is_empty()
}

fn run_aa(args: &Args) -> bool {
    let sets: Vec<Vec<ChildReport>> = (0..2)
        .map(|_| Workload::ALL.iter().map(|&w| run_child(args, w, false)).collect())
        .collect();
    println!("== A/A: same binary, same seed ==");
    let mut ok = true;
    for (a, b) in sets[0].iter().zip(&sets[1]) {
        ok &= !child_failed(a) && !child_failed(b);
        let digests = a.digest == b.digest;
        ok &= digests;
        println!(
            "aa {} model_digest {}",
            a.workload.name(),
            if digests { "equal" } else { "DIFFERENT" }
        );
        for metric in &END_TO_END {
            let value = |r: &ChildReport| {
                r.metrics.iter().find(|(n, _)| n == metric.name).map_or(f64::NAN, |(_, v)| *v)
            };
            let (va, vb) = (value(a), value(b));
            let difference = (va - vb).abs() / va.abs();
            // Outputs of the simulated device repeat exactly; measurements
            // of this host repeat within the metric's bound.
            let exact = metric.name.starts_with("model_") || metric.name == "served_share";
            let allowed =
                if exact { 0.0 } else { metric.bound.expect("end-to-end metrics are bounded") };
            let within = difference <= allowed;
            ok &= within;
            println!(
                "aa {} {} {va} vs {vb}: difference {difference:.4}, bound {allowed} {}",
                a.workload.name(),
                metric.name,
                if within { "ok" } else { "EXCEEDED" }
            );
        }
    }
    println!("aa: {}", if ok { "every metric within its bound" } else { "FAILED" });
    ok
}
