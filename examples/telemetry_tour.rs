//! Flight-recorder telemetry tour (DESIGN.md §13).
//!
//! Run with: `cargo run --example telemetry_tour --release`
//!
//! The demo builds a brain-tissue block, gives four clients SCOUT
//! prefetchers and guided sequences, and runs the fleet twice:
//!
//! 1. disarmed (the default) — telemetry constructs nothing and the
//!    report is byte-identical to an untelemetered engine,
//! 2. armed — the same run attaches a registry of wall-clock span
//!    histograms (measurements) and a flight log of typed,
//!    simulated-clock-stamped events; the counts stay in the report,
//!
//! then reruns the armed fleet to show the width-1 event stream is
//! byte-identical, and prints the tail of the JSONL export.

use scout::prelude::*;
use scout_synth::{generate_neurons, generate_sequences, NeuronParams, SequenceParams};

const CLIENTS: usize = 4;

fn sessions(streams: &[Vec<scout::geometry::QueryRegion>]) -> Vec<Session> {
    streams
        .iter()
        .enumerate()
        .map(|(id, regions)| {
            Session::new(id, Box::new(Scout::with_seed(0x7E1E + id as u64)), regions.clone())
        })
        .collect()
}

fn engine(armed: bool) -> MultiSessionExecutor {
    MultiSessionExecutor::new(MultiSessionConfig {
        exec: ExecutorConfig {
            window_ratio: 2.0,
            cache_pages: 512,
            telemetry: armed.then(TelemetryPlan::default),
            ..ExecutorConfig::default()
        },
        shards: 8,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    })
}

fn main() {
    let dataset = generate_neurons(&NeuronParams { neuron_count: 20, ..Default::default() }, 42);
    println!("dataset: {} objects across {CLIENTS} clients\n", dataset.len());
    let bed = TestBed::new(dataset);
    let params = SequenceParams { length: 16, ..SequenceParams::sensitivity_default() };
    let streams = region_lists(&generate_sequences(&bed.dataset, &params, CLIENTS, 7));
    let ctx = bed.ctx_rtree();

    // 1. Disarmed: `telemetry: None` is the default — nothing is
    //    constructed, nothing is attached.
    let plain = engine(false).run(&ctx, sessions(&streams));
    assert!(plain.telemetry.is_none(), "disarmed runs attach nothing");

    // 2. Armed: same fleet, same simulated trace, plus a telemetry
    //    report. Telemetry never touches the simulated clock or the
    //    cache, so the rendered report is byte-identical.
    let armed = engine(true).run(&ctx, sessions(&streams));
    println!("{}", armed.render());
    assert_eq!(plain.render(), armed.render(), "telemetry must be invisible in the report");
    let telem = armed.telemetry.as_ref().expect("armed runs attach a TelemetryReport");

    // Counts are model outputs: the report holds them, exactly.
    println!("== report totals ==");
    let queries: usize = armed.sessions.iter().map(|s| s.queries).sum();
    println!("  {:>16}: {queries}", "queries served");
    println!("  {:>16}: {}", "pages requested", armed.total_pages());
    println!("  {:>16}: {}", "pages hit", armed.total_pages_hit());

    // Spans are measurements: host wall-clock time per serve and window
    // sub-phase, in bounded log-bucketed histograms. The percentile is
    // the bucket's upper edge (≤ 25% relative width), and it varies from
    // run to run and host to host.
    println!("== wall-clock spans ==");
    for (label, id) in [("serve", HistogramId::SpanServeUs), ("window", HistogramId::SpanWindowUs)]
    {
        println!(
            "  {label:>6}: p50 {:>6.0} µs   p99 {:>6.0} µs",
            telem.percentile(id, 50.0),
            telem.percentile(id, 99.0)
        );
    }

    // The flight log: every session's ring, merged and sealed into one
    // timeline ordered by (t_us, stream, seq).
    let jsonl = telem.to_jsonl();
    println!(
        "== flight log: {} events ({} dropped) ==",
        telem.events().len(),
        telem.dropped_events()
    );
    for line in jsonl.lines().rev().take(6).collect::<Vec<_>>().into_iter().rev() {
        println!("  {line}");
    }

    // 3. Determinism: timestamps are simulated and the merge order is
    //    total, so a width-1 rerun exports the identical byte stream.
    let again = engine(true).run(&ctx, sessions(&streams));
    assert_eq!(
        jsonl,
        again.telemetry.as_ref().expect("armed").to_jsonl(),
        "width-1 event streams are byte-identical across reruns"
    );
    println!("\ndeterminism: armed rerun exported a byte-identical event stream ✓");
}
