//! Fault injection and the degradation ladder (DESIGN.md §11).
//!
//! Run with: `cargo run --example fault_injection --release`
//!
//! The demo builds a brain-tissue block, gives four clients SCOUT
//! prefetchers and guided sequences, and runs the fleet on progressively
//! worse simulated disks:
//!
//! 1. a healthy disk (injection disabled — the byte-identical baseline),
//! 2. rough weather: transient errors, stragglers, checksum-detected
//!    corruption, a few permanently stuck pages,
//! 3. a catastrophic device (every third page stuck) to show queries
//!    failing cleanly while the fleet keeps running,
//!
//! then reruns level 2 with the same seed to show the fault schedule is
//! deterministic, and once more four threads wide to show the width
//! changes nothing.

use scout::prelude::*;
use scout_synth::{generate_neurons, generate_sequences, NeuronParams, SequenceParams};

const CLIENTS: usize = 4;

fn sessions(streams: &[Vec<scout::geometry::QueryRegion>]) -> Vec<Session> {
    streams
        .iter()
        .enumerate()
        .map(|(id, regions)| {
            Session::new(id, Box::new(Scout::with_seed(0xFA + id as u64)), regions.clone())
        })
        .collect()
}

fn engine(bed: &TestBed, faults: FaultPlan, workers: usize) -> MultiSessionExecutor {
    MultiSessionExecutor::new(MultiSessionConfig {
        exec: ExecutorConfig {
            window_ratio: 2.0,
            cache_pages: bed.rtree.layout().page_count(),
            faults,
            ..ExecutorConfig::default()
        },
        shards: 8,
        schedule: Schedule::WorkStealing { workers },
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

    // 1. Healthy disk: `FaultPlan::default()` leaves injection off and the
    //    executor takes the legacy infallible path, byte for byte.
    println!("== healthy disk (injection disabled) ==");
    let clean = engine(&bed, FaultPlan::default(), 1).run(&ctx, sessions(&streams));
    println!("{}", clean.render());
    assert!(clean.faults.is_none(), "no injection, no fault block");

    // 2. Rough weather: every fault class active. Transient and corrupt
    //    reads retry with backoff; stragglers are absorbed; stuck pages
    //    fail their query; failed prefetch reads fall back to on-demand.
    let weather = FaultConfig {
        seed: 0xC0FFEE,
        transient_rate: 0.08,
        corrupt_rate: 0.02,
        stuck_rate: 0.005,
        slow_rate: 0.04,
        slow_multiplier: 8.0,
    };
    println!("== rough weather (seed {:#x}) ==", weather.seed);
    let rough = engine(&bed, FaultPlan::injecting(weather), 1).run(&ctx, sessions(&streams));
    println!("{}", rough.render());
    let f = rough.faults.expect("injection armed");
    println!(
        "ladder: {} retried, {} recovered, {} prefetch reads dropped, \
         {} windows shed by the breaker, {} queries failed\n",
        f.retries, f.recovered, f.dropped_prefetch, f.degraded_windows, f.failed_queries
    );
    assert_eq!(f.corruption_served, 0, "verified reads never leak corruption");

    // 3. Catastrophic device: a third of all pages permanently stuck. The
    //    breaker opens, most queries fail — but every session still runs
    //    its stream to completion and the report still renders.
    let broken = FaultConfig { stuck_rate: 0.34, ..FaultConfig::none(0xDEAD) };
    println!("== catastrophic device (34% stuck pages) ==");
    let dying = engine(&bed, FaultPlan::injecting(broken), 1).run(&ctx, sessions(&streams));
    let f = dying.faults.expect("injection armed");
    println!(
        "fleet survived: {}/{} queries failed cleanly, {} breaker trips, 0 panics\n",
        f.failed_queries,
        dying.sessions.iter().map(|s| s.queries).sum::<usize>(),
        f.breaker_trips
    );

    // 4. Determinism: the schedule is a pure function of the seed — a
    //    rerun reproduces the identical report. Width changes nothing
    //    either: every read, retry and breaker decision runs on the
    //    calling thread in session order (DESIGN.md §10), so a width-4
    //    run renders width 1's bytes.
    let again = engine(&bed, FaultPlan::injecting(weather), 1).run(&ctx, sessions(&streams));
    assert_eq!(rough.render(), again.render(), "same seed, same faults, same trace");
    let wide = engine(&bed, FaultPlan::injecting(weather), 4).run(&ctx, sessions(&streams));
    assert_eq!(rough.render(), wide.render(), "width 4 changed the report");
    println!("determinism: rerun and width 4 byte-identical ✓");
}
