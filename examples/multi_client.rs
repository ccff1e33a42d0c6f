//! Multi-client execution: K concurrent sessions share one sharded
//! prefetch cache while each follows its own latent structure.
//!
//! Run with: `cargo run --example multi_client --release`
//!
//! The demo builds a brain-tissue block, gives every client a SCOUT
//! prefetcher and a guided query sequence along a different fiber, and
//! executes the fleet three ways:
//!
//! 1. private caches — every client simulated alone (the seed behavior),
//! 2. one shared `ShardedCache`, deterministic round-robin schedule,
//! 3. the same shared cache and round loop, each phase shared by the
//!    machine-default number of threads (`Schedule::WorkStealing`).
//!
//! The report shows per-session residual-latency percentiles (p50/p95/p99)
//! and the shared-cache hit rate; a final pass adds a prefetch-less
//! "rider" client to show cross-session sharing directly.

use scout::prelude::*;
use scout_synth::{generate_neurons, generate_sequences, NeuronParams, SequenceParams};

const CLIENTS: usize = 6;

fn sessions(streams: &[Vec<scout::geometry::QueryRegion>]) -> Vec<Session> {
    streams
        .iter()
        .enumerate()
        .map(|(id, regions)| {
            Session::new(id, Box::new(Scout::with_seed(0x5C0 + id as u64)), regions.clone())
        })
        .collect()
}

fn main() {
    // A tissue block and one guided sequence per client, each following a
    // different fiber of the same dataset.
    let dataset = generate_neurons(&NeuronParams { neuron_count: 40, ..Default::default() }, 42);
    println!("dataset: {} objects across {} clients\n", dataset.len(), CLIENTS);
    let bed = TestBed::new(dataset);
    let params = SequenceParams { length: 20, ..SequenceParams::sensitivity_default() };
    let streams = region_lists(&generate_sequences(&bed.dataset, &params, CLIENTS, 7));
    let ctx = bed.ctx_rtree();

    let exec = ExecutorConfig { window_ratio: 2.0, ..ExecutorConfig::default() };

    // 1. Baseline: every client alone with a private cache (each gets an
    //    equal slice of the shared budget).
    let private_exec = ExecutorConfig { cache_pages: (exec.cache_pages / CLIENTS).max(1), ..exec };
    let engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec: private_exec,
        shards: 1,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    });
    let private: Vec<MultiSessionReport> = streams
        .iter()
        .enumerate()
        .map(|(id, s)| {
            engine.run(
                &ctx,
                vec![Session::new(id, Box::new(Scout::with_seed(0x5C0 + id as u64)), s.clone())],
            )
        })
        .collect();
    let private_hits: u64 = private.iter().map(MultiSessionReport::total_pages_hit).sum();
    let private_pages: u64 = private.iter().map(MultiSessionReport::total_pages).sum();
    println!(
        "private caches ({} × {} pages): hit rate {:.1} %",
        CLIENTS,
        private_exec.cache_pages,
        100.0 * scout::storage::hit_ratio(private_hits, private_pages)
    );

    // 2. Shared sharded cache, deterministic round-robin schedule.
    let engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec,
        shards: 8,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    });
    let rr = engine.run(&ctx, sessions(&streams));
    println!(
        "\nshared ShardedCache ({} pages, 8 shards), round-robin schedule:\n{}",
        exec.cache_pages,
        rr.render()
    );

    // 3. Same fleet, each phase shared by the machine-default number of
    //    threads.
    let engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec,
        shards: 8,
        schedule: Schedule::WorkStealing { workers: 0 },
        ..Default::default()
    });
    let ws = engine.run(&ctx, sessions(&streams));
    println!(
        "work-stealing ({} workers): hit rate {:.1} %, total pages hit {} (round-robin: {})",
        ws.scheduler.map_or(1, |s| s.workers),
        100.0 * ws.hit_rate(),
        ws.total_pages_hit(),
        rr.total_pages_hit()
    );

    // 4. Cross-session sharing, made visible: a client that never
    //    prefetches rides an identical leader's cache entries.
    let engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec,
        shards: 8,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    });
    let pair = engine.run(
        &ctx,
        vec![
            Session::new(0, Box::new(Scout::with_defaults()), streams[0].clone()),
            Session::new(1, Box::new(NoPrefetch), streams[0].clone()),
        ],
    );
    println!(
        "\nrider demo (same fiber, shared cache): SCOUT leader {:.1} % hit rate, \
         prefetch-less rider {:.1} % — the rider is served by the leader's prefetches",
        100.0 * pair.sessions[0].hit_rate(),
        100.0 * pair.sessions[1].hit_rate()
    );
}
