//! Adaptive prediction on a revisit-heavy workload.
//!
//! Run with: `cargo run --example adaptive_exploration --release`
//!
//! A user keeps looping over the same tour through a tissue block — the
//! bread-and-butter of real analysis sessions, and the blind spot of pure
//! structure following: at every lap boundary the user teleports back to
//! the start, and nothing inside the current result predicts that jump.
//! The demo compares plain SCOUT, the pure history Markov prefetcher, and
//! the adaptive hybrid on that loop, shows the feedback controller's
//! learned state, and finishes with a multi-session run of a hybrid fleet.

use scout::prelude::*;
use scout::sim::workloads::revisit_loop;
use scout::sim::{run_sequence, Session};
use scout_synth::{generate_neurons, NeuronParams};

fn main() {
    let dataset = generate_neurons(&NeuronParams::with_target_objects(25_000), 42);
    println!("dataset: {} objects\n", dataset.len());
    let bed = TestBed::with_page_capacity(dataset, 32);
    let ctx = bed.ctx_rtree();

    // One 8-query tour, revisited 5 times. A modest cache forces old laps
    // out, so every lap is won or lost on prediction quality.
    let params = SequenceParams { volume: 30_000.0, ..SequenceParams::sensitivity_default() };
    let regions = revisit_loop(&bed.dataset, &params, 8, 5, 7);
    let exec = ExecutorConfig { window_ratio: 1.6, cache_pages: 192, ..ExecutorConfig::default() };
    println!("workload: 8-query tour × 5 laps = {} queries\n", regions.len());

    let mut scout = Scout::with_defaults();
    let mut markov = MarkovPrefetcher::with_defaults();
    let mut hybrid = HybridPrefetcher::with_defaults();
    let mut rows: Vec<(String, f64, f64)> = Vec::new();
    {
        let prefetchers: [&mut dyn Prefetcher; 3] = [&mut scout, &mut markov, &mut hybrid];
        for p in prefetchers {
            let name = p.name();
            let t = run_sequence(&ctx, p, &regions, &exec);
            rows.push((name, t.hit_rate(), t.total_response_us() / 1_000.0));
        }
    }
    for (name, hit, ms) in &rows {
        println!(
            "{name:>22}: {:5.1} % of result pages from cache, {ms:8.1} ms response",
            hit * 100.0
        );
    }

    let c = hybrid.controller();
    println!(
        "\nfeedback controller after the run: scout precision {:.2}, markov precision {:.2},\n\
         markov budget share {:.2}, aggressiveness {:.2} ({} queries observed)",
        c.scout_precision(),
        c.markov_precision(),
        c.markov_share(),
        c.aggressiveness(),
        c.observations()
    );
    println!(
        "markov model: {} transition samples in {} contexts ({} KiB, bounded)",
        hybrid.markov().transitions(),
        hybrid.markov().contexts_used(),
        hybrid.markov().memory_bytes() / 1024
    );

    // Multi-session: a hybrid fleet over one shared cache.
    let streams: Vec<_> =
        (0..3).map(|i| revisit_loop(&bed.dataset, &params, 8, 3, 11 + i)).collect();
    let engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec,
        shards: 8,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    });
    let sessions = streams
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Session::new(id, Box::new(HybridPrefetcher::with_seed(0xAD + id as u64)), s.clone())
        })
        .collect();
    let report = engine.run(&ctx, sessions);
    println!("\n3 hybrid sessions over one shared cache:\n{}", report.render());
}
