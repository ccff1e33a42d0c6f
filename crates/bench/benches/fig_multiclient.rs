//! Multi-client scaling — the experiment behind the multi-session engine
//! (no counterpart figure in the paper, which is single-client only).
//!
//! Three questions, one table each:
//!
//! 1. sharing: how does one shared `ShardedCache` compare with giving each
//!    of K clients an equal slice as a private cache?
//! 2. sharding: how does the shard count affect hit accounting (it must
//!    not) and multi-worker wall-clock time (it should, under contention)?
//! 3. scheduling: round-robin vs. the work-stealing schedule wall-clock.

use scout_bench::{neuron_dataset_with_objects, seed};
use scout_core::Scout;
use scout_sim::report::{pct, Table};
use scout_sim::{
    ExecutorConfig, MultiSessionConfig, MultiSessionExecutor, MultiSessionReport, Schedule,
    Session, TestBed,
};
use scout_synth::{generate_sequences, SequenceParams};
use std::time::Instant;

const CLIENTS: usize = 8;
const QUERIES: usize = 15;

fn sessions(streams: &[Vec<scout_geometry::QueryRegion>]) -> Vec<Session> {
    streams
        .iter()
        .enumerate()
        .map(|(id, regions)| {
            Session::new(id, Box::new(Scout::with_seed(seed() ^ id as u64)), regions.clone())
        })
        .collect()
}

fn main() {
    println!("== Multi-client: shared sharded cache vs private caches ==\n");
    let bed = TestBed::new(neuron_dataset_with_objects(60_000));
    let params = SequenceParams { length: QUERIES, ..SequenceParams::sensitivity_default() };
    let streams: Vec<_> = generate_sequences(&bed.dataset, &params, CLIENTS, seed() ^ 0x9)
        .iter()
        .map(|s| s.regions.clone())
        .collect();
    let ctx = bed.ctx_rtree();
    let exec = ExecutorConfig { window_ratio: 2.0, ..ExecutorConfig::default() };

    // -- sharing --------------------------------------------------------
    let mut sharing = Table::new(["configuration", "hit %", "response s", "evictions"]);
    let private_exec = ExecutorConfig { cache_pages: exec.cache_pages / CLIENTS, ..exec };
    let solo_engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec: private_exec,
        shards: 1,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    });
    let solos: Vec<MultiSessionReport> = streams
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let scout = Scout::with_seed(seed() ^ id as u64);
            solo_engine.run(&ctx, vec![Session::new(id, Box::new(scout), s.clone())])
        })
        .collect();
    let hits: u64 = solos.iter().map(MultiSessionReport::total_pages_hit).sum();
    let pages: u64 = solos.iter().map(MultiSessionReport::total_pages).sum();
    sharing.row([
        format!("{CLIENTS} private caches ({} pages each)", private_exec.cache_pages),
        pct(scout_storage::hit_ratio(hits, pages)),
        format!("{:.2}", solos.iter().map(|r| r.total_response_us()).sum::<f64>() / 1e6),
        solos.iter().map(|r| r.cache.evictions).sum::<u64>().to_string(),
    ]);
    let shared_engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec,
        shards: 8,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    });
    let shared = shared_engine.run(&ctx, sessions(&streams));
    sharing.row([
        format!("1 shared ShardedCache ({} pages, 8 shards)", exec.cache_pages),
        pct(shared.hit_rate()),
        format!("{:.2}", shared.total_response_us() / 1e6),
        shared.cache.evictions.to_string(),
    ]);
    println!("{}", sharing.render());

    // -- sharding ------------------------------------------------------
    // Hit accounting only; wall-clock is measured in the pass below.
    let mut sharding = Table::new(["shards", "hit %", "pages hit", "evictions"]);
    for shards in [1usize, 2, 4, 8, 16, 32] {
        let engine = MultiSessionExecutor::new(MultiSessionConfig {
            exec,
            shards,
            schedule: Schedule::WorkStealing { workers: 0 },
            ..Default::default()
        });
        let report = engine.run(&ctx, sessions(&streams));
        sharding.row([
            shards.to_string(),
            pct(report.hit_rate()),
            report.total_pages_hit().to_string(),
            report.cache.evictions.to_string(),
        ]);
    }
    println!("-- work-stealing, by shard count --\n{}", sharding.render());

    // -- scheduling -----------------------------------------------------
    let mut sched = Table::new(["schedule", "hit %", "p99 ms", "wall ms"]);
    for (name, schedule) in [
        ("round-robin", Schedule::RoundRobin),
        ("work-stealing", Schedule::WorkStealing { workers: 0 }),
    ] {
        let engine = MultiSessionExecutor::new(MultiSessionConfig {
            exec,
            shards: 8,
            schedule,
            ..Default::default()
        });
        let t0 = Instant::now();
        let report = engine.run(&ctx, sessions(&streams));
        sched.row([
            name.to_string(),
            pct(report.hit_rate()),
            format!("{:.2}", report.residual.p99 / 1e3),
            format!("{:.1}", t0.elapsed().as_secs_f64() * 1e3),
        ]);
    }
    println!("-- schedule comparison (8 shards) --\n{}", sched.render());
    println!(
        "(expected: identical hit accounting across schedules at a fixed shard count;\n \
         shard count may shift hits marginally — recency is per-shard — and wall-clock\n \
         is host-dependent, not a simulated quantity)"
    );
}
