//! # scout-bench
//!
//! Shared plumbing for the per-figure benchmark harnesses: standard
//! datasets, the prefetcher roster, and evaluation helpers. Every
//! `[[bench]]` target in this crate regenerates one table/figure of the
//! paper; see DESIGN.md §4 for the experiment index.
//!
//! Scale control: harnesses read `SCOUT_BENCH_SCALE` (float, default 1.0)
//! to shrink/grow datasets and sequence counts, and `SCOUT_BENCH_SEED`
//! (u64, default 42) for reproducible randomness.

#![forbid(unsafe_code)]

use scout_baselines::{Ewma, HilbertPrefetch, Polynomial, StraightLine};
use scout_core::{Scout, ScoutOpt};
use scout_sim::{
    evaluate, region_lists, AggregateMetrics, ExecutorConfig, NoPrefetch, Prefetcher, TestBed,
};
use scout_synth::{
    generate_arterial, generate_lung, generate_neurons, generate_roads, generate_sequences,
    ArterialParams, Dataset, LungParams, NeuronParams, RoadParams, SequenceParams,
};

/// Reads the global scale factor from `SCOUT_BENCH_SCALE` (scales the
/// number of sequences per experiment; default 1.0).
pub fn scale() -> f64 {
    std::env::var("SCOUT_BENCH_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Reads the dataset scale factor from `SCOUT_BENCH_DATASET_SCALE`.
///
/// Scaling the dataset changes its density and therefore the page-to-query
/// size ratio — absolute hit rates shift, though orderings persist. Keep
/// this at 1.0 for paper-comparable numbers; lower it only for quick
/// smoke runs.
pub fn dataset_scale() -> f64 {
    std::env::var("SCOUT_BENCH_DATASET_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(1.0)
}

/// Reads the global seed from `SCOUT_BENCH_SEED`.
pub fn seed() -> u64 {
    std::env::var("SCOUT_BENCH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(42)
}

/// Number of sequences per experiment, scaled (paper: 30 for Figure 11/12,
/// 50 for the sensitivity analysis).
pub fn sequences(paper_count: usize) -> usize {
    ((paper_count as f64 * scale()).round() as usize).clamp(3, paper_count * 4)
}

/// The default neuron dataset used by the main experiments.
pub fn neuron_dataset() -> Dataset {
    neuron_dataset_with_objects((1_300_000.0 * dataset_scale()) as usize)
}

/// A neuron dataset targeting approximately `objects` objects.
pub fn neuron_dataset_with_objects(objects: usize) -> Dataset {
    generate_neurons(&NeuronParams::with_target_objects(objects.max(2_000)), seed())
}

/// The §8.4 arterial-tree dataset, scaled.
pub fn arterial_dataset() -> Dataset {
    let mut p = ArterialParams::default();
    if dataset_scale() < 0.5 {
        p.generations = 6;
        p.root_branch_steps = 150;
    }
    generate_arterial(&p, seed() ^ 0xA7)
}

/// The §8.4 lung-airway dataset, scaled.
pub fn lung_dataset() -> Dataset {
    let mut p = LungParams::default();
    if dataset_scale() < 0.5 {
        p.generations = 6;
    }
    generate_lung(&p, seed() ^ 0x11)
}

/// The §8.4 road-network dataset, scaled.
pub fn road_dataset() -> Dataset {
    let mut p = RoadParams::default();
    if dataset_scale() < 0.5 {
        p.grid_n = 32;
    }
    generate_roads(&p, seed() ^ 0x30)
}

/// The comparison roster of Figure 11/12: the best related approaches
/// (§7.3: "Straight Line Extrapolation approach, EWMA 0.3 and Hilbert
/// prefetching") plus SCOUT.
pub fn figure11_roster() -> Vec<Box<dyn Prefetcher>> {
    vec![
        Box::new(Ewma::paper_best()),
        Box::new(StraightLine::new()),
        Box::new(HilbertPrefetch::default()),
        Box::new(Scout::with_defaults()),
    ]
}

/// The Figure 3 roster: state-of-the-art trajectory extrapolation only.
pub fn figure3_roster() -> Vec<Box<dyn Prefetcher>> {
    vec![
        Box::new(Ewma::paper_best()),
        Box::new(StraightLine::new()),
        Box::new(Polynomial::new(2)),
        Box::new(Polynomial::new(3)),
    ]
}

/// Runs one roster over a workload on a test bed; returns metrics per
/// prefetcher. SCOUT-OPT (if included by the caller) must run on the FLAT
/// context; everything else runs on the R-tree context (§7.1).
pub fn run_roster(
    bed: &TestBed,
    roster: &mut [Box<dyn Prefetcher>],
    params: &SequenceParams,
    n_sequences: usize,
    window_ratio: f64,
    seq_seed: u64,
) -> Vec<AggregateMetrics> {
    let sequences = generate_sequences(&bed.dataset, params, n_sequences, seq_seed);
    let regions = region_lists(&sequences);
    let config = ExecutorConfig { window_ratio, ..ExecutorConfig::default() };
    roster
        .iter_mut()
        .map(|p| {
            let is_opt = p.name().contains("OPT");
            let ctx = if is_opt { bed.ctx_flat() } else { bed.ctx_rtree() };
            evaluate(&ctx, p.as_mut(), &regions, &config)
        })
        .collect()
}

/// Convenience: a fresh SCOUT-OPT boxed as a prefetcher.
pub fn scout_opt() -> Box<dyn Prefetcher> {
    Box::new(ScoutOpt::with_defaults())
}

/// Convenience: a fresh no-prefetch baseline.
pub fn no_prefetch() -> Box<dyn Prefetcher> {
    Box::new(NoPrefetch)
}
