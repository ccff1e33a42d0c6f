//! The fleet fixture the multi-session suites share: one small neuron
//! bed, K guided query streams over it, and one seeded SCOUT session per
//! stream.

// Each suite is its own crate and uses only part of the fixture.
#![allow(dead_code)]

use scout::geometry::QueryRegion;
use scout::prelude::*;
use scout_synth::{generate_sequences, SequenceParams};

/// The workload seed of every fleet test that is not a leg of the CI
/// chaos matrix.
pub(crate) const WORKLOAD_SEED: u64 = 23;

/// The CI chaos matrix's workload seed: `SCOUT_BENCH_SEED` when set, so
/// the matrix marches the fault schedules over different query streams
/// too, and [`WORKLOAD_SEED`] otherwise.
pub(crate) fn chaos_matrix_seed() -> u64 {
    std::env::var("SCOUT_BENCH_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(WORKLOAD_SEED)
}

/// A small neuron bed with K guided sequences (drawn from `seed`), one per
/// session — each client follows its own latent structure through the same
/// tissue block.
pub(crate) fn bed_and_streams(k: usize, seed: u64) -> (TestBed, Vec<Vec<QueryRegion>>) {
    let dataset = scout_synth::generate_neurons(
        &scout_synth::NeuronParams { neuron_count: 8, fiber_steps: 220, ..Default::default() },
        11,
    );
    let bed = TestBed::with_page_capacity(dataset, 32);
    let params = SequenceParams { length: 8, ..SequenceParams::sensitivity_default() };
    let sequences = generate_sequences(&bed.dataset, &params, k, seed);
    let regions = region_lists(&sequences);
    (bed, regions)
}

/// K sessions, each with its own seeded SCOUT instance.
pub(crate) fn scout_sessions(streams: &[Vec<QueryRegion>]) -> Vec<Session> {
    streams
        .iter()
        .enumerate()
        .map(|(id, regions)| {
            Session::new(id, Box::new(Scout::with_seed(0xBEEF + id as u64)), regions.clone())
        })
        .collect()
}

/// FNV-1a over `bytes`: a digest that pins a report's exact bytes.
pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}
