//! The Figure 10 microbenchmarks, plus the revisit-loop generator.
//!
//! "Our microbenchmarks are designed based on query templates used in the
//! real use cases" (§7.2). Each row of Figure 10 maps to one
//! [`Microbenchmark`]: sequence length, query volume, aspect, gap distance
//! and prefetch-window ratio.
//!
//! [`revisit_loop`] scripts the cross-query-history scenario the paper's
//! structure-only benchmarks cannot express: a user looping over the same
//! tour. It exists to exercise the history/structure trade-off of the
//! prediction subsystem (`scout-predict`): structure following alone is
//! blind to the teleport at every lap boundary.

use scout_geometry::{Aspect, QueryRegion};
use scout_synth::{generate_sequences, Dataset, SequenceParams};

/// One microbenchmark row of Figure 10.
#[derive(Debug, Clone, Copy)]
pub struct Microbenchmark {
    /// Machine-friendly identifier.
    pub id: &'static str,
    /// The label used in Figure 11/12.
    pub label: &'static str,
    /// Sequence shape (length, volume, aspect, gaps).
    pub sequence: SequenceParams,
    /// Prefetch-window ratio `r = u/d`.
    pub window_ratio: f64,
}

impl Microbenchmark {
    const fn new(
        id: &'static str,
        label: &'static str,
        length: usize,
        volume: f64,
        aspect: Aspect,
        gap: f64,
        window_ratio: f64,
    ) -> Microbenchmark {
        Microbenchmark {
            id,
            label,
            sequence: SequenceParams {
                length,
                volume,
                aspect,
                gap,
                overlap_frac: 0.1,
                reset_prob: 0.0,
            },
            window_ratio,
        }
    }
}

/// Ad-hoc queries, statistical analysis variant (r = 0.8).
pub const ADHOC_STAT: Microbenchmark = Microbenchmark::new(
    "adhoc_stat",
    "Ad-hoc Queries (Stat. Analysis)",
    25,
    80_000.0,
    Aspect::Cube,
    0.0,
    0.8,
);

/// Ad-hoc queries, pattern-matching variant (r = 1.4).
pub const ADHOC_PATTERN: Microbenchmark = Microbenchmark::new(
    "adhoc_pattern",
    "Ad-hoc Queries (Pattern Matching)",
    25,
    80_000.0,
    Aspect::Cube,
    0.0,
    1.4,
);

/// Model building: synapse placement (r = 2).
pub const MODEL_BUILDING: Microbenchmark =
    Microbenchmark::new("model_building", "Model Building", 35, 20_000.0, Aspect::Cube, 0.0, 2.0);

/// Walkthrough visualization, low quality / fast rendering (r = 1.2).
pub const VIS_LOW: Microbenchmark = Microbenchmark::new(
    "vis_low",
    "Visualization (Low Quality)",
    65,
    30_000.0,
    Aspect::Frustum,
    0.0,
    1.2,
);

/// Walkthrough visualization, high quality / ray tracing (r = 1.6).
pub const VIS_HIGH: Microbenchmark = Microbenchmark::new(
    "vis_high",
    "Visualization (High Quality)",
    65,
    30_000.0,
    Aspect::Frustum,
    0.0,
    1.6,
);

/// Visualization with gaps, high quality (gap 25 µm, r = 1.2 — as printed
/// in Figure 10).
pub const VIS_GAPS_HIGH: Microbenchmark = Microbenchmark::new(
    "vis_gaps_high",
    "Visualization with Gaps (High Quality)",
    65,
    30_000.0,
    Aspect::Frustum,
    25.0,
    1.2,
);

/// Visualization with gaps, low quality (gap 25 µm, r = 1.6).
pub const VIS_GAPS_LOW: Microbenchmark = Microbenchmark::new(
    "vis_gaps_low",
    "Visualization with Gaps (Low Quality)",
    65,
    30_000.0,
    Aspect::Frustum,
    25.0,
    1.6,
);

/// The five gap-free benchmarks of Figure 11, in figure order.
pub fn figure11_benchmarks() -> Vec<Microbenchmark> {
    vec![ADHOC_STAT, ADHOC_PATTERN, MODEL_BUILDING, VIS_LOW, VIS_HIGH]
}

/// The two gap benchmarks of Figure 12.
pub fn figure12_benchmarks() -> Vec<Microbenchmark> {
    vec![VIS_GAPS_HIGH, VIS_GAPS_LOW]
}

/// All seven Figure 10 rows.
pub fn all_benchmarks() -> Vec<Microbenchmark> {
    let mut v = figure11_benchmarks();
    v.extend(figure12_benchmarks());
    v
}

// ---------------------------------------------------------------------------
// Adaptive-scenario generator (cross-query history workload)
// ---------------------------------------------------------------------------

/// A guided tour revisited over and over: one `cycle`-query sequence is
/// walked, then the user teleports back to its start and walks it again,
/// `laps` times in total. Every lap boundary is a jump no structural
/// prediction can see coming; everything else is faithful structure
/// following — the canonical history-beats-structure workload.
pub fn revisit_loop(
    dataset: &Dataset,
    params: &SequenceParams,
    cycle: usize,
    laps: usize,
    seed: u64,
) -> Vec<QueryRegion> {
    assert!(cycle >= 1 && laps >= 1, "revisit_loop needs cycle >= 1 and laps >= 1");
    let tour_params = SequenceParams { length: cycle, ..*params };
    let tour = generate_sequences(dataset, &tour_params, 1, seed).remove(0).regions;
    let mut out = Vec::with_capacity(cycle * laps);
    for _ in 0..laps {
        out.extend(tour.iter().copied());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_synth::{generate_neurons, NeuronParams};

    #[test]
    fn figure10_parameters_match_the_paper() {
        assert_eq!(ADHOC_STAT.sequence.length, 25);
        assert_eq!(ADHOC_STAT.sequence.volume, 80_000.0);
        assert_eq!(ADHOC_STAT.window_ratio, 0.8);
        assert_eq!(ADHOC_PATTERN.window_ratio, 1.4);
        assert_eq!(MODEL_BUILDING.sequence.length, 35);
        assert_eq!(MODEL_BUILDING.sequence.volume, 20_000.0);
        assert_eq!(MODEL_BUILDING.window_ratio, 2.0);
        assert_eq!(VIS_LOW.sequence.length, 65);
        assert_eq!(VIS_LOW.sequence.volume, 30_000.0);
        assert!(matches!(VIS_LOW.sequence.aspect, Aspect::Frustum));
        assert_eq!(VIS_GAPS_HIGH.sequence.gap, 25.0);
        assert_eq!(all_benchmarks().len(), 7);
    }

    #[test]
    fn gap_benchmarks_have_gaps_others_do_not() {
        for b in figure11_benchmarks() {
            assert_eq!(b.sequence.gap, 0.0, "{}", b.id);
        }
        for b in figure12_benchmarks() {
            assert!(b.sequence.gap > 0.0, "{}", b.id);
        }
    }

    fn fixture() -> Dataset {
        generate_neurons(
            &NeuronParams { neuron_count: 10, fiber_steps: 400, ..Default::default() },
            3,
        )
    }

    fn small_params() -> SequenceParams {
        SequenceParams { volume: 8_000.0, ..SequenceParams::sensitivity_default() }
    }

    #[test]
    fn revisit_loop_repeats_the_tour_exactly() {
        let d = fixture();
        let regions = revisit_loop(&d, &small_params(), 6, 4, 9);
        assert_eq!(regions.len(), 24);
        for lap in 1..4 {
            for k in 0..6 {
                assert_eq!(
                    regions[lap * 6 + k].center(),
                    regions[k].center(),
                    "lap {lap} query {k} strayed from the tour"
                );
            }
        }
        // Deterministic in the seed.
        let again = revisit_loop(&d, &small_params(), 6, 4, 9);
        assert_eq!(regions.len(), again.len());
        assert_eq!(regions[13].center(), again[13].center());
    }
}
