//! Experiment plumbing: test beds, aggregate metrics, sweep helpers.

use crate::context::SimContext;
use crate::executor::{run_sequences, ExecutorConfig, SequenceTrace};
use crate::prefetcher::{NoPrefetch, Prefetcher};
use scout_geometry::QueryRegion;
use scout_index::{FlatConfig, FlatIndex, RTree};
use scout_synth::Dataset;

/// A dataset bulk-loaded into both index families.
///
/// Plain SCOUT and every baseline run against the R-tree (§7.1); SCOUT-OPT
/// "must be coupled with FLAT", so gap experiments use the FLAT context.
pub struct TestBed {
    /// The generated dataset.
    pub dataset: Dataset,
    /// STR bulk-loaded R-tree.
    pub rtree: RTree,
    /// FLAT-style neighborhood index (same page capacity).
    pub flat: FlatIndex,
}

impl TestBed {
    /// Bulk loads both indexes with the default §7.1 page capacity.
    pub fn new(dataset: Dataset) -> TestBed {
        Self::with_page_capacity(dataset, scout_index::DEFAULT_PAGE_CAPACITY)
    }

    /// Bulk loads both indexes with an explicit page capacity.
    ///
    /// One STR pack serves both: FLAT builds its neighborhoods over a clone
    /// of the R-tree, which equals a second pack of the same objects.
    pub fn with_page_capacity(dataset: Dataset, capacity: usize) -> TestBed {
        let rtree = RTree::bulk_load_with_capacity(&dataset.objects, capacity);
        let flat = FlatIndex::from_rtree(rtree.clone(), FlatConfig::default());
        TestBed { dataset, rtree, flat }
    }

    /// Context over the R-tree (plain SCOUT and baselines).
    pub fn ctx_rtree(&self) -> SimContext<'_> {
        let mut ctx = SimContext::new(&self.dataset.objects, &self.rtree, self.dataset.bounds);
        if let Some(adj) = &self.dataset.adjacency {
            ctx = ctx.with_adjacency(adj);
        }
        ctx
    }

    /// Context over the FLAT index with ordered retrieval (SCOUT-OPT).
    pub fn ctx_flat(&self) -> SimContext<'_> {
        let mut ctx = SimContext::new(&self.dataset.objects, &self.flat, self.dataset.bounds)
            .with_ordered(&self.flat);
        if let Some(adj) = &self.dataset.adjacency {
            ctx = ctx.with_adjacency(adj);
        }
        ctx
    }
}

/// Aggregated results of running one prefetcher over many sequences.
#[derive(Debug, Clone)]
pub struct AggregateMetrics {
    /// Prefetcher display name.
    pub name: String,
    /// Mean per-sequence cache-hit rate ∈ [0, 1].
    pub hit_rate: f64,
    /// Speedup of total response time vs. the no-prefetching baseline.
    pub speedup: f64,
    /// Total user-visible response time, µs.
    pub response_us: f64,
    /// Total graph-building CPU, µs.
    pub graph_build_us: f64,
    /// Total result objects.
    pub result_objects: usize,
    /// Total prefetched pages read from disk.
    pub prefetch_pages: u64,
    /// Total gap-traversal overhead pages.
    pub gap_pages: u64,
    /// Peak prediction memory over all queries, bytes.
    pub peak_memory_bytes: usize,
    /// Standard deviation of per-sequence hit rates — §5.2's variance
    /// argument: deep prefetching "predicts correctly with probability
    /// 1/|C|" and so "the prefetch accuracy varies widely"; broad
    /// prefetching lowers the variance.
    pub hit_rate_std: f64,
}

/// Runs a prefetcher over the sequences and aggregates against the
/// no-prefetching baseline (for speedup).
pub fn evaluate(
    ctx: &SimContext<'_>,
    prefetcher: &mut dyn Prefetcher,
    sequences: &[Vec<QueryRegion>],
    config: &ExecutorConfig,
) -> AggregateMetrics {
    let traces = run_sequences(ctx, prefetcher, sequences, config);
    let mut baseline = NoPrefetch;
    let base_traces = run_sequences(ctx, &mut baseline, sequences, config);
    aggregate(prefetcher.name(), &traces, &base_traces)
}

/// Aggregates traces, using `base` for the speedup denominator.
pub fn aggregate(
    name: String,
    traces: &[SequenceTrace],
    base: &[SequenceTrace],
) -> AggregateMetrics {
    let hit_rate = if traces.is_empty() {
        0.0
    } else {
        traces.iter().map(SequenceTrace::hit_rate).sum::<f64>() / traces.len() as f64
    };
    let hit_rate_std = if traces.len() < 2 {
        0.0
    } else {
        let var = traces.iter().map(|t| (t.hit_rate() - hit_rate).powi(2)).sum::<f64>()
            / (traces.len() - 1) as f64;
        var.sqrt()
    };
    let response: f64 = traces.iter().map(SequenceTrace::total_response_us).sum();
    let base_response: f64 = base.iter().map(SequenceTrace::total_response_us).sum();
    let speedup = if response > 0.0 { base_response / response } else { f64::INFINITY };
    AggregateMetrics {
        name,
        hit_rate,
        speedup,
        response_us: response,
        graph_build_us: traces.iter().map(SequenceTrace::total_graph_build_us).sum(),
        result_objects: traces.iter().map(SequenceTrace::total_result_objects).sum(),
        prefetch_pages: traces.iter().map(|t| t.io.prefetch_pages_disk).sum(),
        gap_pages: traces.iter().map(|t| t.io.gap_pages_disk).sum(),
        peak_memory_bytes: traces
            .iter()
            .flat_map(|t| t.queries.iter().map(|q| q.prediction.memory_bytes))
            .max()
            .unwrap_or(0),
        hit_rate_std,
    }
}

/// Extracts the plain region lists from generated guided sequences.
pub fn region_lists(sequences: &[scout_synth::GuidedSequence]) -> Vec<Vec<QueryRegion>> {
    sequences.iter().map(|s| s.regions.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_synth::{generate_neurons, generate_sequences, NeuronParams, SequenceParams};

    #[test]
    fn testbed_and_evaluate_roundtrip() {
        let dataset = generate_neurons(
            &NeuronParams { neuron_count: 6, fiber_steps: 200, ..Default::default() },
            3,
        );
        let bed = TestBed::with_page_capacity(dataset, 32);
        let params = SequenceParams { length: 8, ..SequenceParams::sensitivity_default() };
        let seqs = generate_sequences(&bed.dataset, &params, 2, 9);
        let regions = region_lists(&seqs);
        let ctx = bed.ctx_rtree();
        let mut p = NoPrefetch;
        let m = evaluate(&ctx, &mut p, &regions, &ExecutorConfig::default());
        // NoPrefetch vs NoPrefetch baseline: speedup exactly 1.
        assert!((m.speedup - 1.0).abs() < 1e-9);
        assert!(m.response_us > 0.0);
        assert!(m.result_objects > 0);
    }

    #[test]
    fn flat_ctx_has_ordered_view() {
        let dataset = generate_neurons(
            &NeuronParams { neuron_count: 3, fiber_steps: 150, ..Default::default() },
            4,
        );
        let bed = TestBed::with_page_capacity(dataset, 32);
        assert!(bed.ctx_flat().ordered.is_some());
        assert!(bed.ctx_rtree().ordered.is_none());
    }

    /// The bed packs once and hands FLAT a clone of its R-tree: FLAT's
    /// pages and neighborhoods must equal those of a FLAT index that packs
    /// the objects itself.
    #[test]
    fn bed_flat_equals_a_standalone_flat() {
        use scout_index::{OrderedSpatialIndex, SpatialIndex};
        use scout_synth::{generate_roads, RoadParams};
        let datasets = [
            generate_neurons(&NeuronParams::with_target_objects(40_000), 5),
            generate_roads(&RoadParams { grid_n: 32, ..Default::default() }, 6),
        ];
        for dataset in datasets {
            let bed = TestBed::with_page_capacity(dataset, 4);
            let standalone =
                FlatIndex::bulk_load_with(&bed.dataset.objects, 4, FlatConfig::default());
            let (flat, tree) = (bed.flat.rtree().layout(), bed.rtree.layout());
            assert_eq!(flat.page_count(), tree.page_count());
            for (a, b) in flat.pages().iter().zip(tree.pages()) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.objects, b.objects);
                assert_eq!(a.mbr, b.mbr);
            }
            for page in flat.pages() {
                assert_eq!(bed.flat.page_neighbors(page.id), standalone.page_neighbors(page.id));
            }
        }
    }
}
