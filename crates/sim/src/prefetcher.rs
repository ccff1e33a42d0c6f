//! The prefetcher abstraction every method implements (SCOUT, SCOUT-OPT,
//! and all §2 baselines).

use crate::context::SimContext;
use crate::costs::CpuUnits;
use crate::scratch::QueryScratch;
use scout_geometry::QueryRegion;
use scout_index::QueryResult;
use scout_storage::PageId;

/// What a prefetcher reports after digesting a query result.
#[derive(Debug, Clone, Default)]
pub struct PredictionStats {
    /// CPU work performed for this prediction.
    pub cpu: CpuUnits,
    /// Vertices in the prediction graph (SCOUT family; 0 for baselines).
    pub graph_vertices: usize,
    /// Edges in the prediction graph.
    pub graph_edges: usize,
    /// Connected components ("structures") in the prediction graph.
    pub graph_components: usize,
    /// Bytes of prediction state held in memory (graph, queues).
    pub memory_bytes: usize,
    /// Size of the candidate structure set after pruning.
    pub candidates: usize,
}

/// Cross-query graph-build counters a structure-aware prefetcher may
/// expose: how many of its graph builds were served by incremental delta
/// repair vs a full rebuild, by fallback reason. Mirrors
/// `scout_core::GraphCacheStats` without the crate dependency (core
/// depends on sim, not the other way around), so multi-session reports can
/// surface cache behavior for any prefetcher that opts in.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphBuildCounters {
    /// Builds served by delta repair.
    pub incremental: u64,
    /// Full rebuilds because the cache was cold.
    pub full_cold: u64,
    /// Full rebuilds because the hashing lattice changed.
    pub full_grid_changed: u64,
    /// Full rebuilds because the result overlap was below the threshold.
    pub full_low_overlap: u64,
    /// Full rebuilds because retained objects were re-ordered.
    pub full_reordered: u64,
}

impl GraphBuildCounters {
    /// Total full rebuilds.
    pub fn full(&self) -> u64 {
        self.full_cold + self.full_grid_changed + self.full_low_overlap + self.full_reordered
    }

    /// Total builds recorded.
    pub fn total(&self) -> u64 {
        self.incremental + self.full()
    }

    /// Fraction of builds served incrementally (0 when none were recorded).
    pub fn incremental_ratio(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            self.incremental as f64 / total as f64
        }
    }

    /// Component-wise accumulation (aggregate report rows).
    pub fn merge(&mut self, other: &GraphBuildCounters) {
        self.incremental += other.incremental;
        self.full_cold += other.full_cold;
        self.full_grid_changed += other.full_grid_changed;
        self.full_low_overlap += other.full_low_overlap;
        self.full_reordered += other.full_reordered;
    }
}

/// One prioritized prefetch request.
#[derive(Debug, Clone)]
pub enum PrefetchRequest {
    /// Prefetch every page overlapping a region (resolved via the index).
    Region(QueryRegion),
    /// Prefetch explicit pages (ordered-retrieval prefetchers).
    Pages(Vec<PageId>),
    /// Overhead pages read to bridge a gap (SCOUT-OPT gap traversal §6.3):
    /// charged like prefetch I/O but accounted separately.
    GapPages(Vec<PageId>),
}

/// The prioritized plan for one prefetch window. The executor consumes
/// requests in order until the window closes — so requests must be sorted
/// most-valuable-first (the incremental strategy of §5.1).
#[derive(Debug, Clone, Default)]
pub struct PrefetchPlan {
    /// Requests in descending priority.
    pub requests: Vec<PrefetchRequest>,
}

impl PrefetchPlan {
    /// An empty plan (no prefetching).
    pub fn empty() -> PrefetchPlan {
        PrefetchPlan::default()
    }
}

/// A prefetching method driving the cache between queries.
///
/// `Send` is a supertrait: a prefetcher is per-session mutable state, and
/// the work-stealing [`MultiSessionExecutor`](crate::MultiSessionExecutor)
/// moves each session — prefetcher included — between worker threads. Prefetchers
/// are plain owned data (history buffers, seeded RNGs), so this costs
/// implementations nothing.
pub trait Prefetcher: Send {
    /// Display name used in reports (e.g. `"SCOUT"`, `"EWMA (λ = 0.3)"`).
    fn name(&self) -> String;

    /// Digests the result of the query that just executed and computes the
    /// prediction for the next one.
    fn observe(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
    ) -> PredictionStats;

    /// [`Prefetcher::observe`] with a caller-provided [`QueryScratch`].
    ///
    /// The executor always calls this entry point, handing each session's
    /// long-lived arena down so allocation-free prefetchers (SCOUT's CSR
    /// graph build) reuse warmed buffers across queries. The default
    /// implementation ignores the scratch and delegates to `observe`, so
    /// baselines that allocate nothing on this path need no change.
    fn observe_with_scratch(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> PredictionStats {
        let _ = scratch;
        self.observe(ctx, region, result)
    }

    /// Produces the prioritized prefetch plan for the coming window.
    fn plan(&mut self, ctx: &SimContext<'_>) -> PrefetchPlan;

    /// Whether prediction overlaps result retrieval (§6.2: SCOUT-OPT
    /// interleaves graph building with ordered retrieval and finishes
    /// prediction by the time the result is loaded). When true, prediction
    /// CPU does not consume the prefetch window.
    fn overlaps_prediction(&self) -> bool {
        false
    }

    /// Clears all history (start of a fresh sequence).
    fn reset(&mut self);

    /// Cross-query graph-build counters, when this prefetcher maintains an
    /// incremental graph cache (SCOUT family). `None` for methods without
    /// one; the multi-session report then omits the cache-behavior rows.
    fn graph_cache_counters(&self) -> Option<GraphBuildCounters> {
        None
    }
}

/// The trivial no-prefetching baseline (the speedup denominator).
#[derive(Debug, Default, Clone)]
pub struct NoPrefetch;

impl Prefetcher for NoPrefetch {
    fn name(&self) -> String {
        "No Prefetching".to_string()
    }

    fn observe(
        &mut self,
        _ctx: &SimContext<'_>,
        _region: &QueryRegion,
        _result: &QueryResult,
    ) -> PredictionStats {
        PredictionStats::default()
    }

    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        PrefetchPlan::empty()
    }

    fn reset(&mut self) {}
}
