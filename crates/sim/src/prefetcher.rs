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

// Pinned by `benchmark/src/adapter.rs` lines 471-473 and 834-836, which a
// non-`benchmark` PR may not edit; ROADMAP item 1(b) removes it. No
// prefetcher repairs a graph across queries, so nothing constructs one.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphBuildCounters {
    pub incremental: u64,
}

impl GraphBuildCounters {
    pub fn total(&self) -> u64 {
        self.incremental
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
/// a wide [`MultiSessionExecutor`](crate::MultiSessionExecutor) lends each
/// session — prefetcher included — to a helper thread to digest its
/// result. Prefetchers
/// are plain owned data (history buffers, seeded RNGs), so this costs
/// implementations nothing. The working memory a digest shares with every
/// other prefetcher is not prefetcher state:
/// [`Prefetcher::observe_with_scratch`] borrows the stepping thread's
/// [`QueryScratch`].
pub trait Prefetcher: Send {
    /// Display name used in reports (e.g. `"SCOUT"`, `"EWMA (λ = 0.3)"`).
    fn name(&self) -> String;

    /// Digests the result of the query that just executed and computes the
    /// prediction for the next one.
    ///
    /// `scratch` is working memory: its contents mean nothing on entry or
    /// exit, only its capacity carries over. The executor hands in the
    /// stepping thread's arena, so allocation-free prefetchers (SCOUT's CSR
    /// graph build) reuse warmed buffers; a direct caller makes a
    /// [`QueryScratch::new`]. Prefetchers that need no buffers ignore it.
    fn observe_with_scratch(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> PredictionStats;

    /// The range query's object filter, for the query being served: fills
    /// `result.objects`, replacing its contents, with the objects on
    /// `result.pages` that intersect `region`, exactly as
    /// [`SpatialIndex::filter_pages_into`](scout_index::SpatialIndex::filter_pages_into)
    /// writes them. The session calls it between the page walk and the
    /// demand reads, so a prefetcher that will digest the result can do
    /// its own per-object work while the filter has each record loaded.
    /// The default is the index's scan, serial.
    fn filter_result(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &mut QueryResult,
    ) {
        ctx.index.filter_pages_into(ctx.objects, region, &result.pages, &mut result.objects);
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

    // Pinned like `GraphBuildCounters` (`benchmark/src/adapter.rs` line
    // 834); no prefetcher overrides it.
    #[doc(hidden)]
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

    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        _region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        PredictionStats::default()
    }

    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        PrefetchPlan::empty()
    }

    fn reset(&mut self) {}
}
