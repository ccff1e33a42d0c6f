//! The execution timeline of Figure 2.
//!
//! For every query in a guided sequence the executor: (1) serves result
//! pages from the prefetch cache, reading misses from the simulated disk —
//! the *residual I/O* that constitutes the user-visible response time;
//! (2) lets the prefetcher digest the result (prediction computation,
//! charged CPU time); (3) opens the prefetch window `u = r · d` (§7.2,
//! where `d` is the simulated time to read the whole result from disk and
//! `r` the workload's prefetch-window ratio) and executes the prefetcher's
//! prioritized plan until the window closes — the *incremental prefetching*
//! contract of §5.1.

use crate::context::SimContext;
use crate::costs::CpuCostModel;
use crate::prefetcher::{PredictionStats, PrefetchRequest, Prefetcher};
use crate::scratch::QueryScratch;
use crate::session::Session;
use scout_geometry::QueryRegion;
use scout_index::QueryResult;
use scout_storage::{
    DiskModel, DiskProfile, FailedRead, FaultPlan, FaultReport, IoBatcher, IoError, IoStats,
    PageCache, PageId, PrefetchCache,
};
use scout_telemetry::TelemetryPlan;
use std::cell::Cell;

// The query scratch arena belongs to the stepping thread, like the serve
// buffers in `session.rs`: a prefetcher's digest fills it and forgets it
// (DESIGN.md §6), so whichever session the thread steps next reuses its
// warmed capacity.
thread_local! {
    static SCRATCH: Cell<QueryScratch> = const { Cell::new(QueryScratch::new()) };
}

/// Executor configuration (one microbenchmark's environment).
#[derive(Debug, Clone, Copy)]
pub struct ExecutorConfig {
    /// Prefetch-window ratio `r = u/d` (Figure 10).
    pub window_ratio: f64,
    /// Prefetch cache capacity in pages.
    pub cache_pages: usize,
    /// Simulated disk latencies.
    pub disk: DiskProfile,
    /// CPU cost model for prediction work.
    pub costs: CpuCostModel,
    /// Fault injection and retry policy. The default injects nothing,
    /// keeping every path byte-identical to the infallible executor
    /// (DESIGN.md §11).
    pub faults: FaultPlan,
    /// Flight-recorder telemetry (DESIGN.md §13). `None` (the default)
    /// constructs nothing — no registry, no rings, no span timers — and
    /// keeps every run byte-identical to an untelemetered one; `Some`
    /// arms per-session event rings and the shared span registry in
    /// multi-session runs.
    pub telemetry: Option<TelemetryPlan>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            window_ratio: 1.0,
            cache_pages: 4096,
            disk: DiskProfile::default(),
            costs: CpuCostModel::default(),
            faults: FaultPlan::default(),
            telemetry: None,
        }
    }
}

impl ExecutorConfig {
    /// Checks the configuration is executable: a non-negative finite
    /// prefetch-window ratio, at least one cache page, and valid disk and
    /// CPU cost models. Returns a descriptive error otherwise.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(self.window_ratio.is_finite() && self.window_ratio >= 0.0) {
            return Err(format!(
                "ExecutorConfig.window_ratio must be a non-negative finite ratio, got {}",
                self.window_ratio
            ));
        }
        if self.cache_pages == 0 {
            return Err("ExecutorConfig.cache_pages must be >= 1: a zero-page cache cannot hold \
                 prefetched data"
                .to_string());
        }
        self.disk.validate()?;
        self.costs.validate()?;
        self.faults.validate()
    }

    /// Panics with a descriptive message when the configuration is invalid
    /// (every executor entry point calls this before running).
    pub(crate) fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid ExecutorConfig: {e}");
        }
    }
}

/// How a query's serve phase ended.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum ServeOutcome {
    /// Every result page was delivered.
    #[default]
    Served,
    /// A demand read failed unrecoverably (retries exhausted, deadline
    /// spent, or a stuck page); the query surfaced the error to the user
    /// instead of panicking. Remaining result pages were not read and the
    /// prefetch window did not run.
    Failed(IoError),
}

impl ServeOutcome {
    /// True when the query failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, ServeOutcome::Failed(_))
    }
}

/// Per-query measurements.
#[derive(Debug, Clone, Default)]
pub struct QueryTrace {
    /// Result pages requested.
    pub pages_total: usize,
    /// Result pages served from the cache.
    pub pages_hit: usize,
    /// Result objects.
    pub result_objects: usize,
    /// Residual I/O time (user-visible response), µs.
    pub residual_us: f64,
    /// Simulated time to read the whole result from disk (the paper's `d`).
    pub d_ref_us: f64,
    /// Window duration `u = r · d`, µs.
    pub window_us: f64,
    /// Graph-building CPU, µs.
    pub graph_build_us: f64,
    /// Prediction CPU (traversal, clustering), µs.
    pub prediction_us: f64,
    /// Pages prefetched during the window.
    pub prefetch_pages: usize,
    /// Overhead pages read for gap traversal.
    pub gap_pages: usize,
    /// Prefetcher-reported stats.
    pub prediction: PredictionStats,
    /// Whether the query was fully served or failed on an unrecoverable
    /// I/O error (always `Served` when fault injection is disabled).
    pub outcome: ServeOutcome,
}

impl QueryTrace {
    /// Cache-hit rate of this query.
    pub fn hit_rate(&self) -> f64 {
        scout_storage::hit_ratio(self.pages_hit as u64, self.pages_total as u64)
    }
}

/// Measurements for one full sequence.
#[derive(Debug, Clone, Default)]
pub struct SequenceTrace {
    /// Per-query traces, in order.
    pub queries: Vec<QueryTrace>,
    /// Aggregated I/O stats.
    pub io: IoStats,
    /// Fault-layer counters; `None` when fault injection was disabled.
    pub faults: Option<FaultReport>,
}

impl SequenceTrace {
    /// Sequence-level cache-hit rate: fraction of all result pages served
    /// from the cache (the paper's accuracy metric, footnote 1).
    pub fn hit_rate(&self) -> f64 {
        self.io.hit_rate()
    }

    /// Total user-visible response time (Σ residual I/O), µs.
    pub fn total_response_us(&self) -> f64 {
        self.queries.iter().map(|q| q.residual_us).sum()
    }

    /// Total graph-building CPU, µs.
    pub fn total_graph_build_us(&self) -> f64 {
        self.queries.iter().map(|q| q.graph_build_us).sum()
    }

    /// Total prediction CPU, µs.
    pub fn total_prediction_us(&self) -> f64 {
        self.queries.iter().map(|q| q.prediction_us).sum()
    }

    /// Total result objects across all queries.
    pub fn total_result_objects(&self) -> usize {
        self.queries.iter().map(|q| q.result_objects).sum()
    }
}

/// A query served but its prefetch window not yet run: the partial trace
/// plus the remaining window budget. Produced by [`observe_and_open`],
/// consumed by [`run_prefetch_window`].
///
/// Splitting the timeline here is what lets the multi-session executor
/// schedule all sessions' serve phases before any prefetch phase (see
/// DESIGN.md §5): within one round every session's query is served against
/// the cache state left by the *previous* round, independent of session
/// order.
#[derive(Debug)]
pub(crate) struct OpenWindow {
    pub(crate) q: QueryTrace,
    pub(crate) budget_us: f64,
}

/// Opens a query's timeline: runs the range query into `result`
/// (replacing its contents) and stamps the trace with the result's size
/// and the paper's `d`. Both serve paths — the immediate one and the
/// batched stage/complete pair — start here.
pub(crate) fn begin_query(
    ctx: &SimContext<'_>,
    region: &QueryRegion,
    config: &ExecutorConfig,
    result: &mut QueryResult,
) -> QueryTrace {
    let mut q = QueryTrace::default();
    ctx.index.range_query_into(ctx.objects, region, result);
    q.pages_total = result.pages.len();
    q.result_objects = result.objects.len();

    // The paper's d: reading the whole result from disk in retrieval
    // order with a fresh head (independent of cache state). Measured on a
    // clock-less disk — it is a hypothetical, not actual device time.
    q.d_ref_us = {
        let mut fresh = DiskModel::new(config.disk);
        result.pages.iter().map(|&p| fresh.read_page(p)).sum::<f64>()
    };
    q
}

/// Books one demand read's outcome: a served page adds its latency to the
/// residual; the first unrecoverable read fails the *query* (the user got
/// an error, not a page stream) instead of panicking the engine. Returns
/// false when the query just failed, so the caller skips its remaining
/// pages.
pub(crate) fn charge_demand(
    outcome: Result<f64, FailedRead>,
    q: &mut QueryTrace,
    io: &mut IoStats,
) -> bool {
    match outcome {
        Ok(t) => {
            q.residual_us += t;
            io.result_pages_disk += 1;
            io.residual_io_us += t;
            true
        }
        Err(failed) => {
            q.residual_us += failed.latency_us;
            io.residual_io_us += failed.latency_us;
            io.failed_pages += 1;
            q.outcome = ServeOutcome::Failed(failed.error);
            false
        }
    }
}

/// Phase (1), immediate submission: cache hits are free I/O; misses are
/// the residual I/O the user waits for. Only *prefetched* pages live in
/// the cache (§7.1: the 4 GB cache holds prefetched data; result pages
/// stream to the user's analysis memory), so the hit rate measures
/// prediction accuracy, not incidental query overlap.
///
/// Demand reads go through the retrying verified path: with fault
/// injection disabled that is bit-for-bit a plain `read_page`; with it
/// enabled, one per-query deadline budget spans all of the query's
/// retries.
pub(crate) fn serve_demand<C: PageCache>(
    result: &QueryResult,
    cache: &mut C,
    disk: &mut DiskModel,
    config: &ExecutorConfig,
    q: &mut QueryTrace,
    io: &mut IoStats,
) {
    let mut retry_budget = config.faults.retry.deadline_us;
    for &page in &result.pages {
        if cache.access(page) {
            q.pages_hit += 1;
            io.result_pages_cache += 1;
        } else {
            let read = disk.read_page_retrying(page, &config.faults.retry, &mut retry_budget);
            if !charge_demand(read, q, io) {
                break;
            }
        }
    }
}

/// Phase (2) plus the window-budget computation: with every demand read
/// booked, the result's processing cost lands on the response, the
/// prefetcher digests the result and the window opens. Shared tail of
/// every serve path (the batched one learns its residual I/O only after
/// the demand batch resolves).
pub(crate) fn observe_and_open(
    ctx: &SimContext<'_>,
    prefetcher: &mut dyn Prefetcher,
    region: &QueryRegion,
    result: &QueryResult,
    config: &ExecutorConfig,
    mut q: QueryTrace,
) -> OpenWindow {
    // CPU cost of processing the result pages (charged to response).
    q.residual_us += q.pages_total as f64 * config.costs.page_process_us;

    // A failed query ends its timeline here: the user saw an error, so
    // there is no result to digest and no window to run (phase 3 is a
    // no-op on failed traces).
    if q.outcome.is_failed() {
        return OpenWindow { q, budget_us: 0.0 };
    }

    // (2) Prediction, in the thread's scratch arena.
    let mut scratch = SCRATCH.take();
    q.prediction = prefetcher.observe_with_scratch(ctx, region, result, &mut scratch);
    SCRATCH.set(scratch);
    q.graph_build_us = config.costs.graph_build_us(&q.prediction.cpu);
    q.prediction_us = config.costs.prediction_us(&q.prediction.cpu);

    // Open the prefetch window. Graph building is interleaved with result
    // retrieval (§4: "while the result is read, the graph is already
    // assembled"), so only the part exceeding the retrieval time delays
    // the window; traversal/prediction always does — unless the method
    // overlaps prediction with retrieval entirely (SCOUT-OPT, §6.2).
    q.window_us = config.window_ratio * q.d_ref_us;
    let prediction_delay = if prefetcher.overlaps_prediction() {
        0.0
    } else {
        (q.graph_build_us - q.residual_us).max(0.0) + q.prediction_us
    };
    let budget_us = (q.window_us - prediction_delay).max(0.0);
    OpenWindow { q, budget_us }
}

/// How a prefetch window's reads reach the device — the one thing the two
/// submission modes of phase (3) disagree on. [`run_prefetch_window`]
/// owns the plan walk and the budget; an implementation owns the cache,
/// the disk and the bookkeeping of what a read cost.
pub(crate) trait WindowIo {
    /// True when `page` needs no read from this window. `&mut` to match
    /// [`PageCache::contains`], so an owned cache probes without a lock.
    fn resident(&mut self, page: PageId) -> bool;
    /// What reading `page` next would cost, committing nothing.
    fn peek_us(&self, page: PageId) -> f64;
    /// Issues the read. `Ok(t)`: the page counts as prefetched and the
    /// window spent `t`; `Err(t)`: the read failed, was dropped, and
    /// still burned `t` of the window.
    fn issue(&mut self, page: PageId, is_gap: bool) -> Result<f64, f64>;
}

/// Immediate submission: each read hits the session's disk now and a
/// success is inserted into the cache on the spot.
pub(crate) struct ImmediateIo<'a, C: PageCache> {
    pub(crate) cache: &'a mut C,
    pub(crate) disk: &'a mut DiskModel,
    pub(crate) stats: &'a mut IoStats,
}

impl<C: PageCache> WindowIo for ImmediateIo<'_, C> {
    fn resident(&mut self, page: PageId) -> bool {
        self.cache.contains(page)
    }

    fn peek_us(&self, page: PageId) -> f64 {
        self.disk.peek_read_us(page)
    }

    fn issue(&mut self, page: PageId, is_gap: bool) -> Result<f64, f64> {
        // Verified single attempt (attempt 0 = the prefetch stream):
        // prefetching is optional work, so a failed speculative read is
        // dropped — never retried — and the page falls back to on-demand
        // serving if the user actually needs it. The window still burned
        // the failed attempt's device time. A straggler can overdraw the
        // budget it was admitted under (the read was already issued when
        // it straggled); the walk then closes.
        match self.disk.try_read_page(page, 0) {
            Ok(t) => {
                self.cache.insert(page);
                self.stats.prefetch_io_us += t;
                self.stats.prefetch_pages_disk += 1;
                if is_gap {
                    self.stats.gap_pages_disk += 1;
                }
                Ok(t)
            }
            Err(failed) => {
                self.disk.note_dropped_prefetch();
                Err(failed.latency_us)
            }
        }
    }
}

/// Phase-scoped submission: reads are staged into the fleet's window-lane
/// batcher and the window spends seek *estimates* from the session's own
/// head position ([`DiskModel::peek_read_us`]); the physical cost is paid
/// once, by the elevator-ordered batch read at the phase flip. A page
/// already staged by a sibling session this phase is resident — its batch
/// insert makes it visible to every next-round serve, mirroring the
/// immediate cache-`contains` skip. Staging never fails, so the trace's
/// `prefetch_pages`/`gap_pages` count *staged* pages: a staged read that
/// fails at submission is dropped like an immediate speculative failure,
/// and the io totals (credited from the fleet's window ledgers) record
/// actual successes.
pub(crate) struct StagedIo<'a, C: PageCache> {
    pub(crate) cache: &'a mut C,
    pub(crate) disk: &'a DiskModel,
    pub(crate) batcher: &'a mut IoBatcher,
    pub(crate) owner: u32,
}

impl<C: PageCache> WindowIo for StagedIo<'_, C> {
    fn resident(&mut self, page: PageId) -> bool {
        self.cache.contains(page) || self.batcher.contains(page)
    }

    fn peek_us(&self, page: PageId) -> f64 {
        self.disk.peek_read_us(page)
    }

    fn issue(&mut self, page: PageId, is_gap: bool) -> Result<f64, f64> {
        let staged = self.batcher.try_stage(page, self.owner, is_gap);
        debug_assert!(staged, "page was absent from the batcher a line ago");
        Ok(self.disk.peek_read_us(page))
    }
}

/// Phase (3): walks the prefetcher's prioritized plan, issuing reads
/// through `io` until the window budget runs out, completing the query's
/// trace. `region_pages` is where a [`PrefetchRequest::Region`] is
/// resolved to pages: caller-owned so its capacity outlives the window,
/// its contents mean nothing on entry or exit.
pub(crate) fn run_prefetch_window(
    ctx: &SimContext<'_>,
    prefetcher: &mut dyn Prefetcher,
    window: OpenWindow,
    io: &mut impl WindowIo,
    region_pages: &mut Vec<PageId>,
) -> QueryTrace {
    let OpenWindow { mut q, budget_us: mut budget } = window;
    if q.outcome.is_failed() {
        // The serve phase aborted the query; there is no prediction state
        // to plan from.
        return q;
    }
    let plan = prefetcher.plan(ctx);
    'window: for request in &plan.requests {
        let (pages, is_gap) = match request {
            PrefetchRequest::Region(r) => {
                ctx.index.pages_in_region_into(r.aabb(), region_pages);
                (&*region_pages, false)
            }
            PrefetchRequest::Pages(p) => (p, false),
            PrefetchRequest::GapPages(p) => (p, true),
        };
        for &page in pages {
            if io.resident(page) {
                continue;
            }
            // Cost the read before committing it: a read the window cannot
            // afford never happens, so it must not move the head, count as
            // a device read, or advance the shared clock (which would
            // inflate the multi-session disk-busy metric).
            if io.peek_us(page) > budget {
                break 'window; // the user issued the next query
            }
            match io.issue(page, is_gap) {
                Ok(t) => {
                    budget -= t;
                    q.prefetch_pages += 1;
                    if is_gap {
                        q.gap_pages += 1;
                    }
                }
                Err(t) => {
                    budget -= t;
                    if budget <= 0.0 {
                        break 'window;
                    }
                }
            }
        }
    }
    q
}

/// Runs one guided query sequence against a fresh cache and disk: one
/// [`Session`] over `prefetcher`, stepped to its end.
///
/// The prefetcher is `reset()` first; cache, disk head and counters start
/// cold (§7.1 clears all caches between sequences).
pub fn run_sequence(
    ctx: &SimContext<'_>,
    prefetcher: &mut dyn Prefetcher,
    regions: &[QueryRegion],
    config: &ExecutorConfig,
) -> SequenceTrace {
    let mut session = Session::with_prefetcher(0, prefetcher, regions.to_vec());
    session.begin(config, None);
    let mut cache = PrefetchCache::new(config.cache_pages);
    while session.step(ctx, &mut cache, config) {}
    session.into_trace().1
}

/// Runs `sequences` independently (fresh cache per sequence) and merges.
pub fn run_sequences(
    ctx: &SimContext<'_>,
    prefetcher: &mut dyn Prefetcher,
    sequences: &[Vec<QueryRegion>],
    config: &ExecutorConfig,
) -> Vec<SequenceTrace> {
    sequences.iter().map(|regions| run_sequence(ctx, prefetcher, regions, config)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::{NoPrefetch, PrefetchPlan};
    use scout_geometry::{Aabb, ObjectId, Shape, SpatialObject, StructureId, Vec3};
    use scout_index::RTree;

    fn line_dataset() -> Vec<SpatialObject> {
        // 400 points along the x axis.
        (0..400)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    StructureId(0),
                    Shape::Point(Vec3::new(i as f64, 0.5, 0.5)),
                )
            })
            .collect()
    }

    fn regions_along_x(n: usize, side: f64, step: f64) -> Vec<QueryRegion> {
        (0..n)
            .map(|i| {
                QueryRegion::from_aabb(Aabb::from_center_extent(
                    Vec3::new(10.0 + i as f64 * step, 0.5, 0.5),
                    Vec3::splat(side),
                ))
            })
            .collect()
    }

    #[test]
    fn default_config_is_valid() {
        ExecutorConfig::default().assert_valid();
    }

    #[test]
    #[should_panic(expected = "window_ratio must be a non-negative finite ratio")]
    fn negative_window_ratio_rejected() {
        let objs = line_dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let cfg = ExecutorConfig { window_ratio: -0.5, ..Default::default() };
        let _ = run_sequence(&ctx, &mut NoPrefetch, &regions_along_x(1, 10.0, 20.0), &cfg);
    }

    #[test]
    fn nan_window_ratio_rejected() {
        let cfg = ExecutorConfig { window_ratio: f64::NAN, ..Default::default() };
        assert!(cfg.validate().unwrap_err().contains("window_ratio"));
    }

    #[test]
    #[should_panic(expected = "cache_pages must be >= 1")]
    fn zero_cache_pages_rejected() {
        let objs = line_dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let cfg = ExecutorConfig { cache_pages: 0, ..Default::default() };
        let _ = run_sequence(&ctx, &mut NoPrefetch, &regions_along_x(1, 10.0, 20.0), &cfg);
    }

    #[test]
    fn invalid_disk_profile_rejected_via_config() {
        let cfg = ExecutorConfig {
            disk: DiskProfile { random_read_us: -2.0, ..DiskProfile::default() },
            ..Default::default()
        };
        assert!(cfg.validate().unwrap_err().contains("random_read_us"));
    }

    #[test]
    fn invalid_cost_model_rejected_via_config() {
        let mut cfg = ExecutorConfig::default();
        cfg.costs.page_process_us = f64::NAN;
        assert!(cfg.validate().unwrap_err().contains("page_process_us"));
    }

    #[test]
    fn no_prefetch_reads_everything_from_disk_first_time() {
        let objs = line_dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(5, 10.0, 20.0); // disjoint queries
        let mut p = NoPrefetch;
        let t = run_sequence(&ctx, &mut p, &regions, &ExecutorConfig::default());
        assert_eq!(t.io.result_pages_cache, 0);
        assert!(t.io.result_pages_disk > 0);
        assert_eq!(t.hit_rate(), 0.0);
        assert!(t.total_response_us() > 0.0);
    }

    #[test]
    fn result_pages_are_not_cached_without_prefetching() {
        // §7.1: the cache holds *prefetched* data only — overlapping
        // queries re-read their overlap from disk when nothing was
        // prefetched, so the hit rate measures prediction accuracy.
        let objs = line_dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(10, 20.0, 5.0); // heavy overlap
        let mut p = NoPrefetch;
        let t = run_sequence(&ctx, &mut p, &regions, &ExecutorConfig::default());
        assert_eq!(t.hit_rate(), 0.0);
        assert_eq!(t.io.result_pages_cache, 0);
    }

    /// A perfect oracle that prefetches the next query's exact region.
    struct Oracle {
        regions: Vec<QueryRegion>,
        next: usize,
    }
    impl Prefetcher for Oracle {
        fn name(&self) -> String {
            "Oracle".into()
        }
        fn observe_with_scratch(
            &mut self,
            _ctx: &SimContext<'_>,
            _region: &QueryRegion,
            _result: &scout_index::QueryResult,
            _scratch: &mut QueryScratch,
        ) -> PredictionStats {
            self.next += 1;
            PredictionStats::default()
        }
        fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
            let mut plan = PrefetchPlan::empty();
            if self.next < self.regions.len() {
                plan.requests.push(PrefetchRequest::Region(self.regions[self.next]));
            }
            plan
        }
        fn reset(&mut self) {
            self.next = 0;
        }
    }

    #[test]
    fn oracle_with_ample_window_prefetches_almost_everything() {
        let objs = line_dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(8, 10.0, 20.0); // disjoint
        let mut oracle = Oracle { regions: regions.clone(), next: 0 };
        let cfg = ExecutorConfig { window_ratio: 4.0, ..Default::default() };
        let t = run_sequence(&ctx, &mut oracle, &regions, &cfg);
        // Only the first query misses.
        assert!(t.hit_rate() > 0.8, "oracle hit rate {}", t.hit_rate());
        // And it beats no-prefetching on response time.
        let mut none = NoPrefetch;
        let t0 = run_sequence(&ctx, &mut none, &regions, &cfg);
        assert!(t.total_response_us() < t0.total_response_us() * 0.5);
    }

    #[test]
    fn zero_window_prevents_prefetching() {
        let objs = line_dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(6, 10.0, 20.0);
        let mut oracle = Oracle { regions: regions.clone(), next: 0 };
        let cfg = ExecutorConfig { window_ratio: 0.0, ..Default::default() };
        let t = run_sequence(&ctx, &mut oracle, &regions, &cfg);
        assert_eq!(t.io.prefetch_pages_disk, 0);
        assert_eq!(t.hit_rate(), 0.0);
    }

    #[test]
    fn window_scales_with_ratio() {
        let objs = line_dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(6, 10.0, 20.0);
        let mut oracle = Oracle { regions: regions.clone(), next: 0 };
        let lo = run_sequence(
            &ctx,
            &mut oracle,
            &regions,
            &ExecutorConfig { window_ratio: 0.3, ..Default::default() },
        );
        let mut oracle2 = Oracle { regions: regions.clone(), next: 0 };
        let hi = run_sequence(
            &ctx,
            &mut oracle2,
            &regions,
            &ExecutorConfig { window_ratio: 3.0, ..Default::default() },
        );
        assert!(hi.hit_rate() >= lo.hit_rate());
        assert!(hi.io.prefetch_pages_disk >= lo.io.prefetch_pages_disk);
    }
}
