//! The executor's configuration, its traces, and `run_sequence`.
//!
//! The timeline of Figure 2 is [`Session`]'s own steps: for every query
//! in a guided sequence it (1) serves result pages from the prefetch
//! cache, reading misses from the simulated disk — the *residual I/O*
//! that constitutes the user-visible response time; (2) lets the
//! prefetcher digest the result (prediction computation, charged CPU
//! time); (3) opens the prefetch window `u = r · d` (§7.2, where `d` is
//! the simulated time to read the whole result from disk and `r` the
//! workload's prefetch-window ratio) and executes the prefetcher's
//! prioritized plan until the window closes — the *incremental
//! prefetching* contract of §5.1. [`run_sequence`] is one session
//! stepped to its end; this module holds what it is configured with and
//! what it records.

use crate::context::SimContext;
use crate::costs::CpuCostModel;
use crate::prefetcher::{PredictionStats, Prefetcher};
use crate::session::Session;
use scout_geometry::QueryRegion;
use scout_storage::{DiskProfile, FaultPlan, FaultReport, IoError, IoStats, PrefetchCache};
use scout_telemetry::TelemetryPlan;

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
    use crate::prefetcher::{NoPrefetch, PrefetchPlan, PrefetchRequest};
    use crate::scratch::QueryScratch;
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
