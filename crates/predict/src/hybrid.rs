//! The SCOUT + Markov hybrid prefetcher.
//!
//! Structure following and history following fail in complementary places:
//! SCOUT is blind to revisit loops and teleports (nothing in the current
//! result says "the user is about to jump back"), while a page-transition
//! model is blind to fresh exploration (no history to replay). The
//! [`HybridPrefetcher`] runs both and lets an online
//! [`FeedbackController`] arbitrate:
//!
//! * **observe** — SCOUT digests the result as usual (graph build,
//!   candidate pruning, exit extrapolation), then the adaptive layer
//!   ([`HybridPrefetcher::digest_history`]) scores how much of this query
//!   each source had predicted, feeds the controller, trains the Markov
//!   model on the touched pages, and extracts the history prediction for
//!   the next window into reusable buffers. The adaptive layer performs no
//!   heap allocation in steady state (asserted by `tests/zero_alloc.rs`).
//! * **plan** — the staged predictions merge under the hybrid's page
//!   budget: the Markov side receives `256 × share × aggressiveness`
//!   explicit pages, SCOUT's incremental region series is
//!   kept intact (it is already window-bounded by construction), and the
//!   source with the higher recent precision spends the prefetch window
//!   first. The window budget is the truly shared resource — leading it is
//!   what arbitration means here.
//!
//! Determinism: SCOUT's RNG and the Markov hash are both seeded through
//! [`HybridPrefetcher::with_seed`]; everything else is plain deterministic
//! state, so fleets are byte-reproducible and per-session seeds
//! decorrelate sessions without adding schedule sensitivity.

use crate::feedback::{FeedbackController, MAX_AGGRESSIVENESS};
use crate::markov::{HistoryScratch, TransitionPredictor, DEFAULT_SEED};
use scout_core::Scout;
use scout_geometry::QueryRegion;
use scout_index::QueryResult;
use scout_sim::{
    PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher, QueryScratch, SimContext,
};
use scout_storage::PageId;

/// Explicit history pages stageable per window before the controller's
/// share and aggressiveness scale it down: the hybrid's page budget.
const PAGE_BUDGET: usize = 256;

/// The adaptive structure + history prefetcher (see the module docs).
#[derive(Debug, Clone)]
pub struct HybridPrefetcher {
    scout: Scout,
    markov: TransitionPredictor,
    controller: FeedbackController,
    /// History pages staged for the coming window, most plausible first.
    markov_pages: Vec<PageId>,
    /// Sorted copy of `markov_pages` for next-query coverage probes.
    markov_predicted: Vec<u32>,
    /// Regions SCOUT's latest plan targeted (captured in `plan`, probed at
    /// the next `observe` for the structure side's coverage).
    scout_regions: Vec<QueryRegion>,
    /// Arbitration decided at observe time: history spends the window
    /// first when its recent precision leads.
    markov_first: bool,
}

impl HybridPrefetcher {
    /// A hybrid over the given structure side, its history model hashed
    /// with `markov_seed`.
    fn new(scout: Scout, markov_seed: u64) -> HybridPrefetcher {
        // The extraction budget is bounded by the page budget × the maximum
        // aggressiveness; reserving that up front keeps the observe path
        // off the allocator from the very first query.
        let cap = (PAGE_BUDGET as f64 * MAX_AGGRESSIVENESS).ceil() as usize;
        HybridPrefetcher {
            scout,
            markov: TransitionPredictor::new(markov_seed),
            controller: FeedbackController::new(),
            markov_pages: Vec::with_capacity(cap),
            markov_predicted: Vec::with_capacity(cap),
            scout_regions: Vec::new(),
            markov_first: false,
        }
    }

    /// The hybrid: SCOUT at its default configuration and seed.
    pub fn with_defaults() -> HybridPrefetcher {
        HybridPrefetcher::new(Scout::with_defaults(), DEFAULT_SEED)
    }

    /// The hybrid with a per-instance seed driving both the SCOUT RNG and
    /// the Markov hash (decorrelated multi-session fleets).
    pub fn with_seed(seed: u64) -> HybridPrefetcher {
        HybridPrefetcher::new(Scout::with_seed(seed), seed ^ 0x9E37_79B9)
    }

    /// The feedback controller (inspect the learned share/precision).
    pub fn controller(&self) -> &FeedbackController {
        &self.controller
    }

    /// The history model (diagnostics).
    pub fn markov(&self) -> &TransitionPredictor {
        &self.markov
    }

    /// The adaptive half of `observe`: per-source coverage accounting,
    /// feedback update, Markov training on the touched pages, and the
    /// history prediction for the next window — factored out so the
    /// zero-allocation suite can measure it in isolation from SCOUT's plan
    /// assembly. Returns the work units charged as prediction CPU.
    ///
    /// Allocation contract: works entirely out of the arena's history part
    /// and the hybrid's reusable buffers; performs zero heap allocations once
    /// their capacity has warmed to the workload.
    pub fn digest_history(
        &mut self,
        ctx: &SimContext<'_>,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> u64 {
        let pages = &result.pages;

        // 1. How much of this query did each source's staged prediction
        //    cover? (The per-source hit-rate signal of the feedback loop.)
        let pages_sorted = &mut scratch.part::<HistoryScratch>().pages_sorted;
        pages_sorted.clear();
        pages_sorted.extend(pages.iter().map(|p| p.0));
        pages_sorted.sort_unstable();
        let markov_cov = if self.markov_predicted.is_empty() || pages.is_empty() {
            None
        } else {
            let hits = self
                .markov_predicted
                .iter()
                .filter(|p| pages_sorted.binary_search(p).is_ok())
                .count();
            Some(hits as f64 / pages.len() as f64)
        };
        let scout_cov = if self.scout_regions.is_empty() || pages.is_empty() {
            None
        } else {
            let layout = ctx.index.layout();
            let covered = pages
                .iter()
                .filter(|&&pid| {
                    let mbr = &layout.page(pid).mbr;
                    self.scout_regions.iter().any(|r| r.aabb().intersects(mbr))
                })
                .count();
            Some(covered as f64 / pages.len() as f64)
        };
        self.controller.observe(scout_cov, markov_cov);

        // 2. Train the history model on the pages this query touched.
        let updates = self.markov.record_result(pages);

        // 3. Extract the history prediction for the coming window under
        //    the controller's budget split.
        let budget = (PAGE_BUDGET as f64
            * self.controller.aggressiveness()
            * self.controller.markov_share())
        .round() as usize;
        self.markov.predict_into(budget, scratch, &mut self.markov_pages);
        self.markov_predicted.clear();
        self.markov_predicted.extend(self.markov_pages.iter().map(|p| p.0));
        self.markov_predicted.sort_unstable();

        // 4. Arbitration for the merge: the leading source spends the
        //    window first.
        self.markov_first = self.controller.markov_leads();

        updates + self.markov_pages.len() as u64 + pages.len() as u64
    }
}

impl Prefetcher for HybridPrefetcher {
    fn name(&self) -> String {
        "Hybrid (SCOUT+Markov)".to_string()
    }

    fn observe_with_scratch(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> PredictionStats {
        let mut stats = self.scout.observe_with_scratch(ctx, region, result, scratch);
        let work = self.digest_history(ctx, result, scratch);
        stats.cpu.traversal_steps += work;
        stats.memory_bytes += self.markov.memory_bytes()
            + self.markov_pages.capacity() * std::mem::size_of::<PageId>()
            + self.markov_predicted.capacity() * std::mem::size_of::<u32>()
            + self.scout_regions.capacity() * std::mem::size_of::<QueryRegion>();
        stats
    }

    fn filter_result(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &mut QueryResult,
    ) {
        self.scout.filter_result(ctx, region, result);
    }

    fn plan(&mut self, ctx: &SimContext<'_>) -> PrefetchPlan {
        let scout_plan = self.scout.plan(ctx);
        // Capture the structure side's targets for the next coverage round.
        self.scout_regions.clear();
        for req in &scout_plan.requests {
            if let PrefetchRequest::Region(r) = req {
                self.scout_regions.push(*r);
            }
        }
        let mut requests = Vec::with_capacity(scout_plan.requests.len() + 1);
        let markov_req = (!self.markov_pages.is_empty())
            .then(|| PrefetchRequest::Pages(self.markov_pages.clone()));
        if self.markov_first {
            requests.extend(markov_req);
            requests.extend(scout_plan.requests);
        } else {
            requests.extend(scout_plan.requests);
            requests.extend(markov_req);
        }
        // The staged pages are consumed by this window; the sorted copy
        // stays for the next coverage round.
        self.markov_pages.clear();
        PrefetchPlan { requests }
    }

    fn reset(&mut self) {
        self.scout.reset();
        self.markov.reset();
        self.controller.reset();
        self.markov_pages.clear();
        self.markov_predicted.clear();
        self.scout_regions.clear();
        self.markov_first = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{Aabb, Aspect, ObjectId, Shape, SpatialObject, StructureId, Vec3};
    use scout_index::{RTree, SpatialIndex};
    use scout_sim::{run_sequence, ExecutorConfig, NoPrefetch};

    /// A line of points along x (one followable structure).
    fn line_dataset(n: u32) -> Vec<SpatialObject> {
        (0..n)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    StructureId(0),
                    Shape::Point(Vec3::new(i as f64, 0.5, 0.5)),
                )
            })
            .collect()
    }

    fn regions_along_x(n: usize, start: f64, step: f64) -> Vec<QueryRegion> {
        (0..n)
            .map(|i| {
                QueryRegion::new(
                    Vec3::new(start + i as f64 * step, 0.5, 0.5),
                    1_000.0,
                    Aspect::Cube,
                )
            })
            .collect()
    }

    #[test]
    fn hybrid_matches_or_beats_scout_on_a_revisit_loop() {
        let objs = line_dataset(400);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        // A short tour revisited four times, under cache pressure so old
        // laps evict and prediction matters every lap.
        let tour = regions_along_x(6, 20.0, 15.0);
        let mut loop_regions = Vec::new();
        for _ in 0..4 {
            loop_regions.extend(tour.iter().copied());
        }
        let config =
            ExecutorConfig { window_ratio: 2.0, cache_pages: 16, ..ExecutorConfig::default() };

        let mut scout = Scout::with_defaults();
        let scout_trace = run_sequence(&ctx, &mut scout, &loop_regions, &config);
        let mut hybrid = HybridPrefetcher::with_defaults();
        let hybrid_trace = run_sequence(&ctx, &mut hybrid, &loop_regions, &config);

        let scout_hits = scout_trace.io.result_pages_cache;
        let hybrid_hits = hybrid_trace.io.result_pages_cache;
        assert!(
            hybrid_hits >= scout_hits,
            "hybrid hit {hybrid_hits} pages, plain SCOUT {scout_hits}"
        );
        // And the history side actually learned the loop.
        assert!(hybrid.markov().transitions() > 0);
    }

    #[test]
    fn controller_learns_to_trust_history_on_revisits() {
        let objs = line_dataset(400);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let tour = regions_along_x(5, 20.0, 18.0);
        let mut loop_regions = Vec::new();
        for _ in 0..5 {
            loop_regions.extend(tour.iter().copied());
        }
        let mut hybrid = HybridPrefetcher::with_defaults();
        let config = ExecutorConfig { window_ratio: 3.0, ..ExecutorConfig::default() };
        let _ = run_sequence(&ctx, &mut hybrid, &loop_regions, &config);
        assert!(
            hybrid.controller().markov_precision() > FeedbackController::new().markov_precision(),
            "history precision never rose: {}",
            hybrid.controller().markov_precision()
        );
        assert!(hybrid.controller().observations() > 0);
    }

    #[test]
    fn deterministic_per_seed_and_decorrelated_across_seeds() {
        let objs = line_dataset(400);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(8, 20.0, 15.0);
        let config = ExecutorConfig::default();
        let run = |seed: u64| {
            let mut h = HybridPrefetcher::with_seed(seed);
            let t = run_sequence(&ctx, &mut h, &regions, &config);
            t.queries.iter().map(|q| q.residual_us.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed must be bit-reproducible");
    }

    #[test]
    fn fresh_exploration_stays_close_to_scout() {
        // A straight one-way walk: no history to exploit, the hybrid must
        // not regress meaningfully below plain SCOUT.
        let objs = line_dataset(400);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(16, 20.0, 9.0);
        let config = ExecutorConfig { window_ratio: 2.0, ..ExecutorConfig::default() };
        let mut scout = Scout::with_defaults();
        let s = run_sequence(&ctx, &mut scout, &regions, &config);
        let mut hybrid = HybridPrefetcher::with_defaults();
        let h = run_sequence(&ctx, &mut hybrid, &regions, &config);
        assert!(
            h.io.result_pages_cache as f64 >= 0.9 * s.io.result_pages_cache as f64,
            "hybrid {} vs scout {} pages hit on a structure-only walk",
            h.io.result_pages_cache,
            s.io.result_pages_cache
        );
        let mut none = NoPrefetch;
        let n = run_sequence(&ctx, &mut none, &regions, &config);
        assert!(h.io.result_pages_cache > n.io.result_pages_cache);
    }

    #[test]
    fn reset_clears_all_adaptive_state() {
        let objs = line_dataset(200);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(200.0)));
        let mut hybrid = HybridPrefetcher::with_defaults();
        let r = QueryRegion::new(Vec3::new(30.0, 0.5, 0.5), 1_000.0, Aspect::Cube);
        let result = tree.range_query(&objs, &r);
        hybrid.observe_with_scratch(&ctx, &r, &result, &mut QueryScratch::new());
        let _ = hybrid.plan(&ctx);
        hybrid.reset();
        assert_eq!(hybrid.markov().transitions(), 0);
        assert_eq!(hybrid.controller().observations(), 0);
        assert!(hybrid.plan(&ctx).requests.is_empty());
    }

    #[test]
    fn plan_merges_both_sources_and_is_consumed_once() {
        let objs = line_dataset(400);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(400.0)));
        let regions = regions_along_x(8, 20.0, 15.0);
        let mut hybrid = HybridPrefetcher::with_defaults();
        hybrid.reset();
        let mut scratch = QueryScratch::new();
        for r in &regions {
            let result = tree.range_query(&objs, r);
            hybrid.observe_with_scratch(&ctx, r, &result, &mut scratch);
            let _ = hybrid.plan(&ctx);
        }
        // One more observe so both sources have staged predictions.
        let r = regions[0];
        let result = tree.range_query(&objs, &r);
        hybrid.observe_with_scratch(&ctx, &r, &result, &mut scratch);
        let plan = hybrid.plan(&ctx);
        let has_regions = plan.requests.iter().any(|r| matches!(r, PrefetchRequest::Region(_)));
        let has_pages = plan.requests.iter().any(|r| matches!(r, PrefetchRequest::Pages(_)));
        assert!(has_regions, "structure requests missing from the merged plan");
        assert!(has_pages, "history pages missing from the merged plan");
        assert!(hybrid.plan(&ctx).requests.is_empty(), "plan must be consumed once");
    }
}
