//! SCOUT-OPT (§6): the optimizations available when the spatial index
//! supports ordered retrieval and page neighborhoods (FLAT \[27\] / DLS \[21\]).
//!
//! SCOUT-OPT here is SCOUT plus two things:
//!
//! - **Overlapped prediction (§6.2)** — ordered retrieval lets the graph
//!   grow as the pages arrive, so prediction finishes by the time the
//!   result is retrieved; the simulator models it by charging none of its
//!   CPU cost against the prefetch window
//!   ([`Prefetcher::overlaps_prediction`]).
//! - **Gap traversal (§6.3)** — with gaps between queries, linear
//!   extrapolation degrades; SCOUT-OPT crawls exactly the pages that follow
//!   the candidate structure through the gap (bounded by an I/O budget of
//!   10 % of the last query's pages) and predicts from the refined exit,
//!   falling back to linear extrapolation when the budget is exhausted.
//!
//! **Not reproduced: §6.2's sparse graph.** The graph is SCOUT's, over
//! every result object: FLAT's neighbour links join a result's own pages
//! into one cluster, and the structures the user may follow hold 99.5 % of
//! a result's vertices, so a sparse build has nothing to leave out
//! (DESIGN.md, *Why SCOUT-OPT builds the full graph*).

use crate::config::ScoutOptConfig;
use crate::exits::{extrapolate, Exit};
use crate::prefetcher::Scout;
use scout_geometry::intersect::segment_aabb_distance;
use scout_geometry::{QueryRegion, Segment, Vec3};
use scout_index::QueryResult;
use scout_sim::{
    CpuUnits, PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher, QueryScratch, SimContext,
};
use scout_storage::{IdSet, PageId};
use std::collections::VecDeque;

/// The optimized prefetcher; requires an ordered index in the context
/// (`SimContext::ordered`), and behaves exactly like plain SCOUT when one
/// is missing.
#[derive(Debug, Clone)]
pub struct ScoutOpt {
    inner: Scout,
    config: ScoutOptConfig,
    /// The gap crawl's buffers, recycled across exits and queries.
    crawl: GapCrawl,
}

/// Working buffers of §6.3 gap traversal; contents never carry over.
#[derive(Debug, Clone, Default)]
struct GapCrawl {
    /// The current query's result pages, sorted: pages the crawl must
    /// not hand out again.
    result_pages: Vec<PageId>,
    /// Pages one crawl has queued.
    visited: IdSet<PageId>,
    /// Breadth-first crawl frontier.
    queue: VecDeque<PageId>,
    /// One exit's crawled pages.
    crawled: Vec<PageId>,
    /// Centroids of the crawled pages' objects not yet chained.
    remaining: Vec<Vec3>,
    /// Exits re-planned from their refined prediction.
    refined: Vec<Exit>,
    /// Exits left to linear extrapolation.
    fallback: Vec<Exit>,
}

impl ScoutOpt {
    /// SCOUT-OPT with explicit configuration.
    pub(crate) fn new(config: ScoutOptConfig) -> ScoutOpt {
        ScoutOpt { inner: Scout::new(config.base), config, crawl: GapCrawl::default() }
    }

    /// SCOUT-OPT with the paper's default configuration.
    pub fn with_defaults() -> ScoutOpt {
        ScoutOpt::new(ScoutOptConfig::default())
    }

    /// §6.3: re-plans the inner SCOUT's latest prediction through the gap
    /// and charges the traversal to `stats`; a no-op without a gap.
    fn refine_through_gap(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        mut stats: PredictionStats,
    ) -> PredictionStats {
        let gap = self.inner.gap_estimate;
        let side = region.side();
        let locations = &self.inner.last_locations;
        if gap <= 0.05 * side || locations.is_empty() {
            return stats;
        }
        let total_budget =
            ((self.config.gap_io_budget_frac * result.pages.len() as f64).ceil() as usize).max(1);
        let per_exit = (total_budget / locations.len()).max(1);
        let corridor = self.config.gap_corridor_frac * side;

        let crawl = &mut self.crawl;
        crawl.result_pages.clear();
        crawl.result_pages.extend_from_slice(&result.pages);
        crawl.result_pages.sort_unstable();
        crawl.refined.clear();
        crawl.fallback.clear();
        let mut gap_pages: Vec<PageId> = Vec::new();
        for exit in locations {
            let refined_prediction =
                crawl.traverse_gap(ctx, exit, gap, side, corridor, per_exit, &mut stats.cpu);
            gap_pages.extend_from_slice(&crawl.crawled);
            match refined_prediction {
                Some((point, dir)) => crawl.refined.push(Exit { point, dir, ..*exit }),
                // §6.3: "we resort to a backup mechanism, e.g., linear
                // extrapolation from the point where the traversal was
                // stopped".
                None => crawl.fallback.push(*exit),
            }
        }

        // Rebuild the plan: gap pages first (they are the I/O already
        // spent following the structure), then prefetch at refined
        // locations (offset 0: the refined point is at the next
        // query's near boundary), then fallback extrapolations.
        let mut plan = PrefetchPlan::empty();
        if !gap_pages.is_empty() {
            plan.requests.push(PrefetchRequest::GapPages(gap_pages));
        }
        plan.requests.extend(self.inner.incremental_plan(&crawl.refined, 0.0).requests);
        plan.requests.extend(self.inner.incremental_plan(&crawl.fallback, gap).requests);
        if !plan.requests.is_empty() {
            self.inner.pending = plan;
        }
        stats
    }
}

impl GapCrawl {
    /// §6.3 gap traversal: crawl the pages following one exit's structure
    /// through the gap (within a `corridor` around the extrapolated axis,
    /// bounded by `budget` pages), leaving the pages it adds in `crawled`.
    /// Returns the refined prediction (point + direction) if the trail was
    /// followed.
    // The crawl's inputs: the query's geometry and the exit, nothing to
    // bundle.
    #[allow(clippy::too_many_arguments)]
    fn traverse_gap(
        &mut self,
        ctx: &SimContext<'_>,
        exit: &Exit,
        gap: f64,
        side: f64,
        corridor: f64,
        budget: usize,
        units: &mut CpuUnits,
    ) -> Option<(Vec3, Vec3)> {
        let GapCrawl { result_pages, visited, queue, crawled, remaining, .. } = self;
        crawled.clear();
        let ordered = ctx.ordered?;
        let layout = ordered.layout();
        let axis = Segment::new(exit.point, extrapolate(exit, gap + side * 0.5));

        let seed = ordered.seed_page(extrapolate(exit, corridor.min(gap).max(1e-6)))?;
        visited.clear();
        queue.clear();
        visited.insert(seed);
        queue.push_back(seed);
        while let Some(pg) = queue.pop_front() {
            if crawled.len() >= budget {
                break;
            }
            units.traversal_steps += 1;
            let mbr = &layout.page(pg).mbr;
            if segment_aabb_distance(&axis, mbr) > corridor {
                continue;
            }
            if result_pages.binary_search(&pg).is_err() {
                crawled.push(pg);
            }
            for &nb in ordered.page_neighbors(pg) {
                units.traversal_steps += 1;
                if visited.insert(nb) {
                    queue.push_back(nb);
                }
            }
        }
        if crawled.is_empty() {
            return None;
        }

        // Follow the structure through the crawled pages: walk object
        // centroids outward from the exit, chaining nearest-forward
        // objects, up to the gap distance.
        let step_limit = corridor.max(side * 0.25);
        let mut frontier = exit.point;
        let mut dir = exit.dir;
        let mut travelled = 0.0;
        remaining.clear();
        remaining.extend(
            crawled
                .iter()
                .flat_map(|&pg| layout.page(pg).objects.iter())
                .map(|&oid| ctx.objects[oid.index()].centroid()),
        );
        while travelled < gap && !remaining.is_empty() {
            // Nearest forward centroid.
            let mut best: Option<(usize, f64)> = None;
            for (i, c) in remaining.iter().enumerate() {
                units.traversal_steps += 1;
                let v = *c - frontier;
                let d = v.norm();
                if d < 1e-9 || d > step_limit || v.dot(dir) <= 0.0 {
                    continue;
                }
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((i, d));
                }
            }
            let Some((i, d)) = best else { break };
            let c = remaining.swap_remove(i);
            dir = (c - frontier).normalized_or_x();
            frontier = c;
            travelled += d;
        }
        (travelled > 0.0).then_some((frontier, dir))
    }
}

impl Prefetcher for ScoutOpt {
    fn name(&self) -> String {
        "SCOUT-OPT".to_string()
    }

    fn overlaps_prediction(&self) -> bool {
        true
    }

    fn observe_with_scratch(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> PredictionStats {
        let stats = self.inner.observe_with_scratch(ctx, region, result, scratch);
        self.refine_through_gap(ctx, region, result, stats)
    }

    fn plan(&mut self, ctx: &SimContext<'_>) -> PrefetchPlan {
        self.inner.plan(ctx)
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{Aabb, Aspect, ObjectId, Shape, SpatialObject, StructureId};
    use scout_index::{FlatConfig, FlatIndex, SpatialIndex};
    use scout_sim::TestBed;
    use scout_synth::{generate_neurons, generate_sequences, NeuronParams, SequenceParams};

    /// A single long fiber along x in a sea of clutter points.
    fn fiber_dataset() -> Vec<SpatialObject> {
        let mut objects = Vec::new();
        let mut id = 0u32;
        for i in 0..150 {
            objects.push(SpatialObject::new(
                ObjectId(id),
                StructureId(0),
                Shape::Segment(Segment::new(
                    Vec3::new(i as f64 * 2.0, 100.0, 100.0),
                    Vec3::new((i + 1) as f64 * 2.0, 100.0, 100.0),
                )),
            ));
            id += 1;
        }
        // Clutter grid.
        for gx in 0..12 {
            for gy in 0..12 {
                objects.push(SpatialObject::new(
                    ObjectId(id),
                    StructureId(1),
                    Shape::Point(Vec3::new(gx as f64 * 25.0, gy as f64 * 25.0, 60.0)),
                ));
                id += 1;
            }
        }
        objects
    }

    fn make_ctx<'a>(objects: &'a [SpatialObject], flat: &'a FlatIndex) -> SimContext<'a> {
        SimContext::new(objects, flat, Aabb::new(Vec3::ZERO, Vec3::splat(300.0))).with_ordered(flat)
    }

    fn query_at(x: f64) -> QueryRegion {
        QueryRegion::new(Vec3::new(x, 100.0, 100.0), 8_000.0, Aspect::Cube)
    }

    /// Fresh `Scout` and `ScoutOpt` fed the same `(region, result)` pairs
    /// report the same stats and plan the same requests on every query.
    fn assert_opt_equals_scout(ctx: &SimContext<'_>, regions: &[QueryRegion]) {
        let (mut opt, mut scout) = (ScoutOpt::with_defaults(), Scout::with_defaults());
        let mut scratch = QueryScratch::new();
        for (q, r) in regions.iter().enumerate() {
            let result = ctx.index.range_query(ctx.objects, r);
            let a = opt.observe_with_scratch(ctx, r, &result, &mut scratch);
            let b = scout.observe_with_scratch(ctx, r, &result, &mut scratch);
            assert_eq!(a.graph_vertices, result.objects.len(), "query {q}");
            // `Debug` prints every field, each `f64` round-trip exact.
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "query {q}");
            assert_eq!(
                format!("{:?}", opt.plan(ctx)),
                format!("{:?}", scout.plan(ctx)),
                "query {q}"
            );
        }
    }

    /// SCOUT-OPT without a gap is SCOUT: the ordered index changes when the
    /// prediction is charged, not what is predicted.
    #[test]
    fn scout_opt_prediction_equals_scouts_without_gaps() {
        let objects = fiber_dataset();
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        assert_opt_equals_scout(
            &make_ctx(&objects, &flat),
            &[20.0, 38.0, 56.0, 74.0].map(query_at),
        );

        let bed = TestBed::new(generate_neurons(&NeuronParams::with_target_objects(40_000), 7));
        for seq in generate_sequences(&bed.dataset, &SequenceParams::sensitivity_default(), 2, 7) {
            assert_opt_equals_scout(&bed.ctx_flat(), &seq.regions);
        }
    }

    #[test]
    fn gap_traversal_emits_gap_pages_and_refined_regions() {
        let objects = fiber_dataset();
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let ctx = make_ctx(&objects, &flat);
        let mut opt = ScoutOpt::with_defaults();
        opt.reset();
        let mut scratch = QueryScratch::new();

        // Queries with a 30 µm gap along the fiber (side 20 cube).
        let mut saw_gap_pages = false;
        for x in [20.0, 70.0, 120.0] {
            let r = query_at(x);
            let result = flat.range_query(&objects, &r);
            opt.observe_with_scratch(&ctx, &r, &result, &mut scratch);
            let plan = opt.plan(&ctx);
            for req in &plan.requests {
                if let PrefetchRequest::GapPages(pages) = req {
                    assert!(!pages.is_empty());
                    saw_gap_pages = true;
                }
            }
        }
        assert!(saw_gap_pages, "gap traversal never fired");
    }

    #[test]
    fn gap_budget_is_respected() {
        let objects = fiber_dataset();
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let ctx = make_ctx(&objects, &flat);
        let mut opt =
            ScoutOpt::new(ScoutOptConfig { gap_io_budget_frac: 0.10, ..ScoutOptConfig::default() });
        opt.reset();
        let mut scratch = QueryScratch::new();
        for x in [20.0, 70.0, 120.0] {
            let r = query_at(x);
            let result = flat.range_query(&objects, &r);
            let budget = ((0.10 * result.pages.len() as f64).ceil() as usize).max(1);
            opt.observe_with_scratch(&ctx, &r, &result, &mut scratch);
            let plan = opt.plan(&ctx);
            for req in &plan.requests {
                if let PrefetchRequest::GapPages(pages) = req {
                    // Budget is per-exit floor(total/|locations|); total
                    // gap pages can never exceed budget × locations, and
                    // with one candidate it must respect the total budget.
                    assert!(
                        pages.len() <= budget * 8,
                        "gap pages {} far exceed budget {budget}",
                        pages.len()
                    );
                }
            }
        }
    }

    #[test]
    fn without_ordered_index_behaves_like_scout() {
        let objects = fiber_dataset();
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        // Context WITHOUT the ordered view.
        let ctx = SimContext::new(&objects, &flat, Aabb::new(Vec3::ZERO, Vec3::splat(300.0)));
        let mut opt = ScoutOpt::with_defaults();
        let mut scout = Scout::with_defaults();
        opt.reset();
        scout.reset();
        let mut scratch = QueryScratch::new();
        for x in [20.0, 38.0] {
            let r = query_at(x);
            let result = flat.range_query(&objects, &r);
            let a = opt.observe_with_scratch(&ctx, &r, &result, &mut scratch);
            let b = scout.observe_with_scratch(&ctx, &r, &result, &mut scratch);
            assert_eq!(a.cpu.graph_object_inserts, b.cpu.graph_object_inserts);
            assert_eq!(a.graph_vertices, b.graph_vertices);
        }
    }
}
