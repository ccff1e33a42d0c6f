//! SCOUT-OPT (§6): the optimizations available when the spatial index
//! supports ordered retrieval and page neighborhoods (FLAT \[27\] / DLS \[21\]).
//!
//! Two optimizations over plain SCOUT:
//!
//! - **Sparse graph construction (§6.2)** — instead of grid-hashing every
//!   result object, pages are crawled in spatial order starting from the
//!   previous query's exit locations, and the graph is built only over the
//!   pages reachable along the candidate structures. Prediction finishes by
//!   the time the result is retrieved, so its CPU cost never eats into the
//!   prefetch window ([`Prefetcher::overlaps_prediction`]).
//! - **Gap traversal (§6.3)** — with gaps between queries, linear
//!   extrapolation degrades; SCOUT-OPT crawls exactly the pages that follow
//!   the candidate structure through the gap (bounded by an I/O budget of
//!   10 % of the last query's pages) and predicts from the refined exit,
//!   falling back to linear extrapolation when the budget is exhausted.

use crate::config::ScoutOptConfig;
use crate::exits::{extrapolate, Exit};
use crate::graph::ResultGraph;
use crate::prefetcher::Scout;
use scout_geometry::intersect::segment_aabb_distance;
use scout_geometry::{ObjectId, QueryRegion, Segment, Vec3};
use scout_index::QueryResult;
use scout_sim::{
    CpuUnits, PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher, QueryScratch, SimContext,
};
use scout_storage::PageId;
use std::collections::{HashSet, VecDeque};

/// The optimized prefetcher; requires an ordered index in the context
/// (`SimContext::ordered`), and behaves exactly like plain SCOUT when one
/// is missing.
#[derive(Debug, Clone)]
pub struct ScoutOpt {
    inner: Scout,
    config: ScoutOptConfig,
}

impl ScoutOpt {
    /// SCOUT-OPT with explicit configuration.
    pub fn new(config: ScoutOptConfig) -> ScoutOpt {
        ScoutOpt { inner: Scout::new(config.base), config }
    }

    /// SCOUT-OPT with the paper's default configuration.
    pub fn with_defaults() -> ScoutOpt {
        ScoutOpt::new(ScoutOptConfig::default())
    }

    /// §6.2 sparse graph construction: BFS over result pages along the
    /// page-neighborhood graph, seeded at the pages containing objects
    /// that continue the previous candidates; the graph covers only the
    /// objects of reached pages.
    ///
    /// Returns `None` when no prior candidate information exists (first
    /// query of a sequence — SCOUT-OPT then equals SCOUT, §7.1 fn. 2).
    fn sparse_graph(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> Option<(ResultGraph, CpuUnits)> {
        let ordered = ctx.ordered?;
        if self.inner.tracker.is_empty() {
            return None;
        }
        let layout = ordered.layout();
        let result_ids: HashSet<ObjectId> = result.objects.iter().copied().collect();
        let result_pages: HashSet<PageId> = result.pages.iter().copied().collect();

        // Seed pages: pages of result objects continuing the previous
        // candidates (shared-object continuity), else pages nearest the
        // previous predictions (gap continuity).
        let prev = self.inner.tracker.previous_exit_objects();
        let mut seeds: Vec<PageId> = result
            .objects
            .iter()
            .filter(|o| prev.contains(o))
            .map(|&o| layout.page_of(o))
            .collect();
        if seeds.is_empty() {
            for p in self.inner.tracker.previous_predictions() {
                if let Some(pg) = ordered.seed_page(*p) {
                    if result_pages.contains(&pg) {
                        seeds.push(pg);
                    }
                }
            }
        }
        if seeds.is_empty() {
            return None; // lost the trail: rebuild the full graph
        }
        seeds.sort_unstable();
        seeds.dedup();

        // Page-level BFS restricted to result pages.
        let mut units = CpuUnits::default();
        let mut visited: HashSet<PageId> = HashSet::new();
        let mut queue: VecDeque<PageId> = VecDeque::new();
        for s in seeds {
            if visited.insert(s) {
                queue.push_back(s);
            }
        }
        let mut reached_objects: Vec<ObjectId> = Vec::new();
        while let Some(pg) = queue.pop_front() {
            units.traversal_steps += 1;
            for &oid in &layout.page(pg).objects {
                if result_ids.contains(&oid) {
                    reached_objects.push(oid);
                }
            }
            for &nb in ordered.page_neighbors(pg) {
                units.traversal_steps += 1;
                if result_pages.contains(&nb) && visited.insert(nb) {
                    queue.push_back(nb);
                }
            }
        }
        if reached_objects.is_empty() {
            return None;
        }

        // Rebuild in place over the inner prefetcher's recycled graph
        // storage, exactly like the full-graph path.
        let mut graph = std::mem::take(&mut self.inner.graph);
        let build_units = match ctx.adjacency {
            Some(adj) => {
                let simplification = self.inner.config().simplification;
                scratch.frame.gather(ctx.objects, &reached_objects, simplification);
                graph.build_explicit(scratch, adj, &reached_objects)
            }
            None => graph.build_grid_hash(
                scratch,
                ctx.objects,
                &reached_objects,
                region,
                self.inner.config().grid_resolution,
                self.inner.config().simplification,
            ),
        };
        units.merge(&build_units);
        Some((graph, units))
    }

    /// §6.3 gap traversal: crawl the pages following one exit's structure
    /// through the gap (within a corridor around the extrapolated axis,
    /// bounded by `budget` pages). Returns the crawled pages and the
    /// refined prediction (point + direction) if the trail was followed.
    // Internal helper on SCOUT-OPT's hot path; the parameters are the
    // traversal state, not a bundleable config.
    #[allow(clippy::too_many_arguments)]
    fn traverse_gap(
        &self,
        ctx: &SimContext<'_>,
        exit: &Exit,
        gap: f64,
        side: f64,
        result_pages: &HashSet<PageId>,
        budget: usize,
        units: &mut CpuUnits,
    ) -> (Vec<PageId>, Option<(Vec3, Vec3)>) {
        let Some(ordered) = ctx.ordered else {
            return (Vec::new(), None);
        };
        if budget == 0 {
            return (Vec::new(), None);
        }
        let layout = ordered.layout();
        let corridor = self.config.gap_corridor_frac * side;
        let axis = Segment::new(exit.point, extrapolate(exit, gap + side * 0.5));

        let Some(seed) = ordered.seed_page(extrapolate(exit, corridor.min(gap).max(1e-6))) else {
            return (Vec::new(), None);
        };
        let mut visited: HashSet<PageId> = HashSet::new();
        let mut crawled: Vec<PageId> = Vec::new();
        let mut queue: VecDeque<PageId> = VecDeque::new();
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
            if !result_pages.contains(&pg) {
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
            return (Vec::new(), None);
        }

        // Follow the structure through the crawled pages: walk object
        // centroids outward from the exit, chaining nearest-forward
        // objects, up to the gap distance.
        let step_limit = corridor.max(side * 0.25);
        let mut frontier = exit.point;
        let mut dir = exit.dir;
        let mut travelled = 0.0;
        let mut remaining: Vec<Vec3> = crawled
            .iter()
            .flat_map(|&pg| layout.page(pg).objects.iter())
            .map(|&oid| ctx.objects[oid.index()].centroid())
            .collect();
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
        if travelled > 0.0 {
            (crawled, Some((frontier, dir)))
        } else {
            (crawled, None)
        }
    }

    /// The full SCOUT-OPT observe pipeline against a caller-provided
    /// scratch arena.
    fn observe_impl(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> PredictionStats {
        // §6.2: sparse construction when possible; full graph otherwise.
        let stats = match self.sparse_graph(ctx, region, result, scratch) {
            Some((graph, units)) => self.inner.observe_with_graph(region, graph, units, scratch),
            None => self.inner.observe_impl(ctx, region, result, scratch),
        };

        // §6.3: refine predictions through the gap.
        let gap = self.inner.gap_estimate;
        let side = region.side();
        if gap > 0.05 * side && !self.inner.last_locations.is_empty() {
            let mut units = CpuUnits::default();
            let result_pages: HashSet<PageId> = result.pages.iter().copied().collect();
            let total_budget = ((self.config.gap_io_budget_frac * result.pages.len() as f64).ceil()
                as usize)
                .max(1);
            let per_exit = (total_budget / self.inner.last_locations.len()).max(1);

            let mut gap_pages: Vec<PageId> = Vec::new();
            let mut refined: Vec<Exit> = Vec::new();
            let mut fallback: Vec<Exit> = Vec::new();
            let locations = self.inner.last_locations.clone();
            for exit in &locations {
                let (pages, refined_prediction) =
                    self.traverse_gap(ctx, exit, gap, side, &result_pages, per_exit, &mut units);
                gap_pages.extend(pages);
                match refined_prediction {
                    Some((point, dir)) => refined.push(Exit {
                        point,
                        dir,
                        vertex: exit.vertex,
                        component: exit.component,
                    }),
                    // §6.3: "we resort to a backup mechanism, e.g., linear
                    // extrapolation from the point where the traversal was
                    // stopped".
                    None => fallback.push(*exit),
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
            plan.requests.extend(self.inner.incremental_plan(&refined, 0.0).requests);
            plan.requests.extend(self.inner.incremental_plan(&fallback, gap).requests);
            if !plan.requests.is_empty() {
                self.inner.pending = plan;
            }

            let mut out = stats;
            out.cpu.merge(&units);
            return out;
        }
        stats
    }
}

impl Prefetcher for ScoutOpt {
    fn name(&self) -> String {
        "SCOUT-OPT".to_string()
    }

    fn overlaps_prediction(&self) -> bool {
        true
    }

    fn observe(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
    ) -> PredictionStats {
        // Direct calls borrow the inner prefetcher's own arena, like
        // `Scout::observe` does.
        let mut scratch = std::mem::take(&mut self.inner.scratch);
        let stats = self.observe_impl(ctx, region, result, &mut scratch);
        self.inner.scratch = scratch;
        stats
    }

    fn observe_with_scratch(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> PredictionStats {
        self.observe_impl(ctx, region, result, scratch)
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
    use scout_geometry::{Aabb, Aspect, Shape, SpatialObject, StructureId};
    use scout_index::{FlatConfig, FlatIndex, SpatialIndex};

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

    #[test]
    fn first_query_falls_back_to_full_graph() {
        let objects = fiber_dataset();
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let ctx = make_ctx(&objects, &flat);
        let mut opt = ScoutOpt::with_defaults();
        opt.reset();
        let r = query_at(30.0);
        let result = flat.range_query(&objects, &r);
        let stats = opt.observe(&ctx, &r, &result);
        // Full graph: every result object inserted.
        assert_eq!(stats.cpu.graph_object_inserts as usize, result.objects.len());
    }

    #[test]
    fn sparse_construction_inserts_fewer_objects() {
        let objects = fiber_dataset();
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let ctx = make_ctx(&objects, &flat);
        let mut opt = ScoutOpt::with_defaults();
        opt.reset();
        let mut scout = Scout::with_defaults();
        scout.reset();

        let mut opt_inserts = 0u64;
        let mut full_inserts = 0u64;
        for x in [20.0, 38.0, 56.0] {
            let r = query_at(x);
            let result = flat.range_query(&objects, &r);
            opt_inserts = opt.observe(&ctx, &r, &result).cpu.graph_object_inserts;
            full_inserts = scout.observe(&ctx, &r, &result).cpu.graph_object_inserts;
            let _ = opt.plan(&ctx);
            let _ = scout.plan(&ctx);
        }
        assert!(
            opt_inserts <= full_inserts,
            "sparse {opt_inserts} should not exceed full {full_inserts}"
        );
    }

    #[test]
    fn gap_traversal_emits_gap_pages_and_refined_regions() {
        let objects = fiber_dataset();
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let ctx = make_ctx(&objects, &flat);
        let mut opt = ScoutOpt::with_defaults();
        opt.reset();

        // Queries with a 30 µm gap along the fiber (side 20 cube).
        let mut saw_gap_pages = false;
        for x in [20.0, 70.0, 120.0] {
            let r = query_at(x);
            let result = flat.range_query(&objects, &r);
            opt.observe(&ctx, &r, &result);
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
        for x in [20.0, 70.0, 120.0] {
            let r = query_at(x);
            let result = flat.range_query(&objects, &r);
            let budget = ((0.10 * result.pages.len() as f64).ceil() as usize).max(1);
            opt.observe(&ctx, &r, &result);
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
        for x in [20.0, 38.0] {
            let r = query_at(x);
            let result = flat.range_query(&objects, &r);
            let a = opt.observe(&ctx, &r, &result);
            let b = scout.observe(&ctx, &r, &result);
            assert_eq!(a.cpu.graph_object_inserts, b.cpu.graph_object_inserts);
            assert_eq!(a.graph_vertices, b.graph_vertices);
        }
    }
}
