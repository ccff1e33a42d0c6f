//! The SCOUT prefetcher (§4–§5).
//!
//! Per query result SCOUT: builds the approximate object graph (grid
//! hashing, or the dataset's explicit adjacency per §4.1), labels its
//! connected components ("structures"), prunes the candidate set against
//! the previous query (§4.3), traverses the candidate structures to their
//! boundary exits (§4.4), extrapolates each exit linearly, and emits an
//! incremental prefetch plan (§5.1) — deep or broad across multiple
//! candidates (§5.2), k-means-limited when there are too many.

use crate::candidates::{flag_component, CandidateTracker};
use crate::config::{ScoutConfig, Strategy};
use crate::exits::{extrapolate, find_exits_into, Exit};
use crate::graph::{label_components, ResultGraph};
use crate::kmeans::kmeans_into;
use crate::scoring::{score_exits, ScoringScratch};
use crate::scratch::ScoutScratch;
use crate::split_filter::SplitFilter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scout_geometry::{QueryRegion, Vec3};
use scout_index::QueryResult;
use scout_sim::{
    PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher, QueryScratch, SimContext,
};

/// Exit/entry matching tolerance for candidate continuity across a gap,
/// as a fraction of the query side.
const CONTINUITY_TOLERANCE_FRAC: f64 = 0.35;

/// The structure-aware prefetcher.
#[derive(Debug, Clone)]
pub struct Scout {
    config: ScoutConfig,
    rng: SmallRng,
    tracker: CandidateTracker,
    /// Past query centers (movement vector + gap estimation, §5.3).
    centers: Vec<Vec3>,
    last_region: Option<QueryRegion>,
    pub(crate) gap_estimate: f64,
    /// Plan computed in `observe`, handed out by `plan`.
    pub(crate) pending: PrefetchPlan,
    /// The exit locations chosen by the strategy for the latest query
    /// (SCOUT-OPT refines these through the gap, §6.3).
    pub(crate) last_locations: Vec<Exit>,
    /// The result graph's storage, recycled query to query — `observe`
    /// rebuilds it in place, so a warmed session never reallocates it.
    graph: ResultGraph,
    /// Reusable exit list (filled by `find_exits_into`).
    exits_buf: Vec<Exit>,
    /// Reusable scoring and clustering buffers.
    scoring: ScoringScratch,
    /// The split range filter's buffers, and pass 1 of the result it
    /// filtered, waiting for that result's observe.
    split: SplitFilter,
}

impl Scout {
    /// SCOUT with explicit configuration.
    pub fn new(config: ScoutConfig) -> Scout {
        Scout {
            config,
            rng: SmallRng::seed_from_u64(config.seed),
            tracker: CandidateTracker::new(),
            centers: Vec::new(),
            last_region: None,
            gap_estimate: 0.0,
            pending: PrefetchPlan::empty(),
            last_locations: Vec::new(),
            graph: ResultGraph::default(),
            exits_buf: Vec::new(),
            scoring: ScoringScratch::default(),
            split: SplitFilter::default(),
        }
    }

    /// SCOUT with the paper's default configuration.
    pub fn with_defaults() -> Scout {
        Scout::new(ScoutConfig::default())
    }

    /// SCOUT with the default configuration and a per-instance RNG seed
    /// (one decorrelated prefetcher per session in multi-session runs).
    pub fn with_seed(seed: u64) -> Scout {
        Scout::new(ScoutConfig::with_seed(seed))
    }

    fn update_motion(&mut self, region: &QueryRegion) {
        let c = region.center();
        if let Some(&prev) = self.centers.last() {
            // §5.3: "use the distance between the last two queries as a
            // prediction for the next gap" — boundary-to-boundary.
            let side_avg = match self.last_region {
                Some(last) => (last.side() + region.side()) / 2.0,
                None => region.side(),
            };
            self.gap_estimate = (prev.distance(c) - side_avg).max(0.0);
        }
        self.centers.push(c);
        if self.centers.len() > 4 {
            self.centers.remove(0);
        }
        self.last_region = Some(*region);
    }

    /// The movement vector cₙ − cₙ₋₁, if known.
    fn movement(&self) -> Option<Vec3> {
        let n = self.centers.len();
        if n >= 2 {
            (self.centers[n - 1] - self.centers[n - 2]).normalized()
        } else {
            None
        }
    }

    /// Drops exits pointing back toward where the user came from, in
    /// place (order preserved; never filters everything away).
    fn forward_filter(&self, exits: &mut Vec<Exit>) {
        let Some(m) = self.movement() else {
            return;
        };
        if exits.iter().any(|e| e.dir.dot(m) >= -0.25) {
            exits.retain(|e| e.dir.dot(m) >= -0.25);
        }
    }

    /// Picks prefetch locations from exits per the §5.2 strategy into
    /// `self.last_locations`, ordered most-plausible-first; returns the
    /// CPU µs spent clustering and the traversal steps spent scoring.
    /// `centroids` are the result frame's.
    fn choose_locations(
        &mut self,
        centroids: &[Vec3],
        region: &QueryRegion,
        exits: &[Exit],
    ) -> (f64, u64) {
        self.last_locations.clear();
        match self.config.strategy {
            Strategy::Deep => {
                self.last_locations.push(exits[self.rng.random_range(0..exits.len())]);
                (0.0, 0)
            }
            Strategy::Broad | Strategy::BroadEqual => {
                let d = self.config.max_prefetch_locations.max(1);
                let movement = self.movement();
                let steps = score_exits(
                    &self.graph,
                    centroids,
                    region.center(),
                    region.side(),
                    movement,
                    exits,
                    &mut self.scoring,
                );
                let ScoringScratch { scores: scored, points, kmeans, cluster_picks, .. } =
                    &mut self.scoring;
                // Best first, equal scores in exit order.
                scored.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                if scored.len() <= d {
                    self.last_locations.extend(scored.iter().map(|&(_, i)| exits[i as usize]));
                    return (0.0, steps);
                }
                // §5.2.2: k-means over exit locations to limit the
                // number of prefetch queries; keep the most plausible
                // exit of each cluster, then order clusters by that
                // plausibility.
                points.clear();
                points.extend(scored.iter().map(|&(_, i)| exits[i as usize].point));
                let iters = 12;
                kmeans_into(points, d, self.rng.random(), iters, kmeans);
                let cost_us = (points.len() * d * iters) as f64 * 0.02;
                // `scored` is sorted desc; the first member of a cluster
                // in that order is its best.
                cluster_picks.clear();
                cluster_picks.resize(kmeans.centroids.len(), (0.0, u32::MAX, u32::MAX));
                for (rank, &cluster) in kmeans.assignment.iter().enumerate() {
                    let pick = &mut cluster_picks[cluster as usize];
                    if pick.1 == u32::MAX {
                        *pick = (scored[rank].0, cluster, scored[rank].1);
                    }
                }
                cluster_picks.retain(|pick| pick.1 != u32::MAX);
                // Best first, equal scores in cluster order.
                cluster_picks.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
                self.last_locations
                    .extend(cluster_picks.iter().map(|&(_, _, i)| exits[i as usize]));
                (cost_us, steps)
            }
        }
    }

    /// Builds the incremental prefetch plan (§5.1): per chosen exit, a
    /// series of growing regions stepped along the extrapolated axis.
    ///
    /// Under [`Strategy::Broad`] the locations are visited most-plausible
    /// first, each receiving its full incremental series before the next
    /// (the window cut-off then naturally allocates more budget to likelier
    /// structures). Under [`Strategy::BroadEqual`] the series are
    /// interleaved step-by-step across locations, giving every candidate
    /// equal weight as in §5.2.2.
    pub(crate) fn incremental_plan(&self, locations: &[Exit], start_offset: f64) -> PrefetchPlan {
        let Some(last) = self.last_region else {
            return PrefetchPlan::empty();
        };
        let side = last.side();
        let steps = self.config.incremental_steps.max(1);
        let mut requests = Vec::with_capacity(steps * locations.len());
        let region_for = |exit: &Exit, i: usize| {
            let frac = i as f64 / steps as f64;
            // Walk the region center from just beyond the boundary (plus
            // the estimated gap) toward the next query's center: the exit
            // sits on the shared face, so the next center lies only about
            // half a query side beyond it. The final step is a full-size
            // region centered there.
            let center_dist = start_offset + frac * side * 0.45;
            let volume_scale = 0.25 + 0.75 * frac;
            let center = extrapolate(exit, center_dist);
            last.translated(center - last.center()).scaled(volume_scale)
        };
        if self.config.strategy == Strategy::BroadEqual {
            for i in 1..=steps {
                for exit in locations {
                    requests.push(PrefetchRequest::Region(region_for(exit, i)));
                }
            }
        } else {
            for exit in locations {
                for i in 1..=steps {
                    requests.push(PrefetchRequest::Region(region_for(exit, i)));
                }
            }
        }
        PrefetchPlan { requests }
    }

    /// Straight-line fallback when no structure information is available
    /// (empty result, or every structure contained in the query).
    fn fallback_plan(&self) -> PrefetchPlan {
        let (Some(last), n) = (self.last_region, self.centers.len()) else {
            return PrefetchPlan::empty();
        };
        if n < 2 {
            return PrefetchPlan::empty();
        }
        let delta = self.centers[n - 1] - self.centers[n - 2];
        let predicted = last.translated(delta);
        PrefetchPlan {
            requests: vec![
                PrefetchRequest::Region(predicted),
                PrefetchRequest::Region(predicted.scaled(2.0)),
            ],
        }
    }

    /// The full observe pipeline against a caller-provided scratch arena:
    /// graph build (§4.1/§4.2) + prediction.
    ///
    /// Transient structures (component labels, centroid accumulators,
    /// candidate flags, staged predictions) live in the arena's
    /// [`ScoutScratch`], whose result frame the graph build fills for
    /// exactly this graph's vertices: nothing after the build goes back to
    /// the dataset's object array.
    fn observe_impl(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        scratch: &mut QueryScratch,
    ) -> PredictionStats {
        // §4.1/§4.2: use the explicit structure graph when the dataset has
        // one, grid hashing otherwise. Either way `self.graph` is rebuilt
        // in place, so a warmed session's graph-build phase allocates
        // nothing.
        let mut units = match ctx.adjacency {
            Some(adj) => {
                self.split.clear();
                let frame = &mut scratch.part::<ScoutScratch>().frame;
                frame.gather(ctx.objects, &result.objects, self.config.simplification);
                self.graph.build_explicit(scratch, adj, &result.objects)
            }
            None => self.graph.build_grid_hash_from(
                scratch,
                ctx.objects,
                &result.objects,
                region,
                (self.config.grid_resolution, self.config.simplification),
                Some(&mut self.split),
            ),
        };
        let s = scratch.part::<ScoutScratch>();
        debug_assert_eq!(s.frame.len(), self.graph.vertex_count(), "frame of another result");
        self.update_motion(region);

        // Both builds leave the components united; label them.
        let comp_count = label_components(&mut s.components);
        units.traversal_steps += self.graph.vertex_count() as u64; // labeling pass

        // §4.3 iterative candidate pruning.
        let tolerance = CONTINUITY_TOLERANCE_FRAC * region.side() + self.gap_estimate;
        let cont = self.tracker.continuing_components(
            &s.frame.centroids,
            &self.graph,
            &s.components,
            comp_count,
            tolerance,
            &mut s.candidate_flags,
        );
        units.traversal_steps += cont.steps;

        let mut was_reset = false;
        let mut candidates = cont.components;
        let mut exits = std::mem::take(&mut self.exits_buf);
        exits.clear();
        if candidates == 0 {
            was_reset = true;
        } else {
            let steps = find_exits_into(
                &s.frame,
                &self.graph,
                &s.components,
                comp_count,
                region,
                Some(&s.candidate_flags),
                &mut s.centroid_sums,
                &mut s.component_tally,
                &mut exits,
            );
            units.traversal_steps += steps;
            if exits.is_empty() {
                // The followed structure ended inside the query: reset.
                was_reset = true;
            }
        }
        if was_reset {
            // §4.3 reset: candidates = all structures of this result (those
            // that exit the query are the only ones that can be followed).
            let steps = find_exits_into(
                &s.frame,
                &self.graph,
                &s.components,
                comp_count,
                region,
                None,
                &mut s.centroid_sums,
                &mut s.component_tally,
                &mut exits,
            );
            units.traversal_steps += steps;
            let flags = &mut s.candidate_flags;
            flags.fill(false);
            candidates = exits.iter().map(|e| flag_component(flags, e.component)).sum();
        }

        self.forward_filter(&mut exits);

        // Build the plan now (so its CPU is charged to this prediction).
        s.predictions.clear();
        let (plan, kmeans_us) = if exits.is_empty() {
            self.last_locations.clear();
            (self.fallback_plan(), 0.0)
        } else {
            let (kmeans_us, score_steps) =
                self.choose_locations(&s.frame.centroids, region, &exits);
            units.traversal_steps += score_steps;
            let predict_dist = self.gap_estimate + region.side() / 2.0;
            s.predictions.extend(self.last_locations.iter().map(|e| extrapolate(e, predict_dist)));
            (self.incremental_plan(&self.last_locations, self.gap_estimate), kmeans_us)
        };
        units.extra_us += kmeans_us;
        self.pending = plan;

        // §4.3 continuity anchor for the next query: the (forward) exit
        // objects of this query's candidate structures. Committed through
        // the tracker's recycled set, so no per-query set is built.
        self.tracker
            .commit_ids(exits.iter().map(|e| self.graph.object_id(e.vertex)), &s.predictions);

        // Prediction *state* only (§8.2): the graph, the labels and the
        // exits. The scratch arena — result frame included — is working
        // memory any prefetcher would hand back, and stays out.
        let memory_bytes = self.graph.memory_bytes()
            + s.components.len() * std::mem::size_of::<u32>()
            + exits.len() * std::mem::size_of::<Exit>();
        let stats = PredictionStats {
            cpu: units,
            graph_vertices: self.graph.vertex_count(),
            graph_edges: self.graph.edge_count(),
            graph_components: comp_count,
            memory_bytes,
            candidates,
        };
        self.exits_buf = exits;
        stats
    }
}

impl Prefetcher for Scout {
    fn name(&self) -> String {
        "SCOUT".to_string()
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

    /// On the grid-hash path, the filter splits across cores when the
    /// pages hold enough objects: each thread also runs pass 1 of the
    /// graph build for the objects it kept, and the caller the chain pass
    /// over its own (`split_filter`).
    fn filter_result(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &mut QueryResult,
    ) {
        let grid = (self.config.grid_resolution, self.config.simplification);
        self.split.fill(ctx, region, grid, result);
    }

    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        std::mem::take(&mut self.pending)
    }

    fn reset(&mut self) {
        self.split.clear();
        self.tracker.clear();
        self.centers.clear();
        self.last_region = None;
        self.gap_estimate = 0.0;
        self.pending = PrefetchPlan::empty();
        self.last_locations.clear();
        self.rng = SmallRng::seed_from_u64(self.config.seed);
        // The graph and exit buffers are transient per-query state and
        // keep their warmed capacity.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{Aabb, Aspect, ObjectId, Segment, Shape, SpatialObject, StructureId};
    use scout_index::{RTree, SpatialIndex};

    /// A long straight fiber along x plus a decoy fiber along y.
    fn cross_dataset() -> Vec<SpatialObject> {
        let mut objects = Vec::new();
        let mut id = 0u32;
        for i in 0..100 {
            objects.push(SpatialObject::new(
                ObjectId(id),
                StructureId(0),
                Shape::Segment(Segment::new(
                    Vec3::new(i as f64 * 2.0, 50.0, 50.0),
                    Vec3::new((i + 1) as f64 * 2.0, 50.0, 50.0),
                )),
            ));
            id += 1;
        }
        for i in 0..100 {
            objects.push(SpatialObject::new(
                ObjectId(id),
                StructureId(1),
                Shape::Segment(Segment::new(
                    Vec3::new(50.0, i as f64 * 2.0, 50.0),
                    Vec3::new(50.0, (i + 1) as f64 * 2.0, 50.0),
                )),
            ));
            id += 1;
        }
        objects
    }

    fn region_at(x: f64) -> QueryRegion {
        QueryRegion::new(Vec3::new(x, 50.0, 50.0), 8_000.0, Aspect::Cube) // side 20
    }

    #[test]
    fn follows_the_structure_the_user_follows() {
        let objects = cross_dataset();
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(200.0));
        let ctx = SimContext::new(&objects, &tree, bounds);
        let mut scout = Scout::with_defaults();
        scout.reset();

        // Two queries moving along +x on the x fiber.
        for x in [20.0, 38.0] {
            let r = region_at(x);
            let result = tree.range_query(&objects, &r);
            assert!(!result.is_empty());
            let stats = scout.observe_with_scratch(&ctx, &r, &result, &mut QueryScratch::new());
            assert!(stats.graph_vertices > 0);
        }
        // The plan must target the +x continuation (x ≈ 48..66), not the
        // y fiber.
        let plan = scout.plan(&ctx);
        assert!(!plan.requests.is_empty());
        let mut covered_forward = false;
        for req in &plan.requests {
            if let PrefetchRequest::Region(r) = req {
                let c = r.center();
                assert!(
                    (c.y - 50.0).abs() < 15.0 && (c.z - 50.0).abs() < 15.0,
                    "prefetch wandered off the fiber: {c:?}"
                );
                if c.x > 48.0 {
                    covered_forward = true;
                }
            }
        }
        assert!(covered_forward, "no forward prefetch emitted");
    }

    #[test]
    fn candidate_set_shrinks_with_queries() {
        let objects = cross_dataset();
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(200.0));
        let ctx = SimContext::new(&objects, &tree, bounds);
        let mut scout = Scout::with_defaults();
        scout.reset();

        // First query at the crossing sees both fibers; later queries move
        // along x only.
        let mut candidate_counts = Vec::new();
        for x in [50.0, 68.0, 86.0, 104.0] {
            let r = region_at(x);
            let result = tree.range_query(&objects, &r);
            let stats = scout.observe_with_scratch(&ctx, &r, &result, &mut QueryScratch::new());
            candidate_counts.push(stats.candidates);
            let _ = scout.plan(&ctx);
        }
        assert!(
            candidate_counts.last().unwrap() <= candidate_counts.first().unwrap(),
            "candidates did not shrink: {candidate_counts:?}"
        );
        assert_eq!(*candidate_counts.last().unwrap(), 1);
    }

    #[test]
    fn deep_strategy_plans_single_location_per_step() {
        let objects = cross_dataset();
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let ctx = SimContext::new(&objects, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(200.0)));
        let mut scout = Scout::new(ScoutConfig {
            strategy: Strategy::Deep,
            incremental_steps: 4,
            ..ScoutConfig::default()
        });
        scout.reset();
        // Query at the crossing: two structures exit, deep picks one.
        let r = region_at(50.0);
        let result = tree.range_query(&objects, &r);
        scout.observe_with_scratch(&ctx, &r, &result, &mut QueryScratch::new());
        let plan = scout.plan(&ctx);
        assert_eq!(plan.requests.len(), 4, "deep must emit steps × 1 location");
    }

    #[test]
    fn empty_result_falls_back_to_straight_line() {
        let objects = cross_dataset();
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let ctx = SimContext::new(&objects, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(200.0)));
        let mut scout = Scout::with_defaults();
        scout.reset();
        // Two queries through empty space.
        for x in [300.0, 320.0] {
            let r = QueryRegion::new(Vec3::new(x, 300.0, 300.0), 8_000.0, Aspect::Cube);
            let result = tree.range_query(&objects, &r);
            assert!(result.is_empty());
            scout.observe_with_scratch(&ctx, &r, &result, &mut QueryScratch::new());
        }
        let plan = scout.plan(&ctx);
        assert!(!plan.requests.is_empty(), "fallback should extrapolate");
        if let PrefetchRequest::Region(r) = &plan.requests[0] {
            assert!((r.center().x - 340.0).abs() < 1e-9);
        }
    }

    #[test]
    fn plan_is_consumed_once() {
        let objects = cross_dataset();
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let ctx = SimContext::new(&objects, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(200.0)));
        let mut scout = Scout::with_defaults();
        scout.reset();
        let r = region_at(20.0);
        let result = tree.range_query(&objects, &r);
        scout.observe_with_scratch(&ctx, &r, &result, &mut QueryScratch::new());
        assert!(!scout.plan(&ctx).requests.is_empty());
        assert!(scout.plan(&ctx).requests.is_empty());
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let objects = cross_dataset();
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let ctx = SimContext::new(&objects, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(200.0)));
        let run = || {
            let mut scout = Scout::with_defaults();
            scout.reset();
            let mut centers = Vec::new();
            for x in [20.0, 38.0, 56.0] {
                let r = region_at(x);
                let result = tree.range_query(&objects, &r);
                scout.observe_with_scratch(&ctx, &r, &result, &mut QueryScratch::new());
                for req in scout.plan(&ctx).requests {
                    if let PrefetchRequest::Region(reg) = req {
                        centers.push(reg.center());
                    }
                }
            }
            centers
        };
        assert_eq!(run(), run());
    }
}
