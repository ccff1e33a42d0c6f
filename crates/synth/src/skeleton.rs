//! Branching random-walk skeleton growth — the common machinery behind the
//! neuron, arterial and lung generators.
//!
//! A skeleton is grown as a tree of polyline branches inside a bounding
//! box: each step advances the tip by `step_len` along a direction that
//! drifts with angular noise `angle_sigma`; with probability
//! `bifurcation_prob` per step the branch splits into two children
//! separated by `bifurcation_angle`. Directions reflect off the domain
//! boundary so long fibers wander through the volume like real tissue
//! does rather than escaping it.

use crate::guide::{GuideBuilder, GuideNodeId};
use crate::rng_util::Turn;
use rand::Rng;
use scout_geometry::{Aabb, Vec3};
use std::collections::VecDeque;

/// Parameters controlling subtree growth. The step's length and the
/// domain are the sink's: they shape what is placed, never what is drawn.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GrowthParams {
    /// Std-dev of per-step direction noise, radians. Low values produce
    /// smooth, polynomial-friendly fibers (arteries); high values produce
    /// jagged fibers (neuron dendrites).
    pub(crate) angle_sigma: f64,
    /// Probability of bifurcating at any given step.
    pub(crate) bifurcation_prob: f64,
    /// Angle between the two children at a bifurcation, radians.
    pub(crate) bifurcation_angle: f64,
    /// Steps a fresh branch grows before it may bifurcate.
    pub(crate) min_steps_before_split: usize,
    /// Total step budget for the whole subtree.
    pub(crate) max_total_steps: usize,
}

/// Where a growing skeleton puts its nodes and edges.
///
/// Growth draws from its generator in one order whatever the sink: every
/// test that decides a draw reads a drawn value or a step count, never a
/// position. So a sink whose heading is `()` places nothing and computes
/// no geometry, and a pass through it moves the generator exactly as far
/// as the pass that places everything.
pub(crate) trait Sink {
    /// A branch's heading: a unit [`Vec3`], or `()` where nothing is placed.
    type Heading: Copy;

    /// `dir` as the heading a subtree starts on.
    fn heading(dir: Vec3) -> Self::Heading;

    /// Adds a subtree's root node at `pos` and returns it.
    fn root(&mut self, pos: Vec3) -> GuideNodeId;

    /// One growth step from `from` on heading `dir`, turned by `turn`:
    /// adds the node one step on and the edge to it, `depth` steps from the
    /// subtree root, and returns the node and its heading.
    fn step(
        &mut self,
        from: GuideNodeId,
        dir: Self::Heading,
        turn: Option<Turn>,
        depth: u32,
    ) -> (GuideNodeId, Self::Heading);

    /// The two child headings of a bifurcation of `dir` rolled by `phi`,
    /// `half_angle` either side of it.
    fn fork(dir: Self::Heading, phi: f64, half_angle: f64) -> (Self::Heading, Self::Heading);
}

/// Tips waiting to grow, in growth order: (node, heading, depth, steps on
/// this branch). A subtree of `max_total_steps` steps never holds more
/// than `max_total_steps + 1` (each bifurcation takes one tip and adds
/// two), so a queue reserved to that never reallocates.
pub(crate) type Tips<H> = VecDeque<(GuideNodeId, H, u32, usize)>;

/// Reflects `dir` so a step from `pos` stays inside `bounds`.
fn reflect(pos: Vec3, dir: Vec3, step: f64, bounds: &Aabb) -> Vec3 {
    let mut d = dir;
    for axis in 0..3 {
        let next = pos[axis] + d[axis] * step;
        let (lo, hi) = (bounds.min[axis], bounds.max[axis]);
        let out = next < lo || next > hi;
        if out {
            match axis {
                0 => d.x = -d.x,
                1 => d.y = -d.y,
                _ => d.z = -d.z,
            }
        }
    }
    d
}

/// Where one growth step from `pos` heading `dir` lands: the heading is
/// turned by `turn`, reflected off `bounds`, and the point `step_len` on
/// clamped inside `bounds`. Returns the point and its heading.
pub(crate) fn advance(
    pos: Vec3,
    dir: Vec3,
    turn: Option<Turn>,
    step_len: f64,
    bounds: &Aabb,
) -> (Vec3, Vec3) {
    let turned = turn.map_or(dir, |turn| turn.apply(dir));
    let d = reflect(pos, turned, step_len, bounds);
    ((pos + d * step_len).clamp(bounds.min, bounds.max), d)
}

/// One growth step from `node` heading `dir`: perturbs the heading by
/// `angle_sigma`, reflects it off `bounds`, and adds the node `step_len`
/// on (clamped inside `bounds`) with the edge to it. Returns the new node
/// and its heading.
pub(crate) fn step<R: Rng + ?Sized>(
    graph: &mut GuideBuilder,
    rng: &mut R,
    node: GuideNodeId,
    dir: Vec3,
    (step_len, angle_sigma): (f64, f64),
    bounds: &Aabb,
) -> (GuideNodeId, Vec3) {
    let turn = Turn::draw(rng, angle_sigma);
    let (pos, d) = advance(graph.position(node), dir, turn, step_len, bounds);
    let next = graph.add_node(pos);
    graph.add_edge(node, next);
    (next, d)
}

/// Splits heading `d` into the two child headings of a bifurcation,
/// `half_angle` either side of it in a plane at roll `phi`.
pub(crate) fn fork(d: Vec3, phi: f64, half_angle: f64) -> (Vec3, Vec3) {
    let ortho = d.any_orthogonal();
    let axis = ortho * phi.cos() + d.cross(ortho) * phi.sin();
    let (s, c) = half_angle.sin_cos();
    ((d * c + axis * s).normalized_or_x(), (d * c - axis * s).normalized_or_x())
}

/// The roll of a bifurcation's plane, uniform in `[0, 2π)`.
fn roll<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    rng.random_range(0.0..std::f64::consts::TAU)
}

/// Splits heading `d` into the two child headings of a bifurcation,
/// `half_angle` either side of it in a plane at a random roll.
pub(crate) fn split<R: Rng + ?Sized>(rng: &mut R, d: Vec3, half_angle: f64) -> (Vec3, Vec3) {
    fork(d, roll(rng), half_angle)
}

/// Grows a branching subtree rooted at `root` (which must already be in
/// `sink`) heading `dir`, with `tips` as its queue. It spends its whole
/// step budget: a tip is taken only to grow until the budget runs out or
/// it bifurcates into two, so the queue never empties first.
pub(crate) fn grow_subtree<S: Sink, R: Rng + ?Sized>(
    sink: &mut S,
    rng: &mut R,
    (root, dir): (GuideNodeId, Vec3),
    params: &GrowthParams,
    tips: &mut Tips<S::Heading>,
) {
    let mut budget = params.max_total_steps;
    tips.clear();
    tips.push_back((root, S::heading(dir), 0, 0));

    while let Some((mut node, mut d, mut depth, mut branch_steps)) = tips.pop_front() {
        loop {
            if budget == 0 {
                return;
            }
            budget -= 1;
            depth += 1;
            (node, d) = sink.step(node, d, Turn::draw(rng, params.angle_sigma), depth);
            branch_steps += 1;

            let may_split = branch_steps >= params.min_steps_before_split;
            if may_split && rng.random::<f64>() < params.bifurcation_prob {
                let (child_a, child_b) = S::fork(d, roll(rng), params.bifurcation_angle / 2.0);
                tips.push_back((node, child_a, depth, 0));
                tips.push_back((node, child_b, depth, 0));
                break;
            }
        }
    }
}

/// A sink that places nothing: growth through it only draws.
pub(crate) struct Draws;

impl Sink for Draws {
    type Heading = ();

    fn heading(_: Vec3) {}

    fn root(&mut self, _: Vec3) -> GuideNodeId {
        0
    }

    fn step(&mut self, _: GuideNodeId, (): (), _: Option<Turn>, _: u32) -> (GuideNodeId, ()) {
        (0, ())
    }

    fn fork((): (), _: f64, _: f64) -> ((), ()) {
        ((), ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guide::GuideGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bounds() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(100.0))
    }

    /// A sink into a guide that records every step's edge and depth.
    struct Recorder {
        guide: GuideBuilder,
        step_len: f64,
        bounds: Aabb,
        edges: Vec<(GuideNodeId, GuideNodeId, u32)>,
    }

    impl Recorder {
        fn new(step_len: f64, bounds: Aabb) -> Recorder {
            Recorder { guide: GuideBuilder::new(), step_len, bounds, edges: Vec::new() }
        }
    }

    impl Sink for Recorder {
        type Heading = Vec3;

        fn heading(dir: Vec3) -> Vec3 {
            dir.normalized_or_x()
        }

        fn root(&mut self, pos: Vec3) -> GuideNodeId {
            self.guide.add_node(pos)
        }

        fn step(
            &mut self,
            from: GuideNodeId,
            dir: Vec3,
            turn: Option<Turn>,
            depth: u32,
        ) -> (GuideNodeId, Vec3) {
            let pos = self.guide.position(from);
            let (pos, d) = advance(pos, dir, turn, self.step_len, &self.bounds);
            let to = self.guide.add_node(pos);
            self.guide.add_edge(from, to);
            self.edges.push((from, to, depth));
            (to, d)
        }

        fn fork(dir: Vec3, phi: f64, half_angle: f64) -> (Vec3, Vec3) {
            fork(dir, phi, half_angle)
        }
    }

    fn params(angle_sigma: f64, bifurcation_prob: f64, steps: usize) -> GrowthParams {
        GrowthParams {
            angle_sigma,
            bifurcation_prob,
            bifurcation_angle: 0.9,
            min_steps_before_split: 8,
            max_total_steps: steps,
        }
    }

    /// Grows a subtree from a root at `at` into a fresh recorder.
    fn grow(
        at: Vec3,
        dir: Vec3,
        (step_len, bounds): (f64, Aabb),
        params: &GrowthParams,
        rng: &mut StdRng,
    ) -> Recorder {
        let mut sink = Recorder::new(step_len, bounds);
        let root = sink.root(at);
        let mut tips = Tips::with_capacity(params.max_total_steps + 1);
        grow_subtree(&mut sink, rng, (root, dir), params, &mut tips);
        sink
    }

    /// Every node position of the graph.
    fn positions(g: &GuideGraph) -> Vec<Vec3> {
        (0..g.node_count() as GuideNodeId).map(|n| g.position(n)).collect()
    }

    #[test]
    fn chain_has_exact_length_and_stays_inside() {
        let mut rng = StdRng::seed_from_u64(1);
        let sink = grow(
            Vec3::splat(50.0),
            Vec3::new(1.0, 0.0, 0.0),
            (3.0, bounds()),
            &params(0.1, 0.0, 500),
            &mut rng,
        );
        assert_eq!(sink.edges.len(), 500);
        let g = sink.guide.finish();
        for p in positions(&g) {
            assert!(bounds().expanded(1e-9).contains_point(p));
        }
        // Edge lengths all equal step_len.
        for &(from, to, _) in &sink.edges {
            let len = g.position(from).distance(g.position(to));
            assert!((len - 3.0).abs() < 1e-9, "edge length {len}");
        }
    }

    #[test]
    fn subtree_respects_budget_and_bifurcates() {
        let mut rng = StdRng::seed_from_u64(2);
        let sink = grow(
            Vec3::splat(50.0),
            Vec3::new(0.0, 0.0, 1.0),
            (3.0, bounds()),
            &params(0.18, 0.1, 300),
            &mut rng,
        );
        assert_eq!(sink.edges.len(), 300);
        let g = sink.guide.finish();
        // Branch points have degree 3+ in the graph: a bifurcation with
        // prob 0.1 over 300 steps.
        let branch_nodes =
            (0..g.node_count() as u32).filter(|&n| g.neighbors(n).len() >= 3).count();
        assert!(branch_nodes >= 1);
    }

    #[test]
    fn zero_sigma_grows_straight_until_reflection() {
        let mut rng = StdRng::seed_from_u64(3);
        let sink = grow(
            Vec3::new(1.0, 50.0, 50.0),
            Vec3::new(1.0, 0.0, 0.0),
            (2.0, bounds()),
            &params(0.0, 0.0, 20),
            &mut rng,
        );
        // 20 straight steps of 2.0 from x=1: all ys and zs unchanged.
        for &(_, to, _) in &sink.edges {
            let p = sink.guide.position(to);
            assert!((p.y - 50.0).abs() < 1e-9 && (p.z - 50.0).abs() < 1e-9);
        }
        let tip = sink.guide.position(sink.edges.last().unwrap().1);
        assert!((tip.x - 41.0).abs() < 1e-9);
    }

    #[test]
    fn reflection_keeps_long_walk_inside() {
        let mut rng = StdRng::seed_from_u64(4);
        let small = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
        let sink = grow(
            Vec3::splat(5.0),
            Vec3::new(1.0, 0.2, 0.1),
            (1.0, small),
            &params(0.05, 0.0, 2000),
            &mut rng,
        );
        assert_eq!(sink.edges.len(), 2000);
        let g = sink.guide.finish();
        for p in positions(&g) {
            assert!(small.expanded(1e-9).contains_point(p), "escaped: {p:?}");
        }
    }

    #[test]
    fn draw_only_growth_leaves_the_generator_where_placing_growth_does() {
        // Bifurcating at every allowed step, splitting at once, and never:
        // the draw-only pass must stop at the same state, with a queue
        // reserved to its bound that never grew.
        for (seed, prob, min_steps) in [(5, 0.1, 8), (6, 1.0, 0), (7, 0.0, 0), (8, 1.0, 3)] {
            let growth =
                GrowthParams { min_steps_before_split: min_steps, ..params(0.35, prob, 400) };
            let mut placing = StdRng::seed_from_u64(seed);
            let sink = grow(Vec3::splat(50.0), Vec3::ONE, (3.0, bounds()), &growth, &mut placing);
            assert_eq!(sink.edges.len(), 400);
            // Depths count steps from the root along each path.
            assert!(sink.edges.iter().all(|&(_, _, depth)| (1..=400).contains(&depth)));
            let mut drawing = StdRng::seed_from_u64(seed);
            let mut tips = Tips::with_capacity(growth.max_total_steps + 1);
            let reserved = tips.capacity();
            grow_subtree(&mut Draws, &mut drawing, (0, Vec3::ONE), &growth, &mut tips);
            assert_eq!(drawing, placing, "seed {seed}");
            assert_eq!(tips.capacity(), reserved, "seed {seed}");
        }
    }
}
