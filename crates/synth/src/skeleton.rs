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

use crate::guide::{GuideGraph, GuideNodeId};
use crate::rng_util::perturb_direction;
use rand::Rng;
use scout_geometry::{Aabb, Vec3};
use std::collections::VecDeque;

/// Parameters controlling subtree growth.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GrowthParams {
    /// Length of each skeleton step (= cylinder length), µm.
    pub(crate) step_len: f64,
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

impl Default for GrowthParams {
    fn default() -> Self {
        GrowthParams {
            step_len: 3.0,
            angle_sigma: 0.18,
            bifurcation_prob: 0.02,
            bifurcation_angle: 0.9,
            min_steps_before_split: 8,
            max_total_steps: 200,
        }
    }
}

/// One skeleton edge produced by growth, in creation order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GrownEdge {
    /// Parent node.
    pub(crate) from: GuideNodeId,
    /// Child node.
    pub(crate) to: GuideNodeId,
    /// Step count from the subtree root along this path.
    pub(crate) depth: u32,
}

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

/// Grows a branching subtree rooted at `root` (which must already exist in
/// `graph`) heading `dir`. Returns the created edges in creation order.
pub(crate) fn grow_subtree<R: Rng + ?Sized>(
    graph: &mut GuideGraph,
    rng: &mut R,
    root: GuideNodeId,
    dir: Vec3,
    params: &GrowthParams,
    bounds: &Aabb,
) -> Vec<GrownEdge> {
    let mut edges = Vec::new();
    let mut budget = params.max_total_steps;
    // Tips queue: (node, direction, depth, steps on this branch).
    let mut tips: VecDeque<(GuideNodeId, Vec3, u32, usize)> = VecDeque::new();
    tips.push_back((root, dir.normalized_or_x(), 0, 0));

    while let Some((mut node, mut d, mut depth, mut branch_steps)) = tips.pop_front() {
        loop {
            if budget == 0 {
                return edges;
            }
            budget -= 1;
            d = perturb_direction(rng, d, params.angle_sigma);
            d = reflect(graph.position(node), d, params.step_len, bounds);
            let next_pos = graph.position(node) + d * params.step_len;
            let next = graph.add_node(next_pos.clamp(bounds.min, bounds.max));
            graph.add_edge(node, next);
            depth += 1;
            branch_steps += 1;
            edges.push(GrownEdge { from: node, to: next, depth });
            node = next;

            let may_split = branch_steps >= params.min_steps_before_split;
            if may_split && rng.random::<f64>() < params.bifurcation_prob {
                // Split into two children separated by bifurcation_angle.
                let half = params.bifurcation_angle / 2.0;
                let ortho = d.any_orthogonal();
                let phi = rng.random_range(0.0..std::f64::consts::TAU);
                let axis = ortho * phi.cos() + d.cross(ortho) * phi.sin();
                let child_a = (d * half.cos() + axis * half.sin()).normalized_or_x();
                let child_b = (d * half.cos() - axis * half.sin()).normalized_or_x();
                tips.push_back((node, child_a, depth, 0));
                tips.push_back((node, child_b, depth, 0));
                break;
            }
        }
    }
    edges
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bounds() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(100.0))
    }

    /// Grows an unbranched chain of `steps` steps from `root`.
    fn grow_chain(
        g: &mut GuideGraph,
        rng: &mut StdRng,
        root: GuideNodeId,
        dir: Vec3,
        (steps, step_len, angle_sigma): (usize, f64, f64),
        bounds: &Aabb,
    ) -> Vec<GrownEdge> {
        let params = GrowthParams {
            step_len,
            angle_sigma,
            bifurcation_prob: 0.0,
            max_total_steps: steps,
            ..GrowthParams::default()
        };
        grow_subtree(g, rng, root, dir, &params, bounds)
    }

    /// Every node position of the graph.
    fn positions(g: &GuideGraph) -> Vec<Vec3> {
        (0..g.node_count() as GuideNodeId).map(|n| g.position(n)).collect()
    }

    #[test]
    fn chain_has_exact_length_and_stays_inside() {
        let mut g = GuideGraph::new();
        let mut rng = StdRng::seed_from_u64(1);
        let root = g.add_node(Vec3::splat(50.0));
        let edges = grow_chain(
            &mut g,
            &mut rng,
            root,
            Vec3::new(1.0, 0.0, 0.0),
            (500, 3.0, 0.1),
            &bounds(),
        );
        assert_eq!(edges.len(), 500);
        for p in positions(&g) {
            assert!(bounds().expanded(1e-9).contains_point(p));
        }
        // Edge lengths all equal step_len.
        for e in &edges {
            let len = g.position(e.from).distance(g.position(e.to));
            assert!((len - 3.0).abs() < 1e-9, "edge length {len}");
        }
    }

    #[test]
    fn subtree_respects_budget_and_bifurcates() {
        let mut g = GuideGraph::new();
        let mut rng = StdRng::seed_from_u64(2);
        let root = g.add_node(Vec3::splat(50.0));
        let params =
            GrowthParams { bifurcation_prob: 0.1, max_total_steps: 300, ..GrowthParams::default() };
        let edges =
            grow_subtree(&mut g, &mut rng, root, Vec3::new(0.0, 0.0, 1.0), &params, &bounds());
        assert_eq!(edges.len(), 300);
        // Branch points have degree 3+ in the graph: a bifurcation with
        // prob 0.1 over 300 steps.
        let branch_nodes =
            (0..g.node_count() as u32).filter(|&n| g.neighbors(n).len() >= 3).count();
        assert!(branch_nodes >= 1);
    }

    #[test]
    fn zero_sigma_grows_straight_until_reflection() {
        let mut g = GuideGraph::new();
        let mut rng = StdRng::seed_from_u64(3);
        let root = g.add_node(Vec3::new(1.0, 50.0, 50.0));
        let edges =
            grow_chain(&mut g, &mut rng, root, Vec3::new(1.0, 0.0, 0.0), (20, 2.0, 0.0), &bounds());
        // 20 straight steps of 2.0 from x=1: all ys and zs unchanged.
        for e in &edges {
            let p = g.position(e.to);
            assert!((p.y - 50.0).abs() < 1e-9 && (p.z - 50.0).abs() < 1e-9);
        }
        let tip = g.position(edges.last().unwrap().to);
        assert!((tip.x - 41.0).abs() < 1e-9);
    }

    #[test]
    fn reflection_keeps_long_walk_inside() {
        let mut g = GuideGraph::new();
        let mut rng = StdRng::seed_from_u64(4);
        let small = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
        let root = g.add_node(Vec3::splat(5.0));
        let edges =
            grow_chain(&mut g, &mut rng, root, Vec3::new(1.0, 0.2, 0.1), (2000, 1.0, 0.05), &small);
        assert_eq!(edges.len(), 2000);
        for p in positions(&g) {
            assert!(small.expanded(1e-9).contains_point(p), "escaped: {p:?}");
        }
    }
}
