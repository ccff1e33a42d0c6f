//! Synthetic arterial tree.
//!
//! Stands in for the pig's-heart arterial tree of §8.4 (2.1 M cylinders).
//! Arteries are *smooth*: long branches with very low angular noise, so
//! that — exactly as Figure 17a reports — trajectory-extrapolation
//! prefetchers interpolate them well on small queries, while larger queries
//! reach bifurcations where SCOUT wins again.

use crate::dataset::{Dataset, Domain};
use crate::guide::GuideBuilder;
use crate::skeleton::{split, step};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scout_geometry::{Aabb, Cylinder, ObjectId, Shape, SpatialObject, StructureId, Vec3};

/// Parameters of the arterial-tree generator.
#[derive(Debug, Clone, Copy)]
pub struct ArterialParams {
    /// Side length of the cubic domain, µm.
    pub bounds_side: f64,
    /// Number of bifurcation generations (tree depth).
    pub generations: usize,
    /// Steps in a generation-0 branch; halves (approximately) per generation.
    pub root_branch_steps: usize,
    /// Skeleton step length, µm.
    pub step_len: f64,
    /// Angular noise per step, radians — kept very low for smooth vessels.
    pub angle_sigma: f64,
    /// Radius of the root vessel, µm; children shrink by `radius_decay`.
    pub root_radius: f64,
    /// Per-generation radius decay factor.
    pub radius_decay: f64,
    /// Bifurcation half-angle, radians.
    pub bifurcation_half_angle: f64,
}

impl Default for ArterialParams {
    fn default() -> Self {
        ArterialParams {
            bounds_side: 700.0,
            generations: 7,
            root_branch_steps: 260,
            step_len: 3.0,
            angle_sigma: 0.015,
            root_radius: 8.0,
            radius_decay: 0.78,
            bifurcation_half_angle: 0.35,
        }
    }
}

/// Generates an arterial tree. Deterministic in `seed`.
pub fn generate_arterial(params: &ArterialParams, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(params.bounds_side));
    let mut guide = GuideBuilder::new();
    let mut objects: Vec<SpatialObject> = Vec::new();
    let growth = (params.step_len, params.angle_sigma);

    // Root enters from the center of the -z face heading +z.
    let root_pos = Vec3::new(params.bounds_side / 2.0, params.bounds_side / 2.0, 1.0);
    let root = guide.add_node(root_pos);

    // Branch work list: (node, direction, generation).
    let mut work: Vec<(u32, Vec3, usize)> = vec![(root, Vec3::new(0.0, 0.0, 1.0), 0)];

    while let Some((start, dir0, generation)) = work.pop() {
        if generation >= params.generations {
            continue;
        }
        let steps =
            (params.root_branch_steps as f64 * 0.82f64.powi(generation as i32)).max(12.0) as usize;
        let radius = params.root_radius * params.radius_decay.powi(generation as i32);
        let mut node = start;
        let mut dir = dir0;
        for _ in 0..steps {
            let from = node;
            (node, dir) = step(&mut guide, &mut rng, from, dir, growth, &bounds);
            objects.push(SpatialObject::new(
                ObjectId(objects.len() as u32),
                StructureId(0), // one arterial tree = one structure system
                Shape::Cylinder(Cylinder::new(
                    guide.position(from),
                    guide.position(node),
                    radius,
                    radius * 0.995,
                )),
            ));
        }
        let (child_a, child_b) = split(&mut rng, dir, params.bifurcation_half_angle);
        work.push((node, child_a, generation + 1));
        work.push((node, child_b, generation + 1));
    }

    Dataset { domain: Domain::Arterial, objects, bounds, guide: guide.finish(), adjacency: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ArterialParams {
        ArterialParams { generations: 5, root_branch_steps: 80, ..Default::default() }
    }

    #[test]
    fn tree_scale_and_validity() {
        let d = generate_arterial(&small(), 1);
        d.validate().expect("invalid dataset");
        assert_eq!(d.domain, Domain::Arterial);
        // Geometric series of branches: 2^5 - 1 = 31 branches max.
        assert!(d.len() > 500, "len = {}", d.len());
    }

    #[test]
    fn vessels_are_smooth() {
        // Mean direction change between consecutive cylinders must be small.
        let d = generate_arterial(&small(), 2);
        let mut total_angle = 0.0;
        let mut count = 0usize;
        for w in d.objects.windows(2) {
            if let (Shape::Cylinder(a), Shape::Cylinder(b)) = (w[0].shape, w[1].shape) {
                // Only consecutive cylinders that share an endpoint.
                if a.b.distance(b.a) < 1e-9 {
                    let da = a.axis().direction().normalized_or_x();
                    let db = b.axis().direction().normalized_or_x();
                    total_angle += da.dot(db).clamp(-1.0, 1.0).acos();
                    count += 1;
                }
            }
        }
        let mean = total_angle / count as f64;
        assert!(mean < 0.05, "arteries too jagged: mean step angle {mean}");
    }

    #[test]
    fn radius_decays_with_generation() {
        let d = generate_arterial(&small(), 3);
        let first = match d.objects.first().unwrap().shape {
            Shape::Cylinder(c) => c.ra,
            _ => unreachable!(),
        };
        let min = d
            .objects
            .iter()
            .map(|o| match o.shape {
                Shape::Cylinder(c) => c.ra,
                _ => f64::INFINITY,
            })
            .fold(f64::INFINITY, f64::min);
        assert!(min < first * 0.5, "no radius decay: {min} vs {first}");
    }

    #[test]
    fn digest_is_pinned() {
        // Recorded from the generator as first written: a changed draw
        // order or growth step moves it, which two same-code runs cannot.
        let d = generate_arterial(&small(), 11);
        assert_eq!((d.len(), d.digest()), (1350, 0x5dc5_7447_99db_4f5c));
    }

    #[test]
    fn guide_is_pinned() {
        // Recorded before the guide's adjacency moved to one CSR array:
        // node positions, edges and each row's order are unchanged.
        let g = generate_arterial(&small(), 11).guide;
        assert_eq!(
            (g.node_count(), g.edge_count(), g.digest()),
            (1351, 1350, 0xae38_dd5c_e72b_e88e)
        );
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_arterial(&small(), 11);
        let b = generate_arterial(&small(), 11);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.objects[10].centroid(), b.objects[10].centroid());
    }
}
