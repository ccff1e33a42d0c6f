//! Synthetic brain-tissue model.
//!
//! Stands in for the Blue Brain Project circuit the paper evaluates on
//! (§7.1: 100 000–500 000 neurons, hundreds of cylinders each). Each neuron
//! is a soma sphere plus several branching fiber subtrees grown as
//! tortuous random walks that bifurcate sharply and repeatedly — the
//! property that makes query traces "jagged" and defeats trajectory
//! extrapolation, motivating SCOUT (§3.3: "in large queries there is a
//! higher probability that the structure being followed bifurcates or
//! bends, leading to a jagged query trace that cannot be interpolated
//! well").

use crate::dataset::{Dataset, Domain};
use crate::guide::GuideGraph;
use crate::rng_util::{point_in_box, unit_vector};
use crate::skeleton::{grow_subtree, GrowthParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scout_geometry::{Aabb, Cylinder, ObjectId, Shape, SpatialObject, Sphere, StructureId, Vec3};

/// Parameters of the neuron-tissue generator.
#[derive(Debug, Clone, Copy)]
pub struct NeuronParams {
    /// Number of neurons in the volume.
    pub neuron_count: usize,
    /// Side length of the cubic tissue block, µm.
    pub bounds_side: f64,
    /// Branching fiber subtrees per neuron.
    pub fibers_per_neuron: usize,
    /// Step budget per fiber subtree (≈ cylinders per subtree).
    pub fiber_steps: usize,
    /// Skeleton step length, µm (= cylinder length).
    pub step_len: f64,
    /// Angular noise per step, radians (fiber tortuosity).
    pub angle_sigma: f64,
    /// Bifurcation probability per step.
    pub bifurcation_prob: f64,
    /// Angle between the two children at a bifurcation, radians.
    pub bifurcation_angle: f64,
    /// Steps a fresh branch grows before it may bifurcate.
    pub min_steps_before_split: usize,
    /// Soma radius, µm.
    pub soma_radius: f64,
    /// Fiber cylinder radius, µm.
    pub fiber_radius: f64,
}

impl Default for NeuronParams {
    fn default() -> Self {
        NeuronParams {
            neuron_count: 1100,
            bounds_side: 300.0,
            fibers_per_neuron: 3,
            fiber_steps: 400,
            step_len: 3.0,
            angle_sigma: 0.35,
            bifurcation_prob: 0.06,
            bifurcation_angle: 1.25,
            min_steps_before_split: 15,
            soma_radius: 8.0,
            fiber_radius: 0.6,
        }
    }
}

impl NeuronParams {
    /// Parameters scaled to approximately `target` objects, keeping the
    /// default volume (used by the Figure 13b density sweep).
    pub fn with_target_objects(target: usize) -> NeuronParams {
        let base = NeuronParams::default();
        let per_neuron = 1 + base.fibers_per_neuron * base.fiber_steps;
        NeuronParams { neuron_count: (target / per_neuron).max(1), ..base }
    }

    /// Approximate number of objects this configuration will generate.
    pub(crate) fn approx_objects(&self) -> usize {
        self.neuron_count * (1 + self.fibers_per_neuron * self.fiber_steps)
    }
}

/// Generates a neuron tissue dataset. Deterministic in `seed`.
pub fn generate_neurons(params: &NeuronParams, seed: u64) -> Dataset {
    assert!(params.neuron_count >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(params.bounds_side));
    let mut guide = GuideGraph::new();
    let mut objects: Vec<SpatialObject> = Vec::with_capacity(params.approx_objects());

    let push = |objects: &mut Vec<SpatialObject>, structure: u32, shape: Shape| {
        let id = ObjectId(objects.len() as u32);
        objects.push(SpatialObject::new(id, StructureId(structure), shape));
    };

    let growth = GrowthParams {
        step_len: params.step_len,
        angle_sigma: params.angle_sigma,
        bifurcation_prob: params.bifurcation_prob,
        bifurcation_angle: params.bifurcation_angle,
        min_steps_before_split: params.min_steps_before_split,
        max_total_steps: params.fiber_steps,
    };

    for neuron in 0..params.neuron_count {
        let soma = point_in_box(
            &mut rng,
            bounds.min + Vec3::splat(params.soma_radius),
            bounds.max - Vec3::splat(params.soma_radius),
        );
        push(&mut objects, neuron as u32, Shape::Sphere(Sphere::new(soma, params.soma_radius)));
        let soma_node = guide.add_node(soma);

        for _ in 0..params.fibers_per_neuron {
            let dir = unit_vector(&mut rng);
            let edges = grow_subtree(&mut guide, &mut rng, soma_node, dir, &growth, &bounds);
            for e in &edges {
                // Radius tapers slightly with depth, like real fibers.
                let taper = 1.0 / (1.0 + 0.002 * e.depth as f64);
                push(
                    &mut objects,
                    neuron as u32,
                    Shape::Cylinder(Cylinder::new(
                        guide.position(e.from),
                        guide.position(e.to),
                        params.fiber_radius * taper * 1.02,
                        params.fiber_radius * taper,
                    )),
                );
            }
        }
    }

    Dataset { domain: Domain::Neuron, objects, bounds, guide, adjacency: None }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> NeuronParams {
        NeuronParams { neuron_count: 5, fiber_steps: 150, ..Default::default() }
    }

    #[test]
    fn generates_expected_scale() {
        let d = generate_neurons(&small(), 42);
        d.validate().expect("invalid dataset");
        assert_eq!(d.domain, Domain::Neuron);
        // 5 neurons x (1 soma + ~3*150 fibers).
        assert!(d.len() > 5 * 400 && d.len() <= 5 * 460, "len = {}", d.len());
        assert!(d.guide.node_count() > 2000);
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_neurons(&small(), 7);
        let b = generate_neurons(&small(), 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.objects.iter().zip(b.objects.iter()) {
            assert_eq!(x.centroid(), y.centroid());
        }
        let c = generate_neurons(&small(), 8);
        // Different seed must move things (probability of collision ~ 0).
        assert!(a.objects[1].centroid() != c.objects[1].centroid());
    }

    #[test]
    fn objects_stay_in_bounds() {
        let d = generate_neurons(&small(), 3);
        for o in &d.objects {
            assert!(
                d.bounds.expanded(d.bounds.extent().x * 0.02).contains_aabb(&o.aabb()),
                "object {:?} leaks: {:?}",
                o.id,
                o.aabb()
            );
        }
    }

    #[test]
    fn fibers_bifurcate() {
        let d = generate_neurons(&small(), 9);
        // Guide graph must contain branch nodes (degree >= 3).
        let branch_nodes =
            (0..d.guide.node_count() as u32).filter(|&n| d.guide.neighbors(n).len() >= 3).count();
        assert!(
            branch_nodes > 5,
            "fibers should bifurcate repeatedly, found {branch_nodes} branch nodes"
        );
    }

    #[test]
    fn fibers_are_jagged() {
        // Mean direction change between consecutive cylinders must be
        // substantial (this is what defeats trajectory extrapolation).
        let d = generate_neurons(&small(), 5);
        let mut total_angle = 0.0;
        let mut count = 0usize;
        for w in d.objects.windows(2) {
            if let (Shape::Cylinder(a), Shape::Cylinder(b)) = (w[0].shape, w[1].shape) {
                if a.b.distance(b.a) < 1e-9 {
                    let da = a.axis().direction().normalized_or_x();
                    let db = b.axis().direction().normalized_or_x();
                    total_angle += da.dot(db).clamp(-1.0, 1.0).acos();
                    count += 1;
                }
            }
        }
        let mean = total_angle / count as f64;
        assert!(mean > 0.1, "fibers too smooth: mean step angle {mean}");
    }

    #[test]
    fn target_objects_close() {
        let p = NeuronParams::with_target_objects(50_000);
        let approx = p.approx_objects();
        assert!(approx as f64 > 40_000.0 && (approx as f64) < 60_000.0, "{approx}");
    }
}
