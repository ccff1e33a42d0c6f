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
//!
//! ## Generated on every core
//!
//! Neurons are grown one after another from one generator, yet they are
//! grown in parallel, bit for bit. Two facts make that exact:
//!
//! - A neuron's draws depend only on drawn values, never on geometry. Each
//!   rejection loop tests only what it drew (the normal sample's `u1`, the
//!   unit vector's norm); reflection and clamping draw nothing; the
//!   bifurcation test compares one draw with a constant, gated by a step
//!   count.
//! - Every fiber subtree spends its whole `fiber_steps` budget, so neuron
//!   `k` always owns objects and guide nodes `k·(1 + F·S) ..`, for `F`
//!   fibers of `S` steps ([`NeuronParams::object_count`] is exact).
//!
//! So generation is two passes through one growth code path
//! (`grow_neuron`, generic over the skeleton's `Sink`). A draw-only pass,
//! whose sink places nothing and computes no geometry, records the
//! generator's state at the start of every neuron (about 10 ms at 1.3 M
//! objects). Then the neurons are split in contiguous ranges over one
//! scoped thread per core (`scout_geometry::split`); each part grows its
//! neurons from their recorded states straight into its slices of the
//! object, node-position and node-parent arrays, which the caller
//! allocated at their exact lengths, and checks after every neuron that its
//! generator equals the next neuron's recorded state. The guide's rows are
//! built from the parents on the caller: a neuron is a tree, so a parent a
//! node is all its edges, in half the memory of an edge list. One thread is
//! the serial generator; fewer than [`MIN_NEURONS_PER_THREAD`] neurons a
//! thread spawn nothing, and a helper allocates nothing (its tip queue is
//! reserved by the caller).

use crate::dataset::{Dataset, Domain};
use crate::guide::{GuideGraph, GuideNodeId};
use crate::rng_util::{point_in_box, unit_vector, Turn};
use crate::skeleton::{advance, fork, grow_subtree, Draws, GrowthParams, Sink, Tips};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scout_geometry::split::{join_parts, ranges, split_lengths, width};
use scout_geometry::{Aabb, Cylinder, ObjectId, Shape, SpatialObject, Sphere, StructureId, Vec3};
use std::ops::Range;

/// Neurons a thread must have before generation spreads to one more. A
/// default neuron (1 201 objects) grows in about 0.3 ms on one core, so 16
/// take some eighty times a thread's spawn and join.
const MIN_NEURONS_PER_THREAD: usize = 16;

/// Parameters of the neuron-tissue generator.
#[derive(Debug, Clone, Copy)]
pub struct NeuronParams {
    /// Number of neurons in the volume.
    pub neuron_count: usize,
    /// Side length of the cubic tissue block, µm.
    pub bounds_side: f64,
    /// Branching fiber subtrees per neuron.
    pub fibers_per_neuron: usize,
    /// Step budget per fiber subtree (= cylinders per subtree).
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
        NeuronParams { neuron_count: (target / base.objects_per_neuron()).max(1), ..base }
    }

    /// Number of objects this configuration generates: a soma and one
    /// cylinder per fiber step, for every neuron. Exact, since every fiber
    /// subtree spends its whole step budget.
    pub(crate) fn object_count(&self) -> usize {
        self.neuron_count * self.objects_per_neuron()
    }

    /// Objects, and guide nodes, of one neuron.
    fn objects_per_neuron(&self) -> usize {
        1 + self.fibers_per_neuron * self.fiber_steps
    }

    /// The tissue block.
    fn bounds(&self) -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::splat(self.bounds_side))
    }

    /// How each fiber subtree grows.
    fn growth(&self) -> GrowthParams {
        GrowthParams {
            angle_sigma: self.angle_sigma,
            bifurcation_prob: self.bifurcation_prob,
            bifurcation_angle: self.bifurcation_angle,
            min_steps_before_split: self.min_steps_before_split,
            max_total_steps: self.fiber_steps,
        }
    }
}

/// Generates a neuron tissue dataset. Deterministic in `seed`, and the same
/// on any number of cores (module docs).
pub fn generate_neurons(params: &NeuronParams, seed: u64) -> Dataset {
    generate_neurons_on(params, seed, width(params.neuron_count, MIN_NEURONS_PER_THREAD))
}

/// [`generate_neurons`] on `threads` threads (at least one), whatever the
/// size.
pub(crate) fn generate_neurons_on(params: &NeuronParams, seed: u64, threads: usize) -> Dataset {
    assert!(params.neuron_count >= 1);
    let n = params.neuron_count;
    let tip_bound = params.fiber_steps + 1;

    // The draw-only pass: each neuron's starting state, then the last's end.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut tips = Tips::with_capacity(tip_bound);
    let mut starts = Vec::with_capacity(n + 1);
    for _ in 0..n {
        starts.push(rng.clone());
        grow_neuron(&mut Draws, &mut rng, params, &mut tips);
    }
    starts.push(rng);

    let per_neuron = params.objects_per_neuron();
    let unset = SpatialObject::new(ObjectId(0), StructureId(0), Shape::Point(Vec3::ZERO));
    let mut objects = vec![unset; params.object_count()];
    let mut positions = vec![Vec3::ZERO; params.object_count()];
    let mut parents = vec![0 as GuideNodeId; params.object_count()];
    let parts: Vec<Range<usize>> = ranges(n, threads).collect();
    let mut queues: Vec<Tips<Vec3>> =
        parts.iter().map(|_| Tips::with_capacity(tip_bound)).collect();
    let lens = |per: usize| parts.iter().map(move |neurons| neurons.len() * per);
    let slices = split_lengths(&mut objects, lens(per_neuron))
        .zip(split_lengths(&mut positions, lens(per_neuron)))
        .zip(split_lengths(&mut parents, lens(per_neuron)));
    join_parts(parts.iter().zip(slices).zip(&mut queues), |((neurons, slices), tips)| {
        let ((objects, positions), parents) = slices;
        let base = (neurons.start * per_neuron) as GuideNodeId;
        let mut tissue = Tissue::new(params, base, objects, positions, parents);
        let mut rng = starts[neurons.start].clone();
        for k in neurons.clone() {
            tissue.neuron = StructureId(k as u32);
            grow_neuron(&mut tissue, &mut rng, params, tips);
            assert_eq!(rng, starts[k + 1], "neuron {k} drew other than its draw-only pass did");
        }
        // Every slot was written: no placeholder is left.
        assert_eq!(tissue.nodes, tissue.positions.len());
    });

    let guide = GuideGraph::from_forest(positions, parents);
    Dataset { domain: Domain::Neuron, objects, bounds: params.bounds(), guide, adjacency: None }
}

/// Grows one neuron into `sink`: its soma at a uniform point of the block
/// (inset by the soma radius), then each fiber subtree from it in turn,
/// on a uniform direction. Both passes of [`generate_neurons_on`] run it.
fn grow_neuron<S: Sink>(
    sink: &mut S,
    rng: &mut StdRng,
    params: &NeuronParams,
    tips: &mut Tips<S::Heading>,
) {
    let bounds = params.bounds();
    let inset = Vec3::splat(params.soma_radius);
    let soma = sink.root(point_in_box(rng, bounds.min + inset, bounds.max - inset));
    let growth = params.growth();
    for _ in 0..params.fibers_per_neuron {
        let dir = unit_vector(rng);
        grow_subtree(sink, rng, (soma, dir), &growth, tips);
    }
}

/// One part's neurons, written in place into the slices of the object,
/// node-position and node-parent arrays they own. An object's id is its
/// guide node's: a soma is its neuron's first node (and root), a fiber
/// cylinder the node its step adds (hanging from the node it steps from).
struct Tissue<'a> {
    params: &'a NeuronParams,
    bounds: Aabb,
    /// The id of the part's first node.
    base: GuideNodeId,
    /// The neuron being grown.
    neuron: StructureId,
    objects: &'a mut [SpatialObject],
    positions: &'a mut [Vec3],
    parents: &'a mut [GuideNodeId],
    /// Nodes written so far.
    nodes: usize,
}

impl<'a> Tissue<'a> {
    fn new(
        params: &'a NeuronParams,
        base: GuideNodeId,
        objects: &'a mut [SpatialObject],
        positions: &'a mut [Vec3],
        parents: &'a mut [GuideNodeId],
    ) -> Tissue<'a> {
        let bounds = params.bounds();
        let neuron = StructureId(0);
        Tissue { params, bounds, base, neuron, objects, positions, parents, nodes: 0 }
    }

    /// Writes the next node at `pos`, hanging from `parent` (a root when
    /// none), with its object, and returns its id.
    fn place(&mut self, pos: Vec3, parent: Option<GuideNodeId>, shape: Shape) -> GuideNodeId {
        let id = self.base + self.nodes as GuideNodeId;
        self.positions[self.nodes] = pos;
        self.parents[self.nodes] = parent.unwrap_or(id);
        self.objects[self.nodes] = SpatialObject::new(ObjectId(id), self.neuron, shape);
        self.nodes += 1;
        id
    }
}

impl Sink for Tissue<'_> {
    type Heading = Vec3;

    fn heading(dir: Vec3) -> Vec3 {
        dir.normalized_or_x()
    }

    fn root(&mut self, pos: Vec3) -> GuideNodeId {
        self.place(pos, None, Shape::Sphere(Sphere::new(pos, self.params.soma_radius)))
    }

    fn step(
        &mut self,
        from: GuideNodeId,
        dir: Vec3,
        turn: Option<Turn>,
        depth: u32,
    ) -> (GuideNodeId, Vec3) {
        let pos = self.positions[(from - self.base) as usize];
        let (next, d) = advance(pos, dir, turn, self.params.step_len, &self.bounds);
        // Radius tapers slightly with depth, like real fibers.
        let radius = self.params.fiber_radius * (1.0 / (1.0 + 0.002 * depth as f64));
        let cylinder = Cylinder::new(pos, next, radius * 1.02, radius);
        (self.place(next, Some(from), Shape::Cylinder(cylinder)), d)
    }

    fn fork(dir: Vec3, phi: f64, half_angle: f64) -> (Vec3, Vec3) {
        fork(dir, phi, half_angle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn small() -> NeuronParams {
        NeuronParams { neuron_count: 5, fiber_steps: 150, ..Default::default() }
    }

    #[test]
    fn digest_is_pinned() {
        // Recorded from the generator as first written: a changed draw
        // order or growth step moves it, which two same-code runs cannot.
        let d = generate_neurons(&small(), 42);
        assert_eq!((d.len(), d.digest()), (2255, 0x0fa4_742e_df2d_06b2));
    }

    #[test]
    fn guide_is_pinned() {
        // Recorded before the guide's adjacency moved to one CSR array:
        // node positions, edges and each row's order are unchanged.
        let g = generate_neurons(&small(), 42).guide;
        assert_eq!(
            (g.node_count(), g.edge_count(), g.digest()),
            (2255, 2250, 0x369c_5a6f_7a2f_1299)
        );
    }

    #[test]
    fn neurons_are_pinned() {
        // A bed that splits: 33 neurons, two or more threads' worth.
        // Recorded on the serial generator before generation split.
        let params = NeuronParams::with_target_objects(40_000);
        for d in [generate_neurons(&params, 42), generate_neurons_on(&params, 42, 2)] {
            let g = &d.guide;
            assert_eq!((d.len(), d.digest()), (39_633, 0x3ea4_43ac_90d1_35d4));
            assert_eq!(
                (g.node_count(), g.edge_count(), g.digest()),
                (39_633, 39_600, 0x6323_42ed_0fe4_ac84)
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // Neurons grown in parallel from the states the draw-only pass
        // recorded are the single-thread generator's, bit for bit: every
        // object, node position and guide row. The draws reach the corners
        // the draw-only argument rests on: subtrees of no steps, branches
        // that split at their first step or at every one or never, still
        // and jagged headings, and blocks small enough that most steps
        // reflect.
        #[test]
        fn neurons_equal_the_serial_generator_at_every_width(
            seed in 0u64..u64::MAX,
            neuron_count in 1usize..=80,
            fibers_per_neuron in 1usize..=4,
            fiber_steps in prop_oneof![Just(0usize), 1usize..=60],
            min_steps_before_split in prop_oneof![Just(0usize), 1usize..=20],
            bifurcation_prob in prop_oneof![Just(0.0), Just(1.0), 0.0..1.0],
            angle_sigma in prop_oneof![Just(0.0), 0.0..1.5],
            bounds_side in 20.0..300.0,
        ) {
            let params = NeuronParams {
                neuron_count,
                fibers_per_neuron,
                fiber_steps,
                min_steps_before_split,
                bifurcation_prob,
                angle_sigma,
                bounds_side,
                ..NeuronParams::default()
            };
            let serial = generate_neurons_on(&params, seed, 1);
            prop_assert_eq!(serial.len(), params.object_count());
            let guide = serial.guide.digest();
            for threads in [2, 3, 8] {
                let wide = generate_neurons_on(&params, seed, threads);
                // The guide digest holds every position's bits; each object
                // is made of two of them.
                prop_assert!(wide.objects == serial.objects, "{} threads", threads);
                prop_assert_eq!(wide.guide.digest(), guide, "{} threads", threads);
            }
        }
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
        let count = p.object_count();
        assert!(count as f64 > 40_000.0 && (count as f64) < 60_000.0, "{count}");
        assert_eq!(generate_neurons(&p, 1).len(), count);
    }
}
