//! Superseded implementations, kept as executable oracles.
//!
//! [`ReferenceGraph`] is the seed implementation of
//! [`crate::graph::ResultGraph`] verbatim: per-cell `HashMap` entries,
//! per-vertex `Vec` adjacency lists with `contains()`-based edge dedup, and
//! a `HashMap` reverse index. It exists as the property-test oracle:
//! `tests/graph_properties.rs` asserts the CSR build produces identical
//! vertex numbering, edge sets and component labels on random datasets.
//!
//! The free functions are the prediction half as it ran before the result
//! frame: exit detection, candidate continuity, exit scoring and k-means
//! that chase `objects[graph.object_id(v).index()]` per vertex, hash ids
//! and labels, and walk every exit's chain from scratch.
//! `tests/prediction_oracles.rs` asserts the hot path equals them bit for
//! bit.
//!
//! Nothing on a simulation path may use this module.

use scout_geometry::{
    ObjectAdjacency, ObjectId, QueryRegion, Simplification, SpatialObject, UniformGrid, Vec3,
};
use scout_sim::CpuUnits;
use std::collections::{HashMap, HashSet};

use crate::candidates::CandidateTracker;
use crate::exits::{exit_of_object, Exit};
use crate::graph::{ResultGraph, VertexId};
use crate::kmeans::Cluster;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The seed adjacency-list result graph (oracle; see module docs).
#[derive(Debug, Clone, Default)]
pub struct ReferenceGraph {
    object_ids: Vec<ObjectId>,
    adjacency: Vec<Vec<VertexId>>,
    vertex_of: HashMap<ObjectId, VertexId>,
}

impl ReferenceGraph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.object_ids.len()
    }

    /// Number of undirected edges (the seed's O(V) fold, unchanged).
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// The dataset object behind a vertex.
    pub fn object_id(&self, v: VertexId) -> ObjectId {
        self.object_ids[v as usize]
    }

    /// The vertex of a dataset object, if present in this result.
    pub fn vertex_of(&self, o: ObjectId) -> Option<VertexId> {
        self.vertex_of.get(&o).copied()
    }

    /// Neighbors of a vertex, in insertion order.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        &self.adjacency[v as usize]
    }

    fn add_vertex(&mut self, o: ObjectId) -> VertexId {
        let v = self.object_ids.len() as VertexId;
        self.object_ids.push(o);
        self.adjacency.push(Vec::new());
        self.vertex_of.insert(o, v);
        v
    }

    fn add_edge(&mut self, a: VertexId, b: VertexId) -> bool {
        if a == b || self.adjacency[a as usize].contains(&b) {
            return false;
        }
        self.adjacency[a as usize].push(b);
        self.adjacency[b as usize].push(a);
        true
    }

    /// Connected components; returns (component id per vertex, count).
    pub fn components(&self) -> (Vec<u32>, usize) {
        let n = self.vertex_count();
        let mut comp = vec![u32::MAX; n];
        let mut next = 0u32;
        let mut stack = Vec::new();
        for v in 0..n as u32 {
            if comp[v as usize] != u32::MAX {
                continue;
            }
            comp[v as usize] = next;
            stack.push(v);
            while let Some(u) = stack.pop() {
                for &w in self.neighbors(u) {
                    if comp[w as usize] == u32::MAX {
                        comp[w as usize] = next;
                        stack.push(w);
                    }
                }
            }
            next += 1;
        }
        (comp, next as usize)
    }

    /// The seed grid-hashing build (§4.2): per-cell `HashMap` member
    /// lists, `contains()` edge dedup.
    pub fn grid_hash(
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        resolution: u32,
        simplification: scout_geometry::Simplification,
    ) -> (ReferenceGraph, CpuUnits) {
        let mut graph = ReferenceGraph::default();
        let mut units = CpuUnits::default();
        if result_ids.is_empty() {
            return (graph, units);
        }
        let grid = UniformGrid::with_resolution(*region.aabb(), resolution);
        // cell id -> vertices mapped to it
        let mut cells: HashMap<u32, Vec<VertexId>> = HashMap::new();
        let mut scratch: Vec<u32> = Vec::new();
        for &oid in result_ids {
            let v = graph.add_vertex(oid);
            units.graph_object_inserts += 1;
            let simplified = objects[oid.index()].shape.simplified(simplification);
            scratch.clear();
            grid.cells_for_simplified(&simplified, &mut scratch);
            scratch.sort_unstable();
            scratch.dedup();
            for &c in &scratch {
                cells.entry(c).or_default().push(v);
            }
        }
        // Connect objects sharing a cell.
        for members in cells.values() {
            for i in 0..members.len() {
                for j in (i + 1)..members.len() {
                    if graph.add_edge(members[i], members[j]) {
                        units.graph_edge_inserts += 1;
                    }
                }
            }
        }
        (graph, units)
    }

    /// The seed explicit-adjacency build (§4.1).
    pub fn from_explicit(
        adjacency: &ObjectAdjacency,
        result_ids: &[ObjectId],
    ) -> (ReferenceGraph, CpuUnits) {
        let mut graph = ReferenceGraph::default();
        let mut units = CpuUnits::default();
        for &oid in result_ids {
            graph.add_vertex(oid);
            units.graph_object_inserts += 1;
        }
        for &oid in result_ids {
            let v = graph.vertex_of(oid).expect("vertex was just added");
            for &nb in adjacency.neighbors(oid) {
                if let Some(w) = graph.vertex_of(nb) {
                    if graph.add_edge(v, w) {
                        units.graph_edge_inserts += 1;
                    }
                }
            }
        }
        (graph, units)
    }
}

/// Exit detection straight off the dataset array: every vertex's object is
/// loaded once for the component centroids and once more for its exit.
/// Oracle of [`crate::exits::find_exits_into`]; returns the exits and the
/// traversal steps.
pub fn find_exits(
    objects: &[SpatialObject],
    graph: &ResultGraph,
    component_of: &[u32],
    region: &QueryRegion,
    components_filter: Option<&HashSet<u32>>,
    simplification: Simplification,
) -> (Vec<Exit>, u64) {
    let mut out = Vec::new();
    let mut steps: u64 = 0;
    let comp_count = component_of.iter().copied().max().map_or(0, |m| m as usize + 1);
    let mut centroid_sum = vec![Vec3::ZERO; comp_count];
    let mut centroid_n = vec![0u32; comp_count];
    for v in 0..graph.vertex_count() as VertexId {
        let comp = component_of[v as usize] as usize;
        centroid_sum[comp] += objects[graph.object_id(v).index()].centroid();
        centroid_n[comp] += 1;
    }
    for v in 0..graph.vertex_count() as VertexId {
        let comp = component_of[v as usize];
        if let Some(filter) = components_filter {
            if !filter.contains(&comp) {
                continue;
            }
        }
        steps += 1 + graph.neighbors(v).len() as u64;
        let oid = graph.object_id(v);
        if let Some((point, local_dir)) =
            exit_of_object(&objects[oid.index()], region, simplification)
        {
            let centroid = centroid_sum[comp as usize] / centroid_n[comp as usize].max(1) as f64;
            let chord = (point - centroid).normalized().unwrap_or(local_dir);
            let dir = if chord.dot(local_dir) > 0.0 {
                (local_dir * 0.4 + chord * 0.6).normalized_or_x()
            } else {
                local_dir
            };
            out.push(Exit { point, dir, vertex: v, component: comp });
        }
    }
    (out, steps)
}

/// Candidate continuity by hashing: every vertex id against the previous
/// exit set, continuing components collected in a `HashSet`. Oracle of
/// [`CandidateTracker::continuing_components`]; returns the continuing
/// components and the pruning steps.
pub fn continuing_components(
    tracker: &CandidateTracker,
    objects: &[SpatialObject],
    graph: &ResultGraph,
    component_of: &[u32],
    tolerance: f64,
) -> (HashSet<u32>, u64) {
    let mut set = HashSet::new();
    let mut steps: u64 = 0;
    if tracker.is_empty() {
        return (set, steps);
    }
    for v in 0..graph.vertex_count() as u32 {
        steps += 1;
        if tracker.previous_exit_objects().contains(&graph.object_id(v)) {
            set.insert(component_of[v as usize]);
        }
    }
    if set.is_empty() && !tracker.previous_predictions().is_empty() {
        for v in 0..graph.vertex_count() as u32 {
            let c = objects[graph.object_id(v).index()].centroid();
            for p in tracker.previous_predictions() {
                steps += 1;
                if c.distance(*p) <= tolerance {
                    set.insert(component_of[v as usize]);
                    break;
                }
            }
        }
    }
    (set, steps)
}

/// One exit's plausibility by an un-memoised chain walk over the dataset
/// array: up to 24 scans, each loading the centroid of every neighbor.
/// Oracle of [`crate::scoring::score_exits`]; adds the traversal steps to
/// `steps_out`.
pub fn exit_score(
    graph: &ResultGraph,
    objects: &[SpatialObject],
    center: Vec3,
    side: f64,
    movement: Option<Vec3>,
    exit: &Exit,
    steps_out: &mut u64,
) -> f64 {
    let side = side.max(1e-9);
    let mut cur = exit.vertex;
    let mut dir = -exit.dir; // walking inward
    let mut min_dist = objects[graph.object_id(cur).index()].centroid().distance(center);
    let mut prev = u32::MAX;
    for _ in 0..24 {
        let cur_pos = objects[graph.object_id(cur).index()].centroid();
        let mut best: Option<(u32, f64, Vec3)> = None;
        for &nb in graph.neighbors(cur) {
            *steps_out += 1;
            if nb == prev {
                continue;
            }
            let nb_pos = objects[graph.object_id(nb).index()].centroid();
            let step = (nb_pos - cur_pos).normalized_or_x();
            let align = step.dot(dir);
            if align <= 0.1 {
                continue;
            }
            if best.is_none_or(|(_, a, _)| align > a) {
                best = Some((nb, align, step));
            }
        }
        let Some((nb, _, step)) = best else { break };
        prev = cur;
        cur = nb;
        dir = step;
        let d = objects[graph.object_id(cur).index()].centroid().distance(center);
        min_dist = min_dist.min(d);
    }
    let dir_term = match movement {
        Some(m) => 0.2 * exit.dir.dot(m),
        None => 0.0,
    };
    -min_dist / side + dir_term
}

/// Lloyd's k-means with k-means++ seeding as first written: seeding
/// re-derives every point's nearest centroid each round, the assignment
/// evaluates each distance twice inside `min_by`, buffers are allocated
/// per call and per iteration. Oracle of `crate::kmeans::kmeans_into`.
pub fn kmeans(points: &[Vec3], k: usize, seed: u64, iterations: usize) -> Vec<Cluster> {
    if points.is_empty() || k == 0 {
        return Vec::new();
    }
    let k = k.min(points.len());
    let mut rng = SmallRng::seed_from_u64(seed);

    let mut centroids: Vec<Vec3> = Vec::with_capacity(k);
    centroids.push(points[rng.random_range(0..points.len())]);
    while centroids.len() < k {
        let d2: Vec<f64> = points
            .iter()
            .map(|p| centroids.iter().map(|c| p.distance_sq(*c)).fold(f64::INFINITY, f64::min))
            .collect();
        let total: f64 = d2.iter().sum();
        if total <= 0.0 {
            break;
        }
        let mut pick = rng.random::<f64>() * total;
        let mut chosen = points.len() - 1;
        for (i, &d) in d2.iter().enumerate() {
            if pick <= d {
                chosen = i;
                break;
            }
            pick -= d;
        }
        centroids.push(points[chosen]);
    }

    let mut assignment = vec![0usize; points.len()];
    for _ in 0..iterations.max(1) {
        let mut changed = false;
        for (i, p) in points.iter().enumerate() {
            let best = centroids
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| p.distance_sq(**a).total_cmp(&p.distance_sq(**b)))
                .map(|(j, _)| j)
                .expect("at least one centroid");
            if assignment[i] != best {
                assignment[i] = best;
                changed = true;
            }
        }
        let mut sums = vec![Vec3::ZERO; centroids.len()];
        let mut counts = vec![0usize; centroids.len()];
        for (i, p) in points.iter().enumerate() {
            sums[assignment[i]] += *p;
            counts[assignment[i]] += 1;
        }
        for (j, c) in centroids.iter_mut().enumerate() {
            if counts[j] > 0 {
                *c = sums[j] / counts[j] as f64;
            }
        }
        if !changed {
            break;
        }
    }

    let mut clusters: Vec<Cluster> =
        centroids.iter().map(|&centroid| Cluster { centroid, members: Vec::new() }).collect();
    for (i, &a) in assignment.iter().enumerate() {
        clusters[a].members.push(i);
    }
    clusters.retain(|c| !c.members.is_empty());
    clusters
}
