//! Plausibility scoring of exits (§5.2).
//!
//! Grid hashing can merge several structures into one candidate component
//! (excess edges, §4.2), giving a single candidate many boundary exits.
//! The structure the user follows, however, passes through the query
//! *center* — the user placed the query on it — so an exit is scored by
//! walking its chain of edges inward from the boundary and measuring how
//! close the walked thread comes to the query center (plus a small
//! direction-agreement term). The walk is ordinary graph traversal and is
//! charged as such.
//!
//! A walk leaves its exit vertex against the exit direction; from its
//! second vertex on, its state — where it stands, where it came from, and
//! the direction it arrived along — is a function of the *directed edge*
//! it just crossed. Hundreds of exits of one query walk into the same few
//! threads, so the successor of each directed edge (one CSR slot) is
//! computed once per query and every later walk follows the memo. Scores
//! and charged steps are those of walking each exit on its own; the
//! un-memoised walk survives as [`crate::reference::exit_score`].

use crate::exits::Exit;
use crate::graph::{ResultGraph, VertexId};
use crate::kmeans::KmeansScratch;
use scout_geometry::Vec3;

/// Working buffers of choosing prefetch locations among the exits (§5.2):
/// scores, the walk memo, the k-means input and state. Owned by the
/// prefetcher and recycled query to query; contents never carry over.
#[derive(Debug, Clone, Default)]
pub struct ScoringScratch {
    /// `(plausibility score, exit index)` per exit — in exit order as
    /// [`score_exits`] leaves them.
    pub scores: Vec<(f64, u32)>,
    /// Per-vertex distance of the object's centroid to the query center.
    dist_to_center: Vec<f64>,
    /// Per CSR slot, the slot a chain walk that arrived along that
    /// directed edge continues through.
    walk_next: Vec<u32>,
    /// Exit locations in score order (the k-means input).
    pub(crate) points: Vec<Vec3>,
    /// K-means buffers.
    pub(crate) kmeans: KmeansScratch,
    /// `(score, cluster, exit index)` of each cluster's most plausible exit.
    pub(crate) cluster_picks: Vec<(f64, u32, u32)>,
}

/// Vertices a chain walk visits at most, its exit vertex included.
const WALK_STEPS: usize = 24;
/// `walk_next` entry of a directed edge no walk has crossed yet.
const UNWALKED: u32 = u32::MAX;
/// `walk_next` entry of a directed edge with no acceptable continuation.
const DEAD_END: u32 = u32::MAX - 1;

/// Scores every exit of one query.
///
/// `centroids` are the result frame's per-vertex centroids, `center` and
/// `side` describe the query region, `movement` is the user's unit
/// movement vector if known. Leaves `(score, exit index)` per exit, in
/// exit order, in `scratch.scores`. Returns the traversal steps spent:
/// one per neighbor of every vertex a walk stands on.
pub fn score_exits(
    graph: &ResultGraph,
    centroids: &[Vec3],
    center: Vec3,
    side: f64,
    movement: Option<Vec3>,
    exits: &[Exit],
    scratch: &mut ScoringScratch,
) -> u64 {
    let ScoringScratch { scores, dist_to_center, walk_next, .. } = scratch;
    debug_assert_eq!(centroids.len(), graph.vertex_count(), "frame describes another result");
    debug_assert!(graph.targets().len() < DEAD_END as usize);
    dist_to_center.clear();
    dist_to_center.extend(centroids.iter().map(|c| c.distance(center)));
    walk_next.clear();
    walk_next.resize(graph.targets().len(), UNWALKED);

    let side = side.max(1e-9);
    let mut steps = 0u64;
    scores.clear();
    for (i, exit) in exits.iter().enumerate() {
        let min_dist = walk(graph, centroids, dist_to_center, walk_next, exit, &mut steps);
        let dir_term = movement.map_or(0.0, |m| 0.2 * exit.dir.dot(m));
        scores.push((-min_dist / side + dir_term, i as u32));
    }
    steps
}

/// Walks inward from `exit` — repeatedly stepping to the neighbor that
/// best continues the incoming direction — and returns the closest
/// approach of the walked vertices to the query center.
fn walk(
    graph: &ResultGraph,
    centroids: &[Vec3],
    dist_to_center: &[f64],
    walk_next: &mut [u32],
    exit: &Exit,
    steps: &mut u64,
) -> f64 {
    let targets = graph.targets();
    let mut cur = exit.vertex;
    let mut min_dist = dist_to_center[cur as usize];
    // First step: against the exit direction, nowhere to come back from.
    *steps += graph.row(cur).len() as u64;
    let Some(mut slot) = continuation(graph, centroids, cur, VertexId::MAX, -exit.dir) else {
        return min_dist;
    };
    let mut prev = cur;
    cur = targets[slot];
    min_dist = min_dist.min(dist_to_center[cur as usize]);
    for _ in 1..WALK_STEPS {
        *steps += graph.row(cur).len() as u64;
        let mut next = walk_next[slot];
        if next == UNWALKED {
            let dir = (centroids[cur as usize] - centroids[prev as usize]).normalized_or_x();
            next = continuation(graph, centroids, cur, prev, dir).map_or(DEAD_END, |s| s as u32);
            walk_next[slot] = next;
        }
        if next == DEAD_END {
            break;
        }
        slot = next as usize;
        prev = cur;
        cur = targets[slot];
        min_dist = min_dist.min(dist_to_center[cur as usize]);
    }
    min_dist
}

/// The CSR slot of the neighbor of `cur` whose direction from `cur` best
/// agrees with `dir` — never `prev`, never one turning more than ~84°
/// away; the first of equally aligned neighbors.
fn continuation(
    graph: &ResultGraph,
    centroids: &[Vec3],
    cur: VertexId,
    prev: VertexId,
    dir: Vec3,
) -> Option<usize> {
    let cur_pos = centroids[cur as usize];
    let targets = graph.targets();
    let mut best: Option<(usize, f64)> = None;
    for slot in graph.row(cur) {
        let nb = targets[slot];
        if nb == prev {
            continue;
        }
        let step = (centroids[nb as usize] - cur_pos).normalized_or_x();
        let align = step.dot(dir);
        if align <= 0.1 {
            continue;
        }
        if best.is_none_or(|(_, a)| align > a) {
            best = Some((slot, align));
        }
    }
    best.map(|(slot, _)| slot)
}
