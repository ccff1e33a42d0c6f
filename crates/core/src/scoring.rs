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
//!
//! The directions a walk compares are normalised once per query, not once
//! per look: a first pass writes every slot's centroid difference into
//! three per-slot lanes (so each row's directions lie contiguous), and a
//! second, branch-free pass normalises all of them — each exactly the
//! `normalized_or_x` the un-memoised walk computes at that slot. The scan
//! that picks a continuation is branch-free too: on a walk's data every
//! branch in it is a coin toss.

use crate::exits::Exit;
use crate::graph::{ResultGraph, VertexId};
use crate::kmeans::KmeansScratch;
use scout_geometry::Vec3;
use std::hint::select_unpredictable;

/// Working buffers of choosing prefetch locations among the exits (§5.2):
/// scores, slot directions, the walk memo, the k-means input and state.
/// Owned by the prefetcher and recycled query to query; contents never
/// carry over.
#[derive(Debug, Clone, Default)]
pub struct ScoringScratch {
    /// `(plausibility score, exit index)` per exit — in exit order as
    /// [`score_exits`] leaves them.
    pub scores: Vec<(f64, u32)>,
    /// Per CSR slot, the unit direction from the row's vertex to the
    /// slot's target, as x, y and z lanes. Only ever grown: each query
    /// overwrites the prefix its graph uses, and reads nothing past it.
    units: [Vec<f64>; 3],
    /// Per CSR slot, the slot a chain walk that arrived along that
    /// directed edge continues through; before the walks, the vertex whose
    /// row holds the slot.
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
    let ScoringScratch { scores, units, walk_next, .. } = scratch;
    debug_assert_eq!(centroids.len(), graph.vertex_count(), "frame describes another result");
    debug_assert!(graph.targets().len() < DEAD_END as usize);
    slot_units(graph, centroids, walk_next, units);
    walk_next.clear();
    walk_next.resize(graph.targets().len(), UNWALKED);

    let side = side.max(1e-9);
    let mut steps = 0u64;
    scores.clear();
    for (i, exit) in exits.iter().enumerate() {
        let min_dist = walk(graph, centroids, center, units, walk_next, exit, &mut steps);
        let dir_term = movement.map_or(0.0, |m| 0.2 * exit.dir.dot(m));
        scores.push((-min_dist / side + dir_term, i as u32));
    }
    steps
}

/// Fills `units` with `(centroids[target] − centroids[v]).normalized_or_x()`
/// for every slot of every row `v`, in three flat loops — a loop per row
/// would pay a mispredicted exit per row, more than the arithmetic of its
/// three or four slots. The slot owners come from marking each row's first
/// slot and summing the marks; then the differences; then one straight,
/// vectorised pass of square roots and divisions with the `+x` fallback
/// selected, not branched to.
fn slot_units(
    graph: &ResultGraph,
    centroids: &[Vec3],
    owner: &mut Vec<u32>,
    units: &mut [Vec<f64>; 3],
) {
    let targets = graph.targets();
    let len = targets.len();
    owner.clear();
    owner.resize(len + 1, 0);
    for v in 0..centroids.len() as VertexId {
        owner[graph.row(v).start] += 1;
    }
    owner.truncate(len);
    let mut rows = 0u32;
    for o in owner.iter_mut() {
        rows += *o;
        *o = rows - 1;
    }
    for lane in units.iter_mut() {
        if lane.len() < len {
            lane.resize(len, 0.0);
        }
    }
    let [ux, uy, uz] = units;
    let (ux, uy, uz) = (&mut ux[..len], &mut uy[..len], &mut uz[..len]);
    for s in 0..len {
        let d = centroids[targets[s] as usize] - centroids[owner[s] as usize];
        [ux[s], uy[s], uz[s]] = [d.x, d.y, d.z];
    }
    for s in 0..len {
        let (x, y, z) = (ux[s], uy[s], uz[s]);
        let norm = (x * x + y * y + z * z).sqrt();
        let degenerate = norm <= f64::EPSILON;
        ux[s] = if degenerate { 1.0 } else { x / norm };
        uy[s] = if degenerate { 0.0 } else { y / norm };
        uz[s] = if degenerate { 0.0 } else { z / norm };
    }
}

/// Walks inward from `exit` — repeatedly stepping to the neighbor that
/// best continues the incoming direction — and returns the closest
/// approach of the walked vertices to `center`: the root of the least
/// squared distance, which is the least distance bit for bit (`sqrt` is
/// monotone and correctly rounded).
fn walk(
    graph: &ResultGraph,
    centroids: &[Vec3],
    center: Vec3,
    units: &[Vec<f64>; 3],
    walk_next: &mut [u32],
    exit: &Exit,
    steps: &mut u64,
) -> f64 {
    let targets = graph.targets();
    let dist_sq = |v: VertexId| centroids[v as usize].distance_sq(center);
    let mut cur = exit.vertex;
    let mut min_sq = dist_sq(cur);
    // First step: against the exit direction, nowhere to come back from.
    *steps += graph.row(cur).len() as u64;
    let mut slot = continuation(graph, units, cur, VertexId::MAX, -exit.dir);
    if slot == DEAD_END {
        return min_sq.sqrt();
    }
    let mut prev = cur;
    cur = targets[slot as usize];
    min_sq = min_sq.min(dist_sq(cur));
    for _ in 1..WALK_STEPS {
        *steps += graph.row(cur).len() as u64;
        let mut next = walk_next[slot as usize];
        if next == UNWALKED {
            let s = slot as usize;
            let dir = Vec3::new(units[0][s], units[1][s], units[2][s]);
            next = continuation(graph, units, cur, prev, dir);
            walk_next[s] = next;
        }
        if next == DEAD_END {
            break;
        }
        slot = next;
        prev = cur;
        cur = targets[slot as usize];
        min_sq = min_sq.min(dist_sq(cur));
    }
    min_sq.sqrt()
}

/// The CSR slot of the neighbor of `cur` whose direction from `cur` best
/// agrees with `dir` — never `prev`, never one turning more than ~84°
/// away; the first of equally aligned neighbors — or [`DEAD_END`].
///
/// A first-maximum scan with no branch in it (for finite centroids): the
/// bar starts at the 0.1 floor, a slot takes it only by beating it
/// strictly, and `prev`'s slot is scaled to zero — by `min(nb ^ prev, 1)`
/// as a float, since a compare-and-select on it compiles to a branch —
/// so it cannot beat the floor.
fn continuation(
    graph: &ResultGraph,
    units: &[Vec<f64>; 3],
    cur: VertexId,
    prev: VertexId,
    dir: Vec3,
) -> u32 {
    let row = graph.row(cur);
    let targets = &graph.targets()[row.clone()];
    let [ux, uy, uz] = units.each_ref().map(|lane| &lane[row.clone()]);
    let mut best = 0.1;
    let mut pick = DEAD_END;
    for (i, &nb) in targets.iter().enumerate() {
        let align = ux[i] * dir.x + uy[i] * dir.y + uz[i] * dir.z;
        let align = align * f64::from(nb ^ prev).min(1.0);
        let take = align > best;
        // A compare-and-select on the same two floats: one `maxsd`.
        best = if take { align } else { best };
        pick = select_unpredictable(take, (row.start + i) as u32, pick);
    }
    pick
}
