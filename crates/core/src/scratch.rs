//! SCOUT's part of the stepping thread's query scratch arena.
//!
//! The graph build and the prediction that follows it work in the flat
//! buffers of one [`ScoutScratch`], which they fetch with
//! [`QueryScratch::part`](scout_sim::QueryScratch::part): a warmed thread
//! rebuilds a graph every query without touching the allocator
//! (DESIGN.md §6). Contents never carry meaning across calls, only
//! capacity does.

use crate::graph::Chain;
use scout_geometry::{ObjectId, Simplification, Simplified, SpatialObject, Vec3};

/// What one query's prediction needs to know about each result object,
/// gathered in the one loop that loads the object record: the graph
/// build's pass 1 (DESIGN.md §6, "Result frame"). Indexed by result
/// vertex. Everything downstream of the build — exit detection, candidate
/// proximity, exit scoring — reads these two flat arrays instead of
/// chasing `objects[graph.object_id(v).index()]` into the dataset array
/// once per phase.
#[derive(Debug, Clone, Default)]
pub struct ResultFrame {
    /// Centroid of each result object.
    pub centroids: Vec<Vec3>,
    /// Each result object's §4.2 simplification, as the grid hashed it.
    pub simplified: Vec<Simplified>,
}

impl ResultFrame {
    /// Number of result objects gathered.
    pub fn len(&self) -> usize {
        self.centroids.len()
    }

    /// True when nothing has been gathered.
    pub fn is_empty(&self) -> bool {
        self.centroids.is_empty()
    }

    /// Empties the frame, retaining capacity.
    pub fn clear(&mut self) {
        self.centroids.clear();
        self.simplified.clear();
    }

    /// Makes room for `additional` more objects.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.centroids.reserve(additional);
        self.simplified.reserve(additional);
    }

    /// Appends one object's facts and hands back its simplification (what
    /// the caller is about to hash).
    #[inline]
    pub fn push(&mut self, object: &SpatialObject, simplification: Simplification) -> Simplified {
        let simplified = object.shape.simplified(simplification);
        self.centroids.push(object.centroid());
        self.simplified.push(simplified);
        simplified
    }

    /// Refills the frame from a result-id list — for builds that have no
    /// per-object loop of their own to ride along with (the explicit
    /// adjacency build).
    pub fn gather(
        &mut self,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        simplification: Simplification,
    ) {
        self.clear();
        for &oid in result_ids {
            self.push(&objects[oid.index()], simplification);
        }
    }
}

/// The graph build's and the prediction's buffers. Every consumer clears
/// the buffers it uses on entry.
#[derive(Default)]
pub struct ScoutScratch {
    /// Per-vertex facts about the current result's objects, written by the
    /// graph build and read by every later phase of the prediction. Working
    /// memory, not prediction state: `PredictionStats::memory_bytes` skips it.
    pub frame: ResultFrame,
    /// `(cell, vertex)` pairs, vertex-major, that the chain pass links into
    /// per-cell chains: grid hashing emits them off the cell walk, the
    /// explicit build as one two-object cell per adjacency entry.
    pub cell_pairs: Vec<(u32, u32)>,
    /// The builds leave union-find parents here (every set rooted at its
    /// lowest vertex); labelling turns them into one label per vertex.
    pub components: Vec<u32>,
    /// The reverse index's radix-sort spare; the explicit build's pairs
    /// sorted by vertex.
    pub(crate) edges: Vec<(u32, u32)>,
    /// The chain pass's state (heads, links, stamps, degrees, meetings).
    pub(crate) chain: Chain,
    /// Where each lower vertex's meetings go in `(lower, higher)` order;
    /// the explicit build's per-vertex pair counts before that.
    pub(crate) met_cursor: Vec<u32>,
    /// Per-component centroid sums (exit-direction smoothing).
    pub(crate) centroid_sums: Vec<Vec3>,
    /// Per-component member count and exit-detection steps.
    pub(crate) component_tally: Vec<(u32, u32)>,
    /// Per-component flag: is the component in the candidate set (§4.3).
    pub(crate) candidate_flags: Vec<bool>,
    /// Predicted next-query locations staged for the candidate tracker.
    pub(crate) predictions: Vec<Vec3>,
}
