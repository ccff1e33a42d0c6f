//! The query scratch arena.
//!
//! Every query in a guided sequence rebuilds the same transient
//! structures: the (cell, vertex) pair list grid hashing chains into a CSR
//! adjacency, the edge list, the component labeling, the per-component
//! centroid accumulators of exit detection, and the staged prediction
//! points. Allocating them afresh per query puts the allocator on the hot
//! path the paper measures (Figures 15/16); instead one [`QueryScratch`]
//! per stepping thread is threaded through
//! [`Prefetcher::observe_with_scratch`](crate::prefetcher::Prefetcher::observe_with_scratch),
//! so steady-state queries reuse warmed capacity and perform no heap
//! allocation in the graph-build phase (see DESIGN.md §6).
//!
//! Contents never carry meaning across calls, only capacity does, so the
//! arena belongs to the thread that steps a query, not to a session: any
//! session that thread steps next reuses the same warmed buffers. The
//! buffers are plain flat vectors of primitive data, and `clear` never
//! releases capacity.

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

/// Reusable flat buffers for the query hot path.
///
/// Fields are public: the consumers (the CSR graph build in `scout-core`,
/// exit detection, prediction staging) borrow individual buffers mutably
/// and disjointly. Every consumer clears the buffers it uses on entry;
/// contents never carry meaning across calls, only capacity does.
#[derive(Debug, Clone, Default)]
pub struct QueryScratch {
    /// Per-vertex facts about the current result's objects, written by
    /// the graph build and read by every later phase of the prediction.
    /// Like the rest of the arena it is transient working memory, not
    /// prediction state: `PredictionStats::memory_bytes` does not count it.
    pub frame: ResultFrame,
    /// `(cell, vertex)` pairs grid hashing emits, vertex-major, straight
    /// off the cell walk (CSR build pass 1) and then links into per-cell
    /// chains to find co-located objects.
    pub cell_pairs: Vec<(u32, u32)>,
    /// Directed edge list `(source, target)` of the explicit-adjacency
    /// build. In the grid-hash build: the spare of the reverse index's
    /// radix sort, then the `(vertex, pair before)` chain links, then the
    /// chain pass's meetings sorted by their lower vertex.
    pub edges: Vec<(u32, u32)>,
    /// Connected components: the builds leave union-find parents here
    /// (every set rooted at its lowest vertex), labelling turns them into
    /// one label per vertex.
    pub components: Vec<u32>,
    /// Per-vertex counters (degree histogram / scatter cursors of the
    /// explicit build); per-cell chain heads of the grid-hash build.
    pub counts: Vec<u32>,
    /// Per-component centroid sums (exit-direction smoothing).
    pub centroid_sums: Vec<Vec3>,
    /// Per-component member count and exit-detection steps (one per
    /// member plus one per incident edge).
    pub component_tally: Vec<(u32, u32)>,
    /// Predicted next-query locations staged before they are committed to
    /// the candidate tracker.
    pub predictions: Vec<Vec3>,
    /// Per-component flag: is the component in the candidate set (§4.3).
    pub candidate_flags: Vec<bool>,
    /// Grid-hash chain pass: the last vertex each vertex was met by, so a
    /// neighbour shared through a second cell is counted once.
    pub met_stamp: Vec<u32>,
    /// Grid-hash chain pass: each first meeting `(lower vertex, higher
    /// vertex)`, in the order the higher vertices come.
    pub met_pairs: Vec<(u32, u32)>,
    /// Grid-hash counting sort: the next position of each lower vertex's
    /// meetings in `(lower, higher)` order.
    pub met_cursor: Vec<u32>,
    /// Grid-hash build: backward degree per vertex, then the write cursor
    /// of each row's backward part.
    pub back_cursor: Vec<u32>,
    /// Grid-hash build: forward degree per vertex, then the write cursor of
    /// each row's forward part.
    pub forward_cursor: Vec<u32>,
    /// Sorted copy of the current query's result pages (membership probes
    /// for the adaptive layer's per-source precision accounting).
    pub pages_sorted: Vec<u32>,
    /// Best-first frontier of the Markov top-k extraction:
    /// `(score, prev page, last page)` context entries.
    pub markov_frontier: Vec<(f64, u32, u32)>,
    /// Sorted pages already emitted during one Markov extraction (dedup).
    pub markov_emitted: Vec<u32>,
}

impl QueryScratch {
    /// A fresh arena with no reserved capacity (buffers warm up over the
    /// first queries a thread steps).
    pub const fn new() -> QueryScratch {
        QueryScratch {
            frame: ResultFrame { centroids: Vec::new(), simplified: Vec::new() },
            cell_pairs: Vec::new(),
            edges: Vec::new(),
            components: Vec::new(),
            counts: Vec::new(),
            centroid_sums: Vec::new(),
            component_tally: Vec::new(),
            predictions: Vec::new(),
            candidate_flags: Vec::new(),
            met_stamp: Vec::new(),
            met_pairs: Vec::new(),
            met_cursor: Vec::new(),
            back_cursor: Vec::new(),
            forward_cursor: Vec::new(),
            pages_sorted: Vec::new(),
            markov_frontier: Vec::new(),
            markov_emitted: Vec::new(),
        }
    }

    /// Clears every buffer, retaining capacity.
    #[cfg(test)]
    fn clear(&mut self) {
        self.frame.clear();
        self.cell_pairs.clear();
        self.edges.clear();
        self.components.clear();
        self.counts.clear();
        self.centroid_sums.clear();
        self.component_tally.clear();
        self.predictions.clear();
        self.candidate_flags.clear();
        self.met_stamp.clear();
        self.back_cursor.clear();
        self.forward_cursor.clear();
        self.met_pairs.clear();
        self.met_cursor.clear();
        self.pages_sorted.clear();
        self.markov_frontier.clear();
        self.markov_emitted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_retains_capacity() {
        let mut s = QueryScratch::new();
        s.cell_pairs.extend((0..100).map(|i| (i, i)));
        s.edges.extend((0..50).map(|i| (i, i + 1)));
        s.predictions.push(Vec3::ZERO);
        s.frame.centroids.push(Vec3::ZERO);
        s.frame.simplified.push(Simplified::Point(Vec3::ZERO));
        s.candidate_flags.extend([true; 7]);
        let capacities = |s: &QueryScratch| {
            [
                s.cell_pairs.capacity(),
                s.edges.capacity(),
                s.predictions.capacity(),
                s.frame.centroids.capacity(),
                s.frame.simplified.capacity(),
                s.candidate_flags.capacity(),
            ]
        };
        let cap = capacities(&s);
        s.clear();
        assert!(s.cell_pairs.is_empty() && s.edges.is_empty() && s.predictions.is_empty());
        assert!(s.frame.is_empty() && s.candidate_flags.is_empty());
        assert_eq!(capacities(&s), cap);
    }

    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryScratch>();
    }
}
