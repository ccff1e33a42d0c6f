//! The per-session query scratch arena.
//!
//! Every query in a guided sequence rebuilds the same transient
//! structures: the (cell, vertex) pair list grid hashing chains into a CSR
//! adjacency, the edge list, the component labeling, the per-component
//! centroid accumulators of exit detection, and the staged prediction
//! points. Allocating them afresh per query puts the allocator on the hot
//! path the paper measures (Figures 15/16); instead each
//! [`Session`](crate::session::Session) owns one [`QueryScratch`] for its
//! whole lifetime and threads it through
//! [`Prefetcher::observe_with_scratch`](crate::prefetcher::Prefetcher::observe_with_scratch),
//! so steady-state queries reuse warmed capacity and perform no heap
//! allocation in the graph-build phase (see DESIGN.md §6).
//!
//! The buffers are plain flat vectors of primitive data — the arena is
//! `Send`, migrates onto worker threads with its session, and its `clear`
//! never releases capacity.

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
    /// adjacency build and the incremental repair).
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

    /// Appends another frame's entries (fork-join parts are concatenated
    /// in part order, like their pair lists).
    pub fn append(&mut self, part: &ResultFrame) {
        self.centroids.extend_from_slice(&part.centroids);
        self.simplified.extend_from_slice(&part.simplified);
    }

    /// Bytes of reserved capacity.
    pub fn capacity_bytes(&self) -> usize {
        self.centroids.capacity() * std::mem::size_of::<Vec3>()
            + self.simplified.capacity() * std::mem::size_of::<Simplified>()
    }
}

/// Per-worker staging buffers for the parallel grid-hash build passes.
///
/// Each pool part owns exactly one `WorkerScratch` for the duration of a
/// [`WorkerPool::run`](crate::pool::WorkerPool::run), so the parallel
/// passes stay allocation-free in steady state just like the serial path:
/// capacity warms over the first builds and `clear`/`resize` reuse it.
#[derive(Debug, Clone, Default)]
pub struct WorkerScratch {
    /// Pass-1 staging: this part's `(cell, vertex)` pairs, concatenated
    /// into the global pair list in fixed part order.
    pub pairs: Vec<(u32, u32)>,
    /// Pass-1 staging: this part's slice of the result frame, concatenated
    /// in the same order.
    pub frame: ResultFrame,
    /// Pass-1 per-object cell coverage buffer.
    pub cells: Vec<u32>,
    /// Pass-2 partial cell histogram, then (rewritten in place by the
    /// fixed-order merge) this part's scatter cursors; reused in passes
    /// 3–4 as the partial degree histogram and per-row write cursors.
    pub counts: Vec<u32>,
}

/// Reusable flat buffers for one session's query hot path.
///
/// Fields are public: the consumers (the CSR graph build and incremental
/// repair in `scout-core`, exit detection, prediction staging) borrow
/// individual buffers mutably and disjointly. Every consumer clears the
/// buffers it uses on entry; contents never carry meaning across calls,
/// only capacity does. (State that *does* persist across queries — the
/// incremental graph cache — lives in `scout_core`'s `GraphCache`, owned
/// by the graph it describes, not here.)
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
    /// build and the incremental repair. In the grid-hash build: the spare
    /// of the reverse index's radix sort, then the `(vertex, pair before)`
    /// chain links.
    pub edges: Vec<(u32, u32)>,
    /// Incremental graph repair: surviving members of one cell run.
    pub cells: Vec<u32>,
    /// Connected-component label per vertex.
    pub components: Vec<u32>,
    /// Per-vertex counters (degree histogram / scatter cursors of the
    /// explicit build and the repair); per-cell chain heads of the
    /// grid-hash build.
    pub counts: Vec<u32>,
    /// DFS stack for component labeling.
    pub stack: Vec<u32>,
    /// Per-component centroid sums (exit-direction smoothing).
    pub centroid_sums: Vec<Vec3>,
    /// Per-component centroid sample counts.
    pub centroid_counts: Vec<u32>,
    /// Predicted next-query locations staged before they are committed to
    /// the candidate tracker.
    pub predictions: Vec<Vec3>,
    /// Per-component flag: is the component in the candidate set (§4.3).
    pub candidate_flags: Vec<bool>,
    /// Incremental graph repair: previous vertex of each new vertex
    /// (`u32::MAX` = entering the region). A full grid-hash build and a
    /// repair never share a call, so the full build's chain pass and
    /// transposes borrow this and the next four buffers as working memory
    /// — here, the last vertex each vertex was met by.
    pub map_new_to_old: Vec<u32>,
    /// Incremental graph repair: new vertex of each previous vertex
    /// (`u32::MAX` = leaving the region). Full build: write cursor of each
    /// row's backward part.
    pub map_old_to_new: Vec<u32>,
    /// Incremental graph repair: incidences each previous vertex loses to
    /// leaving neighbors. Full build: forward degrees, then the write
    /// cursor of each row's forward part.
    pub removed_counts: Vec<u32>,
    /// Incremental graph repair: offsets of the per-vertex delta rows
    /// (entering neighbors gained). Full build: offsets of the per-vertex
    /// backward-neighbor lists.
    pub delta_offsets: Vec<u32>,
    /// Incremental graph repair: concatenated sorted delta rows. Full
    /// build: concatenated backward-neighbor lists.
    pub delta_targets: Vec<u32>,
    /// Sorted copy of the current query's result pages (membership probes
    /// for the adaptive layer's per-source precision accounting).
    pub pages_sorted: Vec<u32>,
    /// Best-first frontier of the Markov top-k extraction:
    /// `(score, prev page, last page)` context entries.
    pub markov_frontier: Vec<(f64, u32, u32)>,
    /// Sorted pages already emitted during one Markov extraction (dedup).
    pub markov_emitted: Vec<u32>,
    /// Per-part staging buffers of the parallel grid-hash build; sized by
    /// [`QueryScratch::ensure_workers`] to the build's part count.
    pub workers: Vec<WorkerScratch>,
    /// Parallel CSR dedup: unique neighbor count per row.
    pub row_lens: Vec<u32>,
    /// Parallel build passes 3–4: run-aligned part boundaries into the
    /// grouped pair list.
    pub part_starts: Vec<usize>,
}

impl QueryScratch {
    /// A fresh arena with no reserved capacity (buffers warm up over the
    /// first queries of a session).
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Clears every buffer, retaining capacity.
    pub fn clear(&mut self) {
        self.frame.clear();
        self.cell_pairs.clear();
        self.edges.clear();
        self.cells.clear();
        self.components.clear();
        self.counts.clear();
        self.stack.clear();
        self.centroid_sums.clear();
        self.centroid_counts.clear();
        self.predictions.clear();
        self.candidate_flags.clear();
        self.map_new_to_old.clear();
        self.map_old_to_new.clear();
        self.removed_counts.clear();
        self.delta_offsets.clear();
        self.delta_targets.clear();
        self.pages_sorted.clear();
        self.markov_frontier.clear();
        self.markov_emitted.clear();
        for w in &mut self.workers {
            w.pairs.clear();
            w.frame.clear();
            w.cells.clear();
            w.counts.clear();
        }
        self.row_lens.clear();
        self.part_starts.clear();
    }

    /// Grows the per-part staging set to at least `parts` workers
    /// (existing workers keep their warmed capacity).
    pub fn ensure_workers(&mut self, parts: usize) {
        if self.workers.len() < parts {
            self.workers.resize_with(parts, WorkerScratch::default);
        }
    }

    /// Total bytes of reserved capacity across all buffers (diagnostics;
    /// the §8.2 memory measurements count the graph itself separately).
    pub fn capacity_bytes(&self) -> usize {
        self.frame.capacity_bytes()
            + self.cell_pairs.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.edges.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.cells.capacity() * std::mem::size_of::<u32>()
            + self.components.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
            + self.stack.capacity() * std::mem::size_of::<u32>()
            + self.centroid_sums.capacity() * std::mem::size_of::<Vec3>()
            + self.centroid_counts.capacity() * std::mem::size_of::<u32>()
            + self.predictions.capacity() * std::mem::size_of::<Vec3>()
            + self.candidate_flags.capacity() * std::mem::size_of::<bool>()
            + self.map_new_to_old.capacity() * std::mem::size_of::<u32>()
            + self.map_old_to_new.capacity() * std::mem::size_of::<u32>()
            + self.removed_counts.capacity() * std::mem::size_of::<u32>()
            + self.delta_offsets.capacity() * std::mem::size_of::<u32>()
            + self.delta_targets.capacity() * std::mem::size_of::<u32>()
            + self.pages_sorted.capacity() * std::mem::size_of::<u32>()
            + self.markov_frontier.capacity() * std::mem::size_of::<(f64, u32, u32)>()
            + self.markov_emitted.capacity() * std::mem::size_of::<u32>()
            + self
                .workers
                .iter()
                .map(|w| {
                    w.pairs.capacity() * std::mem::size_of::<(u32, u32)>()
                        + w.frame.capacity_bytes()
                        + (w.cells.capacity() + w.counts.capacity()) * std::mem::size_of::<u32>()
                })
                .sum::<usize>()
            + self.workers.capacity() * std::mem::size_of::<WorkerScratch>()
            + self.row_lens.capacity() * std::mem::size_of::<u32>()
            + self.part_starts.capacity() * std::mem::size_of::<usize>()
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
        let cap = s.capacity_bytes();
        s.clear();
        assert!(s.cell_pairs.is_empty() && s.edges.is_empty() && s.predictions.is_empty());
        assert!(s.frame.is_empty() && s.candidate_flags.is_empty());
        assert_eq!(s.capacity_bytes(), cap);
    }

    #[test]
    fn scratch_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<QueryScratch>();
    }
}
