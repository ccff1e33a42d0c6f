//! The approximate result graph (§4.2).
//!
//! SCOUT summarizes the spatial objects of a query result as a graph:
//! vertices are objects, edges connect spatially close objects. When the
//! dataset carries no adjacency information the graph is built with **grid
//! hashing** — objects (simplified to points / segments / MBRs) are mapped
//! to equi-volume grid cells and objects sharing a cell are connected.
//! When the guiding structure is explicit (§4.1, polygon meshes and road
//! networks) the dataset's own adjacency is used directly.
//!
//! ## Memory layout
//!
//! The graph is stored in **CSR** (compressed sparse row) form: one
//! offsets array and one contiguous neighbor array, plus a dense
//! `object → vertex` table built from the result-id slice (radix-sorted
//! pairs for spread-out id ranges) — flat vectors only, no per-vertex
//! allocations. Grid-hash construction hashes each result object once
//! (pass 1: `(cell, vertex)` pairs straight off the cell walk), links the
//! pairs into per-cell chains that yield every co-located pair exactly once
//! (the *chain pass*), and writes each CSR row once, already ascending and
//! duplicate-free, in two *transposes* — no sort, no dedup (see
//! `ResultGraph::assemble_csr`). All of it runs over scratch buffers borrowed
//! from a [`scout_sim::QueryScratch`] arena, so a warmed
//! session rebuilds its graph every query without touching the allocator
//! (DESIGN.md §6). The pre-CSR adjacency-list implementation survives as
//! [`crate::reference::ReferenceGraph`], the property-test oracle and
//! bench baseline.
//!
//! Vertex numbering (result order), the edge set and the component
//! labeling are identical to the reference build, so simulation traces are
//! unchanged; only the neighbor ordering is now canonical (ascending)
//! instead of hash-map incidental.
//!
//! ## Incremental maintenance
//!
//! Consecutive latent-feature-following queries overlap heavily, so the
//! graph also carries a [`GraphCache`]: a copy of its last full build's
//! pass-1 pair list, from which the first repair derives per-vertex cell
//! lists and a cell-run index. While the hashing lattice is
//! unchanged, [`ResultGraph::build_grid_hash_incremental`] diffs the new
//! result against the previous one, hashes only the entering objects, and
//! repairs the CSR in place — producing bit-identical output to a fresh
//! [`ResultGraph::build_grid_hash`] (same vertices, adjacency, components
//! and charged [`CpuUnits`]) at a fraction of the cost (DESIGN.md §7).

use crate::graph_cache::{FullBuildReason, GraphBuildKind, GraphCache, GraphCacheStats};
use scout_geometry::{
    ObjectAdjacency, ObjectId, QueryRegion, Simplification, SpatialObject, UniformGrid,
};
use scout_sim::{default_parallelism, CpuUnits, QueryScratch, SharedSlice, WorkerPool};

/// Local vertex index within one result graph.
pub type VertexId = u32;

/// Constant-shift renumbering between two results, when the retained old
/// vertices are exactly the contiguous range `[lo, hi)` and every one
/// renumbers to `ov - shift` (the sliding-window common case). `None`
/// falls back to the gather maps in [`QueryScratch`].
type AffineRemap = Option<(u32, u32, i64)>;

/// Renumbers one *old* vertex id under the repair's renumbering
/// (`u32::MAX` = leaving): constant-shift arithmetic when affine, gather
/// through the scratch map otherwise.
#[inline(always)]
fn renumber_old(map: &[u32], affine: AffineRemap, ov: u32) -> u32 {
    match affine {
        Some((lo, hi, shift)) => {
            if ov >= lo && ov < hi {
                ov.wrapping_sub(shift as u32)
            } else {
                u32::MAX
            }
        }
        None => map[ov as usize],
    }
}

/// The inverse of [`renumber_old`]: the previous vertex of new vertex `v`
/// (`u32::MAX` = entering).
#[inline(always)]
fn renumber_new(map: &[u32], affine: AffineRemap, v: u32) -> u32 {
    match affine {
        Some((lo, hi, shift)) => {
            let new_lo = (lo as i64 - shift) as u32;
            let new_hi = (hi as i64 - shift) as u32;
            if v >= new_lo && v < new_hi {
                v.wrapping_add(shift as u32)
            } else {
                u32::MAX
            }
        }
        None => map[v as usize],
    }
}

/// The dense reverse index is used when the result ids span at most this
/// many times the result size (otherwise the table would be mostly holes
/// and the sorted-pair fallback wins).
const DENSE_REMAP_SLACK: usize = 4;

/// Whether `n` result ids spanning `min..=max` get the dense reverse index.
fn remap_is_dense(n: usize, min: u32, max: u32) -> bool {
    ((max - min) as usize) < n.max(1024) * DENSE_REMAP_SLACK
}

/// The chain pass indexes its `head` table by cell id when the cell count
/// is at most this many times the pair count (and the fork-join build
/// groups its pairs with a counting sort); beyond it a cell-indexed table
/// would be mostly holes to clear every query, so the serial build hashes
/// cells into a table sized by the pairs (and the fork-join build falls
/// back to a comparison sort).
const CELL_HISTOGRAM_SLACK: usize = 4;

/// "No pair" in the chain pass's `head` table and links, "never met" in
/// its stamps.
const NONE: u32 = u32::MAX;

/// The sparse reverse index is sorted by LSD radix, this many bits a pass
/// (a 2 048-entry histogram: 8 KB of stack).
const RADIX_BITS: u32 = 11;

/// Below this many result vertices auto-parallelism keeps the grid-hash
/// build serial (an explicit [`ResultGraph::set_build_threads`] overrides
/// the cutoff, which the byte-identity tests rely on to exercise the
/// parallel passes on small inputs).
///
/// Set from a measurement: the first size at which width 2 beats the
/// serial build by at least 10 %. Full-result builds over neuron beds,
/// default `ScoutConfig`, forced widths, median of 7 alternating rounds
/// on the 2-core reference host (Xeon @ 2.10 GHz, `max_parallelism` 2),
/// re-measured against the chain-pass serial build of PR 16:
///
/// | result objects | serial µs | width 2 µs | serial / width 2 |
/// |---:|---:|---:|---:|
/// | 3 603 | 380 | 720 | 0.53 |
/// | 7 206 | 740 | 1 264 | 0.58 |
/// | 15 613 | 1 917 | 2 929 | 0.65 |
/// | 31 226 | 3 098 | 4 744 | 0.65 |
/// | 64 854 | 7 465 | 11 181 | 0.67 |
/// | 130 909 | 18 341 | 27 147 | 0.68 |
/// | 261 818 | 51 980 | 64 414 | 0.81 |
/// | 523 636 | 221 423 | 200 476 | 1.10 |
/// | 1 047 272 | 1 017 760 | 737 792 | 1.38 |
///
/// (Repeat sweeps read 0.87–1.32 at 261 818, 1.03–1.18 at 392 727,
/// 1.07–1.38 at 523 636 over four, 1.42–1.44 at 785 454, and 0.84–1.04 at
/// 99 683: the ratio is resolved from half a million vertices up, not
/// below.) The fork-join passes keep a counting sort, a
/// duplicate-inclusive scatter and a row dedup the serial build does
/// without, so the second core pays for itself only where co-location
/// work (quadratic in cell occupancy) dwarfs the staging copies. No
/// result any benchmark workload produces is within two orders of
/// magnitude of the cutoff: there the fork-join build runs only when
/// `set_build_threads` forces it.
const PARALLEL_BUILD_CUTOFF: usize = 524_288;

/// The per-query-result object graph, in CSR form.
#[derive(Debug, Clone, Default)]
pub struct ResultGraph {
    /// Dataset object ids, indexed by vertex.
    object_ids: Vec<ObjectId>,
    /// CSR row offsets into `targets`; length `vertex_count() + 1`.
    offsets: Vec<u32>,
    /// CSR neighbor array: each undirected edge appears twice, neighbors
    /// of one vertex stored contiguously in ascending order.
    targets: Vec<VertexId>,
    /// Dense reverse index: `remap_dense[oid - remap_base]` is the vertex
    /// of object `oid` (`u32::MAX` = absent). Built from the result-id
    /// slice when the id range is compact — the common case, since query
    /// results are spatially local. The role the seed implementation gave
    /// a `HashMap`.
    remap_dense: Vec<u32>,
    /// Lowest result object id (offset of `remap_dense`).
    remap_base: u32,
    /// Sparse fallback: `(object id, vertex)` pairs sorted by object id,
    /// used (empty `remap_dense`) when the id range is too spread out.
    remap_pairs: Vec<(u32, VertexId)>,
    /// Undirected edge count, fixed at construction (was an O(V) fold).
    edge_count: usize,
    /// Persistent incremental-build state (the last full build's pair
    /// list or, once a repair has run, cell lists, cell runs and the repair
    /// double buffers). Owned by the graph so the cache can only ever
    /// describe *this* graph's last build.
    cache: GraphCache,
    /// Fork-join width of the grid-hash build passes: `0` sizes from
    /// [`default_parallelism`] with a small-input serial cutoff, `1`
    /// forces the serial path, `>1` forces that many parts. Every width
    /// produces byte-identical output (see DESIGN.md §9).
    build_threads: usize,
}

impl ResultGraph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.object_ids.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The dataset object behind a vertex.
    #[inline]
    pub fn object_id(&self, v: VertexId) -> ObjectId {
        self.object_ids[v as usize]
    }

    /// The vertex of a dataset object, if present in this result.
    #[inline]
    pub fn vertex_of(&self, o: ObjectId) -> Option<VertexId> {
        if !self.remap_dense.is_empty() {
            let idx = o.0.checked_sub(self.remap_base)? as usize;
            match self.remap_dense.get(idx) {
                Some(&v) if v != u32::MAX => Some(v),
                _ => None,
            }
        } else {
            self.remap_pairs
                .binary_search_by_key(&o.0, |&(oid, _)| oid)
                .ok()
                .map(|i| self.remap_pairs[i].1)
        }
    }

    /// Neighbors of a vertex, in ascending vertex order.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let start = self.offsets[v as usize] as usize;
        let end = self.offsets[v as usize + 1] as usize;
        &self.targets[start..end]
    }

    /// All vertices' object ids.
    pub fn object_ids(&self) -> &[ObjectId] {
        &self.object_ids
    }

    /// The slots of vertex `v`'s row in [`ResultGraph::targets`]. A slot
    /// names one *directed* edge, which is what exit scoring memoises on.
    #[inline]
    pub(crate) fn row(&self, v: VertexId) -> std::ops::Range<usize> {
        self.offsets[v as usize] as usize..self.offsets[v as usize + 1] as usize
    }

    /// The CSR neighbor array (all rows, concatenated).
    #[inline]
    pub(crate) fn targets(&self) -> &[VertexId] {
        &self.targets
    }

    /// Resident size of the graph structures (CSR arrays, reverse index
    /// and the persistent incremental cache), for the §8.2 memory
    /// measurements. Exact for the flat layout: no hash-bucket overhead,
    /// no per-vertex `Vec` headers. The incremental cache is counted by
    /// capacity (its buffers stay resident between queries), so
    /// cache-pressure reporting sees the real footprint: one copy of the
    /// `(cell, vertex)` pair list for a graph that is fully rebuilt every
    /// query, plus the derived cell lists, cell runs and the repair's
    /// double buffers once a repair has run
    /// ([`GraphCache::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.object_ids.len() * std::mem::size_of::<ObjectId>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.remap_dense.len() * std::mem::size_of::<u32>()
            + self.remap_pairs.len() * std::mem::size_of::<(u32, VertexId)>()
            + self.cache.memory_bytes()
    }

    /// Empties the graph, retaining every buffer's capacity. The
    /// incremental cache no longer describes this graph afterwards, so it
    /// is invalidated (its buffers keep their capacity too).
    pub fn clear(&mut self) {
        self.object_ids.clear();
        self.offsets.clear();
        self.targets.clear();
        self.remap_dense.clear();
        self.remap_base = 0;
        self.remap_pairs.clear();
        self.edge_count = 0;
        self.cache.invalidate();
    }

    /// Sets the fork-join width of the grid-hash build passes: `0` (the
    /// default) sizes from [`default_parallelism`] — i.e. `SCOUT_THREADS`
    /// or the machine — with a small-input serial cutoff; `1` forces the
    /// serial path; `>1` forces that many parts even on small inputs.
    /// Purely a performance knob: the build output is byte-identical at
    /// every width.
    pub fn set_build_threads(&mut self, threads: usize) {
        self.build_threads = threads;
    }

    /// The part count the next grid-hash build will use for `n` result
    /// vertices.
    fn build_parts(&self, n: usize) -> usize {
        match self.build_threads {
            0 if n < PARALLEL_BUILD_CUTOFF => 1,
            0 => default_parallelism().min(n.max(1)),
            t => t.min(n.max(1)),
        }
    }

    /// Drops the incremental-build state (sequence boundary / session
    /// reset): the next [`ResultGraph::build_grid_hash_incremental`] runs
    /// the full pipeline. Buffer capacity and stats are retained.
    pub fn invalidate_cache(&mut self) {
        self.cache.invalidate();
    }

    /// Counters of how builds through the incremental entry point were
    /// resolved (delta repair vs full rebuild, by fallback reason).
    pub fn cache_stats(&self) -> GraphCacheStats {
        self.cache.stats()
    }

    /// Zeroes the incremental-build counters.
    pub fn reset_cache_stats(&mut self) {
        self.cache.reset_stats();
    }

    /// Resident bytes of the persistent incremental state alone (also
    /// included in [`ResultGraph::memory_bytes`]).
    pub fn cache_memory_bytes(&self) -> usize {
        self.cache.memory_bytes()
    }

    /// Connected components; returns (component id per vertex, count).
    ///
    /// Allocating wrapper around [`ResultGraph::components_into`].
    pub fn components(&self) -> (Vec<u32>, usize) {
        let mut comp = Vec::new();
        let mut stack = Vec::new();
        let count = self.components_into(&mut comp, &mut stack);
        (comp, count)
    }

    /// Connected components into caller-provided buffers (the hot path —
    /// `comp` and `stack` come from the session's scratch arena). Returns
    /// the component count; `comp[v]` is vertex `v`'s label.
    ///
    /// Labels are assigned in first-encounter order over ascending vertex
    /// ids, so the labeling depends only on the edge *set* — identical to
    /// the reference implementation.
    pub fn components_into(&self, comp: &mut Vec<u32>, stack: &mut Vec<u32>) -> usize {
        let n = self.vertex_count();
        comp.clear();
        comp.resize(n, u32::MAX);
        stack.clear();
        let mut next = 0u32;
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
        debug_assert!(stack.is_empty(), "component stack must drain");
        next as usize
    }

    /// Builds the graph by grid hashing (§4.2) over the given result
    /// objects. `resolution` is the total cell count over the query region.
    ///
    /// Returns the graph and the CPU work units spent (object inserts +
    /// created edges), which the simulator converts to time.
    ///
    /// Allocating wrapper around [`ResultGraph::build_grid_hash`] for
    /// one-shot callers; steady-state paths reuse a graph + scratch pair.
    pub fn grid_hash(
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        resolution: u32,
        simplification: scout_geometry::Simplification,
    ) -> (ResultGraph, CpuUnits) {
        let mut graph = ResultGraph::default();
        let mut scratch = QueryScratch::new();
        let units = graph.build_grid_hash(
            &mut scratch,
            objects,
            result_ids,
            region,
            resolution,
            simplification,
        );
        (graph, units)
    }

    /// Builds the graph from an explicit dataset adjacency (§4.1),
    /// restricted to the result objects.
    ///
    /// Allocating wrapper around [`ResultGraph::build_explicit`].
    pub fn from_explicit(
        adjacency: &ObjectAdjacency,
        result_ids: &[ObjectId],
    ) -> (ResultGraph, CpuUnits) {
        let mut graph = ResultGraph::default();
        let mut scratch = QueryScratch::new();
        let units = graph.build_explicit(&mut scratch, adjacency, result_ids);
        (graph, units)
    }

    /// Rebuilds this graph in place by grid hashing, reusing its own
    /// buffers and the scratch arena. Zero heap allocation once both have
    /// warmed to the workload's result sizes.
    ///
    /// Pass 1 maps every object's simplified geometry to grid cells,
    /// emitting `(cell, vertex)` pairs; a chain pass over the pairs finds
    /// each co-located vertex pair once, and two transposes write the CSR
    /// rows, ascending and duplicate-free by construction (see
    /// `assemble_csr`) — replacing the seed's per-cell `HashMap` entries
    /// and O(degree) `contains` checks.
    ///
    /// Pass 1 is the one place the prediction loads the object records, so
    /// it also leaves `scratch.frame` describing exactly this graph's
    /// vertices (as does the incremental entry point, on either path).
    pub fn build_grid_hash(
        &mut self,
        scratch: &mut QueryScratch,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        resolution: u32,
        simplification: scout_geometry::Simplification,
    ) -> CpuUnits {
        self.build_grid_hash_impl(
            scratch,
            None,
            objects,
            result_ids,
            region,
            resolution,
            simplification,
        )
    }

    /// The full grid-hash pipeline, optionally capturing the pass-1 pair
    /// list into `capture` (the incremental entry point's fallback path;
    /// see [`GraphCache`]). The capture is one flat copy — well under a
    /// percent of the build — and the plain
    /// [`ResultGraph::build_grid_hash`] skips it entirely.
    // The trailing parameters are the hashing configuration the public
    // builders already take; bundling them would churn every caller.
    #[allow(clippy::too_many_arguments)]
    fn build_grid_hash_impl(
        &mut self,
        scratch: &mut QueryScratch,
        capture: Option<&mut GraphCache>,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        resolution: u32,
        simplification: scout_geometry::Simplification,
    ) -> CpuUnits {
        self.clear();
        let mut units = CpuUnits::default();
        let grid = UniformGrid::with_resolution(*region.aabb(), resolution);
        scratch.frame.clear();
        scratch.cell_pairs.clear();

        // Pass 1: vertices (result order — the numbering every consumer
        // relies on) and (cell, vertex) pairs, pushed straight from the
        // cell walk. This is the one loop of the prediction that loads the
        // object records, so it also fills the result frame every later
        // phase reads. Parallel: contiguous vertex ranges stage pairs and
        // frame entries per part, concatenated in fixed part order.
        let n = result_ids.len();
        let parts = self.build_parts(n);
        self.object_ids.extend_from_slice(result_ids);
        units.graph_object_inserts += n as u64;
        if parts > 1 {
            Self::hash_objects_parallel(scratch, parts, &grid, objects, result_ids, simplification);
        } else {
            let QueryScratch { frame, cell_pairs, .. } = scratch;
            for (v, &oid) in result_ids.iter().enumerate() {
                let simplified = frame.push(&objects[oid.index()], simplification);
                grid.for_each_simplified_cell(&simplified, |c| cell_pairs.push((c, v as u32)));
            }
        }
        self.rebuild_remap(&mut scratch.edges);
        if let Some(cache) = capture {
            cache.capture(&scratch.cell_pairs, &grid);
        }
        let cell_count = grid.cell_count() as usize;
        if parts > 1 {
            self.build_csr_parallel(scratch, cell_count, parts, &mut units);
        } else {
            self.assemble_csr(scratch, cell_count, &mut units);
        }
        units
    }

    /// Passes 2–3 of the serial grid-hash build: the vertex-major pair list
    /// in `scratch.cell_pairs` becomes the CSR adjacency in one *chain
    /// pass* and two *transposes*, writing every target slot exactly once.
    ///
    /// **Chain pass.** Each pair is linked onto its cell's chain: `head`
    /// names the cell's newest pair, a link is `(vertex, pair before)`.
    /// The pairs arrive vertex-major with no `(cell, vertex)` repeated, so
    /// the chain a pair of vertex `v` joins holds exactly the members of
    /// its cell numbered below `v` — `v`'s *backward* neighbours. A
    /// per-vertex stamp drops a neighbour met again through a second
    /// shared cell; each first meeting is appended to `v`'s backward list
    /// and bumps the neighbour's forward degree. Rows are therefore
    /// duplicate-free before a single target is written: nothing to sort,
    /// nothing to dedup.
    ///
    /// `head` is indexed by cell id when the grid is small against the pair
    /// list ([`CELL_HISTOGRAM_SLACK`]); otherwise it is an open-addressed
    /// table of 2 × pairs slots keyed by the head pair's own cell
    /// (Fibonacci hashing, linear probing) — the side every sparse
    /// SCOUT-OPT graph takes.
    ///
    /// **Transposes.** Row `v` is its backward part then its forward part.
    /// Scattering `v` into the forward part of every backward neighbour,
    /// for ascending `v`, fills the forward parts in ascending order;
    /// scattering `u` into the backward part of every forward neighbour,
    /// for ascending `u`, does the same for the backward parts.
    ///
    /// The working buffers are the repair's scratch vectors under local
    /// names: a full build and a repair never share a call.
    fn assemble_csr(
        &mut self,
        scratch: &mut QueryScratch,
        cell_count: usize,
        units: &mut CpuUnits,
    ) {
        let n = self.object_ids.len();
        let QueryScratch {
            cell_pairs: pairs,
            counts: head,
            edges: links,
            map_new_to_old: stamp,
            map_old_to_new: back_cursor,
            removed_counts: forward,
            delta_offsets: back_offsets,
            delta_targets: back,
            ..
        } = scratch;
        assert!(pairs.len() < NONE as usize, "pair list overflows the u32 chain links");
        let direct = cell_count <= pairs.len().max(1024) * CELL_HISTOGRAM_SLACK;
        let slots = if direct { cell_count } else { (2 * pairs.len()).next_power_of_two().max(2) };
        let hash_shift = u32::BITS - slots.trailing_zeros();
        head.clear();
        head.resize(slots, NONE);
        links.clear();
        links.resize(pairs.len(), (0, NONE));
        stamp.clear();
        stamp.resize(n, NONE);
        forward.clear();
        forward.resize(n, 0);
        back_offsets.clear();
        back_offsets.reserve(n + 1);
        back.clear();
        let mut p = 0usize;
        for v in 0..n as u32 {
            back_offsets.push(back.len() as u32);
            while p < pairs.len() && pairs[p].1 == v {
                let cell = pairs[p].0;
                let mut slot = cell as usize;
                if !direct {
                    slot = (cell.wrapping_mul(0x9E37_79B9) >> hash_shift) as usize;
                    while head[slot] != NONE && pairs[head[slot] as usize].0 != cell {
                        slot = (slot + 1) & (slots - 1);
                    }
                }
                let mut q = head[slot];
                head[slot] = p as u32;
                links[p] = (v, q);
                while q != NONE {
                    let (u, before) = links[q as usize];
                    debug_assert!(u < v, "pairs must be vertex-major, each (cell, vertex) once");
                    if stamp[u as usize] != v {
                        stamp[u as usize] = v;
                        back.push(u);
                        forward[u as usize] += 1;
                    }
                    q = before;
                }
                p += 1;
            }
        }
        back_offsets.push(back.len() as u32);
        debug_assert_eq!(p, pairs.len(), "pairs must be vertex-major");

        // Row lengths → offsets; `forward` then turns into the write cursor
        // of each row's forward part, `back_cursor` is that of its backward
        // part.
        let back_len = |v: usize| back_offsets[v + 1] - back_offsets[v];
        for (v, degree) in forward.iter_mut().enumerate() {
            *degree += back_len(v);
        }
        let total = Self::prefix_sum_offsets(&mut self.offsets, forward);
        self.targets.clear();
        self.targets.resize(total, 0);
        for (v, cursor) in forward.iter_mut().enumerate() {
            *cursor = self.offsets[v] + back_len(v);
        }
        for v in 0..n {
            for &u in &back[back_offsets[v] as usize..back_offsets[v + 1] as usize] {
                self.targets[forward[u as usize] as usize] = v as u32;
                forward[u as usize] += 1;
            }
        }
        back_cursor.clear();
        back_cursor.extend_from_slice(&self.offsets[..n]);
        for u in 0..n {
            for i in (self.offsets[u] + back_len(u)) as usize..self.offsets[u + 1] as usize {
                let w = self.targets[i] as usize;
                self.targets[back_cursor[w] as usize] = u as u32;
                back_cursor[w] += 1;
            }
        }
        debug_assert!(
            (0..n).all(|v| self.targets[self.row(v as u32)].windows(2).all(|w| w[0] < w[1])),
            "rows must come out ascending and duplicate-free"
        );
        self.edge_count = total / 2;
        units.graph_edge_inserts += self.edge_count as u64;
    }

    /// Pass 1 of the fork-join build: contiguous vertex ranges stage their
    /// pairs (cells sorted within a vertex) and frame entries per part,
    /// concatenated in fixed part order.
    fn hash_objects_parallel(
        scratch: &mut QueryScratch,
        parts: usize,
        grid: &UniformGrid,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        simplification: scout_geometry::Simplification,
    ) {
        let n = result_ids.len();
        scratch.ensure_workers(parts);
        let chunk = n.div_ceil(parts);
        let workers = SharedSlice::new(&mut scratch.workers[..parts]);
        WorkerPool::global().run(parts, &|p| {
            // SAFETY: part `p` touches only `workers[p]`.
            let w = unsafe { &mut workers.slice_mut(p..p + 1)[0] };
            w.pairs.clear();
            w.frame.clear();
            let hi = ((p + 1) * chunk).min(n);
            let lo = (p * chunk).min(hi);
            for (v, &oid) in (lo..).zip(&result_ids[lo..hi]) {
                let simplified = w.frame.push(&objects[oid.index()], simplification);
                w.cells.clear();
                grid.cells_for_simplified(&simplified, &mut w.cells);
                w.cells.sort_unstable();
                w.cells.dedup();
                for &c in &w.cells {
                    w.pairs.push((c, v as u32));
                }
            }
        });
        for w in &scratch.workers[..parts] {
            scratch.cell_pairs.extend_from_slice(&w.pairs);
            scratch.frame.append(&w.frame);
        }
    }

    /// Passes 2–4 and row dedup of the fork-join grid-hash build (`parts >
    /// 1`): the pair list is grouped by cell, then degrees, scatter and
    /// row dedup run over run-aligned chunks of it. Every write lands at
    /// a slot derived from fixed-order prefix sums of per-part partials,
    /// so the CSR comes out byte-identical at every width and to the
    /// serial [`ResultGraph::assemble_csr`] (see DESIGN.md §9); only the
    /// final compaction stays serial, because shrinking rows slide left
    /// across part boundaries.
    fn build_csr_parallel(
        &mut self,
        scratch: &mut QueryScratch,
        cell_count: usize,
        parts: usize,
        units: &mut CpuUnits,
    ) {
        let pool = WorkerPool::global();
        let n = self.object_ids.len();
        let len = scratch.cell_pairs.len();
        // Pass 2: group pairs by cell — a counting sort over cell ids when
        // the grid is small enough for a histogram, a comparison sort
        // otherwise (pathological resolutions only; left serial). Within a
        // cell run the vertices stay in ascending (result) order either way.
        if cell_count <= len.max(1024) * CELL_HISTOGRAM_SLACK {
            // Parallel stable counting sort: per-part histograms over
            // contiguous pair chunks, merged in fixed part order into
            // per-part scatter cursors. Within a cell the parts write in
            // part order and each part in chunk order — exactly the serial
            // stable scatter sequence.
            let chunk = len.div_ceil(parts);
            let pairs = &scratch.cell_pairs;
            {
                let workers = SharedSlice::new(&mut scratch.workers[..parts]);
                pool.run(parts, &|p| {
                    // SAFETY: part `p` touches only `workers[p]`.
                    let w = unsafe { &mut workers.slice_mut(p..p + 1)[0] };
                    w.counts.clear();
                    w.counts.resize(cell_count, 0);
                    let hi = ((p + 1) * chunk).min(len);
                    for &(c, _) in &pairs[(p * chunk).min(hi)..hi] {
                        w.counts[c as usize] += 1;
                    }
                });
            }
            let mut start = 0u32;
            for c in 0..cell_count {
                for w in &mut scratch.workers[..parts] {
                    let count = w.counts[c];
                    w.counts[c] = start;
                    start += count;
                }
            }
            scratch.edges.clear();
            scratch.edges.resize(len, (0, 0));
            let grouped = SharedSlice::new(&mut scratch.edges);
            let workers = SharedSlice::new(&mut scratch.workers[..parts]);
            pool.run(parts, &|p| {
                // SAFETY: part `p` touches only `workers[p]`; the merged
                // cursors give every (part, cell) pair a slot range
                // disjoint from all others.
                let w = unsafe { &mut workers.slice_mut(p..p + 1)[0] };
                let hi = ((p + 1) * chunk).min(len);
                for &(c, v) in &pairs[(p * chunk).min(hi)..hi] {
                    unsafe { grouped.write(w.counts[c as usize] as usize, (c, v)) };
                    w.counts[c as usize] += 1;
                }
            });
            std::mem::swap(&mut scratch.cell_pairs, &mut scratch.edges);
        } else {
            scratch.cell_pairs.sort_unstable();
        }

        // Run-aligned part boundaries: a cell run never spans two parts,
        // so each part sees whole runs and the per-run double loops need
        // no cross-part coordination.
        scratch.part_starts.clear();
        scratch.part_starts.push(0);
        let chunk = len.div_ceil(parts);
        for p in 1..parts {
            let mut i = (p * chunk).max(*scratch.part_starts.last().unwrap());
            while i < len && scratch.cell_pairs[i].0 == scratch.cell_pairs[i - 1].0 {
                i += 1;
            }
            scratch.part_starts.push(i.min(len));
        }
        scratch.part_starts.push(len);

        // Pass 3 (parallel): per-part degree partials — a vertex's cells
        // can land in several parts' runs, so partials add up.
        let pairs = &scratch.cell_pairs;
        let bounds = &scratch.part_starts;
        {
            let workers = SharedSlice::new(&mut scratch.workers[..parts]);
            pool.run(parts, &|p| {
                // SAFETY: part `p` touches only `workers[p]`.
                let w = unsafe { &mut workers.slice_mut(p..p + 1)[0] };
                w.counts.clear();
                w.counts.resize(n, 0);
                let (mut i, hi) = (bounds[p], bounds[p + 1]);
                while i < hi {
                    let cell = pairs[i].0;
                    let mut j = i + 1;
                    while j < hi && pairs[j].0 == cell {
                        j += 1;
                    }
                    let k = (j - i) as u32;
                    for &(_, v) in &pairs[i..j] {
                        w.counts[v as usize] += k - 1;
                    }
                    i = j;
                }
            });
        }
        // Fixed-order merge: each partial becomes its part's scatter base
        // within the row (exclusive prefix over parts), the totals become
        // the row degrees.
        scratch.counts.clear();
        scratch.counts.resize(n, 0);
        for v in 0..n {
            let mut running = 0u32;
            for w in &mut scratch.workers[..parts] {
                let t = w.counts[v];
                w.counts[v] = running;
                running += t;
            }
            scratch.counts[v] = running;
        }
        let total = Self::prefix_sum_offsets(&mut self.offsets, &scratch.counts);

        // Pass 4 (parallel): each part scatters its runs through its own
        // merged cursors — row `v`'s slots split into per-part subranges
        // in part order, reproducing the serial run-order writes exactly.
        self.targets.clear();
        self.targets.resize(total, 0);
        let offsets = &self.offsets;
        {
            let targets = SharedSlice::new(&mut self.targets);
            let workers = SharedSlice::new(&mut scratch.workers[..parts]);
            pool.run(parts, &|p| {
                // SAFETY: part `p` touches only `workers[p]`; the merged
                // cursor bases give every (part, row) pair a slot range
                // disjoint from all others.
                let w = unsafe { &mut workers.slice_mut(p..p + 1)[0] };
                let (mut i, hi) = (bounds[p], bounds[p + 1]);
                while i < hi {
                    let cell = pairs[i].0;
                    let mut j = i + 1;
                    while j < hi && pairs[j].0 == cell {
                        j += 1;
                    }
                    for a in i..j {
                        for b in (a + 1)..j {
                            let (va, vb) = (pairs[a].1, pairs[b].1);
                            unsafe {
                                targets.write(
                                    (offsets[va as usize] + w.counts[va as usize]) as usize,
                                    vb,
                                );
                            }
                            w.counts[va as usize] += 1;
                            unsafe {
                                targets.write(
                                    (offsets[vb as usize] + w.counts[vb as usize]) as usize,
                                    va,
                                );
                            }
                            w.counts[vb as usize] += 1;
                        }
                    }
                    i = j;
                }
            });
        }

        // Row dedup, sort phase (parallel): rows are disjoint slices, so
        // each part sorts and uniq-compacts a contiguous vertex range in
        // place, recording unique lengths.
        scratch.row_lens.clear();
        scratch.row_lens.resize(n, 0);
        let vchunk = n.div_ceil(parts);
        {
            let targets = SharedSlice::new(&mut self.targets);
            let lens = SharedSlice::new(&mut scratch.row_lens);
            pool.run(parts, &|p| {
                for v in p * vchunk..((p + 1) * vchunk).min(n) {
                    // SAFETY: rows are disjoint slices of `targets` and
                    // the vertex ranges are disjoint across parts.
                    let row =
                        unsafe { targets.slice_mut(offsets[v] as usize..offsets[v + 1] as usize) };
                    row.sort_unstable();
                    let mut unique = 0usize;
                    for i in 0..row.len() {
                        if unique == 0 || row[i] != row[unique - 1] {
                            row[unique] = row[i];
                            unique += 1;
                        }
                    }
                    unsafe { lens.write(v, unique as u32) };
                }
            });
        }
        // Compaction (serial): rows slide left across part boundaries, so
        // a later part's writes could clobber an earlier part's unread
        // tail — and it is a single memmove-bound sweep parallelism could
        // not speed up anyway.
        let mut write = 0usize;
        for v in 0..n {
            let start = self.offsets[v] as usize;
            let unique = scratch.row_lens[v] as usize;
            debug_assert!(write <= start, "compaction cursor overtook row start");
            self.offsets[v] = write as u32;
            self.targets.copy_within(start..start + unique, write);
            write += unique;
        }
        self.offsets[n] = write as u32;
        self.targets.truncate(write);
        debug_assert_eq!(self.targets.len() % 2, 0, "undirected edges appear twice");
        self.edge_count = self.targets.len() / 2;
        units.graph_edge_inserts += self.edge_count as u64;
    }

    /// Rebuilds this graph in place from an explicit dataset adjacency,
    /// restricted to the result objects, reusing buffers like
    /// [`ResultGraph::build_grid_hash`].
    ///
    /// Never looks at an object, so it cannot fill `scratch.frame`: a
    /// caller that goes on to predict gathers it
    /// ([`ResultFrame::gather`](scout_sim::ResultFrame::gather)).
    pub fn build_explicit(
        &mut self,
        scratch: &mut QueryScratch,
        adjacency: &ObjectAdjacency,
        result_ids: &[ObjectId],
    ) -> CpuUnits {
        self.clear();
        let mut units = CpuUnits::default();
        for &oid in result_ids {
            self.object_ids.push(oid);
            units.graph_object_inserts += 1;
        }
        self.rebuild_remap(&mut scratch.edges);
        scratch.edges.clear();
        for (v, &oid) in result_ids.iter().enumerate() {
            let v = v as u32;
            for &nb in adjacency.neighbors(oid) {
                if let Some(w) = self.vertex_of(nb) {
                    if w != v {
                        // Both directions: the dataset adjacency may list
                        // an edge on one endpoint only; dedup below makes
                        // the result symmetric either way.
                        scratch.edges.push((v, w));
                        scratch.edges.push((w, v));
                    }
                }
            }
        }
        self.finish_csr(scratch, &mut units);
        units
    }

    /// Rebuilds this graph by grid hashing **incrementally** when the
    /// previous build can be reused, falling back to (and capturing from)
    /// the full [`ResultGraph::build_grid_hash`] pipeline otherwise.
    ///
    /// The delta path fires when all of the following hold, and is
    /// **bit-identical** to a fresh full build — same vertex numbering,
    /// reverse index, CSR adjacency (sorted rows), edge/component
    /// structure and charged [`CpuUnits`] (property-tested against the
    /// full build and the seed reference over sliding-window sequences):
    ///
    /// * the cache is warm (the last build of this graph went through this
    ///   entry point and nothing invalidated it since);
    /// * the hashing lattice is bit-identical to the previous query's —
    ///   per-object cell lists are a pure function of `(lattice, object)`,
    ///   so a moved region or changed resolution forces a rebuild;
    /// * retained objects appear in the same relative order as before
    ///   (true for any index whose retrieval order is a filter of one
    ///   fixed global order, e.g. the R-tree's DFS; crawl-ordered sparse
    ///   results may violate it), so the old CSR rows renumber monotonely;
    /// * the result overlap `|retained| / max(|previous|, |new|)` is at
    ///   least `overlap_threshold` (two empty results count as fully
    ///   overlapping). Thresholds above 1.0 disable the delta path.
    ///
    /// Only objects *entering* the region are hashed; edges among retained
    /// objects are copied (filtered of leaving vertices and renumbered),
    /// and only rows touched by the delta gain merged-in neighbors.
    ///
    /// Returns the units (identical to a full build's) and which path ran.
    // The trailing parameters are the hashing configuration plus the
    // fallback knob; bundling them would churn every caller.
    #[allow(clippy::too_many_arguments)]
    pub fn build_grid_hash_incremental(
        &mut self,
        scratch: &mut QueryScratch,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        resolution: u32,
        simplification: Simplification,
        overlap_threshold: f64,
    ) -> (CpuUnits, GraphBuildKind) {
        let grid = UniformGrid::with_resolution(*region.aabb(), resolution);
        let sig = crate::graph_cache::GridSignature::of(&grid);
        // Take the cache out so the repair can borrow it and the graph
        // fields independently; every return path puts it back.
        let mut cache = std::mem::take(&mut self.cache);

        let decision: Result<AffineRemap, FullBuildReason> = if !cache.valid {
            Err(FullBuildReason::Cold)
        } else if sig != cache.sig {
            Err(FullBuildReason::GridChanged)
        } else {
            self.diff_previous_result(scratch, result_ids, overlap_threshold)
        };

        match decision {
            Ok(affine) => {
                cache.stats.incremental_builds += 1;
                let units = self.repair_grid_hash(
                    scratch,
                    &mut cache,
                    objects,
                    result_ids,
                    &grid,
                    simplification,
                    affine,
                );
                self.cache = cache;
                (units, GraphBuildKind::Incremental)
            }
            Err(reason) => {
                cache.stats.record_full(reason);
                let units = self.build_grid_hash_impl(
                    scratch,
                    Some(&mut cache),
                    objects,
                    result_ids,
                    region,
                    resolution,
                    simplification,
                );
                self.cache = cache;
                (units, GraphBuildKind::Full(reason))
            }
        }
    }

    /// Diffs the incoming result against the previous one (this graph),
    /// deciding between delta repair and a full rebuild.
    ///
    /// Three stages, cheapest first:
    ///
    /// 1. **Slide probes** — a latent-feature-following stream usually
    ///    *slides*: the new result is the old one minus a contiguous run
    ///    of leaving objects plus a contiguous run of entering ones, in
    ///    unchanged order. One reverse-index lookup anchors the candidate
    ///    alignment and a single slice comparison verifies it exactly, so
    ///    the common case costs O(overlap) vectorized compares — no maps.
    ///    A verified slide yields an affine renumbering. (The verified
    ///    block need not be the complete intersection for correctness: a
    ///    retained object outside the block is simply treated as leaving
    ///    + re-entering, which hashes to the identical cell list.)
    /// 2. **Sampled overlap estimate** — clearly disjoint results (resets,
    ///    structure jumps) bail to the full rebuild before paying for an
    ///    exact diff. Path selection only: both paths are bit-identical.
    /// 3. **Exact diff** — renumbering maps, monotonicity check and exact
    ///    overlap, for monotone-but-not-sliding results (e.g. thinned
    ///    sparse result sets).
    fn diff_previous_result(
        &self,
        scratch: &mut QueryScratch,
        result_ids: &[ObjectId],
        overlap_threshold: f64,
    ) -> Result<AffineRemap, FullBuildReason> {
        let prev_ids = &self.object_ids[..];
        let prev_n = prev_ids.len();
        let new_n = result_ids.len();
        let denom = prev_n.max(new_n);
        let meets =
            |retained: usize| denom == 0 || retained as f64 / denom as f64 >= overlap_threshold;

        // (1) Slide probes.
        if new_n > 0 && prev_n > 0 {
            // Forward slide: a prefix of the old result left the region.
            if let Some(k) = self.vertex_of(result_ids[0]) {
                let k = k as usize;
                let m = (prev_n - k).min(new_n);
                if meets(m) && prev_ids[k..k + m] == result_ids[..m] {
                    return Ok(Some((k as u32, (k + m) as u32, k as i64)));
                }
            }
            // Backward slide: entering objects precede the retained block.
            if let Some(j) = result_ids.iter().position(|&o| o == prev_ids[0]) {
                let m = (new_n - j).min(prev_n);
                if meets(m) && result_ids[j..j + m] == prev_ids[..m] {
                    return Ok(Some((0, m as u32, -(j as i64))));
                }
            }
        }

        // (2) Sampled overlap estimate (margin 0.7·threshold: borderline
        // estimates still take the exact diff below).
        if new_n > 0 && overlap_threshold > 0.0 {
            let samples = new_n.min(64);
            let stride = (new_n / samples).max(1);
            let hits =
                (0..samples).filter(|&i| self.vertex_of(result_ids[i * stride]).is_some()).count();
            if (hits as f64 / samples as f64) < 0.7 * overlap_threshold {
                return Err(FullBuildReason::LowOverlap);
            }
        }

        // (3) Exact diff.
        scratch.map_new_to_old.clear();
        scratch.map_new_to_old.resize(new_n, u32::MAX);
        scratch.map_old_to_new.clear();
        scratch.map_old_to_new.resize(prev_n, u32::MAX);
        let mut retained = 0usize;
        let mut last_old: i64 = -1;
        let (mut lo, mut hi) = (u32::MAX, 0u32);
        let mut shift = 0i64;
        let mut affine = true;
        for (v, &oid) in result_ids.iter().enumerate() {
            if let Some(ov) = self.vertex_of(oid) {
                if (ov as i64) <= last_old {
                    return Err(FullBuildReason::Reordered);
                }
                last_old = ov as i64;
                scratch.map_new_to_old[v] = ov;
                scratch.map_old_to_new[ov as usize] = v as u32;
                let d = ov as i64 - v as i64;
                if retained == 0 {
                    shift = d;
                    lo = ov;
                } else if d != shift {
                    affine = false;
                }
                hi = ov;
                retained += 1;
            }
        }
        if !meets(retained) {
            return Err(FullBuildReason::LowOverlap);
        }
        // Monotone + affine ⇒ the retained old vertices are exactly the
        // contiguous range [lo, hi].
        let contiguous = retained > 0 && (hi - lo) as usize + 1 == retained;
        Ok(if affine && contiguous { Some((lo, hi + 1, shift)) } else { None })
    }

    /// Delta repair of the CSR graph (the incremental path of
    /// [`ResultGraph::build_grid_hash_incremental`]).
    ///
    /// Preconditions (established by the caller): `self` is the previous
    /// query's graph, `cache` its capture (or, after a repair, its cell
    /// lists / runs) on the same lattice, `scratch.map_new_to_old` / `map_old_to_new` the monotone
    /// renumbering between the two results (`affine` its constant-shift
    /// form when the renumbering is a contiguous range shift — the
    /// sliding-window common case — letting the hot loops renumber with
    /// arithmetic instead of gather loads).
    ///
    /// The repair exploits that edges among retained vertices are
    /// unchanged — both endpoints kept their exact cell lists — so:
    ///
    /// 1. retained vertices copy their cached cell list (coalesced over
    ///    runs of consecutive vertices); entering ones are hashed and
    ///    their `(cell, vertex)` pairs collected;
    /// 2. one merge co-walks the cached cell runs with the entering pairs,
    ///    emitting the repaired run index and every co-location incidence
    ///    involving an entering vertex;
    /// 3. those incidences are grouped per vertex and deduped into sorted
    ///    *delta rows* (an entering vertex cannot already be a neighbor);
    /// 4. leaving vertices' rows are scanned once to count the incidences
    ///    their neighbors lose;
    /// 5. final degrees = old degree − lost + delta, prefix-summed into
    ///    fresh offsets;
    /// 6. each row is written as a sorted merge of (surviving old row,
    ///    renumbered) and its delta row — untouched rows (no leaving
    ///    neighbors, no delta) take a branch-free renumber-copy — and the
    ///    new arrays are swapped in. No per-row sort, no dedup pass.
    #[allow(clippy::too_many_arguments)]
    fn repair_grid_hash(
        &mut self,
        scratch: &mut QueryScratch,
        cache: &mut GraphCache,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        grid: &UniformGrid,
        simplification: Simplification,
        affine: AffineRemap,
    ) -> CpuUnits {
        let mut units = CpuUnits::default();
        let new_n = result_ids.len();
        let prev_n = self.offsets.len().saturating_sub(1);
        // Probe-verified slides never touch the maps; only the exact-diff
        // path guarantees they are sized.
        debug_assert!(affine.is_some() || prev_n == scratch.map_old_to_new.len());
        debug_assert!(affine.is_some() || new_n == scratch.map_new_to_old.len());
        // After a full build the cache holds only the captured pair list.
        cache.derive(prev_n);

        // Phase 1: vertex table; per-vertex cell lists (cached copy for
        // retained vertices — coalesced into one memcpy per run of
        // consecutive old vertices — fresh hash for entering ones);
        // entering (cell, vertex) pairs.
        self.object_ids.clear();
        self.object_ids.extend_from_slice(result_ids);
        units.graph_object_inserts += new_n as u64;
        // The repair hashes only entering objects, but the prediction
        // reads the frame of every vertex: gather it once, up front.
        scratch.frame.gather(objects, result_ids, simplification);
        cache.back_cell_offsets.clear();
        cache.back_cell_offsets.push(0);
        cache.back_cells.clear();
        scratch.cell_pairs.clear();
        {
            let mut v = 0usize;
            while v < new_n {
                let ov = renumber_new(&scratch.map_new_to_old, affine, v as u32);
                if ov != u32::MAX {
                    let mut len = 1usize;
                    while v + len < new_n
                        && renumber_new(&scratch.map_new_to_old, affine, (v + len) as u32)
                            == ov + len as u32
                    {
                        len += 1;
                    }
                    let s = cache.cell_offsets[ov as usize];
                    let base = cache.back_cells.len() as u32;
                    for k in 1..=len {
                        cache
                            .back_cell_offsets
                            .push(base + cache.cell_offsets[ov as usize + k] - s);
                    }
                    let e = cache.cell_offsets[ov as usize + len];
                    cache.back_cells.extend_from_slice(&cache.cells[s as usize..e as usize]);
                    v += len;
                } else {
                    let QueryScratch { frame, cell_pairs, .. } = &mut *scratch;
                    grid.for_each_simplified_cell(&frame.simplified[v], |c| {
                        cache.back_cells.push(c);
                        cell_pairs.push((c, v as u32));
                    });
                    cache.back_cell_offsets.push(cache.back_cells.len() as u32);
                    v += 1;
                }
            }
        }
        self.repair_remap(scratch, cache, affine);

        // Phase 2: entering pairs grouped by cell (lexicographic also
        // sorts vertices within a cell, keeping the run index canonical).
        scratch.cell_pairs.sort_unstable();

        // Phase 3: merge the cached runs with the entering pairs,
        // producing the repaired run index and the duplicate-inclusive
        // incidence list of every co-location involving an entering
        // vertex. Cells with no entering member — almost all of them —
        // take the per-pair fast path: their edges are already in the old
        // CSR, so the pair is just renumber-filtered into the new runs.
        cache.back_runs.clear();
        {
            let QueryScratch { cell_pairs, cells, edges, map_old_to_new, .. } = scratch;
            edges.clear();
            let runs = &cache.runs[..];
            let added: &[(u32, u32)] = cell_pairs;
            let back_runs = &mut cache.back_runs;
            // Emits one group of entering-only pairs sharing `added[j].0`
            // and their mutual incidences; returns the next j.
            let emit_added_cell =
                |j: usize, edges: &mut Vec<(u32, u32)>, back_runs: &mut Vec<(u32, u32)>| -> usize {
                    let cell = added[j].0;
                    let mut jn = j;
                    while jn < added.len() && added[jn].0 == cell {
                        jn += 1;
                    }
                    for &(_, av) in &added[j..jn] {
                        back_runs.push((cell, av));
                    }
                    for k in j..jn {
                        for k2 in j..jn {
                            if k2 != k {
                                edges.push((added[k].1, added[k2].1));
                            }
                        }
                    }
                    jn
                };
            let (mut i, mut j) = (0usize, 0usize);
            while i < runs.len() {
                let (c, ov) = runs[i];
                while j < added.len() && added[j].0 < c {
                    j = emit_added_cell(j, edges, back_runs);
                }
                if j < added.len() && added[j].0 == c {
                    // Mixed cell: collect the surviving members, emit the
                    // repaired run and every incidence with the entering
                    // members.
                    cells.clear();
                    while i < runs.len() && runs[i].0 == c {
                        let nv = renumber_old(map_old_to_new, affine, runs[i].1);
                        if nv != u32::MAX {
                            cells.push(nv);
                        }
                        i += 1;
                    }
                    let j0 = j;
                    while j < added.len() && added[j].0 == c {
                        j += 1;
                    }
                    for &nv in cells.iter() {
                        back_runs.push((c, nv));
                    }
                    for &(_, av) in &added[j0..j] {
                        back_runs.push((c, av));
                    }
                    for k in j0..j {
                        let a = added[k].1;
                        for &m in cells.iter() {
                            edges.push((a, m));
                            edges.push((m, a));
                        }
                        for (k2, &(_, b)) in added[j0..j].iter().enumerate() {
                            if k2 + j0 != k {
                                edges.push((a, b));
                            }
                        }
                    }
                } else {
                    let nv = renumber_old(map_old_to_new, affine, ov);
                    if nv != u32::MAX {
                        back_runs.push((c, nv));
                    }
                    i += 1;
                }
            }
            while j < added.len() {
                j = emit_added_cell(j, edges, back_runs);
            }
        }

        // Phase 4: group the incidences by vertex (counting sort) and
        // sort + dedup each group into the delta rows: the sorted, unique
        // set of entering neighbors each vertex gains. Untouched rows are
        // skipped without a sort call.
        {
            let QueryScratch { edges, counts, delta_offsets, delta_targets, .. } = scratch;
            counts.clear();
            counts.resize(new_n, 0);
            for &(a, _) in edges.iter() {
                counts[a as usize] += 1;
            }
            let total = Self::prefix_sum_offsets(delta_offsets, counts);
            delta_targets.clear();
            delta_targets.resize(total, 0);
            for c in counts.iter_mut() {
                *c = 0;
            }
            for &(a, b) in edges.iter() {
                let idx = delta_offsets[a as usize] + counts[a as usize];
                delta_targets[idx as usize] = b;
                counts[a as usize] += 1;
            }
            let mut write = 0usize;
            for v in 0..new_n {
                let s = delta_offsets[v] as usize;
                let e = delta_offsets[v + 1] as usize;
                delta_offsets[v] = write as u32;
                if s == e {
                    continue;
                }
                if e - s == 1 {
                    delta_targets[write] = delta_targets[s];
                    write += 1;
                    continue;
                }
                let row = &mut delta_targets[s..e];
                if row.len() <= 16 {
                    // Tiny rows are the common case; inline insertion sort
                    // skips the general-sort dispatch per row.
                    for idx in 1..row.len() {
                        let val = row[idx];
                        let mut k = idx;
                        while k > 0 && row[k - 1] > val {
                            row[k] = row[k - 1];
                            k -= 1;
                        }
                        row[k] = val;
                    }
                } else {
                    row.sort_unstable();
                }
                let mut unique = 0usize;
                for idx in 0..row.len() {
                    if unique == 0 || row[idx] != row[unique - 1] {
                        row[unique] = row[idx];
                        unique += 1;
                    }
                }
                delta_targets.copy_within(s..s + unique, write);
                write += unique;
            }
            delta_offsets[new_n] = write as u32;
            delta_targets.truncate(write);
        }

        // Phase 5: incidences each old vertex loses to leaving neighbors
        // (one scan over the leaving vertices' rows).
        {
            let QueryScratch { map_old_to_new, removed_counts, .. } = scratch;
            removed_counts.clear();
            removed_counts.resize(prev_n, 0);
            let scan = |range: std::ops::Range<usize>, removed_counts: &mut Vec<u32>| {
                for ov in range {
                    if affine.is_none()
                        && renumber_old(map_old_to_new, affine, ov as u32) != u32::MAX
                    {
                        continue;
                    }
                    let s = self.offsets[ov] as usize;
                    let e = self.offsets[ov + 1] as usize;
                    for &w in &self.targets[s..e] {
                        removed_counts[w as usize] += 1;
                    }
                }
            };
            match affine {
                // Leaving vertices are the two contiguous complements of
                // the retained range: scan exactly their rows.
                Some((lo, hi, _)) => {
                    scan(0..lo as usize, removed_counts);
                    scan(hi as usize..prev_n, removed_counts);
                }
                None => scan(0..prev_n, removed_counts),
            }
        }

        // Phase 6: final degrees → new offsets. Delta rows are disjoint
        // from surviving old rows (an entering vertex cannot already be a
        // neighbor), so the sum is exact — no slack, no dedup pass.
        {
            let QueryScratch { map_new_to_old, removed_counts, delta_offsets, counts, .. } =
                scratch;
            counts.clear();
            for v in 0..new_n {
                let delta = delta_offsets[v + 1] - delta_offsets[v];
                let ov = renumber_new(map_new_to_old, affine, v as u32);
                let deg = if ov != u32::MAX {
                    let old_deg = self.offsets[ov as usize + 1] - self.offsets[ov as usize];
                    old_deg - removed_counts[ov as usize] + delta
                } else {
                    delta
                };
                counts.push(deg);
            }
            let total = Self::prefix_sum_offsets(&mut cache.back_offsets, counts);
            cache.back_targets.clear();
            cache.back_targets.resize(total, 0);
        }

        // Phase 7: write each row. Untouched retained rows (no leaving
        // neighbors, no delta — the vast majority under heavy overlap)
        // are a pure renumber-copy: a vectorizable constant subtraction
        // under an affine renumbering, a branch-free gather otherwise.
        // Touched rows take the filter/merge path.
        {
            let QueryScratch {
                map_new_to_old,
                map_old_to_new,
                delta_offsets,
                delta_targets,
                removed_counts,
                ..
            } = scratch;
            // Forward slides renumber every entering vertex above every
            // retained one, so a touched row is a concatenation — the
            // sorted merge degenerates to filter-copy + append.
            let delta_after_retained = match affine {
                // Entering vertices all renumber above the retained block
                // exactly when the block starts at new vertex 0.
                Some((lo, _, shift)) => lo as i64 - shift == 0,
                None => false,
            };
            let back_targets = &mut cache.back_targets;
            let mut w = 0usize;
            for v in 0..new_n {
                debug_assert_eq!(w, cache.back_offsets[v] as usize);
                let mut di = delta_offsets[v] as usize;
                let dend = delta_offsets[v + 1] as usize;
                let ov = renumber_new(map_new_to_old, affine, v as u32);
                if ov == u32::MAX {
                    // Entering vertex: its row is exactly its delta row.
                    let len = dend - di;
                    back_targets[w..w + len].copy_from_slice(&delta_targets[di..dend]);
                    w += len;
                    continue;
                }
                let s = self.offsets[ov as usize] as usize;
                let e = self.offsets[ov as usize + 1] as usize;
                let old_row = &self.targets[s..e];
                if di == dend && removed_counts[ov as usize] == 0 {
                    // Untouched row: every neighbor survives.
                    let dst = &mut back_targets[w..w + old_row.len()];
                    match affine {
                        Some((_, _, shift)) => {
                            // u32 wrapping keeps this a straight-line SIMD
                            // subtraction (every in-range value is exact).
                            let shift = shift as u32;
                            for (d, &t) in dst.iter_mut().zip(old_row) {
                                *d = t.wrapping_sub(shift);
                            }
                        }
                        None => {
                            for (d, &t) in dst.iter_mut().zip(old_row) {
                                *d = map_old_to_new[t as usize];
                            }
                        }
                    }
                    w += old_row.len();
                    continue;
                }
                if delta_after_retained {
                    for &t in old_row {
                        let nt = renumber_old(map_old_to_new, affine, t);
                        if nt != u32::MAX {
                            back_targets[w] = nt;
                            w += 1;
                        }
                    }
                } else {
                    for &t in old_row {
                        let nt = renumber_old(map_old_to_new, affine, t);
                        if nt == u32::MAX {
                            continue;
                        }
                        while di < dend && delta_targets[di] < nt {
                            back_targets[w] = delta_targets[di];
                            w += 1;
                            di += 1;
                        }
                        back_targets[w] = nt;
                        w += 1;
                    }
                }
                while di < dend {
                    back_targets[w] = delta_targets[di];
                    w += 1;
                    di += 1;
                }
            }
            debug_assert_eq!(w, back_targets.len());
        }

        std::mem::swap(&mut self.offsets, &mut cache.back_offsets);
        std::mem::swap(&mut self.targets, &mut cache.back_targets);
        debug_assert_eq!(self.targets.len() % 2, 0, "undirected edges appear twice");
        self.edge_count = self.targets.len() / 2;
        units.graph_edge_inserts += self.edge_count as u64;
        cache.publish_repair();
        units
    }

    /// Rebuilds the reverse index for the repaired graph. The sorted-pair
    /// mode — selected for spread-out id ranges — is repaired when the
    /// previous index was in it too: the previous sorted pairs are
    /// filter-renumbered (their id order is untouched) and merged with the
    /// entering ids, so only the entering ids are sorted. Everything else
    /// (dense table, mode transition, empty result) is the plain rebuild.
    fn repair_remap(
        &mut self,
        scratch: &mut QueryScratch,
        cache: &mut GraphCache,
        affine: AffineRemap,
    ) {
        let n = self.object_ids.len();
        if self.remap_pairs.is_empty()
            || self.id_span().is_none_or(|(min, max)| remap_is_dense(n, min, max))
        {
            return self.rebuild_remap(&mut scratch.edges);
        }
        // Sorted-pair repair: sort only the entering ids, then one merge.
        let QueryScratch { edges, map_new_to_old, map_old_to_new, .. } = scratch;
        edges.clear();
        for v in 0..n {
            if renumber_new(map_new_to_old, affine, v as u32) == u32::MAX {
                edges.push((self.object_ids[v].0, v as u32));
            }
        }
        edges.sort_unstable();
        cache.back_remap_pairs.clear();
        let mut j = 0usize;
        for &(oid, ov) in &self.remap_pairs {
            let nv = renumber_old(map_old_to_new, affine, ov);
            if nv == u32::MAX {
                continue;
            }
            while j < edges.len() && edges[j].0 < oid {
                cache.back_remap_pairs.push(edges[j]);
                j += 1;
            }
            cache.back_remap_pairs.push((oid, nv));
        }
        cache.back_remap_pairs.extend_from_slice(&edges[j..]);
        std::mem::swap(&mut self.remap_pairs, &mut cache.back_remap_pairs);
        debug_assert!(
            self.remap_pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "repaired reverse index must stay sorted and unique"
        );
    }

    /// Lowest and highest result object id; `None` for an empty result.
    fn id_span(&self) -> Option<(u32, u32)> {
        let ids = self.object_ids.iter().map(|o| o.0);
        ids.clone().min().zip(ids.max())
    }

    /// Rebuilds the reverse index from `object_ids`: a dense offset table
    /// when the result-id range is compact (query results are spatially
    /// local, so it often is), sorted pairs otherwise — neuron ids are
    /// spread, so a guided neuron query takes this side every time. The
    /// pairs are sorted by LSD radix on `id − min`, [`RADIX_BITS`] a pass
    /// over as many passes as the id span has digits, ping-ponging with
    /// `spare`; ids are unique, so the outcome is *the* sorted vector.
    fn rebuild_remap(&mut self, spare: &mut Vec<(u32, u32)>) {
        self.remap_dense.clear();
        self.remap_base = 0;
        self.remap_pairs.clear();
        let n = self.object_ids.len();
        let Some((min, max)) = self.id_span() else { return };
        if remap_is_dense(n, min, max) {
            self.remap_base = min;
            self.remap_dense.resize((max - min) as usize + 1, u32::MAX);
            for (v, &o) in self.object_ids.iter().enumerate() {
                debug_assert_eq!(
                    self.remap_dense[(o.0 - min) as usize],
                    u32::MAX,
                    "result ids must be unique"
                );
                self.remap_dense[(o.0 - min) as usize] = v as u32;
            }
            return;
        }
        let passes = (u32::BITS - (max - min).leading_zeros()).div_ceil(RADIX_BITS);
        // The passes alternate buffers; start so that the last one lands
        // in `remap_pairs`.
        let (mut src, mut dst) = (&mut self.remap_pairs, spare);
        if passes % 2 == 1 {
            std::mem::swap(&mut src, &mut dst);
        }
        src.clear();
        src.extend(self.object_ids.iter().enumerate().map(|(v, &o)| (o.0, v as u32)));
        dst.clear();
        dst.resize(n, (0, 0));
        for pass in 0..passes {
            let digit =
                |oid: u32| ((oid - min) >> (pass * RADIX_BITS)) as usize % (1 << RADIX_BITS);
            let mut starts = [0u32; 1 << RADIX_BITS];
            for &(oid, _) in src.iter() {
                starts[digit(oid)] += 1;
            }
            let mut sum = 0u32;
            for s in starts.iter_mut() {
                sum += std::mem::replace(s, sum);
            }
            for &(oid, v) in src.iter() {
                let slot = &mut starts[digit(oid)];
                dst[*slot as usize] = (oid, v);
                *slot += 1;
            }
            std::mem::swap(&mut src, &mut dst);
        }
        debug_assert!(
            self.remap_pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "result ids must be unique"
        );
    }

    /// Lays the scratch edge multiset (both directions present) out as
    /// CSR: degree histogram, scatter, then [`ResultGraph::dedup_rows`].
    /// Used by the explicit-adjacency build; the grid build never
    /// materializes an edge list ([`ResultGraph::assemble_csr`]).
    fn finish_csr(&mut self, scratch: &mut QueryScratch, units: &mut CpuUnits) {
        let n = self.object_ids.len();
        let edges = &scratch.edges;
        // Degree histogram (duplicates included).
        scratch.counts.clear();
        scratch.counts.resize(n, 0);
        for &(a, _) in edges {
            scratch.counts[a as usize] += 1;
        }
        let total = Self::prefix_sum_offsets(&mut self.offsets, &scratch.counts);
        debug_assert_eq!(total, edges.len());
        // Scatter, reusing the histogram as per-row write cursors.
        self.targets.clear();
        self.targets.resize(total, 0);
        for c in scratch.counts.iter_mut() {
            *c = 0;
        }
        for &(a, b) in edges {
            let idx = self.offsets[a as usize] + scratch.counts[a as usize];
            self.targets[idx as usize] = b;
            scratch.counts[a as usize] += 1;
        }
        self.dedup_rows(units);
    }

    /// Prefix-sums the per-row incidence counts into `offsets` and
    /// returns the total. Accumulates in `u64` — the counts include
    /// duplicates, so on a pathologically coarse grid the total can
    /// exceed `u32::MAX` even though the deduped graph would fit — and
    /// fails loudly instead of wrapping into a corrupt layout.
    fn prefix_sum_offsets(offsets: &mut Vec<u32>, counts: &[u32]) -> usize {
        let total: u64 = counts.iter().map(|&c| c as u64).sum();
        assert!(
            total <= u32::MAX as u64,
            "result graph incidence count {total} overflows the u32 CSR offsets \
             (coarsen less or shrink the result)"
        );
        offsets.clear();
        offsets.reserve(counts.len() + 1);
        offsets.push(0);
        let mut sum = 0u32;
        for &c in counts {
            sum += c;
            offsets.push(sum);
        }
        total as usize
    }

    /// Sorts + dedups every CSR row in place, compacting rows left as
    /// they shrink (the write cursor never overtakes a row's old start),
    /// and fixes up offsets and the edge counter. Each row is short —
    /// O(Σ row·log row) total, no sort over the full edge list. Charges
    /// one `graph_edge_inserts` unit per unique undirected edge — the
    /// same count the seed's `add_edge` accumulated.
    fn dedup_rows(&mut self, units: &mut CpuUnits) {
        let n = self.object_ids.len();
        let mut write = 0usize;
        for v in 0..n {
            let start = self.offsets[v] as usize;
            let end = self.offsets[v + 1] as usize;
            let row = &mut self.targets[start..end];
            row.sort_unstable();
            let mut unique = 0usize;
            for i in 0..row.len() {
                if unique == 0 || row[i] != row[unique - 1] {
                    row[unique] = row[i];
                    unique += 1;
                }
            }
            debug_assert!(write <= start, "compaction cursor overtook row start");
            self.offsets[v] = write as u32;
            self.targets.copy_within(start..start + unique, write);
            write += unique;
        }
        self.offsets[n] = write as u32;
        self.targets.truncate(write);
        debug_assert_eq!(self.targets.len() % 2, 0, "undirected edges appear twice");
        self.edge_count = self.targets.len() / 2;
        units.graph_edge_inserts += self.edge_count as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scout_geometry::{Aspect, Segment, Shape, Simplification, StructureId, Vec3};
    use std::collections::HashMap;

    // The reverse index against a `HashMap`, on id spans of one, two and
    // three radix digits and on both sides of the dense/sparse switch. A
    // unit test because ids this spread cannot be reached through a build
    // without a dataset array as long as the largest id.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn csr_grid_hash_reverse_index_matches_hashmap_oracle(
            inner in prop_oneof![
                prop::collection::vec(0.0..1.0f64, 0..300),
                prop::collection::vec(0.0..1.0f64, 1_100..1_600),
            ],
            base in 0u32..1_000_000,
            kind in 0usize..6,
            wide in 0.0..1.0f64,
        ) {
            let between = |lo: u32, hi: u32| lo + (wide * (hi - lo) as f64) as u32;
            // Where the index turns sparse for the largest result these ids
            // can make; spans at, beside and far from it.
            let switch = ((inner.len() + 2).max(1024) * DENSE_REMAP_SLACK) as u32;
            let (span, sparse) = [
                (between(2, 1 << RADIX_BITS), false), // one digit
                (switch - 1, false),
                (switch, true),
                (between(switch, 1 << (2 * RADIX_BITS)), true), // two digits
                (between(1 << (2 * RADIX_BITS), 1 << 31), true), // three
                (u32::MAX - base, true),
            ][kind];
            // Unique ids over exactly [base, base + span], in no order.
            let mut ids: Vec<u32> =
                inner.iter().map(|f| base + 1 + (f * (span - 2) as f64) as u32).collect();
            ids.extend([base + span, base]);
            ids.sort_unstable();
            ids.dedup();
            ids.sort_unstable_by_key(|&id| id.wrapping_mul(0x9E37_79B9));

            let mut graph = ResultGraph {
                object_ids: ids.iter().map(|&id| ObjectId(id)).collect(),
                ..Default::default()
            };
            let mut spare = vec![(7, 7); 3];
            graph.rebuild_remap(&mut spare);
            // Duplicates among `inner` can only shrink the result, which
            // moves the switch down: never up past a sparse span.
            if sparse || ids.len() == inner.len() + 2 {
                prop_assert_eq!(graph.remap_dense.is_empty(), sparse);
            }
            prop_assert!(graph.remap_dense.is_empty() != graph.remap_pairs.is_empty());
            if sparse {
                prop_assert!(graph.remap_pairs.windows(2).all(|w| w[0].0 < w[1].0));
                prop_assert_eq!(graph.remap_pairs.len(), ids.len());
            }
            let oracle: HashMap<u32, u32> =
                ids.iter().enumerate().map(|(v, &id)| (id, v as u32)).collect();
            for &id in &ids {
                for probe in [id, id.wrapping_sub(1), id.wrapping_add(1)] {
                    prop_assert_eq!(
                        graph.vertex_of(ObjectId(probe)), oracle.get(&probe).copied());
                }
            }
        }
    }

    /// A chain of collinear segments plus one far-away point.
    fn chain_dataset() -> (Vec<SpatialObject>, Vec<ObjectId>) {
        let mut objects = Vec::new();
        for i in 0..5u32 {
            let a = Vec3::new(i as f64 * 2.0, 10.0, 10.0);
            let b = Vec3::new((i + 1) as f64 * 2.0, 10.0, 10.0);
            objects.push(SpatialObject::new(
                ObjectId(i),
                StructureId(0),
                Shape::Segment(Segment::new(a, b)),
            ));
        }
        objects.push(SpatialObject::new(
            ObjectId(5),
            StructureId(1),
            Shape::Point(Vec3::new(18.0, 18.0, 18.0)),
        ));
        let ids = objects.iter().map(|o| o.id).collect();
        (objects, ids)
    }

    fn region() -> QueryRegion {
        QueryRegion::new(Vec3::splat(10.0), 8000.0, Aspect::Cube)
    }

    #[test]
    fn grid_hash_connects_chain_not_outlier() {
        let (objects, ids) = chain_dataset();
        let (g, units) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 4096, Simplification::Segment);
        assert_eq!(g.vertex_count(), 6);
        assert!(g.edge_count() >= 4, "chain edges missing: {}", g.edge_count());
        let (comp, count) = g.components();
        assert_eq!(count, 2, "expected chain + outlier");
        // The outlier is its own component.
        let outlier = g.vertex_of(ObjectId(5)).unwrap();
        let chain0 = g.vertex_of(ObjectId(0)).unwrap();
        assert_ne!(comp[outlier as usize], comp[chain0 as usize]);
        assert_eq!(units.graph_object_inserts, 6);
        assert_eq!(units.graph_edge_inserts as usize, g.edge_count());
    }

    #[test]
    fn coarse_grid_creates_more_edges_than_fine() {
        let (objects, ids) = chain_dataset();
        let (fine, _) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 32_768, Simplification::Segment);
        let (coarse, _) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 8, Simplification::Segment);
        assert!(
            coarse.edge_count() >= fine.edge_count(),
            "coarse {} < fine {}",
            coarse.edge_count(),
            fine.edge_count()
        );
        // With 8 cells the outlier ends up connected (excess edges, §4.2:
        // "Excess edges can imply structures that are not present").
        let (_, coarse_comps) = coarse.components();
        assert!(coarse_comps <= 2);
    }

    #[test]
    fn explicit_adjacency_restricts_to_result() {
        let (objects, _) = chain_dataset();
        let lists = vec![
            vec![ObjectId(1)],
            vec![ObjectId(0), ObjectId(2)],
            vec![ObjectId(1), ObjectId(3)],
            vec![ObjectId(2), ObjectId(4)],
            vec![ObjectId(3)],
            vec![],
        ];
        let adj = ObjectAdjacency::from_lists(&lists);
        // Result contains only objects 0..3: edge 3-4 must be dropped.
        let ids: Vec<ObjectId> = (0..4).map(ObjectId).collect();
        let (g, _) = ResultGraph::from_explicit(&adj, &ids);
        assert_eq!(g.vertex_count(), 4);
        assert_eq!(g.edge_count(), 3);
        let _ = objects;
    }

    #[test]
    fn empty_result_graph() {
        let (objects, _) = chain_dataset();
        let (g, units) =
            ResultGraph::grid_hash(&objects, &[], &region(), 512, Simplification::Segment);
        assert_eq!(g.vertex_count(), 0);
        assert_eq!(g.edge_count(), 0);
        assert_eq!(units.graph_object_inserts, 0);
        let (_, count) = g.components();
        assert_eq!(count, 0);
    }

    #[test]
    fn memory_grows_with_graph() {
        let (objects, ids) = chain_dataset();
        let (g, _) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 4096, Simplification::Segment);
        assert!(g.memory_bytes() > 0);
        let (empty, _) =
            ResultGraph::grid_hash(&objects, &[], &region(), 4096, Simplification::Segment);
        assert!(g.memory_bytes() > empty.memory_bytes());
    }

    #[test]
    fn components_of_disconnected_vertices() {
        let (objects, ids) = chain_dataset();
        // Point simplification with a very fine grid disconnects everything.
        let (g, _) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 32_768, Simplification::Point);
        let (_, count) = g.components();
        assert!(count >= 3, "expected mostly disconnected, got {count}");
    }

    #[test]
    fn neighbors_are_sorted_and_symmetric() {
        let (objects, ids) = chain_dataset();
        let (g, _) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 4096, Simplification::Segment);
        for v in 0..g.vertex_count() as u32 {
            let ns = g.neighbors(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]), "unsorted neighbors of {v}: {ns:?}");
            for &w in ns {
                assert_ne!(w, v, "self loop at {v}");
                assert!(g.neighbors(w).contains(&v), "edge {v}-{w} not symmetric");
            }
        }
    }

    #[test]
    fn rebuild_reuses_buffers_and_matches_fresh_build() {
        let (objects, ids) = chain_dataset();
        let mut scratch = QueryScratch::new();
        let mut g = ResultGraph::default();
        // Build once on a subset, then rebuild on the full result: the
        // rebuilt graph must equal a fresh build.
        g.build_grid_hash(
            &mut scratch,
            &objects,
            &ids[..3],
            &region(),
            4096,
            Simplification::Segment,
        );
        let units = g.build_grid_hash(
            &mut scratch,
            &objects,
            &ids,
            &region(),
            4096,
            Simplification::Segment,
        );
        let (fresh, fresh_units) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 4096, Simplification::Segment);
        assert_eq!(g.vertex_count(), fresh.vertex_count());
        assert_eq!(g.edge_count(), fresh.edge_count());
        assert_eq!(units, fresh_units);
        for v in 0..g.vertex_count() as u32 {
            assert_eq!(g.neighbors(v), fresh.neighbors(v));
            assert_eq!(g.object_id(v), fresh.object_id(v));
        }
    }
}
