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
//! (the *chain pass*, which also unites them into components), and writes
//! each CSR row once, already ascending and duplicate-free, from one counting
//! sort of those pairs — no sort within a row, no dedup (see
//! `ResultGraph::assemble_csr`). The explicit build makes each adjacency
//! entry a cell holding just its two objects and shares everything after
//! pass 1. All of it runs over the buffers of the [`ScoutScratch`] part of
//! a [`scout_sim::QueryScratch`] arena, so a warmed thread rebuilds a graph
//! every query without touching the allocator (DESIGN.md §6). The pre-CSR
//! adjacency-list implementation survives as
//! [`crate::reference::ReferenceGraph`], the property-test oracle and bench
//! baseline.
//!
//! Vertex numbering (result order), the edge set and the component
//! labeling are identical to the reference build, so simulation traces are
//! unchanged; only the neighbor ordering is now canonical (ascending)
//! instead of hash-map incidental.

use crate::scratch::ScoutScratch;
use crate::split_filter::SplitFilter;
use scout_geometry::{
    ObjectAdjacency, ObjectId, QueryRegion, Simplification, SpatialObject, UniformGrid,
};
use scout_sim::{CpuUnits, QueryScratch};
use std::hint::select_unpredictable;

/// Local vertex index within one result graph.
pub(crate) type VertexId = u32;

/// The dense reverse index is used when the result ids span at most this
/// many times the result size (otherwise the table would be mostly holes
/// and the sorted-pair fallback wins).
const DENSE_REMAP_SLACK: usize = 4;

/// Whether `n` result ids spanning `min..=max` get the dense reverse index.
fn remap_is_dense(n: usize, min: u32, max: u32) -> bool {
    ((max - min) as usize) < n.max(1024) * DENSE_REMAP_SLACK
}

/// The chain pass indexes its `head` table by cell id when the cell count
/// is at most this many times the pair count; beyond it a cell-indexed
/// table would be mostly holes to clear every query, so the build hashes
/// cells into a table sized by the pairs.
const CELL_HISTOGRAM_SLACK: usize = 4;

/// "No pair" in the chain pass's `head` table and links, "never met" in
/// its stamps.
const NONE: u32 = u32::MAX;

/// The sparse reverse index is sorted by LSD radix, this many bits a pass
/// (a 2 048-entry histogram: 8 KB of stack).
const RADIX_BITS: u32 = 11;

/// The root of `x`'s set. Every set is rooted at its lowest vertex and a
/// parent is always lower than its child; path halving keeps it so, since
/// a grandparent is lower still.
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        let grand = parent[parent[x as usize] as usize];
        parent[x as usize] = grand;
        x = grand;
    }
    x
}

/// Unites the set whose root is `root` with `u`'s set by linking the
/// higher root under the lower, and returns the lower: the merged root.
#[inline]
fn unite(parent: &mut [u32], root: u32, u: u32) -> u32 {
    let r = find(parent, u);
    parent[r.max(root) as usize] = r.min(root);
    r.min(root)
}

/// Turns union-find parents — each set rooted at its lowest vertex, every
/// other vertex's parent below it — into component labels in place and
/// returns the count. One ascending sweep: a root opens the next label,
/// any other vertex copies the label its parent already holds. A
/// component's label is therefore the rank of its lowest vertex among the
/// roots — the first-encounter numbering of a DFS started from every
/// unlabeled vertex in ascending order.
pub(crate) fn label_components(parent: &mut [u32]) -> usize {
    let mut next = 0u32;
    for v in 0..parent.len() {
        let up = parent[v] as usize;
        let root = up == v;
        parent[v] = if root { next } else { parent[up] };
        next += u32::from(root);
    }
    next as usize
}

/// The chain pass's running state (see `ResultGraph::assemble_csr`): the
/// `head` table, the links, the stamps, the degree counts and the first
/// meetings of the pairs linked so far. The union-find parents it unites
/// into are the caller's, passed to each call. The pass can stop after any
/// vertex's last pair and resume at the next: the split filter's caller
/// links its own part's pairs inside the fork, and the build links the
/// rest (DESIGN.md §6, "One fork per large query").
#[derive(Debug, Clone, Default)]
pub(crate) struct Chain {
    /// Whether `head` is indexed by cell id; otherwise it is an
    /// open-addressed table of a power-of-two slots, kept at least twice
    /// the pairs linked.
    direct: bool,
    /// Each cell's newest pair, or [`NONE`].
    head: Vec<u32>,
    /// Per pair, its vertex and the pair before it on its cell's chain;
    /// after the pass, the meetings in `(u, v)` order.
    links: Vec<(u32, u32)>,
    /// The last vertex each vertex was met by (one count per neighbour).
    stamp: Vec<u32>,
    /// Forward degree per vertex, then each row's forward write cursor.
    forward: Vec<u32>,
    /// Backward degree per vertex, then each row's backward write cursor.
    backward: Vec<u32>,
    /// Each first meeting `(lower, higher vertex)`, by the higher vertex.
    met: Vec<(u32, u32)>,
    /// How many pairs are linked.
    linked: usize,
}

impl Chain {
    /// Empties the pass for a grid of `cells` cells and about `pairs`
    /// pairs: `head` is indexed by cell id when the grid is small against
    /// them ([`CELL_HISTOGRAM_SLACK`]), hashed into 2 × `pairs` slots
    /// otherwise. The graph does not depend on the choice.
    pub(crate) fn start(&mut self, cells: usize, pairs: usize, parent: &mut Vec<u32>) {
        self.direct = cells <= pairs.max(1024) * CELL_HISTOGRAM_SLACK;
        let slots = if self.direct { cells } else { (2 * pairs).next_power_of_two().max(2) };
        self.head.clear();
        self.head.resize(slots, NONE);
        for buffer in [&mut self.stamp, &mut self.forward, &mut self.backward, parent] {
            buffer.clear();
        }
        self.links.clear();
        self.met.clear();
        self.linked = 0;
    }

    /// Makes room for `vertices` vertices, and for `pairs` pairs and as
    /// many first meetings.
    pub(crate) fn reserve(&mut self, vertices: usize, pairs: usize, parent: &mut Vec<u32>) {
        for buffer in [&mut self.stamp, &mut self.forward, &mut self.backward, parent] {
            buffer.reserve(vertices);
        }
        self.links.reserve(pairs);
        self.met.reserve(pairs);
    }

    /// The slot of `cell` in the hashed `head` table: its own, or the empty
    /// one its probe ends at (Fibonacci hashing by the top bits, `shift`
    /// being 32 − log2 of the slots; linear probing).
    #[inline]
    fn probe(head: &[u32], shift: u32, pairs: &[(u32, u32)], cell: u32) -> usize {
        let mut slot = (cell.wrapping_mul(0x9E37_79B9) >> shift) as usize;
        while head[slot] != NONE && pairs[head[slot] as usize].0 != cell {
            slot = (slot + 1) & (head.len() - 1);
        }
        slot
    }

    /// Links `pairs[linked..]` — vertex-major, each `(cell, vertex)` once,
    /// every vertex below `n` and none of the linked ones' vertices among
    /// them — onto their cells' chains, uniting each first meeting in
    /// `parent`. A hashed `head` table that would end up more than half
    /// full first moves to twice the pairs' slots.
    pub(crate) fn link(&mut self, pairs: &[(u32, u32)], n: usize, parent: &mut Vec<u32>) {
        assert!(pairs.len() < NONE as usize, "pair list overflows the u32 chain links");
        let Chain { direct, head, links, stamp, forward, backward, met, linked } = self;
        stamp.resize(n, NONE);
        forward.resize(n, 0);
        backward.resize(n, 0);
        parent.extend(parent.len() as u32..n as u32);
        let shift = |head: &[u32]| u32::BITS - head.len().trailing_zeros();
        if !*direct && 2 * pairs.len() > head.len() {
            let old = std::mem::replace(head, vec![NONE; (2 * pairs.len()).next_power_of_two()]);
            for p in old.into_iter().filter(|&p| p != NONE) {
                let slot = Self::probe(head, shift(head), pairs, pairs[p as usize].0);
                head[slot] = p;
            }
        }
        links.resize(pairs.len(), (0, NONE));
        let (direct, hash_shift) = (*direct, shift(head));
        let (head, links, parent) = (&mut head[..], &mut links[..], &mut parent[..]);
        let (stamp, forward, backward) = (&mut stamp[..], &mut forward[..], &mut backward[..]);
        let (mut last, mut root) = (NONE, NONE);
        for (p, &(cell, v)) in pairs.iter().enumerate().skip(*linked) {
            debug_assert!(last == NONE || last <= v, "pairs must be vertex-major");
            let slot =
                if direct { cell as usize } else { Self::probe(head, hash_shift, pairs, cell) };
            let mut q = head[slot];
            head[slot] = p as u32;
            links[p] = (v, q);
            root = select_unpredictable(v == last, root, v);
            last = v;
            while q != NONE {
                let (u, before) = links[q as usize];
                debug_assert!(u < v, "pairs must be vertex-major, each (cell, vertex) once");
                if stamp[u as usize] != v {
                    stamp[u as usize] = v;
                    met.push((u, v));
                    forward[u as usize] += 1;
                    backward[v as usize] += 1;
                    root = unite(parent, root, u);
                }
                q = before;
            }
        }
        *linked = pairs.len();
    }
}

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
}

impl ResultGraph {
    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.object_ids.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
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

    /// Resident size of the graph structures (CSR arrays and reverse
    /// index), for the §8.2 memory measurements. Exact for the flat
    /// layout: no hash-bucket overhead, no per-vertex `Vec` headers. The
    /// graph holds nothing else — the build's working buffers belong to
    /// the caller's [`ScoutScratch`] and are not counted.
    pub(crate) fn memory_bytes(&self) -> usize {
        self.object_ids.len() * std::mem::size_of::<ObjectId>()
            + self.offsets.len() * std::mem::size_of::<u32>()
            + self.targets.len() * std::mem::size_of::<VertexId>()
            + self.remap_dense.len() * std::mem::size_of::<u32>()
            + self.remap_pairs.len() * std::mem::size_of::<(u32, VertexId)>()
    }

    /// Connected components; returns (component id per vertex, count).
    ///
    /// Allocating wrapper around [`ResultGraph::components_into`].
    pub fn components(&self) -> (Vec<u32>, usize) {
        let mut comp = Vec::new();
        let count = self.components_into(&mut comp);
        (comp, count)
    }

    /// Connected components into a caller-provided buffer. Returns the
    /// component count; `comp[v]` is vertex `v`'s label.
    ///
    /// Labels are assigned in first-encounter order over ascending vertex
    /// ids, so the labeling depends only on the edge *set* — identical to
    /// the reference implementation's DFS. Union-find over each row's
    /// backward part, then the labelling sweep. The hot path skips the
    /// unions: both builds leave them done in `ScoutScratch::components`.
    pub fn components_into(&self, comp: &mut Vec<u32>) -> usize {
        self.unite_rows(comp);
        label_components(comp)
    }

    /// Union-find parents of this graph's components into `parent`. Rows
    /// are ascending, so a row's backward part — its edges to lower
    /// vertices — is its prefix, and each undirected edge is united once,
    /// from its higher end. A row's own vertex is still a singleton when
    /// its row comes up: every earlier union linked roots below it.
    fn unite_rows(&self, parent: &mut Vec<u32>) {
        parent.clear();
        parent.extend(0..self.vertex_count() as u32);
        for v in 0..self.vertex_count() as u32 {
            let mut root = v;
            for &u in self.neighbors(v) {
                if u >= v {
                    break;
                }
                root = unite(parent, root, u);
            }
        }
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
    /// each co-located vertex pair once, and a counting sort and one
    /// scatter write the CSR rows, ascending and duplicate-free by
    /// construction (see `assemble_csr`) — replacing the seed's per-cell
    /// `HashMap` entries and O(degree) `contains` checks.
    ///
    /// Pass 1 is the one place the prediction loads the object records, so
    /// it also leaves the arena's [`ScoutScratch::frame`] describing
    /// exactly this graph's vertices. The chain pass unites each pair it
    /// finds, so [`ScoutScratch::components`] comes back holding the
    /// union-find parents the labelling sweep turns into labels.
    pub fn build_grid_hash(
        &mut self,
        scratch: &mut QueryScratch,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        resolution: u32,
        simplification: scout_geometry::Simplification,
    ) -> CpuUnits {
        let grid = (resolution, simplification);
        self.build_grid_hash_from(scratch, objects, result_ids, region, grid, None)
    }

    /// [`ResultGraph::build_grid_hash`] with `grid`'s resolution and
    /// simplification, taking pass 1 and the chain pass over the split
    /// filter caller's part from `split`'s stash when it holds this
    /// result's (the split filter's frame and pairs are exactly pass 1's,
    /// and its chain state is the chain pass's up to its caller's last
    /// pair). The chain pass then resumes at the first helper pair. The
    /// stash is empty afterwards.
    pub(crate) fn build_grid_hash_from(
        &mut self,
        scratch: &mut QueryScratch,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        (resolution, simplification): (u32, Simplification),
        split: Option<&mut SplitFilter>,
    ) -> CpuUnits {
        self.object_ids.clear();
        let scratch = scratch.part::<ScoutScratch>();
        let mut units = CpuUnits::default();
        let grid = UniformGrid::with_resolution(*region.aabb(), resolution);
        scratch.frame.clear();
        scratch.cell_pairs.clear();

        // Pass 1: vertices (result order — the numbering every consumer
        // relies on) and (cell, vertex) pairs, pushed straight from the
        // cell walk. This is the one loop of the prediction that loads the
        // object records, so it also fills the result frame every later
        // phase reads.
        let n = result_ids.len();
        self.object_ids.extend_from_slice(result_ids);
        units.graph_object_inserts += n as u64;
        let stashed = split
            .is_some_and(|split| split.join_into(n, region, (resolution, simplification), scratch));
        if !stashed {
            let ScoutScratch { frame, cell_pairs, chain, components, .. } = &mut *scratch;
            for (v, &oid) in result_ids.iter().enumerate() {
                let simplified = frame.push(&objects[oid.index()], simplification);
                grid.for_each_simplified_cell(&simplified, |c| cell_pairs.push((c, v as u32)));
            }
            chain.start(grid.cell_count() as usize, cell_pairs.len(), components);
        }
        self.rebuild_remap(&mut scratch.edges);
        self.assemble_csr(scratch, &mut units);
        units
    }

    /// Passes 2–3 of both builds: the vertex-major pair list in
    /// `scratch.cell_pairs` becomes the CSR adjacency in one *chain
    /// pass* ([`Chain::link`], from the pairs `scratch.chain` has not
    /// linked yet), a counting sort and one scatter, writing every target
    /// slot exactly once. Every loop is flat — over the pairs, the edges or
    /// the vertices — so none pays a mispredicted exit per row.
    ///
    /// **Chain pass.** Each pair is linked onto its cell's chain: `head`
    /// names the cell's newest pair, a link is `(vertex, pair before)`.
    /// The pairs arrive vertex-major with no `(cell, vertex)` repeated, so
    /// the chain a pair of vertex `v` joins holds exactly the members of
    /// its cell numbered below `v` — `v`'s *backward* neighbours. A
    /// per-vertex stamp drops a neighbour met again through a second
    /// shared cell; each first meeting `(u, v)` is recorded, counted into
    /// both degrees, and united into `v`'s set (`v` starts its pairs as a
    /// singleton: every earlier union linked roots below it). Rows are
    /// therefore duplicate-free before a single target is written: nothing
    /// to sort within a row, nothing to dedup.
    ///
    /// `head` is indexed by cell id when the grid is small against the pair
    /// list ([`CELL_HISTOGRAM_SLACK`]); otherwise it is an open-addressed
    /// table of at least 2 × pairs slots keyed by the head pair's own cell
    /// (Fibonacci hashing, linear probing) — the side small results take
    /// (`gaps`: ≈ 1.7 k objects a query against 32 768 cells). The table is
    /// laid out by [`Chain::start`] before the first pair is linked.
    ///
    /// **Sort and scatter.** Row `v` is its backward part then its forward
    /// part. The first meetings arrive sorted by `v`; a stable counting
    /// sort by `u` orders them by `(u, v)`. Scattering them in that order —
    /// `v` into `u`'s forward part, `u` into `v`'s backward part — fills
    /// both parts of every row in ascending order.
    fn assemble_csr(&mut self, scratch: &mut ScoutScratch, units: &mut CpuUnits) {
        let n = self.object_ids.len();
        let ScoutScratch {
            cell_pairs: pairs,
            chain,
            components: parent,
            met_cursor: sort_cursor,
            ..
        } = scratch;
        chain.link(pairs, n, parent);
        let Chain { links, forward, backward, met, .. } = chain;

        // Where each `u`'s first meetings start in `(u, v)` order; then row
        // lengths → offsets, and the write cursor of each row's forward
        // part (`forward`) and backward part (`backward`).
        sort_cursor.clear();
        let mut start = 0u32;
        sort_cursor.extend(forward.iter().map(|&f| {
            start += f;
            start - f
        }));
        for (degree, &back) in forward.iter_mut().zip(backward.iter()) {
            *degree += back;
        }
        let total = Self::prefix_sum_offsets(&mut self.offsets, forward);
        for (v, (fwd, back)) in forward.iter_mut().zip(backward.iter_mut()).enumerate() {
            *fwd = self.offsets[v] + *back;
            *back = self.offsets[v];
        }
        // The chain links are spent: they take the meetings in `(u, v)`
        // order.
        links.clear();
        links.resize(met.len(), (0, 0));
        for &(u, v) in met.iter() {
            let at = &mut sort_cursor[u as usize];
            links[*at as usize] = (u, v);
            *at += 1;
        }
        self.targets.clear();
        self.targets.resize(total, 0);
        for &(u, v) in links.iter() {
            self.targets[forward[u as usize] as usize] = v;
            forward[u as usize] += 1;
            self.targets[backward[v as usize] as usize] = u;
            backward[v as usize] += 1;
        }
        debug_assert!(
            (0..n).all(|v| self.targets[self.row(v as u32)].windows(2).all(|w| w[0] < w[1])),
            "rows must come out ascending and duplicate-free"
        );
        units.graph_edge_inserts += (total / 2) as u64;
    }

    /// Rebuilds this graph in place from an explicit dataset adjacency
    /// (§4.1), restricted to the result objects, reusing buffers like
    /// [`ResultGraph::build_grid_hash`].
    ///
    /// Each entry from a result vertex `v` to another result vertex `w` is
    /// a cell holding just the two, and the grid build's chain pass does the
    /// rest (its stamp drops an entry listed on both ends or twice).
    ///
    /// Never looks at an object, so it cannot fill [`ScoutScratch::frame`]:
    /// a caller that goes on to predict gathers it
    /// ([`ResultFrame::gather`](crate::ResultFrame::gather)). Like the grid
    /// build it leaves union-find parents in [`ScoutScratch::components`].
    pub fn build_explicit(
        &mut self,
        scratch: &mut QueryScratch,
        adjacency: &ObjectAdjacency,
        result_ids: &[ObjectId],
    ) -> CpuUnits {
        self.object_ids.clear();
        let scratch = scratch.part::<ScoutScratch>();
        let mut units = CpuUnits::default();
        self.object_ids.extend_from_slice(result_ids);
        units.graph_object_inserts += result_ids.len() as u64;
        self.rebuild_remap(&mut scratch.edges);
        let ScoutScratch { cell_pairs, edges, met_cursor: counts, chain, components, .. } = scratch;
        cell_pairs.clear();
        counts.clear();
        counts.resize(result_ids.len(), 0);
        let mut cells = 0u32;
        for (v, &oid) in result_ids.iter().enumerate() {
            let v = v as u32;
            for &nb in adjacency.neighbors(oid) {
                if let Some(w) = self.vertex_of(nb).filter(|&w| w != v) {
                    cell_pairs.extend([(cells, v), (cells, w)]);
                    counts[v as usize] += 1;
                    counts[w as usize] += 1;
                    cells += 1;
                }
            }
        }
        // The chain pass reads the pairs vertex-major: one counting sort by
        // vertex (a comparison sort of the pairs doubles the build), with
        // `offsets` as the cursors until `assemble_csr` writes them.
        Self::prefix_sum_offsets(&mut self.offsets, counts);
        edges.clear();
        edges.resize(cell_pairs.len(), (0, 0));
        for &(c, v) in cell_pairs.iter() {
            let at = &mut self.offsets[v as usize];
            edges[*at as usize] = (c, v);
            *at += 1;
        }
        std::mem::swap(cell_pairs, edges);
        // The chain pass's `head` table needs at least one slot.
        chain.start(cells.max(1) as usize, cell_pairs.len(), components);
        self.assemble_csr(scratch, &mut units);
        units
    }

    // Pinned by `benchmark/src/adapter.rs` lines 855-862, which a
    // non-`benchmark` PR may not edit; ROADMAP item 1(b) removes it.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn build_grid_hash_incremental(
        &mut self,
        scratch: &mut QueryScratch,
        objects: &[SpatialObject],
        result_ids: &[ObjectId],
        region: &QueryRegion,
        resolution: u32,
        simplification: Simplification,
        _overlap_threshold: f64,
    ) -> CpuUnits {
        self.build_grid_hash(scratch, objects, result_ids, region, resolution, simplification)
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

    /// Prefix-sums the row lengths into `offsets` and returns the total,
    /// summed in `u64`: duplicate-free rows of a large enough result on a
    /// coarse enough grid still overflow `u32` offsets, which must fail
    /// loudly rather than wrap into a corrupt layout.
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

    // What `observe` labels — the union-find parents a build leaves in the
    // scratch arena — against `components_into` on the graph it built, for
    // both builds, into a reused arena.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn builds_leave_their_components_united(
            raw in prop::collection::vec(
                ((0.0..40.0f64, 0.0..40.0f64, 0.0..40.0f64), (-4.0..4.0f64, -4.0..4.0f64, -4.0..4.0f64)),
                1..120,
            ),
            res in prop_oneof![8u32..512, 512u32..40_000],
            stride in 1usize..6,
        ) {
            let objects: Vec<SpatialObject> = raw
                .iter()
                .enumerate()
                .map(|(i, &((x, y, z), (dx, dy, dz)))| {
                    let a = Vec3::new(x, y, z);
                    let shape = Shape::Segment(Segment::new(a, a + Vec3::new(dx, dy, dz)));
                    SpatialObject::new(ObjectId(i as u32), StructureId(0), shape)
                })
                .collect();
            let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
            let region = QueryRegion::new(Vec3::splat(20.0), 64_000.0, Aspect::Cube);
            let lists: Vec<Vec<ObjectId>> = (0..objects.len())
                .map(|i| (i + stride..objects.len()).step_by(stride * 3).map(|j| ObjectId(j as u32)).collect())
                .collect();
            let adjacency = ObjectAdjacency::from_lists(&lists);
            let mut scratch = QueryScratch::new();
            let mut graph = ResultGraph::default();
            for explicit in [false, true, false] {
                if explicit {
                    graph.build_explicit(&mut scratch, &adjacency, &ids);
                } else {
                    graph.build_grid_hash(
                        &mut scratch, &objects, &ids, &region, res, Simplification::Segment,
                    );
                }
                let parents = &mut scratch.part::<ScoutScratch>().components;
                let count = label_components(parents);
                let (comp, expected) = graph.components();
                prop_assert_eq!(count, expected);
                prop_assert_eq!(&*parents, &comp);
            }
        }
    }

    // The chain pass stopped after any vertex's last pair and resumed —
    // as the split filter's caller and the build run it — on a `head`
    // table laid out by cell, or hashed for too few pairs and grown on the
    // way, ends where one pass over the build's own layout ends: links,
    // stamps, degrees, meetings and union-find parents.
    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn a_resumed_chain_pass_equals_one_pass(
            raw in prop::collection::vec(
                ((0.0..40.0f64, 0.0..40.0f64, 0.0..40.0f64), (-4.0..4.0f64, -4.0..4.0f64, -4.0..4.0f64)),
                1..120,
            ),
            res in prop_oneof![8u32..512, 512u32..40_000, 40_000u32..3_000_000],
            cut in 0.0..=1.0f64,
            laid_out_for in 0usize..600,
        ) {
            let objects: Vec<SpatialObject> = raw
                .iter()
                .enumerate()
                .map(|(i, &((x, y, z), (dx, dy, dz)))| {
                    let a = Vec3::new(x, y, z);
                    let shape = Shape::Segment(Segment::new(a, a + Vec3::new(dx, dy, dz)));
                    SpatialObject::new(ObjectId(i as u32), StructureId(0), shape)
                })
                .collect();
            let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
            let region = QueryRegion::new(Vec3::splat(20.0), 64_000.0, Aspect::Cube);
            let mut scratch = QueryScratch::new();
            let mut graph = ResultGraph::default();
            graph.build_grid_hash(&mut scratch, &objects, &ids, &region, res, Simplification::Segment);
            let pairs = scratch.part::<ScoutScratch>().cell_pairs.clone();
            let cells = UniformGrid::with_resolution(*region.aabb(), res).cell_count() as usize;
            let n = ids.len();

            let (mut one, mut one_parent) = (Chain::default(), Vec::new());
            one.start(cells, pairs.len(), &mut one_parent);
            one.link(&pairs, n, &mut one_parent);
            let k = (cut * n as f64) as u32;
            let at = pairs.partition_point(|&(_, v)| v < k);
            let (mut two, mut two_parent) = (Chain::default(), Vec::new());
            two.start(cells, laid_out_for, &mut two_parent);
            two.link(&pairs[..at], k as usize, &mut two_parent);
            prop_assert_eq!(two.linked, at);
            two.link(&pairs, n, &mut two_parent);
            prop_assert_eq!(&two.links, &one.links);
            prop_assert_eq!(&two.stamp, &one.stamp);
            prop_assert_eq!(&two.forward, &one.forward);
            prop_assert_eq!(&two.backward, &one.backward);
            prop_assert_eq!(&two.met, &one.met);
            prop_assert_eq!(&two_parent, &one_parent);
            prop_assert!(two.direct || 2 * pairs.len() <= two.head.len(), "the table never grew");
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
