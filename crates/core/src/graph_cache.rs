//! Persistent cross-query state for incremental grid hashing (DESIGN.md §7).
//!
//! Latent-feature-following workloads slide the query region along a
//! structure, so consecutive result sets overlap heavily — yet the seed
//! pipeline re-hashed every result object and rebuilt the whole CSR graph
//! from scratch on every `observe`. A [`GraphCache`] keeps what stays valid
//! while the hashing lattice is unchanged:
//!
//! * a full build through the incremental entry point captures **one
//!   thing**: a copy of its pass-1 `(cell, vertex)` pair list — which grid
//!   cells each result object's simplified geometry covers, a pure function
//!   of `(lattice, object)`;
//! * the first repair after it **derives** the two forms the repair walks
//!   from that copy: the **per-vertex cell lists** (the pair list split at
//!   vertex boundaries) and the **cell-run index** (the pairs sorted, i.e.
//!   grouped by cell with vertices ascending) — the co-location structure
//!   edges come from. Chained repairs keep both current; a workload whose
//!   lattice moves every query never pays for, or holds, either.
//!
//! [`ResultGraph::build_grid_hash_incremental`](crate::ResultGraph::build_grid_hash_incremental)
//! diffs each incoming result against the previous one, re-hashes only the
//! objects entering the region, and repairs the CSR arrays from the cached
//! state — falling back to the full build (and refreshing the capture) when
//! the lattice moved, the overlap is below the configured threshold, the
//! retained objects were re-ordered, or the cache is cold. The fallback
//! *is* the pre-existing full build, so the worst case never regresses
//! beyond the cost of the one capture copy.
//!
//! The cache also owns the double buffers the repair writes into (the old
//! CSR must stay readable while the new one is assembled), so a warmed
//! session repairs its graph without touching the allocator.

use scout_geometry::UniformGrid;

/// Bit-exact identity of a hashing lattice: grid bounds (as f64 bit
/// patterns — incremental reuse demands the *exact* lattice, not an
/// approximately equal one) and per-axis cell counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GridSignature {
    min: [u64; 3],
    max: [u64; 3],
    dims: [u32; 3],
}

impl GridSignature {
    /// The signature of a grid.
    pub fn of(grid: &UniformGrid) -> GridSignature {
        let b = grid.bounds();
        GridSignature {
            min: [b.min.x.to_bits(), b.min.y.to_bits(), b.min.z.to_bits()],
            max: [b.max.x.to_bits(), b.max.y.to_bits(), b.max.z.to_bits()],
            dims: grid.dims(),
        }
    }
}

/// Why a build through the incremental entry point ran the full pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FullBuildReason {
    /// No previous build to diff against (fresh graph, session reset, or
    /// the graph was last built by a non-caching path).
    Cold,
    /// The hashing lattice differs from the cached one (the query region
    /// moved or the resolution changed), so cached cell lists are stale.
    GridChanged,
    /// The result-set overlap fell below the configured threshold
    /// (structure jump, session reset): repairing would cost more than
    /// rebuilding.
    LowOverlap,
    /// Retained objects appear in a different relative order than in the
    /// previous result, so the old CSR rows cannot be renumbered by a
    /// monotone map (order-changing retrieval, e.g. crawl-seeded sparse
    /// result sets).
    Reordered,
}

/// How the incremental entry point built the graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphBuildKind {
    /// Delta repair: only entering objects were hashed, the CSR was
    /// repaired from the cached state.
    Incremental,
    /// Full rebuild (with cache capture) for the given reason.
    Full(FullBuildReason),
}

/// Counters of how the incremental entry point resolved each build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GraphCacheStats {
    /// Builds served by delta repair.
    pub incremental_builds: u64,
    /// Full rebuilds because the cache was cold.
    pub full_cold: u64,
    /// Full rebuilds because the hashing lattice changed.
    pub full_grid_changed: u64,
    /// Full rebuilds because the result overlap was below the threshold.
    pub full_low_overlap: u64,
    /// Full rebuilds because retained objects were re-ordered.
    pub full_reordered: u64,
}

impl GraphCacheStats {
    /// Total full rebuilds through the incremental entry point.
    pub fn full_builds(&self) -> u64 {
        self.full_cold + self.full_grid_changed + self.full_low_overlap + self.full_reordered
    }

    /// Total builds through the incremental entry point.
    pub fn total_builds(&self) -> u64 {
        self.incremental_builds + self.full_builds()
    }

    /// The counters as the dependency-neutral sim-side report type (the
    /// multi-session report surfaces these per session).
    pub fn to_counters(&self) -> scout_sim::GraphBuildCounters {
        scout_sim::GraphBuildCounters {
            incremental: self.incremental_builds,
            full_cold: self.full_cold,
            full_grid_changed: self.full_grid_changed,
            full_low_overlap: self.full_low_overlap,
            full_reordered: self.full_reordered,
        }
    }

    pub(crate) fn record_full(&mut self, reason: FullBuildReason) {
        match reason {
            FullBuildReason::Cold => self.full_cold += 1,
            FullBuildReason::GridChanged => self.full_grid_changed += 1,
            FullBuildReason::LowOverlap => self.full_low_overlap += 1,
            FullBuildReason::Reordered => self.full_reordered += 1,
        }
    }
}

/// The persistent incremental-build state of one
/// [`ResultGraph`](crate::ResultGraph)
/// (see the module docs). Owned by the graph itself so the
/// cache-describes-this-graph pairing can never be violated from outside,
/// and so [`ResultGraph::memory_bytes`](crate::ResultGraph::memory_bytes)
/// naturally accounts for it.
#[derive(Debug, Clone, Default)]
pub struct GraphCache {
    /// True when the cached state describes the graph's current result (set
    /// by capturing/repairing builds, cleared by every other mutation).
    pub(crate) valid: bool,
    /// Lattice the cached cells were computed on.
    pub(crate) sig: GridSignature,
    /// The last full build's pass-1 `(cell, vertex)` pairs, vertex-major.
    /// All a full build leaves here; stale once a repair has run.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// True when `cell_offsets`/`cells`/`runs` describe the current result:
    /// derived from `pairs` by the first repair, kept by later ones.
    pub(crate) derived: bool,
    /// Per-vertex cell-list offsets into `cells`; length `V + 1`.
    pub(crate) cell_offsets: Vec<u32>,
    /// Concatenated duplicate-free cell lists of every vertex.
    pub(crate) cells: Vec<u32>,
    /// `(cell, vertex)` pairs grouped by cell, vertices ascending within a
    /// cell — the co-location runs the repair co-walks.
    pub(crate) runs: Vec<(u32, u32)>,
    /// Double buffers: the repair reads the front arrays (and the graph's
    /// old CSR) while writing the next state here, then swaps.
    pub(crate) back_cell_offsets: Vec<u32>,
    pub(crate) back_cells: Vec<u32>,
    pub(crate) back_runs: Vec<(u32, u32)>,
    pub(crate) back_offsets: Vec<u32>,
    pub(crate) back_targets: Vec<u32>,
    /// Double buffer for the graph's sorted-pair reverse index.
    pub(crate) back_remap_pairs: Vec<(u32, u32)>,
    /// Build-path counters.
    pub(crate) stats: GraphCacheStats,
}

impl GraphCache {
    /// Drops the cached state (the next build through the incremental
    /// entry point runs the full pipeline). Capacity and stats are kept.
    pub fn invalidate(&mut self) {
        self.valid = false;
    }

    /// True when the cache holds a usable previous build.
    pub fn is_warm(&self) -> bool {
        self.valid
    }

    /// Build-path counters.
    pub fn stats(&self) -> GraphCacheStats {
        self.stats
    }

    /// Zeroes the build-path counters.
    pub fn reset_stats(&mut self) {
        self.stats = GraphCacheStats::default();
    }

    /// Resident bytes of the persistent incremental state, **capacity**
    /// based: every buffer stays allocated between builds, so reserved
    /// capacity — not the momentary length — is what cache pressure sees.
    /// A graph that has only ever been fully built holds the captured pair
    /// list alone; the derived forms and the double buffers appear with
    /// the first repair.
    pub fn memory_bytes(&self) -> usize {
        let u32s = self.cell_offsets.capacity()
            + self.cells.capacity()
            + self.back_cell_offsets.capacity()
            + self.back_cells.capacity()
            + self.back_offsets.capacity()
            + self.back_targets.capacity();
        let pairs = self.pairs.capacity()
            + self.runs.capacity()
            + self.back_runs.capacity()
            + self.back_remap_pairs.capacity();
        u32s * std::mem::size_of::<u32>() + pairs * std::mem::size_of::<(u32, u32)>()
    }

    /// Records a full build on `grid`: one copy of its pass-1 pair list.
    pub(crate) fn capture(&mut self, pairs: &[(u32, u32)], grid: &UniformGrid) {
        self.pairs.clear();
        self.pairs.extend_from_slice(pairs);
        self.derived = false;
        self.sig = GridSignature::of(grid);
        self.valid = true;
    }

    /// Makes `cell_offsets`/`cells`/`runs` describe the current result of
    /// `vertices` vertices: a no-op after a repair, one split and one sort
    /// of the captured pair list after a full build (lexicographic order
    /// is grouped by cell, vertices ascending).
    pub(crate) fn derive(&mut self, vertices: usize) {
        if self.derived {
            return;
        }
        self.cells.clear();
        self.cells.extend(self.pairs.iter().map(|&(c, _)| c));
        self.cell_offsets.clear();
        self.cell_offsets.reserve(vertices + 1);
        self.cell_offsets.push(0);
        let mut k = 0usize;
        for v in 0..vertices as u32 {
            while k < self.pairs.len() && self.pairs[k].1 == v {
                k += 1;
            }
            self.cell_offsets.push(k as u32);
        }
        debug_assert_eq!(k, self.pairs.len(), "captured pairs must be vertex-major");
        self.runs.clear();
        self.runs.extend_from_slice(&self.pairs);
        self.runs.sort_unstable();
        self.derived = true;
    }

    /// Publishes the repaired back state (cell lists + runs) as the front;
    /// it describes the repaired result, so the cache stays derived.
    pub(crate) fn publish_repair(&mut self) {
        std::mem::swap(&mut self.cell_offsets, &mut self.back_cell_offsets);
        std::mem::swap(&mut self.cells, &mut self.back_cells);
        std::mem::swap(&mut self.runs, &mut self.back_runs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{Aabb, Vec3};

    #[test]
    fn signature_distinguishes_lattices() {
        let b = Aabb::new(Vec3::ZERO, Vec3::splat(10.0));
        let a = GridSignature::of(&UniformGrid::with_resolution(b, 4096));
        let same = GridSignature::of(&UniformGrid::with_resolution(b, 4096));
        assert_eq!(a, same);
        // Different resolution → different dims.
        let finer = GridSignature::of(&UniformGrid::with_resolution(b, 32_768));
        assert_ne!(a, finer);
        // Translated bounds → different lattice even at equal cell size.
        let shifted = Aabb::new(Vec3::splat(0.25), Vec3::splat(10.25));
        let moved = GridSignature::of(&UniformGrid::with_resolution(shifted, 4096));
        assert_ne!(a, moved);
    }

    #[test]
    fn memory_bytes_counts_every_buffer_by_capacity() {
        let mut c = GraphCache::default();
        assert_eq!(c.memory_bytes(), 0);
        c.cells = Vec::with_capacity(100);
        c.runs = Vec::with_capacity(50);
        c.back_targets = Vec::with_capacity(30);
        let expect = 100 * std::mem::size_of::<u32>()
            + 50 * std::mem::size_of::<(u32, u32)>()
            + 30 * std::mem::size_of::<u32>();
        assert_eq!(c.memory_bytes(), expect);
        // Publishing swaps buffers but moves no memory.
        c.publish_repair();
        assert_eq!(c.memory_bytes(), expect);
    }

    #[test]
    fn stats_accounting() {
        let mut s = GraphCacheStats::default();
        s.record_full(FullBuildReason::Cold);
        s.record_full(FullBuildReason::GridChanged);
        s.record_full(FullBuildReason::LowOverlap);
        s.record_full(FullBuildReason::Reordered);
        s.incremental_builds = 3;
        assert_eq!(s.full_builds(), 4);
        assert_eq!(s.total_builds(), 7);
    }
}
