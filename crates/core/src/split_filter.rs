//! SCOUT's range-query filter, fused with pass 1 of the grid-hash build
//! and the chain pass over the caller's part, split across cores
//! (DESIGN.md §6, "One fork per large query").
//!
//! A large result's pages are cut into chunks of [`PAGES_PER_CHUNK`]
//! pages. The caller claims chunks from the front of the page list and
//! each helper from the back, through one shared atomic ([`Claims`]), so
//! no thread idles while a chunk is left. For each chunk it claims, a
//! thread filters the chunk's objects against the region, then loads each
//! kept object's record again, while it is still in that core's cache, to
//! write the result frame and the `(cell, vertex)` pairs pass 1 would
//! write. The caller's chunks are a prefix of the pages, so its vertices
//! are the result's first: it also links each chunk's pairs into the
//! chain pass ([`Chain::link`]) as soon as it has hashed them. The
//! helpers' chunks, put back in page order at the join, are the suffix, so
//! the result ids, the frame and the pairs are exactly what the serial
//! scan and pass 1 write.
//!
//! The joined frame and pairs and the caller's chain state wait in the
//! [`SplitFilter`] (the *stash*) for the observe of the same result, which
//! takes them instead of running pass 1 and resumes the chain pass at the
//! first helper pair. The stash is keyed by the result's length, the
//! region's bits, the grid resolution and the simplification; every filter
//! writes or clears it, and every observe clears it. A `Scout` that was
//! never asked to filter runs pass 1 and the whole chain pass itself.

use crate::graph::Chain;
use crate::scratch::{ResultFrame, ScoutScratch};
use scout_geometry::split::{join_parts, width};
use scout_geometry::{ObjectId, QueryRegion, Simplification, Simplified, UniformGrid};
use scout_index::QueryResult;
use scout_sim::SimContext;
use scout_storage::{PageId, PageLayout};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

/// Objects on the result pages per thread of a two-thread split: the gate.
/// A result splits once its pages hold 2 048 objects, on two cores or more,
/// since with the claims a late helper takes fewer chunks and the caller
/// does not wait for it. The sweep in DESIGN.md §6 ("Variants") read 1 024
/// and 768 alike on `gaps`, both ahead of 1 536 and above; 1 024 forks the
/// fewer queries. About 98 % of `gaps` queries and every `follow` one pass
/// it; a `fleet` query holds about 170 (DESIGN.md §6, "The gate").
const MIN_OBJECTS_PER_THREAD: usize = 1_024;

/// Objects on the result pages per thread of a split on more than two
/// threads: the gate before it came down. The caller spawns each helper in
/// turn before its own part starts, and no host with more than two cores
/// was measured, so a wider host adds helpers as it did under that gate.
const MIN_OBJECTS_PER_THREAD_BEYOND_TWO: usize = 3_072;

/// Result pages a claim takes: a `follow` result's ≈ 100 pages make about
/// 50 chunks, so the threads end within a chunk of each other (within
/// 2 µs on `follow`).
/// Chunks of 1, 4 and 8 pages read slower on `follow` (DESIGN.md §6,
/// "Variants").
const PAGES_PER_CHUNK: usize = 2;

/// Pair slots a helper's buffer holds per object on the result pages,
/// besides one segment's worst case. A `follow` helper writes 1.8 pairs
/// per object on its pages on average and 3.0 at most (seeds 42 and 7), so
/// a helper seldom hands objects back to the caller. The chain pass's
/// `head` table is laid out for as many pairs.
const PAIRS_PER_PAGE_OBJECT: usize = 4;

/// What the stash belongs to: the filtered result's length and region,
/// and the grid its pairs were hashed on.
#[derive(Debug, Clone, Copy, PartialEq)]
struct StashKey {
    len: usize,
    region: [u64; 6],
    resolution: u32,
    simplification: Simplification,
}

impl StashKey {
    fn new(
        len: usize,
        region: &QueryRegion,
        (resolution, simplification): (u32, Simplification),
    ) -> Self {
        let b = region.aabb();
        let region = [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f64::to_bits);
        StashKey { len, region, resolution, simplification }
    }
}

/// Chunks `0..n` claimed from both ends through one atomic word: the low
/// half counts the front's claims, the high half the back's. A claim
/// succeeds when the claims before it, both ends' together, number fewer
/// than `n`, so every chunk goes to exactly one claim: the front's are
/// `0, 1, …` in order, the back's `n − 1, n − 2, …`, and the two meet. A
/// claim publishes no data (what a part writes reaches the caller through
/// the join), so the word is `Relaxed`.
struct Claims {
    word: AtomicU64,
    n: u64,
}

impl Claims {
    fn new(n: usize) -> Self {
        Claims { word: AtomicU64::new(0), n: n as u64 }
    }

    /// The front's next chunk, or `None` once every chunk is taken.
    fn front(&self) -> Option<usize> {
        let before = self.word.fetch_add(1, Ordering::Relaxed);
        let (front, back) = (before & u64::from(u32::MAX), before >> 32);
        (front + back < self.n).then_some(front as usize)
    }

    /// The back's next chunk, or `None` once every chunk is taken.
    fn back(&self) -> Option<usize> {
        let before = self.word.fetch_add(1 << 32, Ordering::Relaxed);
        let (front, back) = (before & u64::from(u32::MAX), before >> 32);
        (front + back < self.n).then(|| (self.n - 1 - back) as usize)
    }
}

/// One chunk a helper filtered: where its ids (and their frame) and its
/// pairs sit in the helper's buffers, and how many of its objects, a
/// prefix, the helper hashed. Its pairs number its vertices from 0.
#[derive(Debug, Clone, Default)]
struct Piece {
    chunk: usize,
    ids: Range<usize>,
    pairs: Range<usize>,
    hashed: usize,
}

/// One helper's buffers: the ids it kept, their frame and pairs, and one
/// [`Piece`] a chunk it claimed, in claim order (back to front).
#[derive(Debug, Clone, Default)]
struct HelperPart {
    ids: Vec<ObjectId>,
    frame: ResultFrame,
    pairs: Vec<(u32, u32)>,
    pieces: Vec<Piece>,
}

/// One thread's share of a split.
enum Part<'a> {
    /// The caller's: chunks from the front, chained as they are hashed.
    Caller {
        ids: &'a mut Vec<ObjectId>,
        frame: &'a mut ResultFrame,
        pairs: &'a mut Vec<(u32, u32)>,
        chain: &'a mut Chain,
        parent: &'a mut Vec<u32>,
    },
    /// A helper's: chunks from the back.
    Helper(&'a mut HelperPart),
}

/// The split filter's buffers and its stash: the caller's part's frame,
/// pairs and chain state (union-find parents included), and one
/// [`HelperPart`] per helper. The caller reserves every buffer a helper
/// writes before the fork, so helpers allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SplitFilter {
    key: Option<StashKey>,
    frame: ResultFrame,
    pairs: Vec<(u32, u32)>,
    chain: Chain,
    parent: Vec<u32>,
    helpers: Vec<HelperPart>,
    /// The helpers' pieces of the latest split in page order, as
    /// `(helper, piece)` indexes.
    order: Vec<(usize, usize)>,
}

/// How a split runs: on at most `threads` threads, each helper's pair
/// buffer holding `pairs_per_page_object` slots per object on the result
/// pages plus one segment's worst case. `helpers_first` runs the parts on
/// the caller, one after another, the helpers first and the caller last:
/// the first helper then claims every chunk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Split {
    pub(crate) threads: usize,
    pub(crate) pairs_per_page_object: usize,
    pub(crate) helpers_first: bool,
}

/// The most cells the grid walk can emit for one simplified object.
fn most_cells(grid: &UniformGrid, simplified: &Simplified) -> usize {
    match simplified {
        Simplified::Point(_) => 1,
        Simplified::Segment(_) => segment_cells(grid),
        Simplified::Box(_) => grid.cell_count() as usize,
    }
}

/// The most cells a segment's walk emits: its start cell, and at most
/// `dims − 1` steps along each axis.
fn segment_cells(grid: &UniformGrid) -> usize {
    grid.dims().iter().map(|&d| d as usize).sum()
}

impl HelperPart {
    /// Empties the buffers and makes room for `objects` objects, `pairs`
    /// pairs and `chunks` pieces.
    fn reserve(&mut self, objects: usize, pairs: usize, chunks: usize) {
        self.ids.clear();
        self.ids.reserve(objects);
        self.frame.clear();
        self.frame.reserve(objects);
        self.pairs.clear();
        self.pairs.reserve(pairs);
        self.pieces.clear();
        self.pieces.reserve(chunks);
    }
}

/// How many threads SCOUT's split filter runs a grid-hash result on, from
/// the objects on its pages: two once they hold two threads' worth, more
/// on a wider host only when each thread keeps 3 072, and one on a single
/// core or inside a part of another fork ([`width`]).
pub fn split_threads(on_pages: usize) -> usize {
    match width(on_pages, MIN_OBJECTS_PER_THREAD) {
        1 => 1,
        _ => width(on_pages, MIN_OBJECTS_PER_THREAD_BEYOND_TWO).max(2),
    }
}

/// The objects on `pages`, the filter's work.
fn objects_on(layout: &PageLayout, pages: &[PageId]) -> usize {
    pages.iter().map(|&p| layout.page(p).objects.len()).sum()
}

impl SplitFilter {
    /// Empties the stash.
    pub(crate) fn clear(&mut self) {
        self.key = None;
    }

    /// The filter on the core budget: `result.objects` for `result.pages`,
    /// split when the pages hold enough objects for two threads and the
    /// graph will be grid-hashed (no explicit adjacency).
    pub(crate) fn fill(
        &mut self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        grid: (u32, Simplification),
        result: &mut QueryResult,
    ) {
        // An explicit adjacency builds no grid hash: counted as no work, its
        // result never splits.
        let on_pages = match ctx.adjacency {
            Some(_) => 0,
            None => objects_on(ctx.index.layout(), &result.pages),
        };
        let threads = split_threads(on_pages);
        let split =
            Split { threads, pairs_per_page_object: PAIRS_PER_PAGE_OBJECT, helpers_first: false };
        self.fill_on(split, on_pages, ctx, region, grid, result);
    }

    /// [`SplitFilter::fill`] as `split` says, for pages that hold
    /// `on_pages` objects, with `grid`'s resolution and simplification. One
    /// thread, or pages for one chunk only, is the index's scan, and
    /// stashes nothing.
    pub(crate) fn fill_on(
        &mut self,
        split: Split,
        on_pages: usize,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        (resolution, simplification): (u32, Simplification),
        result: &mut QueryResult,
    ) {
        let SimContext { index, objects, .. } = *ctx;
        let SplitFilter { key, frame, pairs, chain, parent, helpers, order } = self;
        *key = None;
        let QueryResult { pages, objects: ids } = result;
        let chunks = pages.len().div_ceil(PAGES_PER_CHUNK);
        let threads = split.threads.min(chunks);
        if threads <= 1 {
            index.filter_pages_into(objects, region, pages, ids);
            return;
        }
        let used = threads - 1;
        if helpers.len() < used {
            helpers.resize_with(used, HelperPart::default);
        }
        let grid = UniformGrid::with_resolution(*region.aabb(), resolution);
        let room = on_pages * split.pairs_per_page_object + segment_cells(&grid);

        // Every buffer a part writes, reserved to its bound on the caller:
        // a helper may claim every chunk. The `head` table's layout is
        // fixed here, for `room` pairs.
        for h in &mut helpers[..used] {
            h.reserve(on_pages, room, chunks);
        }
        ids.clear();
        ids.reserve(on_pages);
        frame.clear();
        frame.reserve(on_pages);
        pairs.clear();
        pairs.reserve(room);
        chain.start(grid.cell_count() as usize, room, parent);
        chain.reserve(on_pages, room, parent);
        order.clear();
        order.reserve(chunks);

        // Pass 1 over `ids`: the frame for every one, and pairs with
        // vertices numbered from `base` for as many as fit in `room`, in
        // order. Stops hashing before the first object whose most cells no
        // longer fit and returns how many it hashed.
        let hash = |ids: &[ObjectId],
                    base: usize,
                    room: usize,
                    frame: &mut ResultFrame,
                    pairs: &mut Vec<(u32, u32)>| {
            let mut hashed = ids.len();
            for (v, &oid) in ids.iter().enumerate() {
                let simplified = frame.push(&objects[oid.index()], simplification);
                if hashed == ids.len() {
                    if pairs.len() + most_cells(&grid, &simplified) > room {
                        hashed = v;
                    } else {
                        let v = (base + v) as u32;
                        grid.for_each_simplified_cell(&simplified, |c| pairs.push((c, v)));
                    }
                }
            }
            hashed
        };
        let pages: &[_] = pages;
        let chunk_pages =
            |c: usize| &pages[c * PAGES_PER_CHUNK..pages.len().min((c + 1) * PAGES_PER_CHUNK)];
        let claims = Claims::new(chunks);
        let work = |part: Part<'_>| -> usize {
            let mut claimed = 0;
            match part {
                Part::Caller { ids, frame, pairs, chain, parent } => {
                    while let Some(c) = claims.front() {
                        let from = ids.len();
                        index.filter_pages_onto(objects, region, chunk_pages(c), ids);
                        hash(&ids[from..], from, usize::MAX, frame, pairs);
                        chain.link(pairs, ids.len(), parent);
                        claimed += 1;
                    }
                }
                Part::Helper(h) => {
                    while let Some(chunk) = claims.back() {
                        let (from, pairs_from) = (h.ids.len(), h.pairs.len());
                        index.filter_pages_onto(objects, region, chunk_pages(chunk), &mut h.ids);
                        let hashed = hash(&h.ids[from..], 0, room, &mut h.frame, &mut h.pairs);
                        let (ids, pairs) = (from..h.ids.len(), pairs_from..h.pairs.len());
                        h.pieces.push(Piece { chunk, ids, pairs, hashed });
                        claimed += 1;
                    }
                }
            }
            claimed
        };
        let caller = Part::Caller { ids: &mut *ids, frame, pairs, chain, parent };
        let parts = std::iter::once(caller).chain(helpers[..used].iter_mut().map(Part::Helper));
        let claimed = if split.helpers_first {
            let mut claimed: Vec<usize> = parts.rev().map(work).collect();
            claimed.reverse();
            claimed
        } else {
            join_parts(parts, work)
        };

        // The helpers' pieces in page order: the chunks after the caller's.
        order.resize(chunks - claimed[0], (0, 0));
        for (i, h) in helpers[..used].iter().enumerate() {
            for (j, piece) in h.pieces.iter().enumerate() {
                order[piece.chunk - claimed[0]] = (i, j);
            }
        }
        for &(i, j) in order.iter() {
            let h = &helpers[i];
            ids.extend_from_slice(&h.ids[h.pieces[j].ids.clone()]);
        }
        *key = Some(StashKey::new(ids.len(), region, (resolution, simplification)));
    }

    /// Pass 1 and the caller's part of the chain pass from the stash, when
    /// it belongs to this build's result: `scratch` swaps in the caller's
    /// frame, pairs, chain state and union-find parents, then takes each
    /// helper piece's frame and pairs in page order, its vertices offset by
    /// the objects before it, and the pairs of the objects the helper had
    /// no room to hash. Returns whether it did; either way the stash is
    /// empty afterwards.
    pub(crate) fn join_into(
        &mut self,
        len: usize,
        region: &QueryRegion,
        (resolution, simplification): (u32, Simplification),
        scratch: &mut ScoutScratch,
    ) -> bool {
        if self.key.take() != Some(StashKey::new(len, region, (resolution, simplification))) {
            return false;
        }
        let ScoutScratch { frame, cell_pairs: pairs, chain, components: parent, .. } = scratch;
        std::mem::swap(frame, &mut self.frame);
        std::mem::swap(pairs, &mut self.pairs);
        std::mem::swap(chain, &mut self.chain);
        std::mem::swap(parent, &mut self.parent);
        let grid = UniformGrid::with_resolution(*region.aabb(), resolution);
        for &(i, j) in &self.order {
            let (h, piece) = (&self.helpers[i], &self.helpers[i].pieces[j]);
            let base = frame.len();
            let simplified = &h.frame.simplified[piece.ids.clone()];
            frame.centroids.extend_from_slice(&h.frame.centroids[piece.ids.clone()]);
            frame.simplified.extend_from_slice(simplified);
            pairs.extend(h.pairs[piece.pairs.clone()].iter().map(|&(c, v)| (c, v + base as u32)));
            for (v, simplified) in simplified.iter().enumerate().skip(piece.hashed) {
                let v = (base + v) as u32;
                grid.for_each_simplified_cell(simplified, |c| pairs.push((c, v)));
            }
        }
        debug_assert_eq!(frame.len(), len, "the stash does not cover the result");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ResultGraph;
    use proptest::prelude::*;
    use scout_geometry::{Aabb, SpatialObject, Vec3};
    use scout_index::{FlatConfig, FlatIndex, RTree, SpatialIndex};
    use scout_sim::{QueryScratch, SimContext};
    use scout_synth::{generate_neurons, NeuronParams};
    use std::sync::OnceLock;

    /// A 40 k-object neuron bed: a region half its side wide has more than
    /// 6 144 objects on its pages, three times what the gate asks of a
    /// split on two cores.
    fn bed() -> &'static (Vec<SpatialObject>, RTree, Aabb) {
        static BED: OnceLock<(Vec<SpatialObject>, RTree, Aabb)> = OnceLock::new();
        BED.get_or_init(|| {
            let neurons = generate_neurons(&NeuronParams::with_target_objects(40_000), 42);
            let tree = RTree::bulk_load_with_capacity(&neurons.objects, 87);
            (neurons.objects, tree, neurons.bounds)
        })
    }

    /// The bed on its R-tree.
    fn tree_ctx() -> SimContext<'static> {
        let (objects, tree, bounds) = bed();
        SimContext::new(objects, tree, *bounds)
    }

    /// The bed on FLAT over the same pages, as `gaps` runs it: its pages
    /// come in crawl order.
    fn flat_ctx() -> SimContext<'static> {
        static FLAT: OnceLock<FlatIndex> = OnceLock::new();
        let flat =
            FLAT.get_or_init(|| FlatIndex::from_rtree(bed().1.clone(), FlatConfig::default()));
        let (objects, _, bounds) = bed();
        SimContext::new(objects, flat, *bounds).with_ordered(flat)
    }

    /// `region`'s pages, unfiltered, and the objects on them.
    fn pages_of(ctx: &SimContext<'_>, region: &QueryRegion) -> (QueryResult, usize) {
        let mut result = QueryResult::default();
        ctx.index.pages_in_region_into(region.aabb(), &mut result.pages);
        let on_pages = objects_on(ctx.index.layout(), &result.pages);
        (result, on_pages)
    }

    fn region_in(bounds: &Aabb, at: (f64, f64, f64), side: f64) -> QueryRegion {
        let extent = bounds.extent();
        let center = bounds.min + Vec3::new(extent.x * at.0, extent.y * at.1, extent.z * at.2);
        QueryRegion::from_aabb(Aabb::from_center_extent(center, extent * side))
    }

    const GRID: (u32, Simplification) = (32_768, Simplification::Segment);

    /// 128³ cells: few pairs against many cells, so the chain pass hashes
    /// its `head` table, as it does for `gaps`' results.
    const FINE: (u32, Simplification) = (1 << 21, Simplification::Segment);

    /// The widths the split is checked at: the serial scan, an even and an
    /// odd split, and more threads than a small result has chunks.
    const WIDTHS: [usize; 4] = [1, 2, 3, 8];

    /// What the serial scan and pass 1 write for `region`, and the graph
    /// built from them.
    struct Serial {
        result: QueryResult,
        frame: ResultFrame,
        pairs: Vec<(u32, u32)>,
        graph: ResultGraph,
        parents: Vec<u32>,
    }

    fn serial(ctx: &SimContext<'_>, region: &QueryRegion, grid: (u32, Simplification)) -> Serial {
        let objects = ctx.objects;
        let result = ctx.index.range_query(objects, region);
        let mut scratch = QueryScratch::new();
        let mut graph = ResultGraph::default();
        graph.build_grid_hash(&mut scratch, objects, &result.objects, region, grid.0, grid.1);
        let s = scratch.part::<ScoutScratch>();
        let (frame, pairs, parents) = (s.frame.clone(), s.cell_pairs.clone(), s.components.clone());
        Serial { result, frame, pairs, graph, parents }
    }

    fn assert_same_graph(got: &ResultGraph, want: &ResultGraph) -> Result<(), TestCaseError> {
        prop_assert_eq!(got.vertex_count(), want.vertex_count());
        for v in 0..want.vertex_count() as u32 {
            prop_assert_eq!(got.object_id(v), want.object_id(v));
            prop_assert_eq!(got.neighbors(v), want.neighbors(v), "row {}", v);
        }
        Ok(())
    }

    /// The split filter run as `split` says, then the build from its
    /// stash, against the serial scan and pass 1 (`assert_build_is_serial`).
    /// Returns whether a helper ran out of pair room and handed objects
    /// back.
    fn assert_split_is_serial(
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        grid: (u32, Simplification),
        split: Split,
    ) -> Result<bool, TestCaseError> {
        let mut filter = SplitFilter::default();
        let (mut result, on_pages) = pages_of(ctx, region);
        filter.fill_on(split, on_pages, ctx, region, grid, &mut result);
        prop_assert!(split.threads > 1 || filter.key.is_none(), "one thread stashed a split");
        let overflowed = filter.key.is_some()
            && filter.order.iter().any(|&(i, j)| {
                let piece = &filter.helpers[i].pieces[j];
                piece.hashed < piece.ids.len()
            });
        assert_build_is_serial(ctx, region, grid, &result, &mut filter)?;
        Ok(overflowed)
    }

    /// A filtered `result`, then the build from `filter`'s stash, against
    /// the serial scan and pass 1: ids, frame, pairs, the CSR rows and the
    /// union-find parents, bit for bit.
    fn assert_build_is_serial(
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        grid: (u32, Simplification),
        result: &QueryResult,
        filter: &mut SplitFilter,
    ) -> Result<(), TestCaseError> {
        let want = serial(ctx, region, grid);
        prop_assert_eq!(&result.objects, &want.result.objects);
        let mut scratch = QueryScratch::new();
        let mut graph = ResultGraph::default();
        let ids = &result.objects;
        graph.build_grid_hash_from(&mut scratch, ctx.objects, ids, region, grid, Some(filter));
        prop_assert!(filter.key.is_none(), "the build left the stash full");
        let s = scratch.part::<ScoutScratch>();
        prop_assert_eq!(&s.frame.centroids, &want.frame.centroids);
        prop_assert_eq!(&s.frame.simplified, &want.frame.simplified);
        prop_assert_eq!(&s.cell_pairs, &want.pairs);
        prop_assert_eq!(&s.components, &want.parents);
        assert_same_graph(&graph, &want.graph)
    }

    fn on_threads(threads: usize, pairs_per_page_object: usize) -> Split {
        Split { threads, pairs_per_page_object, helpers_first: false }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Regions from a few pages to most of the bed, split at every
        /// width, with the production pair room and with room for one
        /// object only (helpers overflow and the caller hashes the rest),
        /// on a grid whose chain pass indexes its `head` table by cell and
        /// on one that hashes it. Room for one object also lays the table
        /// out too small, so the caller's chain pass grows it. Run on
        /// threads, or with the helpers first, which take every chunk.
        #[test]
        fn the_split_filter_equals_the_serial_scan_and_pass_1(
            at in (0.2f64..0.8, 0.2f64..0.8, 0.2f64..0.8),
            side in 0.05f64..0.6,
            pairs_per_page_object in prop_oneof![Just(0usize), Just(PAIRS_PER_PAGE_OBJECT)],
            grid in prop_oneof![Just(GRID), Just(FINE)],
            helpers_first in prop_oneof![Just(false), Just(true)],
        ) {
            let region = region_in(&bed().2, at, side);
            for threads in WIDTHS {
                let split = Split { threads, pairs_per_page_object, helpers_first };
                assert_split_is_serial(&tree_ctx(), &region, grid, split)?;
            }
        }
    }

    /// Every interleaving of front and back claims over 0–8 chunks, each
    /// end claiming on after its first miss: every chunk is claimed once,
    /// the front's `0..m` in order and the back's `n − 1` down to `m`.
    #[test]
    fn claims_from_both_ends_take_every_chunk_once() {
        for n in 0..=8 {
            let calls = n + 2;
            for fronts in 0u32..1 << calls {
                let claims = Claims::new(n);
                let (mut front, mut back) = (Vec::new(), Vec::new());
                let (mut front_missed, mut back_missed) = (false, false);
                for k in 0..calls {
                    let (claim, got, missed) = if fronts >> k & 1 == 1 {
                        (claims.front(), &mut front, &mut front_missed)
                    } else {
                        (claims.back(), &mut back, &mut back_missed)
                    };
                    match claim {
                        Some(chunk) => {
                            assert!(!*missed, "n {n}, {fronts:b}: a claim after a miss");
                            got.push(chunk);
                        }
                        None => *missed = true,
                    }
                }
                let m = front.len();
                assert_eq!(front, (0..m).collect::<Vec<_>>(), "n {n}, {fronts:b}");
                assert_eq!(back, (m..n).rev().collect::<Vec<_>>(), "n {n}, {fronts:b}");
            }
        }
    }

    /// The cores a split may use: 1 under `taskset -c 0`.
    fn cores() -> usize {
        width(usize::MAX, 1)
    }

    #[test]
    fn a_bed_region_passes_the_gate() {
        let ctx = tree_ctx();
        let region = region_in(&ctx.bounds, (0.5, 0.5, 0.5), 0.5);
        let (mut result, on_pages) = pages_of(&ctx, &region);
        assert!(on_pages >= 2 * MIN_OBJECTS_PER_THREAD, "{on_pages} objects on pages");
        let mut filter = SplitFilter::default();
        filter.fill(&ctx, &region, GRID, &mut result);
        assert_eq!(filter.key.is_some(), cores() > 1, "{} cores", cores());
        for threads in WIDTHS {
            let split = on_threads(threads, PAIRS_PER_PAGE_OBJECT);
            assert_split_is_serial(&ctx, &region, GRID, split).unwrap();
            // The helpers first, with room for one segment only: the first
            // takes every chunk, runs out of room and hands the objects it
            // did not hash back, in page order.
            let split = Split { threads, pairs_per_page_object: 0, helpers_first: true };
            let overflowed = assert_split_is_serial(&ctx, &region, GRID, split).unwrap();
            assert_eq!(overflowed, threads > 1, "{threads} threads");
        }
    }

    /// A region whose pages hold fewer objects than two threads' worth is
    /// the index's scan on any core count: `fill` clears a stash a split
    /// left and stashes nothing.
    #[test]
    fn a_region_below_the_gate_is_not_split() {
        let ctx = tree_ctx();
        let large = region_in(&ctx.bounds, (0.5, 0.5, 0.5), 0.5);
        let small = region_in(&ctx.bounds, (0.5, 0.5, 0.5), 0.15);
        let mut filter = SplitFilter::default();
        let (mut result, on_pages) = pages_of(&ctx, &large);
        filter.fill_on(
            on_threads(2, PAIRS_PER_PAGE_OBJECT),
            on_pages,
            &ctx,
            &large,
            GRID,
            &mut result,
        );
        assert!(filter.key.is_some(), "the large region did not split");

        let (mut result, on_pages) = pages_of(&ctx, &small);
        assert!(
            (1..2 * MIN_OBJECTS_PER_THREAD).contains(&on_pages),
            "{on_pages} objects on the pages"
        );
        assert!(result.pages.len() > PAGES_PER_CHUNK, "pages for one chunk only");
        assert_eq!(split_threads(on_pages), 1);
        filter.fill(&ctx, &small, GRID, &mut result);
        assert!(filter.key.is_none(), "a region below the gate left a stash");
        assert_eq!(result.objects, ctx.index.range_query(ctx.objects, &small).objects);
    }

    /// A `gaps`-shaped query: FLAT's crawl order, on `gaps`' grid, with
    /// more objects on its pages than two threads' worth and fewer than
    /// 6 144, where the gate stood before the claims. It splits on two
    /// cores or more, and the build from its stash is the serial one.
    #[test]
    fn a_gaps_shaped_region_splits() {
        let ctx = flat_ctx();
        let region = region_in(&ctx.bounds, (0.5, 0.5, 0.5), 0.3);
        let (mut result, on_pages) = pages_of(&ctx, &region);
        assert!(
            (2 * MIN_OBJECTS_PER_THREAD..2 * MIN_OBJECTS_PER_THREAD_BEYOND_TWO).contains(&on_pages),
            "{on_pages} objects on the pages"
        );
        let mut filter = SplitFilter::default();
        filter.fill(&ctx, &region, GRID, &mut result);
        assert_eq!(filter.key.is_some(), cores() > 1, "{} cores", cores());
        assert_build_is_serial(&ctx, &region, GRID, &result, &mut filter).unwrap();
        for threads in WIDTHS {
            let split = on_threads(threads, PAIRS_PER_PAGE_OBJECT);
            assert_split_is_serial(&ctx, &region, GRID, split).unwrap();
        }
    }

    /// A stash belongs to the result it was filtered for: a build of
    /// another result of the same length, over another region, is serial.
    #[test]
    fn a_stale_stash_is_not_taken() {
        let (objects, tree, bounds) = bed();
        let a = region_in(bounds, (0.45, 0.5, 0.5), 0.5);
        let b = region_in(bounds, (0.55, 0.5, 0.5), 0.6);
        let mut split = SplitFilter::default();
        let ctx = tree_ctx();
        let (mut result, on_pages) = pages_of(&ctx, &a);
        split.fill_on(on_threads(2, PAIRS_PER_PAGE_OBJECT), on_pages, &ctx, &a, GRID, &mut result);
        assert!(split.key.is_some(), "query A did not split");
        let mut ids_b = tree.range_query(objects, &b).objects;
        assert!(ids_b.len() >= result.objects.len(), "B is smaller than A");
        ids_b.truncate(result.objects.len());

        let mut scratch = QueryScratch::new();
        let mut graph = ResultGraph::default();
        graph.build_grid_hash_from(&mut scratch, objects, &ids_b, &b, GRID, Some(&mut split));
        assert!(split.key.is_none(), "a build must clear the stash it does not take");
        let (want, _) = ResultGraph::grid_hash(objects, &ids_b, &b, GRID.0, GRID.1);
        assert_same_graph(&graph, &want).unwrap();
        let mut serial_scratch = QueryScratch::new();
        let mut serial_graph = ResultGraph::default();
        serial_graph.build_grid_hash(&mut serial_scratch, objects, &ids_b, &b, GRID.0, GRID.1);
        let (got, want) = (scratch.part::<ScoutScratch>(), serial_scratch.part::<ScoutScratch>());
        assert_eq!(got.frame.centroids, want.frame.centroids);
        assert_eq!(got.cell_pairs, want.cell_pairs);
        assert_eq!(got.components, want.components);

        // Nor does the stash outlive its observe: A again, unsplit, is A.
        graph.build_grid_hash_from(
            &mut scratch,
            objects,
            &result.objects,
            &a,
            GRID,
            Some(&mut split),
        );
        let (want, _) = ResultGraph::grid_hash(objects, &result.objects, &a, GRID.0, GRID.1);
        assert_same_graph(&graph, &want).unwrap();
    }
}
