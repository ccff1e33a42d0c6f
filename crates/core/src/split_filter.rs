//! SCOUT's range-query filter, fused with pass 1 of the grid-hash build
//! and split across cores (DESIGN.md §6, "One fork per large query").
//!
//! A large result's pages are cut into consecutive parts by how many
//! objects they hold, the caller's part first. Each thread filters its
//! part's objects against the region, then loads each kept object's
//! record again, while it is still in that core's cache, to write the
//! result frame and the `(cell, vertex)` pairs pass 1 would write. The
//! parts join in page order, so the result ids, the frame and the pairs
//! are exactly what the serial scan and pass 1 write.
//!
//! The joined frame and pairs wait in the [`SplitFilter`] (the *stash*)
//! for the observe of the same result, which takes them instead of
//! running pass 1. The stash is keyed by the result's length, the
//! region's bits, the grid resolution and the simplification; every
//! filter writes or clears it, and every observe clears it. A `Scout`
//! that was never asked to filter runs pass 1 itself.

use crate::scratch::ResultFrame;
use scout_geometry::split::{join_parts, width};
use scout_geometry::{
    ObjectId, QueryRegion, Simplification, Simplified, SpatialObject, UniformGrid,
};
use scout_index::QueryResult;
use scout_sim::SimContext;
use scout_storage::PageId;

/// Objects on the result pages per thread: a split runs on
/// `width(objects on pages, MIN_OBJECTS_PER_THREAD)` threads, so it fires
/// at 6 144 objects on two cores. A fork costs 28 µs and the helper starts
/// 55–95 µs late on the 2-core host; a `fleet` query holds about 170.
const MIN_OBJECTS_PER_THREAD: usize = 3_072;

/// The caller's part holds `CALLER_SHARE / HELPER_SHARE` times the objects
/// of a helper's part, to cover the helper's late start: at two threads,
/// the first 60 % (0.5 read 800–864 `follow` queries a second, 0.6 read
/// 833–890).
const CALLER_SHARE: usize = 3;
const HELPER_SHARE: usize = 2;

/// Pair slots a helper's buffer holds per object on its pages, besides one
/// segment's worst case. A `follow` helper's part writes 1.8 pairs per
/// object on its pages on average and 3.0 at most (seeds 42 and 7), so a
/// helper seldom hands objects back to the caller.
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

/// One helper's part: the ids it kept, their frame, and their pairs with
/// vertices numbered from 0 at the part's first kept object.
#[derive(Debug, Clone, Default)]
struct HelperPart {
    ids: Vec<ObjectId>,
    frame: ResultFrame,
    pairs: Vec<(u32, u32)>,
}

/// The split filter's buffers and its stash: the caller's part's frame and
/// pairs, and one [`HelperPart`] per helper. The caller reserves every
/// buffer a helper writes before the fork, so helpers allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SplitFilter {
    key: Option<StashKey>,
    frame: ResultFrame,
    pairs: Vec<(u32, u32)>,
    helpers: Vec<HelperPart>,
    /// Where each helper's part of the latest split starts, as an index
    /// into its page list: one entry a helper.
    cuts: Vec<usize>,
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

/// Pass 1 over a part's kept `ids`: the frame for every one, and pairs
/// for as many as fit in `room`, in order, with vertices numbered from 0.
/// Stops hashing before the first object whose worst case no longer fits
/// and returns how many it hashed.
fn hash_part(
    objects: &[SpatialObject],
    ids: &[ObjectId],
    grid: &UniformGrid,
    simplification: Simplification,
    room: usize,
    frame: &mut ResultFrame,
    pairs: &mut Vec<(u32, u32)>,
) -> usize {
    frame.clear();
    pairs.clear();
    let mut hashed = ids.len();
    for (v, &oid) in ids.iter().enumerate() {
        let simplified = frame.push(&objects[oid.index()], simplification);
        if hashed == ids.len() {
            if pairs.len() + most_cells(grid, &simplified) > room {
                hashed = v;
            } else {
                grid.for_each_simplified_cell(&simplified, |c| pairs.push((c, v as u32)));
            }
        }
    }
    hashed
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
        let layout = ctx.index.layout();
        let threads = if ctx.adjacency.is_some() {
            1
        } else {
            let on_pages = result.pages.iter().map(|&p| layout.page(p).objects.len()).sum();
            width(on_pages, MIN_OBJECTS_PER_THREAD)
        };
        self.fill_on(threads, PAIRS_PER_PAGE_OBJECT, ctx, region, grid, result);
    }

    /// [`SplitFilter::fill`] on at most `threads` threads, with `grid`'s
    /// resolution and simplification, each helper's pair buffer holding
    /// `pairs_per_page_object` slots per object on its pages plus one
    /// segment's worst case. One thread is the index's scan, and stashes
    /// nothing.
    pub(crate) fn fill_on(
        &mut self,
        threads: usize,
        pairs_per_page_object: usize,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        (resolution, simplification): (u32, Simplification),
        result: &mut QueryResult,
    ) {
        let SimContext { index, objects, .. } = *ctx;
        let SplitFilter { key, frame, pairs, helpers, cuts } = self;
        *key = None;
        let QueryResult { pages, objects: ids } = result;
        let layout = index.layout();
        let on_pages =
            |part: &[PageId]| -> usize { part.iter().map(|&p| layout.page(p).objects.len()).sum() };
        cut_pages(threads, pages, |p| layout.page(p).objects.len(), cuts);
        if cuts.is_empty() {
            index.filter_pages_into(objects, region, pages, ids);
            return;
        }
        let used = cuts.len();
        if helpers.len() < used {
            helpers.resize_with(used, HelperPart::default);
        }
        let part_pages =
            |i: usize| &pages[cuts[i]..cuts.get(i + 1).map_or(pages.len(), |&end| end)];
        let grid = UniformGrid::with_resolution(*region.aabb(), resolution);
        let room = |on_pages: usize| on_pages * pairs_per_page_object + segment_cells(&grid);

        // Every buffer a helper writes, reserved to its bound on the caller.
        for (i, h) in helpers[..used].iter_mut().enumerate() {
            let n = on_pages(part_pages(i));
            h.ids.clear();
            h.ids.reserve(n);
            h.frame.clear();
            h.frame.reserve(n);
            h.pairs.clear();
            h.pairs.reserve(room(n));
        }

        let own = (&pages[..cuts[0]], &mut *ids, &mut *frame, &mut *pairs, usize::MAX);
        let rest = helpers[..used].iter_mut().enumerate().map(|(i, h)| {
            let room = room(on_pages(part_pages(i)));
            (part_pages(i), &mut h.ids, &mut h.frame, &mut h.pairs, room)
        });
        let hashed =
            join_parts(std::iter::once(own).chain(rest), |(part, ids, frame, pairs, room)| {
                index.filter_pages_into(objects, region, part, ids);
                hash_part(objects, ids, &grid, simplification, room, frame, pairs)
            });

        // What a helper had no room for, the caller hashes now, in order.
        for (h, &done) in helpers.iter_mut().zip(&hashed[1..]) {
            for (v, simplified) in h.frame.simplified.iter().enumerate().skip(done) {
                grid.for_each_simplified_cell(simplified, |c| h.pairs.push((c, v as u32)));
            }
        }
        for h in &helpers[..used] {
            ids.extend_from_slice(&h.ids);
        }
        *key = Some(StashKey::new(ids.len(), region, (resolution, simplification)));
    }

    /// Pass 1 from the stash, when it belongs to this build's result:
    /// `frame` and `pairs` (cleared) take the caller's part, then each
    /// helper's, its vertices offset by the objects before it. Returns
    /// whether it did; either way the stash is empty afterwards.
    pub(crate) fn join_into(
        &mut self,
        len: usize,
        region: &QueryRegion,
        grid: (u32, Simplification),
        frame: &mut ResultFrame,
        pairs: &mut Vec<(u32, u32)>,
    ) -> bool {
        if self.key.take() != Some(StashKey::new(len, region, grid)) {
            return false;
        }
        std::mem::swap(frame, &mut self.frame);
        std::mem::swap(pairs, &mut self.pairs);
        for h in &self.helpers[..self.cuts.len()] {
            let base = frame.len() as u32;
            frame.centroids.extend_from_slice(&h.frame.centroids);
            frame.simplified.extend_from_slice(&h.frame.simplified);
            pairs.extend(h.pairs.iter().map(|&(c, v)| (c, v + base)));
        }
        debug_assert_eq!(frame.len(), len, "the stash does not cover the result");
        true
    }
}

/// Cuts `pages` for `threads` threads by object count (`len` per page),
/// the caller's part first and `CALLER_SHARE / HELPER_SHARE` times a
/// helper's, into `cuts`: the page where each non-empty part after the
/// caller's starts. Empty when one thread does it all.
fn cut_pages(
    threads: usize,
    pages: &[PageId],
    len: impl Fn(PageId) -> usize,
    cuts: &mut Vec<usize>,
) {
    cuts.clear();
    if threads <= 1 {
        return;
    }
    let total: usize = pages.iter().map(|&p| len(p)).sum();
    let weight = CALLER_SHARE + HELPER_SHARE * (threads - 1);
    let (mut at, mut seen) = (0, 0);
    for k in 0..threads - 1 {
        let target = total * (CALLER_SHARE + HELPER_SHARE * k) / weight;
        while at < pages.len() && (seen < target || at == 0) {
            seen += len(pages[at]);
            at += 1;
        }
        if at < pages.len() && cuts.last() != Some(&at) {
            cuts.push(at);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::ResultGraph;
    use crate::scratch::ScoutScratch;
    use proptest::prelude::*;
    use scout_geometry::{Aabb, Vec3};
    use scout_index::{RTree, SpatialIndex};
    use scout_sim::{QueryScratch, SimContext};
    use scout_synth::{generate_neurons, NeuronParams};
    use std::sync::OnceLock;

    /// A 40 k-object neuron bed: a region half its side wide holds more
    /// than the 6 144 objects that pass the gate on two cores.
    fn bed() -> &'static (Vec<SpatialObject>, RTree, Aabb) {
        static BED: OnceLock<(Vec<SpatialObject>, RTree, Aabb)> = OnceLock::new();
        BED.get_or_init(|| {
            let neurons = generate_neurons(&NeuronParams::with_target_objects(40_000), 42);
            let tree = RTree::bulk_load_with_capacity(&neurons.objects, 87);
            (neurons.objects, tree, neurons.bounds)
        })
    }

    fn region_in(bounds: &Aabb, at: (f64, f64, f64), side: f64) -> QueryRegion {
        let extent = bounds.extent();
        let center = bounds.min + Vec3::new(extent.x * at.0, extent.y * at.1, extent.z * at.2);
        QueryRegion::from_aabb(Aabb::from_center_extent(center, extent * side))
    }

    const GRID: (u32, Simplification) = (32_768, Simplification::Segment);

    /// The widths the split is checked at: the serial scan, an even and an
    /// odd split, and more threads than a small result has pages.
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

    fn serial(region: &QueryRegion) -> Serial {
        let (objects, tree, _) = bed();
        let result = tree.range_query(objects, region);
        let mut scratch = QueryScratch::new();
        let mut graph = ResultGraph::default();
        graph.build_grid_hash(&mut scratch, objects, &result.objects, region, GRID.0, GRID.1);
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

    /// The split filter, then the build from its stash, against the serial
    /// scan and pass 1: ids, frame, pairs, the CSR rows and the union-find
    /// parents, bit for bit. Returns whether a helper ran out of pair room.
    fn assert_split_is_serial(
        region: &QueryRegion,
        threads: usize,
        pairs_per_page_object: usize,
    ) -> Result<bool, TestCaseError> {
        let (objects, tree, _) = bed();
        let want = serial(region);
        let mut split = SplitFilter::default();
        let mut result = QueryResult::default();
        tree.pages_in_region_into(region.aabb(), &mut result.pages);
        let ctx = SimContext::new(objects, tree, bed().2);
        split.fill_on(threads, pairs_per_page_object, &ctx, region, GRID, &mut result);
        prop_assert_eq!(&result.objects, &want.result.objects);
        prop_assert!(threads > 1 || split.key.is_none(), "one thread stashed a split");
        // Each kept segment leaves at least one pair, so with room for one
        // segment's cells only, a helper that kept more objects than that
        // handed the rest back to the caller.
        let segment = 3 * 32;
        let overflowed = pairs_per_page_object == 0
            && split.key.is_some()
            && split.helpers[..split.cuts.len()].iter().any(|h| h.ids.len() > segment);
        let mut scratch = QueryScratch::new();
        let mut graph = ResultGraph::default();
        graph.build_grid_hash_from(
            &mut scratch,
            objects,
            &result.objects,
            region,
            GRID,
            Some(&mut split),
        );
        prop_assert!(split.key.is_none(), "the build left the stash full");
        let s = scratch.part::<ScoutScratch>();
        prop_assert_eq!(&s.frame.centroids, &want.frame.centroids);
        prop_assert_eq!(&s.frame.simplified, &want.frame.simplified);
        prop_assert_eq!(&s.cell_pairs, &want.pairs);
        prop_assert_eq!(&s.components, &want.parents);
        assert_same_graph(&graph, &want.graph)?;
        Ok(overflowed)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Regions from a few pages to most of the bed, split at every
        /// width, with the production pair room and with room for one
        /// object only (helpers overflow and the caller hashes the rest).
        #[test]
        fn the_split_filter_equals_the_serial_scan_and_pass_1(
            at in (0.2f64..0.8, 0.2f64..0.8, 0.2f64..0.8),
            side in 0.05f64..0.6,
            pairs_per_page_object in prop_oneof![Just(0usize), Just(PAIRS_PER_PAGE_OBJECT)],
        ) {
            let region = region_in(&bed().2, at, side);
            for threads in WIDTHS {
                assert_split_is_serial(&region, threads, pairs_per_page_object)?;
            }
        }
    }

    #[test]
    fn a_bed_region_passes_the_gate() {
        let (_, tree, bounds) = bed();
        let region = region_in(bounds, (0.5, 0.5, 0.5), 0.5);
        let pages = tree.pages_in_region(region.aabb());
        let on_pages: usize = pages.iter().map(|&p| tree.layout().page(p).objects.len()).sum();
        assert!(on_pages >= 2 * MIN_OBJECTS_PER_THREAD, "{on_pages} objects on pages");
        let mut split = SplitFilter::default();
        let mut result = QueryResult { pages, objects: Vec::new() };
        split.fill(&SimContext::new(&bed().0, tree, *bounds), &region, GRID, &mut result);
        let cores = scout_geometry::split::width(usize::MAX, 1);
        assert_eq!(split.key.is_some(), cores > 1, "{cores} cores");
        for threads in WIDTHS {
            assert_split_is_serial(&region, threads, PAIRS_PER_PAGE_OBJECT).unwrap();
            let overflowed = assert_split_is_serial(&region, threads, 0).unwrap();
            assert_eq!(overflowed, threads > 1, "{threads} threads");
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
        let mut result = QueryResult::default();
        tree.pages_in_region_into(a.aabb(), &mut result.pages);
        let ctx = SimContext::new(objects, tree, *bounds);
        split.fill_on(2, PAIRS_PER_PAGE_OBJECT, &ctx, &a, GRID, &mut result);
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
