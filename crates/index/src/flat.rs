//! A FLAT-style neighborhood index [Tauheed et al., ICDE 2012].
//!
//! FLAT answers range queries in two phases (§6.1): *seed* — find one page
//! inside the query region (here via a packed R-tree over page MBRs) — and
//! *crawl* — recursively visit precomputed page neighborhoods until no more
//! overlapping pages are found. The crawl retrieves pages in spatial order
//! radiating from the seed: the property SCOUT-OPT's overlapped prediction
//! (§6.2) rests on; its gap traversal (§6.3) walks the same neighborhoods.
//! (No sparse graph comes of it: they join all of a result's own pages.)
//!
//! Neighborhoods are precomputed as: every page within distance ε of a
//! page's MBR, unioned with its `k` nearest pages (the k-NN union keeps the
//! adjacency graph connected across low-density areas). If a result region
//! is split across disconnected page clusters, the crawl re-seeds — the
//! multi-seed behavior of the original system — so the result set always
//! equals the R-tree's.
//!
//! Building the neighborhoods is FLAT's bulk-load cost, and most of it
//! was the k-NN walks. The ε-probe usually holds a page's k nearest
//! already. A page the probe missed has a squared distance of at least
//! `r²` to the page's centre, `r` being the centre's distance to the
//! nearest probe face. So when `k` hits lie *strictly* below `r²`, the walk
//! could return only hits, and it is skipped. A hit at exactly `r²` does
//! not count, since a missed page may tie it. Ties at the k-th place need
//! no rule: every tied page is a hit. The lists equal those of walking
//! every page, so no model output moves. On a 2-core Xeon at seed 42 the
//! probe settles 47 719 of the roads bed's 47 734 pages and all 15 000 of
//! the 1.3 M-neuron bed's.
//!
//! The directed lists of different pages are independent, so the pass
//! splits them over one scoped thread per core (see `scout_geometry::split`), in
//! contiguous page chunks joined in order; the back links are added on
//! the caller. Every list equals the serial pass's, and one thread is the
//! serial pass. Beds of fewer than [`MIN_PAGES_PER_THREAD`] pages a thread
//! spawn nothing. A helper allocates nothing: its probe and k-NN buffers
//! are reserved by the caller to their bounds. Every chunk, the caller's
//! too, writes its lists into one flat buffer the caller owns, and the
//! caller alone turns them into the pages' lists: one writer, one reader.

use crate::rtree::{KnnScratch, RTree};
use crate::traits::{OrderedSpatialIndex, SpatialIndex};
use scout_geometry::split::{join_parts, ranges, split_lengths, width};
use scout_geometry::{Aabb, SpatialObject, Vec3};
use scout_storage::{Page, PageId, PageLayout};
use std::ops::Range;

/// Pages a thread must have before the neighbourhood pass spreads to one
/// more. A page's directed list takes about 3 µs on a 2-core Xeon, so 512
/// pages take some twenty-five times a thread's spawn and join.
const MIN_PAGES_PER_THREAD: usize = 512;

/// Directed-list entries a page, on average, that the caller's flat
/// buffer holds for a chunk of pages, the caller's own included. The
/// benchmark's beds list about 33 (1.3 M neurons) and 19 (roads) a page,
/// at most 96, so no chunk of theirs runs out. The buffer is zeroed by the
/// allocator, so only the entries written take memory.
const LIST_ROOM: usize = 48;

/// Tuning parameters for neighborhood construction.
#[derive(Debug, Clone, Copy)]
pub struct FlatConfig {
    /// Pages whose MBR distance is below `epsilon_factor ×` (mean page MBR
    /// diagonal) become neighbors.
    pub epsilon_factor: f64,
    /// Each page is additionally linked to its `knn` nearest pages.
    pub knn: usize,
}

impl Default for FlatConfig {
    fn default() -> Self {
        FlatConfig { epsilon_factor: 0.25, knn: 4 }
    }
}

/// The FLAT-style index: an R-tree for seeding plus page neighborhoods for
/// ordered crawling.
#[derive(Debug, Clone)]
pub struct FlatIndex {
    rtree: RTree,
    neighbors: Vec<Vec<PageId>>,
}

impl FlatIndex {
    /// Bulk loads with explicit page capacity and neighborhood config.
    pub fn bulk_load_with(
        objects: &[SpatialObject],
        capacity: usize,
        config: FlatConfig,
    ) -> FlatIndex {
        let rtree = RTree::bulk_load_with_capacity(objects, capacity);
        Self::from_rtree(rtree, config)
    }

    /// Builds neighborhoods over an existing R-tree.
    ///
    /// Each page's directed list is its ε-probe's pages united with its
    /// `knn + 1` nearest (itself included). The probe usually holds those
    /// already, and then the k-NN walk is skipped (see the module docs).
    /// On `fleet`'s roads bed (2-core Xeon, seed 42, alternating pairs)
    /// that took `index.bulk_load_s` from 0.43–0.57 s to 0.17–0.21 s and
    /// the median `setup_s` from 0.477 s to 0.225 s.
    pub fn from_rtree(rtree: RTree, config: FlatConfig) -> FlatIndex {
        let threads = width(rtree.layout().page_count(), MIN_PAGES_PER_THREAD);
        Self::from_rtree_on(rtree, config, threads)
    }

    /// [`FlatIndex::from_rtree`] on `threads` threads (at least one),
    /// whatever the size.
    ///
    /// The directed lists are found over page chunks, one a thread, each
    /// with a [`DirectedPass`] of its own. Every chunk, the caller's
    /// included, writes its lists one after another into a flat buffer the
    /// caller allocated with [`LIST_ROOM`] entries a page; if it runs out of
    /// room it stops. Then the caller builds every page's list in page
    /// order, and finds the lists of any chunk that stopped short itself.
    pub(crate) fn from_rtree_on(rtree: RTree, config: FlatConfig, threads: usize) -> FlatIndex {
        let pages = rtree.layout().pages();
        let chunks: Vec<Range<usize>> = ranges(pages.len(), threads).collect();
        let mut passes: Vec<DirectedPass<'_>> = Vec::with_capacity(chunks.len());
        passes.push(DirectedPass::new(&rtree, config));
        while passes.len() < chunks.len() {
            passes.push(passes[0].with_buffers());
        }
        // Allocated before the flat buffer, or `follow`'s `peak_rss_mb`
        // reads 4 MB more: where glibc puts the buffer (DESIGN §6).
        let mut neighbors: Vec<Vec<PageId>> = Vec::with_capacity(pages.len());
        let mut lists = vec![0u32; pages.len() * LIST_ROOM];
        let mut lens = vec![0u32; pages.len()];
        let outputs = split_lengths(&mut lists, chunks.iter().map(|r| r.len() * LIST_ROOM))
            .zip(split_lengths(&mut lens, chunks.iter().map(Range::len)));
        let parts = chunks.iter().zip(passes.iter_mut()).zip(outputs);
        let done = join_parts(parts, |((range, pass), (out, lens))| {
            pass.fill(&pages[range.clone()], out, lens)
        });

        let pass = &mut passes[0];
        for (range, &done) in chunks.iter().zip(&done) {
            let mut out = &lists[range.start * LIST_ROOM..];
            for &len in &lens[range.start..range.start + done] {
                let (list, rest) = out.split_at(len as usize);
                neighbors.push(list.iter().copied().map(PageId).collect());
                out = rest;
            }
            for page in &pages[range.start + done..range.end] {
                pass.run(page);
                neighbors.push(pass.near.clone());
            }
        }
        drop(passes);
        drop(lists);

        let n = neighbors.len();
        // Symmetrize: k-NN links are directed; neighborhoods must not be.
        // Page `p` gains, in ascending `i`, every `i` that lists `p` but is
        // not in `p`'s own sorted directed list — its first `directed[p]`
        // entries, which the appended back links never disturb.
        let directed: Vec<usize> = neighbors.iter().map(Vec::len).collect();
        for i in 0..n {
            let back = PageId(i as u32);
            for j in 0..directed[i] {
                let p = neighbors[i][j].index();
                if neighbors[p][..directed[p]].binary_search(&back).is_err() {
                    neighbors[p].push(back);
                }
            }
        }
        FlatIndex { rtree, neighbors }
    }

    /// The underlying R-tree (exposed for diagnostics and tests).
    pub fn rtree(&self) -> &RTree {
        &self.rtree
    }

    /// Mean number of neighbors per page.
    pub fn mean_neighbor_count(&self) -> f64 {
        if self.neighbors.is_empty() {
            return 0.0;
        }
        self.neighbors.iter().map(Vec::len).sum::<usize>() as f64 / self.neighbors.len() as f64
    }

    /// [`OrderedSpatialIndex::crawl_region`] into `out`, replacing its
    /// contents.
    ///
    /// `out` is the crawl's queue as well as its result: a page is
    /// appended when the crawl discovers it and expanded when the read
    /// cursor reaches it, which is the order a separate breadth-first
    /// queue would have popped. The only allocation is the page marks,
    /// one byte per page id between the lowest and the highest overlapping
    /// page.
    fn crawl_region_into(&self, region: &Aabb, start: Vec3, out: &mut Vec<PageId>) {
        // The overlapping pages, ascending by id (the R-tree's order).
        self.rtree.pages_in_region_into(region, out);
        let (Some(&lowest), Some(&highest)) = (out.first(), out.last()) else {
            return;
        };
        // Seed with the overlapping page nearest the start point.
        let distance = |p: PageId| self.layout().page(p).mbr.distance_sq_to_point(start);
        let seed = out
            .iter()
            .copied()
            .min_by(|&a, &b| distance(a).total_cmp(&distance(b)))
            .expect("non-empty overlap set");

        const WANTED: u8 = 1; // overlaps the region, not yet discovered
        const FOUND: u8 = 2;
        let mark_of = |p: PageId| p.index().wrapping_sub(lowest.index());
        let mut marks = vec![0u8; highest.index() - lowest.index() + 1];
        for &p in out.iter() {
            marks[mark_of(p)] = WANTED;
        }
        let wanted = out.len();
        out.clear();

        marks[mark_of(seed)] = FOUND;
        out.push(seed);
        let mut expanded = 0;
        // Where the search for the next re-seed resumes.
        let mut reseed = 0;
        loop {
            while let Some(&p) = out.get(expanded) {
                expanded += 1;
                for &nb in &self.neighbors[p.index()] {
                    let mark = mark_of(nb);
                    if marks.get(mark) == Some(&WANTED) {
                        marks[mark] = FOUND;
                        out.push(nb);
                    }
                }
            }
            if out.len() == wanted {
                break;
            }
            // Disconnected result cluster: re-seed on the lowest
            // undiscovered overlapping page (multi-seed crawl).
            reseed += marks[reseed..]
                .iter()
                .position(|&m| m == WANTED)
                .expect("fewer pages found than wanted implies a wanted mark");
            marks[reseed] = FOUND;
            out.push(PageId((lowest.index() + reseed) as u32));
        }
    }
}

/// The directed half of the neighborhood pass, one page at a time, with
/// the buffers it reuses across pages.
struct DirectedPass<'a> {
    rtree: &'a RTree,
    /// The ε-probe's margin: `epsilon_factor ×` the mean page MBR
    /// diagonal, floored so a probe box always exceeds its page's MBR.
    margin: f64,
    /// The k-NN set's size: `knn` plus the page itself.
    k: usize,
    /// Whether every page box is finite with `min ≤ max` on each axis, as
    /// the bound in [`DirectedPass::run`] needs. A NaN box meets no probe
    /// and an inverted one is no live slot, yet the k-NN walk still ranks
    /// both.
    probes_settle: bool,
    /// The last page's directed list.
    near: Vec<PageId>,
    knn_scratch: KnnScratch,
    knn_out: Vec<PageId>,
}

impl<'a> DirectedPass<'a> {
    fn new(rtree: &'a RTree, config: FlatConfig) -> Self {
        let pages = rtree.layout().pages();
        let mean_diag =
            pages.iter().map(|p| p.mbr.extent().norm()).sum::<f64>() / pages.len().max(1) as f64;
        let proper = |b: &Aabb| {
            let coords = [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z];
            coords.iter().all(|v| v.is_finite()) && !b.is_empty()
        };
        DirectedPass {
            rtree,
            margin: (config.epsilon_factor * mean_diag).max(1e-12),
            k: config.knn + 1,
            probes_settle: pages.iter().all(|p| proper(&p.mbr)),
            near: Vec::new(),
            knn_scratch: KnnScratch::new(),
            knn_out: Vec::new(),
        }
        .with_buffers()
    }

    /// The same pass with buffers of its own, reserved so that no page
    /// grows them: a probe meets at most every page, and the walk adds `k`.
    fn with_buffers(&self) -> Self {
        let pages = self.rtree.layout().page_count();
        DirectedPass {
            near: Vec::with_capacity(pages + self.k),
            knn_scratch: KnnScratch::reserved(self.rtree, self.k),
            knn_out: Vec::with_capacity(self.k),
            ..*self
        }
    }

    /// Writes the directed lists of `pages` one after another into `out`,
    /// and their lengths into `lens`, and returns how many it wrote: all
    /// of them, unless `out` runs out of room for the next.
    fn fill(&mut self, pages: &[Page], out: &mut [u32], lens: &mut [u32]) -> usize {
        let mut used = 0;
        for (done, page) in pages.iter().enumerate() {
            self.run(page);
            let Some(room) = out.get_mut(used..used + self.near.len()) else {
                return done;
            };
            room.iter_mut().zip(&self.near).for_each(|(slot, p)| *slot = p.0);
            lens[done] = self.near.len() as u32;
            used += self.near.len();
        }
        pages.len()
    }

    /// Sets `near` to `page`'s directed list — the pages its ε-probe
    /// meets and its `k` nearest, less the page itself, ascending — and
    /// returns whether the probe settled the `k` nearest, so that the tree
    /// was not walked for them.
    ///
    /// The probe box holds the page's centre `c`. A page it missed lies
    /// strictly beyond one of its faces, so that page's squared distance
    /// to `c` is at least `r²`, the least of the six squared distances from
    /// `c` to a face: `f64` rounding and sums of non-negative terms are
    /// monotone. If `k` hits lie strictly below `r²`, so does the k-th
    /// nearest page of all, and so does every page the walk would return:
    /// all are hits already, and the union adds nothing. A tie at the k-th
    /// place does not matter, since every tied page is a hit. Fewer than
    /// `k` hits below `r²`: walk.
    fn run(&mut self, page: &Page) -> bool {
        let probe = page.mbr.expanded(self.margin);
        self.rtree.pages_in_region_into(&probe, &mut self.near);
        let c = page.mbr.center();
        let (below, above) = (c - probe.min, probe.max - c);
        let faces = [below.x, below.y, below.z, above.x, above.y, above.z];
        let r_sq = faces.iter().map(|f| f * f).fold(f64::INFINITY, f64::min);
        let layout = self.rtree.layout();
        let settled = self.probes_settle
            && self
                .near
                .iter()
                .filter(|&&p| layout.page(p).mbr.distance_sq_to_point(c) < r_sq)
                .nth(self.k - 1)
                .is_some();
        if !settled {
            // k-NN union for connectivity across sparse areas.
            self.rtree.k_nearest_pages_into(c, self.k, &mut self.knn_scratch, &mut self.knn_out);
            self.near.extend_from_slice(&self.knn_out);
        }
        self.near.retain(|&p| p != page.id);
        self.near.sort_unstable();
        self.near.dedup();
        settled
    }
}

impl SpatialIndex for FlatIndex {
    fn layout(&self) -> &PageLayout {
        self.rtree.layout()
    }

    /// Natural retrieval order for FLAT is the crawl from the region
    /// center.
    fn pages_in_region_into(&self, region: &Aabb, out: &mut Vec<PageId>) {
        self.crawl_region_into(region, region.center(), out);
    }
}

impl OrderedSpatialIndex for FlatIndex {
    fn seed_page(&self, p: Vec3) -> Option<PageId> {
        self.rtree.nearest_page(p)
    }

    fn page_neighbors(&self, page: PageId) -> &[PageId] {
        &self.neighbors[page.index()]
    }

    fn crawl_region(&self, region: &Aabb, start: Vec3) -> Vec<PageId> {
        let mut out = Vec::new();
        self.crawl_region_into(region, start, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::{arb_grid_objects, arb_objects, plain_neighbors};
    use proptest::prelude::*;
    use scout_geometry::{ObjectId, QueryRegion, Segment, Shape, StructureId};

    fn grid_objects(n_per_axis: usize, spacing: f64) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        let mut id = 0u32;
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    out.push(SpatialObject::new(
                        ObjectId(id),
                        StructureId(0),
                        Shape::Point(Vec3::new(
                            x as f64 * spacing,
                            y as f64 * spacing,
                            z as f64 * spacing,
                        )),
                    ));
                    id += 1;
                }
            }
        }
        out
    }

    #[test]
    fn a_tree_without_pages_builds_the_empty_index() {
        for threads in [1, 2] {
            let tree = RTree::from_layout(PageLayout::new(Vec::new(), 0));
            let flat = FlatIndex::from_rtree_on(tree, FlatConfig::default(), threads);
            assert_eq!(flat.layout().page_count(), 0, "{threads} threads");
            let all = Aabb::new(Vec3::splat(-1e9), Vec3::splat(1e9));
            assert!(flat.pages_in_region(&all).is_empty(), "{threads} threads");
        }
    }

    #[test]
    fn crawl_result_set_equals_rtree() {
        let objs = grid_objects(12, 1.0);
        let flat = FlatIndex::bulk_load_with(&objs, 16, FlatConfig::default());
        for region in [
            Aabb::new(Vec3::splat(1.5), Vec3::splat(5.5)),
            Aabb::new(Vec3::splat(0.0), Vec3::splat(11.0)),
            Aabb::new(Vec3::new(3.0, 0.0, 8.0), Vec3::new(9.0, 2.0, 11.0)),
        ] {
            let mut crawl = flat.crawl_region(&region, region.center());
            let mut tree = flat.rtree().pages_in_region(&region);
            crawl.sort_unstable();
            tree.sort_unstable();
            assert_eq!(crawl, tree);
        }
    }

    #[test]
    fn crawl_order_radiates_from_start() {
        let objs = grid_objects(12, 1.0);
        let flat = FlatIndex::bulk_load_with(&objs, 8, FlatConfig::default());
        let region = Aabb::new(Vec3::splat(0.0), Vec3::splat(11.0));
        let start = Vec3::splat(0.0);
        let order = flat.crawl_region(&region, start);
        assert!(!order.is_empty());
        // First page must be (one of) the closest to the start.
        let d_first = flat.layout().page(order[0]).mbr.distance_sq_to_point(start);
        let d_min = order
            .iter()
            .map(|&p| flat.layout().page(p).mbr.distance_sq_to_point(start))
            .fold(f64::INFINITY, f64::min);
        assert!((d_first - d_min).abs() < 1e-9);
        // Mean distance of the first half should be below the second half.
        let ds: Vec<f64> = order
            .iter()
            .map(|&p| flat.layout().page(p).mbr.distance_sq_to_point(start).sqrt())
            .collect();
        let half = ds.len() / 2;
        let first: f64 = ds[..half].iter().sum::<f64>() / half as f64;
        let second: f64 = ds[half..].iter().sum::<f64>() / (ds.len() - half) as f64;
        assert!(first < second, "crawl does not radiate: {first:.2} vs {second:.2}");
    }

    #[test]
    fn neighborhoods_are_symmetric() {
        let objs = grid_objects(8, 1.0);
        let flat = FlatIndex::bulk_load_with(&objs, 8, FlatConfig::default());
        for page in flat.layout().pages() {
            for &nb in flat.page_neighbors(page.id) {
                assert!(
                    flat.page_neighbors(nb).contains(&page.id),
                    "asymmetric link {:?} -> {nb:?}",
                    page.id
                );
            }
        }
    }

    #[test]
    fn range_query_objects_match_rtree() {
        let objs = grid_objects(10, 1.0);
        let flat = FlatIndex::bulk_load_with(&objs, 16, FlatConfig::default());
        let rtree = RTree::bulk_load_with_capacity(&objs, 16);
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::splat(2.2), Vec3::splat(7.7)));
        let mut a: Vec<u32> =
            flat.range_query(&objs, &region).objects.iter().map(|o| o.0).collect();
        let mut b: Vec<u32> =
            rtree.range_query(&objs, &region).objects.iter().map(|o| o.0).collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn disconnected_regions_still_complete() {
        // Two far-apart clusters; a region covering both exercises re-seed.
        let mut objs = grid_objects(4, 1.0);
        let base = objs.len() as u32;
        for (i, o) in grid_objects(4, 1.0).into_iter().enumerate() {
            let p = match o.shape {
                Shape::Point(p) => p,
                _ => unreachable!(),
            };
            objs.push(SpatialObject::new(
                ObjectId(base + i as u32),
                StructureId(1),
                Shape::Point(p + Vec3::new(1000.0, 0.0, 0.0)),
            ));
        }
        let flat = FlatIndex::bulk_load_with(&objs, 4, FlatConfig { epsilon_factor: 0.1, knn: 2 });
        let region = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1004.0, 4.0, 4.0));
        let mut crawl = flat.crawl_region(&region, Vec3::ZERO);
        let mut tree = flat.rtree().pages_in_region(&region);
        crawl.sort_unstable();
        tree.sort_unstable();
        assert_eq!(crawl, tree);
    }

    /// A pass that always walked the tree would equal the plain pass in
    /// every property test and lose the gain: on a dense jittered bed,
    /// the probe must settle at least 90 % of the pages. A pass that never
    /// walked would settle the sparse lattice too.
    #[test]
    fn probes_settle_most_pages() {
        let tree = |objs: &[SpatialObject]| RTree::bulk_load_with_capacity(objs, 8);
        let settled_share = |tree: &RTree| {
            let mut pass = DirectedPass::new(tree, FlatConfig::default());
            let pages = tree.layout().pages();
            pages.iter().filter(|page| pass.run(page)).count() as f64 / pages.len() as f64
        };
        // 16³ segments, each starting up to ±0.4 a side off its lattice
        // site and reaching up to ±0.8 a side from there.
        let mut state = 42u64;
        let mut jitter = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 0.8
        };
        let jittered: Vec<SpatialObject> = (0..16u32.pow(3))
            .map(|i| {
                let site = Vec3::new(f64::from(i % 16), f64::from(i / 16 % 16), f64::from(i / 256));
                let a = site + Vec3::new(jitter(), jitter(), jitter());
                let b = a + Vec3::new(jitter(), jitter(), jitter()) * 2.0;
                SpatialObject::new(ObjectId(i), StructureId(0), Shape::Segment(Segment::new(a, b)))
            })
            .collect();
        let share = settled_share(&tree(&jittered));
        assert!(share >= 0.9, "the probe settled {:.1} % of the jittered pages", 100.0 * share);
        // Pages of lattice points lie a spacing apart, beyond most probes.
        let share = settled_share(&tree(&grid_objects(16, 1.0)));
        assert!(share < 0.5, "the probe settled {:.1} % of the lattice pages", 100.0 * share);
    }

    #[test]
    fn seed_page_is_nearest() {
        let objs = grid_objects(6, 1.0);
        let flat = FlatIndex::bulk_load_with(&objs, 8, FlatConfig::default());
        let p = Vec3::new(2.5, 2.5, 2.5);
        let seed = flat.seed_page(p).unwrap();
        assert_eq!(flat.layout().page(seed).mbr.distance_sq_to_point(p), 0.0);
    }

    /// The widths every split is checked at (as the STR pack's).
    const WIDTHS: [usize; 4] = [1, 2, 3, 8];

    fn assert_plain_neighbors(tree: &RTree, config: FlatConfig) -> Result<(), TestCaseError> {
        let want = plain_neighbors(tree, config);
        for threads in WIDTHS {
            let flat = FlatIndex::from_rtree_on(tree.clone(), config, threads);
            for page in flat.layout().pages() {
                prop_assert_eq!(flat.page_neighbors(page.id), want[page.id.index()].as_slice());
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The directed lists are found over page chunks, one
        /// `DirectedPass` a thread, and joined in order: every list must
        /// come out as the plain pass builds it, at every width.
        #[test]
        fn neighbors_equal_the_plain_pass_at_every_width(
            objects in prop_oneof![arb_objects(), arb_grid_objects()],
            epsilon_factor in 0.0..0.5f64,
            knn in 0usize..5,
        ) {
            let tree = RTree::bulk_load_with_capacity(&objects, 4);
            assert_plain_neighbors(&tree, FlatConfig { epsilon_factor, knn })?;
        }
    }

    /// Lists longer than the room a chunk is given: every probe meets
    /// every page, so each chunk stops part way through and the caller
    /// finds the rest. At width 1 the one chunk is the caller's own.
    #[test]
    fn neighbors_equal_the_plain_pass_when_lists_outgrow_their_room() {
        let tree = RTree::bulk_load_with_capacity(&grid_objects(8, 1.0), 4);
        let config = FlatConfig { epsilon_factor: 100.0, knn: 4 };
        let pages = tree.layout().pages();
        let (mut out, mut lens) = (vec![0; pages.len() * LIST_ROOM], vec![0; pages.len()]);
        let done = DirectedPass::new(&tree, config).fill(pages, &mut out, &mut lens);
        assert!(done > 0 && 2 * done < pages.len(), "{done} of {} lists fit", pages.len());
        assert_plain_neighbors(&tree, config).unwrap();
        let flat = FlatIndex::from_rtree_on(tree.clone(), config, 1);
        assert_eq!(flat.mean_neighbor_count(), (pages.len() - 1) as f64);
    }

    /// Realistic lists, long and short: the 512 pages of a 40 k-object
    /// neuron bed.
    #[test]
    fn neighbors_equal_the_plain_pass_at_every_width_on_a_neuron_bed() {
        use scout_synth::{generate_neurons, NeuronParams};
        let neurons = generate_neurons(&NeuronParams::with_target_objects(40_000), 42);
        let tree = RTree::bulk_load_with_capacity(&neurons.objects, 87);
        assert_plain_neighbors(&tree, FlatConfig::default()).unwrap();
    }

    /// FNV-1a digest of every page's neighbour list, its length first.
    fn neighbors_digest(flat: &FlatIndex) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for page in flat.layout().pages() {
            let list = flat.page_neighbors(page.id);
            eat(&(list.len() as u32).to_le_bytes());
            for p in list {
                eat(&p.0.to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn neighbors_are_pinned() {
        // Recorded from the serial pass, on the beds of the STR pack's
        // `layout_is_pinned`: a pass that moves one link moves a digest.
        use scout_synth::{generate_neurons, generate_roads, NeuronParams, RoadParams};
        let neurons = generate_neurons(&NeuronParams::with_target_objects(40_000), 42);
        let flat = FlatIndex::bulk_load_with(&neurons.objects, 87, FlatConfig::default());
        assert_eq!(
            (flat.layout().page_count(), neighbors_digest(&flat)),
            (512, 0x3cb2_03c6_468a_e1dd)
        );
        let roads = generate_roads(&RoadParams { grid_n: 32, ..Default::default() }, 42);
        let flat = FlatIndex::bulk_load_with(&roads.objects, 4, FlatConfig::default());
        assert_eq!(
            (flat.layout().page_count(), neighbors_digest(&flat)),
            (1870, 0xee2f_3a32_de80_0af5)
        );
    }
}
