//! Property tests: both indexes must agree with brute-force range scans on
//! arbitrary datasets, and FLAT's crawl must retrieve exactly the R-tree's
//! page set.

use proptest::prelude::*;
use scout_geometry::intersect::segment_intersects_aabb;
use scout_geometry::{
    Aabb, Cylinder, ObjectId, QueryRegion, Segment, Shape, SpatialObject, StructureId, Vec3,
};
use scout_index::{FlatConfig, FlatIndex, OrderedSpatialIndex, RTree, SpatialIndex};
use scout_storage::PageId;
use std::collections::VecDeque;

fn arb_objects() -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec(
        ((-50.0..50.0, -50.0..50.0, -50.0..50.0), (-3.0..3.0, -3.0..3.0, -3.0..3.0), 0.1..1.0f64),
        1..120,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), (dx, dy, dz), r))| {
                let a = Vec3::new(x, y, z);
                let b = a + Vec3::new(dx, dy, dz);
                SpatialObject::new(
                    ObjectId(i as u32),
                    StructureId(0),
                    Shape::Cylinder(Cylinder::new(a, b, r, r)),
                )
            })
            .collect()
    })
}

fn arb_region() -> impl Strategy<Value = QueryRegion> {
    ((-60.0..60.0, -60.0..60.0, -60.0..60.0), 1.0..30.0f64).prop_map(|((x, y, z), side)| {
        let c = Vec3::new(x, y, z);
        QueryRegion::from_aabb(Aabb::from_center_extent(c, Vec3::splat(side)))
    })
}

fn arb_point() -> impl Strategy<Value = Vec3> {
    (-70.0..70.0, -70.0..70.0, -70.0..70.0).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

/// The scan's own segment–box distance: the 60-iteration ternary search on
/// the convex `distance(seg.at(t), box)²` that the geometry kernel used to
/// be. Filtering with it, not with `shape_intersects_aabb`, keeps index ≡
/// scan from comparing the kernel with itself; the two can only disagree on
/// a capsule within ~1e-9 of touching the region.
fn oracle_distance(seg: &Segment, aabb: &Aabb) -> f64 {
    if segment_intersects_aabb(seg, aabb) {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0_f64, 1.0_f64);
    for _ in 0..60 {
        let m1 = lo + (hi - lo) / 3.0;
        let m2 = hi - (hi - lo) / 3.0;
        if aabb.distance_sq_to_point(seg.at(m1)) < aabb.distance_sq_to_point(seg.at(m2)) {
            hi = m2;
        } else {
            lo = m1;
        }
    }
    aabb.distance_sq_to_point(seg.at((lo + hi) * 0.5)).sqrt()
}

fn brute_force(objects: &[SpatialObject], region: &QueryRegion) -> Vec<u32> {
    let mut out: Vec<u32> = objects
        .iter()
        .filter(|o| match &o.shape {
            Shape::Cylinder(c) => oracle_distance(&c.axis(), region.aabb()) <= c.max_radius(),
            other => unreachable!("arb_objects generates cylinders only, got {other:?}"),
        })
        .map(|o| o.id.0)
        .collect();
    out.sort_unstable();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rtree_matches_brute_force(objects in arb_objects(), region in arb_region()) {
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let mut got: Vec<u32> =
            tree.range_query(&objects, &region).objects.iter().map(|o| o.0).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&objects, &region));
    }

    #[test]
    fn flat_matches_brute_force(objects in arb_objects(), region in arb_region()) {
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let mut got: Vec<u32> =
            flat.range_query(&objects, &region).objects.iter().map(|o| o.0).collect();
        got.sort_unstable();
        prop_assert_eq!(got, brute_force(&objects, &region));
    }

    #[test]
    fn flat_pages_equal_rtree_pages(objects in arb_objects(), region in arb_region()) {
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let mut a = flat.pages_in_region(region.aabb());
        let mut b = flat.rtree().pages_in_region(region.aabb());
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn crawl_has_no_duplicates(objects in arb_objects(), region in arb_region()) {
        let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
        let pages = flat.pages_in_region(region.aabb());
        let mut dedup = pages.clone();
        dedup.sort_unstable();
        dedup.dedup();
        prop_assert_eq!(dedup.len(), pages.len());
    }

    /// The crawl marks pages in a window of the id space and queues them
    /// in its own output; it must emit the order of the plain crawl —
    /// flags over every page, a queue of its own, re-seeding on the first
    /// overlapping page left — from any start point, connected or not.
    #[test]
    fn crawl_order_equals_the_plain_crawl(
        objects in arb_objects(),
        center in arb_point(),
        side in 10.0..150.0f64,
        start in arb_point(),
        knn in 0usize..3,
    ) {
        // Small pages, thin neighborhoods and regions up to the whole
        // dataset: most cases re-seed, many more than once.
        let config = FlatConfig { epsilon_factor: 0.05, knn };
        let flat = FlatIndex::bulk_load_with(&objects, 4, config);
        let region = Aabb::from_center_extent(center, Vec3::splat(side));
        prop_assert_eq!(flat.crawl_region(&region, start), plain_crawl(&flat, &region, start));
    }

    /// The neighborhood pass reuses one probe buffer and symmetrizes by
    /// binary search on each page's directed list; every list must come
    /// out as the plain pass builds it, order included.
    #[test]
    fn neighbors_equal_the_plain_pass(
        objects in arb_objects(),
        epsilon_factor in 0.0..0.5f64,
        knn in 0usize..5,
    ) {
        let config = FlatConfig { epsilon_factor, knn };
        let flat = FlatIndex::bulk_load_with(&objects, 4, config);
        let want = plain_neighbors(flat.rtree(), config);
        for page in flat.layout().pages() {
            prop_assert_eq!(flat.page_neighbors(page.id), want[page.id.index()].as_slice());
        }
    }
}

/// The plain neighborhood pass: per page, the ε-probe's pages plus the
/// k-NN pages not among them, less the page itself, sorted; then each
/// directed link `i → p` appends `i` to `p`'s list unless already there,
/// reading a snapshot of the directed lists.
fn plain_neighbors(rtree: &RTree, config: FlatConfig) -> Vec<Vec<PageId>> {
    let pages = rtree.layout().pages();
    let mean_diag = pages.iter().map(|p| p.mbr.extent().norm()).sum::<f64>() / pages.len() as f64;
    let eps = config.epsilon_factor * mean_diag;
    let mut scratch = scout_index::KnnScratch::new();
    let mut knn = Vec::new();
    let mut neighbors: Vec<Vec<PageId>> = Vec::new();
    for page in pages {
        let mut near = rtree.pages_in_region(&page.mbr.expanded(eps.max(1e-12)));
        rtree.k_nearest_pages_into(page.mbr.center(), config.knn + 1, &mut scratch, &mut knn);
        for &p in &knn {
            if !near.contains(&p) {
                near.push(p);
            }
        }
        near.retain(|&p| p != page.id);
        near.sort_unstable();
        near.dedup();
        neighbors.push(near);
    }
    let snapshot = neighbors.clone();
    for (i, ns) in snapshot.iter().enumerate() {
        for &p in ns {
            let back = &mut neighbors[p.index()];
            if !back.contains(&PageId(i as u32)) {
                back.push(PageId(i as u32));
            }
        }
    }
    neighbors
}

fn plain_crawl(flat: &FlatIndex, region: &Aabb, start: Vec3) -> Vec<PageId> {
    let overlapping = flat.rtree().pages_in_region(region);
    let page_count = flat.layout().page_count();
    let mut in_region = vec![false; page_count];
    for p in &overlapping {
        in_region[p.index()] = true;
    }
    let mut visited = vec![false; page_count];
    let mut order = Vec::new();
    let mut queue = VecDeque::new();
    let distance = |p: &PageId| flat.layout().page(*p).mbr.distance_sq_to_point(start);
    // `min_by`: the first of equally near pages.
    let mut next = overlapping.iter().copied().min_by(|a, b| distance(a).total_cmp(&distance(b)));
    while let Some(seed) = next {
        visited[seed.index()] = true;
        queue.push_back(seed);
        while let Some(p) = queue.pop_front() {
            order.push(p);
            for &nb in flat.page_neighbors(p) {
                if in_region[nb.index()] && !visited[nb.index()] {
                    visited[nb.index()] = true;
                    queue.push_back(nb);
                }
            }
        }
        next = overlapping.iter().copied().find(|p| !visited[p.index()]);
    }
    order
}

/// Flat-vs-seed R-tree equivalence: the SoA directory must return the
/// same results as the pointer-style seed directory it replaced.
mod flat_layout_equivalence {
    use super::*;
    use scout_index::reference::ReferenceRTree;
    use scout_index::KnnScratch;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `pages_in_region` returns the identical page sequence
        /// (traversal order included).
        #[test]
        fn pages_in_region_matches_seed_directory(
            objects in arb_objects(),
            region in arb_region(),
        ) {
            let tree = RTree::bulk_load_with_capacity(&objects, 8);
            let seed = ReferenceRTree::bulk_load_with_capacity(&objects, 8);
            prop_assert_eq!(
                tree.pages_in_region(region.aabb()),
                seed.pages_in_region(region.aabb())
            );
        }

        /// `k_nearest_pages` (pruned, scratch-reusing) returns pages at
        /// the identical distances as the seed's unpruned search, which
        /// are exactly the k smallest distances overall. Page identities
        /// may differ only inside exact-tie groups (both searches break
        /// distance ties arbitrarily), so the comparison is on distances.
        #[test]
        fn k_nearest_pages_matches_seed_directory(
            objects in arb_objects(),
            p in arb_point(),
            k in 1usize..24,
        ) {
            let tree = RTree::bulk_load_with_capacity(&objects, 8);
            let seed = ReferenceRTree::bulk_load_with_capacity(&objects, 8);
            let mut scratch = KnnScratch::new();
            let mut got = Vec::new();
            tree.k_nearest_pages_into(p, k, &mut scratch, &mut got);
            let expect = seed.k_nearest_pages(p, k);
            prop_assert_eq!(got.len(), expect.len());
            let dist = |pid: &scout_storage::PageId| {
                tree.layout().page(*pid).mbr.distance_sq_to_point(p)
            };
            let got_d: Vec<f64> = got.iter().map(dist).collect();
            let expect_d: Vec<f64> = expect.iter().map(dist).collect();
            prop_assert_eq!(&got_d, &expect_d);
            // Both must equal the k smallest brute-force distances.
            let mut all: Vec<f64> =
                tree.layout().pages().iter().map(|pg| pg.mbr.distance_sq_to_point(p)).collect();
            all.sort_by(f64::total_cmp);
            all.truncate(k);
            prop_assert_eq!(&got_d, &all);
            // No page repeats.
            let mut ids = got.clone();
            ids.sort_unstable();
            ids.dedup();
            prop_assert_eq!(ids.len(), got.len());
        }
    }
}

/// The range scan prefetches object records ahead of its predicate tests —
/// eight ids ahead within a page, and the head of the next page. A hint
/// must not show: pages and objects come out as the plain nested loop
/// produces them, whatever the page lengths and the page list.
mod prefetched_scan {
    use super::*;
    use scout_geometry::intersect::shape_intersects_aabb;
    use scout_index::QueryResult;
    use scout_storage::{Page, PageLayout};

    /// An index that is nothing but a layout and a canned page list.
    struct Canned {
        layout: PageLayout,
        pages: Vec<PageId>,
    }

    impl SpatialIndex for Canned {
        fn layout(&self) -> &PageLayout {
            &self.layout
        }

        fn pages_in_region(&self, _region: &Aabb) -> Vec<PageId> {
            self.pages.clone()
        }
    }

    /// Pages of the given lengths over `objects`, in id order (the last
    /// page takes whatever remains).
    fn layout_of(objects: &[SpatialObject], lengths: &[usize]) -> PageLayout {
        let mut pages = Vec::new();
        let mut next = 0usize;
        let mut lengths = lengths.iter().copied().cycle();
        while next < objects.len() {
            let len = lengths.next().unwrap().clamp(1, objects.len() - next);
            let ids: Vec<ObjectId> = (next..next + len).map(|i| ObjectId(i as u32)).collect();
            let mbr = ids.iter().fold(Aabb::EMPTY, |b, o| b.union(&objects[o.index()].aabb()));
            pages.push(Page { id: PageId(0), mbr, objects: ids });
            next += len;
        }
        PageLayout::new(pages, objects.len())
    }

    /// The scan without any look-ahead.
    fn plain_scan(index: &Canned, objects: &[SpatialObject], region: &QueryRegion) -> QueryResult {
        let mut out = QueryResult { pages: index.pages.clone(), objects: Vec::new() };
        for &pid in &out.pages {
            for &oid in &index.layout.page(pid).objects {
                if shape_intersects_aabb(&objects[oid.index()].shape, region.aabb()) {
                    out.objects.push(oid);
                }
            }
        }
        out
    }

    fn assert_same_scan(index: &Canned, objects: &[SpatialObject], region: &QueryRegion) {
        let got = index.range_query(objects, region);
        let want = plain_scan(index, objects, region);
        assert_eq!(got.pages, want.pages);
        assert_eq!(got.objects, want.objects);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Any mix of page lengths around the prefetch distance, any page
        /// list (subset, order, repeats).
        #[test]
        fn scan_equals_the_plain_loop(
            objects in arb_objects(),
            region in arb_region(),
            lengths in prop::collection::vec(1usize..20, 1..6),
            picks in prop::collection::vec(0usize..1000, 0..24),
        ) {
            let layout = layout_of(&objects, &lengths);
            let count = layout.page_count();
            let pages = picks.iter().map(|p| PageId((p % count) as u32)).collect();
            assert_same_scan(&Canned { layout, pages }, &objects, &region);
        }

        /// Every page shorter than the prefetch distance: only page heads
        /// are ever requested ahead.
        #[test]
        fn short_pages_scan_equals_the_plain_loop(
            objects in arb_objects(),
            region in arb_region(),
            lengths in prop::collection::vec(1usize..8, 1..6),
        ) {
            let layout = layout_of(&objects, &lengths);
            let pages = (0..layout.page_count() as u32).map(PageId).collect();
            assert_same_scan(&Canned { layout, pages }, &objects, &region);
        }

        /// The `_into` forms write what the allocating calls return,
        /// pages and objects, whatever the buffer held before: on the
        /// R-tree's mask walk, on FLAT's crawl, and on the trait's
        /// defaults (`Canned` implements `pages_in_region` alone).
        #[test]
        fn into_forms_equal_the_allocating_calls(
            objects in arb_objects(),
            region in arb_region(),
            picks in prop::collection::vec(0usize..1000, 0..24),
            junk in prop::collection::vec(0u32..1000, 0..40),
        ) {
            let tree = RTree::bulk_load_with_capacity(&objects, 8);
            let flat = FlatIndex::bulk_load_with(&objects, 8, FlatConfig::default());
            let layout = layout_of(&objects, &[5, 11]);
            let count = layout.page_count();
            let pages = picks.iter().map(|p| PageId((p % count) as u32)).collect();
            let canned = Canned { layout, pages };
            let indexes: [&dyn SpatialIndex; 3] = [&tree, &flat, &canned];
            for index in indexes {
                let mut pages: Vec<PageId> = junk.iter().copied().map(PageId).collect();
                index.pages_in_region_into(region.aabb(), &mut pages);
                prop_assert_eq!(&pages, &index.pages_in_region(region.aabb()));

                let mut got = QueryResult {
                    pages: junk.iter().copied().map(PageId).collect(),
                    objects: junk.iter().copied().map(ObjectId).collect(),
                };
                index.range_query_into(&objects, &region, &mut got);
                let want = index.range_query(&objects, &region);
                prop_assert_eq!(&got.pages, &pages);
                prop_assert_eq!(&got.pages, &want.pages);
                prop_assert_eq!(&got.objects, &want.objects);
            }
        }

        /// One page (no next page to look into) and no page at all.
        #[test]
        fn single_page_and_empty_page_list(
            objects in arb_objects(),
            region in arb_region(),
            pick in 0usize..1000,
        ) {
            let layout = layout_of(&objects, &[5, 11]);
            let single = vec![PageId((pick % layout.page_count()) as u32)];
            assert_same_scan(&Canned { layout: layout.clone(), pages: single }, &objects, &region);
            let empty = Canned { layout, pages: Vec::new() };
            assert_same_scan(&empty, &objects, &region);
            prop_assert!(empty.range_query(&objects, &region).objects.is_empty());
        }
    }
}

/// `str_pack` sorts over one reused key buffer (x, then y, then z) and
/// finishes every slab's y-sort before any run's z-sort. Neither may show:
/// pages, their objects and their MBR bits come out as from the plain
/// interleaved pack that recomputes centroids in every comparison.
mod str_pack_oracle {
    use super::*;
    use scout_index::str_pack;

    /// The plain STR pack: each page's objects and MBR, in page-id order.
    fn plain_pack(objects: &[SpatialObject], capacity: usize) -> Vec<(Vec<ObjectId>, Aabb)> {
        let n = objects.len();
        let page_count = n.div_ceil(capacity);
        let sx = (page_count as f64).cbrt().ceil() as usize;
        let centroid = |i: &u32| objects[*i as usize].centroid();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|a, b| {
            centroid(a).x.partial_cmp(&centroid(b).x).expect("non-finite coordinate in dataset")
        });
        let slab_len = n.div_ceil(sx);
        let mut pages = Vec::new();
        for slab in order.chunks_mut(slab_len.max(1)) {
            let slab_pages = slab.len().div_ceil(capacity);
            let sy = (slab_pages as f64).sqrt().ceil() as usize;
            slab.sort_by(|a, b| {
                centroid(a).y.partial_cmp(&centroid(b).y).expect("non-finite coordinate in dataset")
            });
            let run_len = slab.len().div_ceil(sy.max(1));
            for run in slab.chunks_mut(run_len.max(1)) {
                run.sort_by(|a, b| {
                    centroid(a)
                        .z
                        .partial_cmp(&centroid(b).z)
                        .expect("non-finite coordinate in dataset")
                });
                for chunk in run.chunks(capacity) {
                    let mut mbr = Aabb::EMPTY;
                    let mut ids = Vec::with_capacity(chunk.len());
                    for &i in chunk {
                        let obj = &objects[i as usize];
                        mbr = mbr.union(&obj.aabb());
                        ids.push(obj.id);
                    }
                    pages.push((ids, mbr));
                }
            }
        }
        pages
    }

    /// A coordinate on a 5-step integer grid, zero of either sign: most
    /// centroids tie on some axis, many on all three.
    fn arb_coord() -> impl Strategy<Value = f64> {
        prop_oneof![(-2i32..=2).prop_map(f64::from), Just(-0.0), Just(0.0)]
    }

    fn arb_grid_point() -> impl Strategy<Value = Vec3> {
        (arb_coord(), arb_coord(), arb_coord()).prop_map(|(x, y, z)| Vec3::new(x, y, z))
    }

    fn arb_grid_shape() -> impl Strategy<Value = Shape> {
        prop_oneof![
            arb_grid_point().prop_map(Shape::Point),
            (arb_grid_point(), arb_grid_point())
                .prop_map(|(a, b)| Shape::Segment(Segment::new(a, b))),
            (arb_grid_point(), arb_grid_point(), 1u8..4).prop_map(|(a, b, r)| Shape::Cylinder(
                Cylinder::new(a, b, 0.25 * f64::from(r), 0.5)
            )),
        ]
    }

    /// Grid shapes, each present once or twice (duplicates tie on every
    /// key and every stable sort must keep them in input order).
    fn arb_grid_objects() -> impl Strategy<Value = Vec<SpatialObject>> {
        prop::collection::vec((arb_grid_shape(), 0usize..2), 1..400).prop_map(|raw| {
            raw.into_iter()
                .flat_map(|(shape, extra)| std::iter::repeat_n(shape, 1 + extra))
                .enumerate()
                .map(|(i, shape)| SpatialObject::new(ObjectId(i as u32), StructureId(0), shape))
                .collect()
        })
    }

    fn mbr_bits(b: &Aabb) -> [u64; 6] {
        [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f64::to_bits)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn str_pack_equals_the_plain_pack(
            objects in arb_grid_objects(),
            capacity in prop_oneof![Just(1usize), Just(4), Just(7), Just(87)],
        ) {
            let layout = str_pack(&objects, capacity);
            let want = plain_pack(&objects, capacity);
            prop_assert_eq!(layout.page_count(), want.len());
            for (i, (page, (ids, mbr))) in layout.pages().iter().zip(&want).enumerate() {
                prop_assert_eq!(page.id, PageId(i as u32));
                prop_assert_eq!(&page.objects, ids);
                prop_assert_eq!(mbr_bits(&page.mbr), mbr_bits(mbr));
            }
        }
    }

    /// A NaN centroid reaches the z-sort of a one-run pack.
    #[test]
    #[should_panic(expected = "non-finite coordinate in dataset")]
    fn nan_centroid_rejected() {
        let objects: Vec<SpatialObject> = [0.0, f64::NAN]
            .into_iter()
            .enumerate()
            .map(|(i, z)| {
                SpatialObject::new(
                    ObjectId(i as u32),
                    StructureId(0),
                    Shape::Point(Vec3::new(0.0, 0.0, z)),
                )
            })
            .collect();
        let _ = str_pack(&objects, 87);
    }
}
