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

use crate::rtree::RTree;
use crate::traits::{OrderedSpatialIndex, SpatialIndex};
use scout_geometry::{Aabb, SpatialObject, Vec3};
use scout_storage::{PageId, PageLayout};

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
    pub fn from_rtree(rtree: RTree, config: FlatConfig) -> FlatIndex {
        let pages = rtree.layout().pages();
        let n = pages.len();
        // ε from the mean page MBR diagonal.
        let mean_diag = pages.iter().map(|p| p.mbr.extent().norm()).sum::<f64>() / n.max(1) as f64;
        let eps = config.epsilon_factor * mean_diag;

        let mut neighbors: Vec<Vec<PageId>> = Vec::with_capacity(n);
        // One probe buffer, k-NN scratch and k-NN output for the whole
        // build: the probe loop is the hottest part of FLAT construction.
        let mut near: Vec<PageId> = Vec::new();
        let mut knn_scratch = crate::rtree::KnnScratch::new();
        let mut knn_out: Vec<PageId> = Vec::new();
        for page in pages {
            let probe = page.mbr.expanded(eps.max(1e-12));
            rtree.pages_in_region_into(&probe, &mut near);
            // k-NN union for connectivity across sparse areas.
            rtree.k_nearest_pages_into(
                page.mbr.center(),
                config.knn + 1,
                &mut knn_scratch,
                &mut knn_out,
            );
            near.extend_from_slice(&knn_out);
            near.retain(|&p| p != page.id);
            near.sort_unstable();
            near.dedup();
            neighbors.push(near.clone());
        }
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

impl SpatialIndex for FlatIndex {
    fn layout(&self) -> &PageLayout {
        self.rtree.layout()
    }

    fn pages_in_region(&self, region: &Aabb) -> Vec<PageId> {
        let mut out = Vec::new();
        self.pages_in_region_into(region, &mut out);
        out
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
    use scout_geometry::{ObjectId, QueryRegion, Shape, StructureId};

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

    #[test]
    fn seed_page_is_nearest() {
        let objs = grid_objects(6, 1.0);
        let flat = FlatIndex::bulk_load_with(&objs, 8, FlatConfig::default());
        let p = Vec3::new(2.5, 2.5, 2.5);
        let seed = flat.seed_page(p).unwrap();
        assert_eq!(flat.layout().page(seed).mbr.distance_sq_to_point(p), 0.0);
    }
}
