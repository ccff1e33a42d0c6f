//! Sort-Tile-Recursive (STR) bulk loading [Leutenegger et al., ICDE 1997].
//!
//! STR packs N objects into ⌈N/B⌉ pages by tiling space: sort by x and cut
//! into vertical slabs, sort each slab by y and cut into runs, sort each
//! run by z and emit pages of B objects. Consecutive page ids end up
//! spatially coherent, which is also how we model physical adjacency on
//! the simulated disk.

use scout_geometry::{Aabb, SpatialObject};
use scout_storage::{Page, PageId, PageLayout};

/// Default objects per 4 KB page, from §7.1 ("a fanout of 87 objects per
/// page … bulk loaded using a fill factor of 100%").
pub const DEFAULT_PAGE_CAPACITY: usize = 87;

/// Packs objects into pages with STR and returns the physical layout.
///
/// # Panics
/// Panics when `objects` is empty or `capacity` is zero.
pub fn str_pack(objects: &[SpatialObject], capacity: usize) -> PageLayout {
    assert!(!objects.is_empty(), "cannot bulk load an empty dataset");
    assert!(capacity >= 1, "page capacity must be >= 1");

    let n = objects.len();
    let page_count = n.div_ceil(capacity);
    // Tiles per axis: ⌈P^(1/3)⌉ vertical slabs, each sliced into ⌈√(P/Sx)⌉
    // runs, each cut into pages.
    let sx = (page_count as f64).cbrt().ceil() as usize;

    // The comparators read one centroid coordinate per object from `key`
    // (x, then y, then z) rather than recomputing centroids from the object
    // records. Slabs are disjoint, so sorting every slab by y before any run
    // by z gives the order of the interleaved sorts: each stable sort's
    // output depends only on its own input and comparator.
    let mut key: Vec<f64> = objects.iter().map(|o| o.centroid().x).collect();
    let by_key = |key: &[f64], a: &u32, b: &u32| {
        key[*a as usize].partial_cmp(&key[*b as usize]).expect("non-finite coordinate in dataset")
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.sort_by(|a, b| by_key(&key, a, b));

    let slab_len = n.div_ceil(sx).max(1);
    for (k, o) in key.iter_mut().zip(objects) {
        *k = o.centroid().y;
    }
    for slab in order.chunks_mut(slab_len) {
        slab.sort_by(|a, b| by_key(&key, a, b));
    }

    for (k, o) in key.iter_mut().zip(objects) {
        *k = o.centroid().z;
    }
    let mut pages: Vec<Page> = Vec::with_capacity(page_count);
    for slab in order.chunks_mut(slab_len) {
        let slab_pages = slab.len().div_ceil(capacity);
        let sy = (slab_pages as f64).sqrt().ceil() as usize;
        let run_len = slab.len().div_ceil(sy.max(1));
        for run in slab.chunks_mut(run_len.max(1)) {
            run.sort_by(|a, b| by_key(&key, a, b));
            for chunk in run.chunks(capacity) {
                let mut mbr = Aabb::EMPTY;
                let mut ids = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    let obj = &objects[i as usize];
                    mbr = mbr.union(&obj.aabb());
                    ids.push(obj.id);
                }
                pages.push(Page { id: PageId(0), mbr, objects: ids });
            }
        }
    }

    PageLayout::new(pages, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{ObjectId, Shape, StructureId, Vec3};

    fn point_objects(points: &[(f64, f64, f64)]) -> Vec<SpatialObject> {
        points
            .iter()
            .enumerate()
            .map(|(i, &(x, y, z))| {
                SpatialObject::new(
                    ObjectId(i as u32),
                    StructureId(0),
                    Shape::Point(Vec3::new(x, y, z)),
                )
            })
            .collect()
    }

    fn grid_objects(n_per_axis: usize) -> Vec<SpatialObject> {
        let mut pts = Vec::new();
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    pts.push((x as f64, y as f64, z as f64));
                }
            }
        }
        point_objects(&pts)
    }

    #[test]
    fn every_object_assigned_once() {
        let objs = grid_objects(6); // 216 objects
        let layout = str_pack(&objs, 10);
        assert_eq!(layout.object_count(), 216);
        // STR only under-fills at run boundaries: the page count stays
        // within a small factor of the optimum.
        let optimum = 216usize.div_ceil(10);
        assert!(
            layout.page_count() >= optimum && layout.page_count() <= optimum * 2,
            "page count {} vs optimum {optimum}",
            layout.page_count()
        );
        let mut seen = vec![false; 216];
        for page in layout.pages() {
            for &oid in &page.objects {
                assert!(!seen[oid.index()]);
                seen[oid.index()] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn page_mbrs_cover_their_objects() {
        let objs = grid_objects(5);
        let layout = str_pack(&objs, 8);
        for page in layout.pages() {
            for &oid in &page.objects {
                assert!(page.mbr.contains_aabb(&objs[oid.index()].aabb()));
            }
        }
    }

    #[test]
    fn pages_are_full_except_tail() {
        let objs = grid_objects(4); // 64 objects
        let layout = str_pack(&objs, 7);
        // STR with 100% fill: at most one partially-filled page per run; at
        // minimum, total pages stays near ⌈N/B⌉.
        assert!(layout.page_count() <= 64usize.div_ceil(7) + 6);
        let total: usize = layout.pages().iter().map(|p| p.objects.len()).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn consecutive_pages_are_spatially_coherent() {
        // On a uniform grid, the mean MBR-distance between consecutive
        // pages should be far below the distance between random pairs.
        let objs = grid_objects(8); // 512 objects
        let layout = str_pack(&objs, 8); // 64 pages
        let pages = layout.pages();
        let mut adjacent = 0.0;
        for w in pages.windows(2) {
            adjacent += w[0].mbr.center().distance(w[1].mbr.center());
        }
        adjacent /= (pages.len() - 1) as f64;
        let mut random = 0.0;
        let mut cnt = 0.0;
        for i in (0..pages.len()).step_by(7) {
            for j in (0..pages.len()).step_by(11) {
                if i != j {
                    random += pages[i].mbr.center().distance(pages[j].mbr.center());
                    cnt += 1.0;
                }
            }
        }
        random /= cnt;
        assert!(
            adjacent < random * 0.75,
            "adjacent {adjacent:.2} not much closer than random {random:.2}"
        );
    }

    #[test]
    fn single_page_dataset() {
        let objs = point_objects(&[(0.0, 0.0, 0.0), (1.0, 1.0, 1.0)]);
        let layout = str_pack(&objs, 87);
        assert_eq!(layout.page_count(), 1);
        assert_eq!(layout.page(PageId(0)).objects.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let _ = str_pack(&[], 87);
    }
}
