//! Sort-Tile-Recursive (STR) bulk loading [Leutenegger et al., ICDE 1997].
//!
//! STR packs N objects into ⌈N/B⌉ pages by tiling space: sort by x and cut
//! into vertical slabs, sort each slab by y and cut into runs, sort each
//! run by z and emit pages of B objects. Consecutive page ids end up
//! spatially coherent, which is also how we model physical adjacency on
//! the simulated disk.
//!
//! Each sort is a stable bucketed sort ([`sort_ids_by_key`]): a counting
//! sort by a monotone bucket of the key, then a comparison sort inside each
//! bucket. It gives exactly the permutation of a stable comparison sort, so
//! the pages are those of the plain pack, but each id's key is loaded a few
//! times instead of on both sides of ~log₂ N comparisons.

use crate::traits::PREFETCH_DISTANCE;
use scout_geometry::{prefetch_read, Aabb, SpatialObject};
use scout_storage::{Page, PageId, PageLayout};

/// Default objects per 4 KB page, from §7.1 ("a fanout of 87 objects per
/// page … bulk loaded using a fill factor of 100%").
pub const DEFAULT_PAGE_CAPACITY: usize = 87;

/// Keys per bucket, on average, in [`sort_ids_by_key`]. The bucket starts
/// cost one `u32` per 4 ids; the comparison sort inside a bucket of a few
/// ids is an insertion sort.
const KEYS_PER_BUCKET: usize = 4;

/// Buckets longer than this are bucketed again rather than sorted by
/// `sort_by`. Only skewed keys fill one: when a far key sends the rest of a
/// slice into one bucket, the recursive call sorts it in the spare buffer
/// instead of in `sort_by`'s own heap scratch. No bucket of the benchmark's
/// 1.3 M-neuron bed is this long, and limits of 8 to 128 pack it in the
/// same time.
const SMALL_BUCKET: usize = 32;

/// Packs objects into pages with STR and returns the physical layout.
///
/// The order is settled first, over one reused `Vec<f64>` of keys (x, then
/// y, then z, each checked finite as it is filled): `order` is sorted by x,
/// every slab by y, then every run by z. Slabs and runs are disjoint, and a
/// stable sort's output depends only on its input and its comparator, so
/// this equals the interleaved pack. The key buffer, the sort's spare buffer
/// and its bucket starts are freed before the page pass cuts `order` into
/// pages.
///
/// # Panics
/// Panics when `objects` is empty, `capacity` is zero or a centroid has a
/// non-finite coordinate.
pub fn str_pack(objects: &[SpatialObject], capacity: usize) -> PageLayout {
    assert!(!objects.is_empty(), "cannot bulk load an empty dataset");
    assert!(capacity >= 1, "page capacity must be >= 1");

    let n = objects.len();
    let page_count = n.div_ceil(capacity);
    // Tiles per axis: ⌈P^(1/3)⌉ vertical slabs, each sliced into ⌈√(P/Sx)⌉
    // runs, each cut into pages.
    let sx = (page_count as f64).cbrt().ceil() as usize;
    let slab_len = n.div_ceil(sx).max(1);
    let run_len = |slab: usize| {
        let sy = (slab.div_ceil(capacity) as f64).sqrt().ceil() as usize;
        slab.div_ceil(sy.max(1)).max(1)
    };

    // An infinite key would sort, but give its page an infinite MBR.
    let finite = |v: f64| {
        assert!(v.is_finite(), "non-finite coordinate in dataset");
        v
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    {
        let mut key: Vec<f64> = objects.iter().map(|o| finite(o.centroid().x)).collect();
        let mut spare = vec![0u32; n];
        let mut starts = Vec::new();
        sort_ids_by_key(&mut order, &key, &mut spare, &mut starts);
        for (k, o) in key.iter_mut().zip(objects) {
            *k = finite(o.centroid().y);
        }
        for slab in order.chunks_mut(slab_len) {
            sort_ids_by_key(slab, &key, &mut spare, &mut starts);
        }
        for (k, o) in key.iter_mut().zip(objects) {
            *k = finite(o.centroid().z);
        }
        for slab in order.chunks_mut(slab_len) {
            for run in slab.chunks_mut(run_len(slab.len())) {
                sort_ids_by_key(run, &key, &mut spare, &mut starts);
            }
        }
    }

    // The ids point all over the object array: ask for the record
    // `PREFETCH_DISTANCE` places ahead in `order` before it is needed.
    let mut pages: Vec<Page> = Vec::with_capacity(page_count);
    let mut at = 0;
    for slab in order.chunks(slab_len) {
        for run in slab.chunks(run_len(slab.len())) {
            for chunk in run.chunks(capacity) {
                let mut mbr = Aabb::EMPTY;
                let mut ids = Vec::with_capacity(chunk.len());
                for &i in chunk {
                    if let Some(&ahead) = order.get(at + PREFETCH_DISTANCE) {
                        prefetch_read(&objects[ahead as usize]);
                    }
                    at += 1;
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

/// Sorts `ids` by `key[id]` with the permutation of a stable `sort_by` on
/// `partial_cmp`, using `spare` (at least `ids.len()` long) and `starts` as
/// scratch.
///
/// An id's bucket is `⌊(k − lo) · B/(hi − lo)⌋`, clamped to `B − 1`. It is
/// monotone in `k`: IEEE subtraction and multiplication by a non-negative
/// scale never reverse an order, and the saturating cast floors. `−0.0` and
/// `+0.0` give equal differences, so equal keys share a bucket. An
/// overflowing `hi − lo` gives scale 0, and every key lands in bucket 0
/// (`∞ · 0` is NaN, which casts to 0 too). A spread so small that
/// `B/(hi − lo)` overflows gives scale `∞`: `k = lo` lands in bucket 0
/// (`0 · ∞` is NaN), every other key in `B − 1`. So every key of a lower
/// bucket is strictly below every key of a higher one, and a stable
/// counting sort by bucket, then a stable sort by key inside each bucket,
/// orders the ids by key with ties in input order: the stable sort's
/// permutation.
///
/// A bucket longer than [`SMALL_BUCKET`] is sorted by a recursive call
/// once every short bucket is sorted. Its bounds wait at the top of
/// `spare`, two slots a bucket; the call gets the slots below them. That is
/// room enough: the buckets still waiting hold more than `SMALL_BUCKET`
/// ids each, more than the two slots each takes. With a finite, positive
/// scale and `B ≥ 2` (a slice with a long bucket has `B ≥ 8`), `lo` and
/// `hi` land in different buckets, so every bucket is shorter than `ids`
/// and the recursion ends. At scale 0 or `∞`
/// a long bucket goes to `sort_by`, which allocates its own scratch; only
/// keys near `±f64::MAX` or a few subnormals apart get there.
fn sort_ids_by_key(ids: &mut [u32], key: &[f64], spare: &mut [u32], starts: &mut Vec<u32>) {
    let by_key =
        |a: &u32, b: &u32| key[*a as usize].partial_cmp(&key[*b as usize]).expect("finite keys");
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &i in ids.iter() {
        let k = key[i as usize];
        lo = lo.min(k);
        hi = hi.max(k);
    }
    if lo >= hi {
        return; // at most one id, or every key ties: the input order stands
    }
    let buckets = (ids.len() / KEYS_PER_BUCKET).max(1);
    let scale = buckets as f64 / (hi - lo);
    let bucket = |i: u32| (((key[i as usize] - lo) * scale) as usize).min(buckets - 1);

    starts.clear();
    starts.resize(buckets, 0);
    let src = &mut spare[..ids.len()];
    src.copy_from_slice(ids);
    for &i in src.iter() {
        starts[bucket(i)] += 1;
    }
    let mut sum = 0;
    for s in starts.iter_mut() {
        (*s, sum) = (sum, sum + *s);
    }
    for &i in src.iter() {
        let s = &mut starts[bucket(i)];
        ids[*s as usize] = i;
        *s += 1;
    }
    // Each start now ends its bucket.
    let rebucket = scale > 0.0 && scale.is_finite();
    let mut top = ids.len();
    let mut begin = 0;
    for &end in starts.iter() {
        let end = end as usize;
        if rebucket && end - begin > SMALL_BUCKET {
            top -= 2;
            spare[top..top + 2].copy_from_slice(&[begin as u32, end as u32]);
        } else if end - begin > 1 {
            ids[begin..end].sort_by(by_key);
        }
        begin = end;
    }
    while top < ids.len() {
        let (begin, end) = (spare[top] as usize, spare[top + 1] as usize);
        top += 2;
        sort_ids_by_key(&mut ids[begin..end], key, &mut spare[..top], starts);
    }
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

    /// FNV-1a digest of a layout: every page's id, its object ids and its
    /// MBR bits, in page order.
    fn layout_digest(layout: &PageLayout) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for page in layout.pages() {
            eat(&page.id.0.to_le_bytes());
            for oid in &page.objects {
                eat(&oid.0.to_le_bytes());
            }
            let b = page.mbr;
            for c in [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z] {
                eat(&c.to_bits().to_le_bytes());
            }
        }
        h
    }

    #[test]
    fn layout_is_pinned() {
        // Recorded from the comparison-sort pack: a pack that moves one
        // object between pages, or one MBR bit, moves a digest.
        use scout_synth::{generate_neurons, generate_roads, NeuronParams, RoadParams};
        let neurons = generate_neurons(&NeuronParams::with_target_objects(40_000), 42);
        let layout = str_pack(&neurons.objects, 87);
        assert_eq!((layout.page_count(), layout_digest(&layout)), (512, 0xaabd_b954_8ac3_6b6b));
        let roads = generate_roads(&RoadParams { grid_n: 32, ..Default::default() }, 42);
        let layout = str_pack(&roads.objects, 4);
        assert_eq!((layout.page_count(), layout_digest(&layout)), (1870, 0x21d4_36b4_3f20_ccf8));
    }
}
