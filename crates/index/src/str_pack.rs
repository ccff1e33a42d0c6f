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
//!
//! The pack splits over one scoped thread per core (see `scout_geometry::split`),
//! each phase over disjoint slices joined in order: the key fills over
//! object chunks, the y and z sorts over groups of whole slabs, and the
//! page pass over page chunks. The x sort is one sort of every id, and it
//! runs on the caller with the y and z sorts' code: splitting its counting
//! sort took about 80 lines and saved 9–23 ms of the 1.3 M-object bed's
//! 0.4 s setup (DESIGN §6 *The price list*). Every sort is stable and
//! every part is written by one thread, so the pages equal the serial
//! pack's bit for bit; one thread is the serial pack. Packs of fewer than
//! [`MIN_OBJECTS_PER_THREAD`] objects a thread spawn nothing. The caller
//! allocates every buffer, the pages' object lists included, and a helper
//! only fills what it is handed.

use crate::traits::PREFETCH_DISTANCE;
use scout_geometry::split::{join_parts, ranges, split_lengths, width};
use scout_geometry::{prefetch_read, Aabb, SpatialObject};
use scout_storage::{Page, PageId, PageLayout};
use std::ops::Range;

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

/// Objects a thread must have before the pack spreads to one more. A
/// 1.3 M-object pack takes about 0.25 s on one core; 16 384 objects take
/// about 3 ms, some fifty times a thread's spawn and join.
const MIN_OBJECTS_PER_THREAD: usize = 16_384;

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
    str_pack_on(objects, capacity, width(objects.len(), MIN_OBJECTS_PER_THREAD))
}

/// [`str_pack`] on `threads` threads (at least one), whatever the size.
pub(crate) fn str_pack_on(
    objects: &[SpatialObject],
    capacity: usize,
    threads: usize,
) -> PageLayout {
    assert!(!objects.is_empty(), "cannot bulk load an empty dataset");
    assert!(capacity >= 1, "page capacity must be >= 1");

    let n = objects.len();
    let threads = threads.max(1);
    let page_count = n.div_ceil(capacity);
    // Tiles per axis: ⌈P^(1/3)⌉ vertical slabs, each sliced into ⌈√(P/Sx)⌉
    // runs, each cut into pages.
    let sx = (page_count as f64).cbrt().ceil() as usize;
    let slab_len = n.div_ceil(sx).max(1);
    let run_len = |slab: usize| {
        let sy = (slab.div_ceil(capacity) as f64).sqrt().ceil() as usize;
        slab.div_ceil(sy.max(1)).max(1)
    };

    let mut order = vec![0u32; n];
    {
        let mut key = vec![0.0; n];
        let mut spare = vec![0u32; n];
        // Room for the x sort's bucket starts, or for one slab group's
        // starts a thread.
        let mut starts = vec![0u32; n / KEYS_PER_BUCKET + threads];
        fill_keys(objects, &mut key, threads, |o| o.centroid().x);
        order.iter_mut().zip(0..).for_each(|(o, i)| *o = i);
        sort_ids_by_key(&mut order, &key, &mut spare, &mut starts);
        fill_keys(objects, &mut key, threads, |o| o.centroid().y);
        for_each_slab(
            &mut order,
            &mut spare,
            &mut starts,
            slab_len,
            threads,
            |slab, spare, starts| {
                sort_ids_by_key(slab, &key, spare, starts);
            },
        );
        fill_keys(objects, &mut key, threads, |o| o.centroid().z);
        for_each_slab(
            &mut order,
            &mut spare,
            &mut starts,
            slab_len,
            threads,
            |slab, spare, starts| {
                for run in slab.chunks_mut(run_len(slab.len())) {
                    sort_ids_by_key(run, &key, spare, starts);
                }
            },
        );
    }

    // Every page's object list, allocated here at its final length and
    // filled with the page's MBR by the page pass. The last page of a run
    // may be short, so the tiling holds more than ⌈n/B⌉ pages: count them
    // first.
    let runs = || order.chunks(slab_len).flat_map(|slab| slab.chunks(run_len(slab.len())));
    let tiled = runs().map(|run| run.len().div_ceil(capacity)).sum();
    let mut pages: Vec<Page> = Vec::with_capacity(tiled);
    for chunk in runs().flat_map(|run| run.chunks(capacity)) {
        let objects = Vec::with_capacity(chunk.len());
        pages.push(Page { id: PageId(0), mbr: Aabb::EMPTY, objects });
    }
    let page_parts: Vec<Range<usize>> = ranges(pages.len(), threads).collect();
    let id_lens: Vec<usize> = page_parts.iter().map(|r| held(&pages[r.clone()])).collect();
    let part_lens = page_parts.iter().map(Range::len);
    let parts = split_lengths(&mut pages, part_lens).zip(split_lengths(&mut order, id_lens));
    join_parts(parts, |(pages, order)| fill_pages(objects, pages, order));

    PageLayout::new(pages, n)
}

/// How many ids `pages` hold once filled: each page's object list was
/// allocated at its length, and `Vec::with_capacity` gives exactly the
/// capacity it is asked for.
fn held(pages: &[Page]) -> usize {
    pages.iter().map(|p| p.objects.capacity()).sum()
}

/// Fills `pages` with the objects `order` lists, in turn, and each page's
/// MBR with theirs.
///
/// The ids point all over the object array: the record `PREFETCH_DISTANCE`
/// places ahead in `order` is asked for before it is needed.
fn fill_pages(objects: &[SpatialObject], pages: &mut [Page], order: &[u32]) {
    let mut at = 0;
    for page in pages {
        let mut mbr = Aabb::EMPTY;
        for _ in 0..page.objects.capacity() {
            if let Some(&ahead) = order.get(at + PREFETCH_DISTANCE) {
                prefetch_read(&objects[ahead as usize]);
            }
            let obj = &objects[order[at] as usize];
            at += 1;
            mbr = mbr.union(&obj.aabb());
            page.objects.push(obj.id);
        }
        page.mbr = mbr;
    }
}

/// Sets `key[i]` to `axis(objects[i])` over object chunks, one a thread.
///
/// # Panics
/// Panics when a key is not finite: an infinite one would sort, but give
/// its page an infinite MBR.
fn fill_keys(
    objects: &[SpatialObject],
    key: &mut [f64],
    threads: usize,
    axis: impl Fn(&SpatialObject) -> f64 + Sync,
) {
    let chunks: Vec<Range<usize>> = ranges(objects.len(), threads).collect();
    let parts = chunks.iter().zip(split_lengths(key, chunks.iter().map(Range::len)));
    join_parts(parts, |(range, keys)| {
        for (k, o) in keys.iter_mut().zip(&objects[range.clone()]) {
            *k = axis(o);
            assert!(k.is_finite(), "non-finite coordinate in dataset");
        }
    });
}

/// Runs `sort` on every slab of `order`, with groups of whole slabs
/// spread over the threads. Each group gets the matching piece of `spare`
/// and a piece of `starts` of its own: a group's slices are no longer than
/// the group, so neither piece runs short.
fn for_each_slab(
    order: &mut [u32],
    spare: &mut [u32],
    starts: &mut [u32],
    slab_len: usize,
    threads: usize,
    sort: impl Fn(&mut [u32], &mut [u32], &mut [u32]) + Sync,
) {
    let n = order.len();
    let lens: Vec<usize> = ranges(n.div_ceil(slab_len), threads)
        .map(|slabs| (slabs.end * slab_len).min(n) - slabs.start * slab_len)
        .collect();
    let start_lens = lens.iter().map(|len| len / KEYS_PER_BUCKET + 1);
    let parts = split_lengths(order, lens.iter().copied())
        .zip(split_lengths(spare, lens.iter().copied()))
        .zip(split_lengths(starts, start_lens));
    join_parts(parts, |((group, spare), starts)| {
        for slab in group.chunks_mut(slab_len) {
            sort(slab, spare, starts);
        }
    });
}

/// The bucket map of [`sort_ids_by_key`] over keys in `[lo, hi]`.
#[derive(Clone, Copy)]
struct Buckets {
    lo: f64,
    scale: f64,
    count: usize,
}

impl Buckets {
    /// The map for `len` ids whose keys span `lo < hi`.
    fn new(lo: f64, hi: f64, len: usize) -> Buckets {
        let count = (len / KEYS_PER_BUCKET).max(1);
        Buckets { lo, scale: count as f64 / (hi - lo), count }
    }

    fn of(&self, k: f64) -> usize {
        (((k - self.lo) * self.scale) as usize).min(self.count - 1)
    }

    /// Whether `lo` and `hi` land in different buckets, so that a bucket
    /// bucketed again is shorter than its slice (see [`sort_ids_by_key`]).
    fn splits(&self) -> bool {
        self.scale > 0.0 && self.scale.is_finite()
    }
}

/// Sorts `ids` by `key[id]` with the permutation of a stable `sort_by` on
/// `partial_cmp`, using `spare` (at least `ids.len()` long) and `starts`
/// (at least `ids.len() / KEYS_PER_BUCKET` long, and one) as scratch.
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
fn sort_ids_by_key(ids: &mut [u32], key: &[f64], spare: &mut [u32], starts: &mut [u32]) {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &i in ids.iter() {
        let k = key[i as usize];
        lo = lo.min(k);
        hi = hi.max(k);
    }
    if lo >= hi {
        return; // at most one id, or every key ties: the input order stands
    }
    let buckets = Buckets::new(lo, hi, ids.len());
    let ends = &mut starts[..buckets.count];
    ends.fill(0);
    let src = &mut spare[..ids.len()];
    src.copy_from_slice(ids);
    for &i in src.iter() {
        ends[buckets.of(key[i as usize])] += 1;
    }
    let mut sum = 0;
    for s in ends.iter_mut() {
        (*s, sum) = (sum, sum + *s);
    }
    for &i in src.iter() {
        let s = &mut ends[buckets.of(key[i as usize])];
        ids[*s as usize] = i;
        *s += 1;
    }
    // Each start now ends its bucket.
    sort_short_buckets(ids, ends, key);
    sort_long_buckets(ids, key, spare, starts, buckets);
}

/// Sorts by key, with `sort_by`, every bucket of 2 to [`SMALL_BUCKET`]
/// ids; `ends` ends each bucket of `ids`.
fn sort_short_buckets(ids: &mut [u32], ends: &[u32], key: &[f64]) {
    let by_key =
        |a: &u32, b: &u32| key[*a as usize].partial_cmp(&key[*b as usize]).expect("finite keys");
    let mut begin = 0;
    for &end in ends {
        let end = end as usize;
        if (2..=SMALL_BUCKET).contains(&(end - begin)) {
            ids[begin..end].sort_by(by_key);
        }
        begin = end;
    }
}

/// Sorts every bucket of `ids` longer than [`SMALL_BUCKET`];
/// `starts[..buckets.count]` ends each bucket.
///
/// A long bucket is sorted by a recursive [`sort_ids_by_key`] once the
/// buckets have been scanned. Its bounds wait at the top of `spare`, two
/// slots a bucket; the call gets the slots below them. That is room
/// enough: the buckets still waiting hold more than `SMALL_BUCKET` ids
/// each, more than the two slots each takes. With a finite, positive scale
/// and `B ≥ 2` (a slice with a long bucket has `B ≥ 8`), `lo` and `hi`
/// land in different buckets, so every bucket is shorter than `ids` and
/// the recursion ends. At scale 0 or `∞` a long bucket goes to `sort_by`,
/// which allocates its own scratch past 1 024 ids; only keys near
/// `±f64::MAX` or a few subnormals apart get there.
fn sort_long_buckets(
    ids: &mut [u32],
    key: &[f64],
    spare: &mut [u32],
    starts: &mut [u32],
    buckets: Buckets,
) {
    let by_key =
        |a: &u32, b: &u32| key[*a as usize].partial_cmp(&key[*b as usize]).expect("finite keys");
    let mut top = ids.len();
    let mut begin = 0;
    for &end in &starts[..buckets.count] {
        let end = end as usize;
        if end - begin > SMALL_BUCKET {
            if buckets.splits() {
                top -= 2;
                spare[top..top + 2].copy_from_slice(&[begin as u32, end as u32]);
            } else {
                ids[begin..end].sort_by(by_key);
            }
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
    use crate::oracles::{arb_adversarial_objects, arb_grid_objects, assert_plain_pack};
    use proptest::prelude::*;
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

    /// The widths every split is checked at: the serial pack, an even and
    /// an odd split, and more threads than most slices have slabs.
    const WIDTHS: [usize; 4] = [1, 2, 3, 8];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every phase cut into parts and joined in order must leave no
        /// trace: grid keys tie across the cuts, and adversarial keys (one
        /// key, signed zeros, spreads that overflow, one far key, powers of
        /// two) send every part's ids to one bucket or to far-apart ones.
        #[test]
        fn str_pack_equals_the_plain_pack_at_every_width(
            objects in prop_oneof![arb_grid_objects(), arb_adversarial_objects()],
            capacity in prop_oneof![Just(1usize), Just(4), Just(87)],
        ) {
            for threads in WIDTHS {
                assert_plain_pack(&str_pack_on(&objects, capacity, threads), &objects, capacity)?;
            }
        }
    }

    /// A bed the size the default width splits: 40 k objects in 8 slabs.
    #[test]
    fn str_pack_equals_the_plain_pack_at_every_width_on_a_neuron_bed() {
        use scout_synth::{generate_neurons, NeuronParams};
        let neurons = generate_neurons(&NeuronParams::with_target_objects(40_000), 42);
        for threads in WIDTHS {
            let layout = str_pack_on(&neurons.objects, 87, threads);
            assert_plain_pack(&layout, &neurons.objects, 87).unwrap();
        }
    }

    /// Objects on a line, the last `bad` on the z axis: the z keys of the
    /// second half are filled by a helper thread at width 2.
    fn with_last_z(bad: f64) -> Vec<SpatialObject> {
        let mut pts: Vec<(f64, f64, f64)> = (0..1000).map(|i| (f64::from(i), 0.0, 0.0)).collect();
        pts[999].2 = bad;
        point_objects(&pts)
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate in dataset")]
    fn nan_centroid_in_a_helper_part_rejected() {
        let _ = str_pack_on(&with_last_z(f64::NAN), 4, 2);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate in dataset")]
    fn infinite_centroid_in_a_helper_part_rejected() {
        let _ = str_pack_on(&with_last_z(f64::NEG_INFINITY), 4, 2);
    }
}
