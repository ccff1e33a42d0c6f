//! The plain oracles of the index suites, shared by the property tests
//! under `tests/` and the crate's own unit tests (which reach the
//! bulk loads' thread-count seams): plain STR packing, the plain
//! neighbourhood pass, and the datasets that stress both. Each includer
//! brings the index types into its crate root: `scout_index`'s own, or
//! the test crate's imports of them.

use crate::{FlatConfig, KnnScratch, RTree, SpatialIndex};
use proptest::prelude::*;
use scout_geometry::{Aabb, Cylinder, ObjectId, Segment, Shape, SpatialObject, StructureId, Vec3};
use scout_storage::{PageId, PageLayout};

pub(crate) fn arb_objects() -> impl Strategy<Value = Vec<SpatialObject>> {
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
        (arb_grid_point(), arb_grid_point()).prop_map(|(a, b)| Shape::Segment(Segment::new(a, b))),
        (arb_grid_point(), arb_grid_point(), 1u8..4)
            .prop_map(|(a, b, r)| Shape::Cylinder(Cylinder::new(a, b, 0.25 * f64::from(r), 0.5))),
    ]
}

/// Grid shapes, each present once or twice (duplicates tie on every
/// key and every stable sort must keep them in input order).
pub(crate) fn arb_grid_objects() -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec((arb_grid_shape(), 0usize..2), 1..400).prop_map(|raw| {
        raw.into_iter()
            .flat_map(|(shape, extra)| std::iter::repeat_n(shape, 1 + extra))
            .enumerate()
            .map(|(i, shape)| SpatialObject::new(ObjectId(i as u32), StructureId(0), shape))
            .collect()
    })
}

/// The plain neighborhood pass: per page, the ε-probe's pages plus the
/// k-NN pages not among them, less the page itself, sorted; then each
/// directed link `i → p` appends `i` to `p`'s list unless already there,
/// reading a snapshot of the directed lists.
pub(crate) fn plain_neighbors(rtree: &RTree, config: FlatConfig) -> Vec<Vec<PageId>> {
    let pages = rtree.layout().pages();
    let mean_diag = pages.iter().map(|p| p.mbr.extent().norm()).sum::<f64>() / pages.len() as f64;
    let eps = config.epsilon_factor * mean_diag;
    let mut scratch = KnnScratch::new();
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
                centroid(a).z.partial_cmp(&centroid(b).z).expect("non-finite coordinate in dataset")
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

fn mbr_bits(b: &Aabb) -> [u64; 6] {
    [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f64::to_bits)
}

/// Checks `layout` against the plain pack of `objects`: page ids, object
/// lists and MBR bits.
pub(crate) fn assert_plain_pack(
    layout: &PageLayout,
    objects: &[SpatialObject],
    capacity: usize,
) -> Result<(), TestCaseError> {
    let want = plain_pack(objects, capacity);
    prop_assert_eq!(layout.page_count(), want.len());
    for (i, (page, (ids, mbr))) in layout.pages().iter().zip(&want).enumerate() {
        prop_assert_eq!(page.id, PageId(i as u32));
        prop_assert_eq!(&page.objects, ids);
        prop_assert_eq!(mbr_bits(&page.mbr), mbr_bits(mbr));
    }
    Ok(())
}

/// How one axis's keys are drawn, each a corner of the bucket
/// arithmetic `⌊(k − lo) · B/(hi − lo)⌋`.
#[derive(Clone, Copy, Debug)]
enum AxisKeys {
    /// `−0.0` and `+0.0` mixed with ±1: equal keys of two bit patterns.
    SignedZeros,
    /// Every key equal.
    Constant,
    /// Keys near `±f64::MAX`: `hi − lo` overflows to `∞`.
    Overflowing,
    /// A few ulps above 1: a huge scale, cast results past `B`.
    FewUlps,
    /// Subnormals of either sign: `B/(hi − lo)` overflows to `∞`.
    Subnormal,
    /// Most keys in `[0, 1)`, a few at `1e9`: one bucket holds nearly
    /// every id and is bucketed again.
    OneFar,
    /// Powers of two over 2⁻¹²⁸..2¹²⁷: buckets bucketed again many
    /// levels deep.
    Geometric,
}

fn axis_key(keys: AxisKeys, raw: u8) -> f64 {
    let pick = |vals: &[f64]| vals[usize::from(raw) % vals.len()];
    match keys {
        AxisKeys::SignedZeros => pick(&[0.0, -0.0, 0.0, -0.0, 1.0, -1.0]),
        AxisKeys::Constant => 3.5,
        AxisKeys::Overflowing => pick(&[f64::MAX, -f64::MAX, 1e308, -1e308, 0.0, -0.0]),
        AxisKeys::FewUlps => f64::from_bits(1.0f64.to_bits() + u64::from(raw % 4)),
        AxisKeys::Subnormal => {
            let v = f64::from_bits(u64::from(raw % 8));
            if raw & 8 == 0 {
                v
            } else {
                -v
            }
        }
        AxisKeys::OneFar if raw >= 252 => 1e9,
        AxisKeys::OneFar => f64::from(raw) / 256.0,
        AxisKeys::Geometric => 2f64.powi(i32::from(raw) - 128),
    }
}

fn arb_axis_keys() -> impl Strategy<Value = AxisKeys> {
    prop_oneof![
        Just(AxisKeys::SignedZeros),
        Just(AxisKeys::Constant),
        Just(AxisKeys::Overflowing),
        Just(AxisKeys::FewUlps),
        Just(AxisKeys::Subnormal),
        Just(AxisKeys::OneFar),
        Just(AxisKeys::Geometric),
    ]
}

/// Points whose three axes each draw their keys one adversarial way,
/// at lengths on both sides of the pack's re-bucketing cutoff (32 ids
/// in a bucket).
pub(crate) fn arb_adversarial_objects() -> impl Strategy<Value = Vec<SpatialObject>> {
    let short = prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 1..=64);
    let long = prop::collection::vec((0u8..=255, 0u8..=255, 0u8..=255), 65..=600);
    (prop_oneof![short, long], (arb_axis_keys(), arb_axis_keys(), arb_axis_keys())).prop_map(
        |(raw, axes)| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (x, y, z))| {
                    let p =
                        Vec3::new(axis_key(axes.0, x), axis_key(axes.1, y), axis_key(axes.2, z));
                    SpatialObject::new(ObjectId(i as u32), StructureId(0), Shape::Point(p))
                })
                .collect()
        },
    )
}
