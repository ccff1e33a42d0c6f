//! Property-based tests for the geometry substrate.

use proptest::prelude::*;
use scout_geometry::hilbert::{hilbert_coords_3d, hilbert_index_3d};
use scout_geometry::intersect::{
    capsule_intersects_aabb, clip_segment_to_aabb, segment_aabb_distance, segment_intersects_aabb,
};
use scout_geometry::{Aabb, Segment, UniformGrid, Vec3};

fn arb_vec3(range: f64) -> impl Strategy<Value = Vec3> {
    (-range..range, -range..range, -range..range).prop_map(|(x, y, z)| Vec3::new(x, y, z))
}

fn arb_aabb(range: f64) -> impl Strategy<Value = Aabb> {
    (arb_vec3(range), arb_vec3(range)).prop_map(|(a, b)| Aabb::from_corners(a, b))
}

proptest! {
    #[test]
    fn union_contains_both(a in arb_aabb(100.0), b in arb_aabb(100.0)) {
        let u = a.union(&b);
        prop_assert!(u.contains_aabb(&a));
        prop_assert!(u.contains_aabb(&b));
    }

    #[test]
    fn intersection_is_commutative_and_contained(a in arb_aabb(100.0), b in arb_aabb(100.0)) {
        let i1 = a.intersection(&b);
        let i2 = b.intersection(&a);
        prop_assert_eq!(i1, i2);
        prop_assert!(a.contains_aabb(&i1));
        prop_assert!(b.contains_aabb(&i1));
    }

    #[test]
    fn contains_implies_intersects(a in arb_aabb(100.0), b in arb_aabb(100.0)) {
        if a.contains_aabb(&b) && !b.is_empty() {
            prop_assert!(a.intersects(&b));
        }
    }

    #[test]
    fn intersection_volume_bounded(a in arb_aabb(50.0), b in arb_aabb(50.0)) {
        let i = a.intersection(&b);
        prop_assert!(i.volume() <= a.volume() + 1e-9);
        prop_assert!(i.volume() <= b.volume() + 1e-9);
    }

    #[test]
    fn closest_point_is_inside(a in arb_aabb(100.0), p in arb_vec3(200.0)) {
        if !a.is_empty() {
            prop_assert!(a.contains_point(a.closest_point(p)));
        }
    }

    #[test]
    fn clip_segment_endpoints_inside_box(
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0)
    ) {
        let seg = Segment::new(a, b);
        if let Some((t0, t1)) = clip_segment_to_aabb(&seg, &bx) {
            prop_assert!((0.0..=1.0).contains(&t0));
            prop_assert!((0.0..=1.0).contains(&t1));
            prop_assert!(t0 <= t1);
            // Clipped points lie (approximately) inside the box.
            let eps = 1e-6 * (1.0 + bx.extent().max_component());
            let inside = |p: Vec3| {
                p.x >= bx.min.x - eps && p.x <= bx.max.x + eps &&
                p.y >= bx.min.y - eps && p.y <= bx.max.y + eps &&
                p.z >= bx.min.z - eps && p.z <= bx.max.z + eps
            };
            prop_assert!(inside(seg.at(t0)));
            prop_assert!(inside(seg.at(t1)));
        }
    }

    #[test]
    fn segment_distance_zero_iff_intersects(
        a in arb_vec3(20.0), b in arb_vec3(20.0), bx in arb_aabb(15.0)
    ) {
        let seg = Segment::new(a, b);
        let d = segment_aabb_distance(&seg, &bx);
        if segment_intersects_aabb(&seg, &bx) {
            prop_assert_eq!(d, 0.0);
        } else {
            prop_assert!(d > 0.0);
        }
    }

    #[test]
    fn segment_distance_lower_bounds_endpoint_distance(
        a in arb_vec3(20.0), b in arb_vec3(20.0), bx in arb_aabb(15.0)
    ) {
        let seg = Segment::new(a, b);
        let d = segment_aabb_distance(&seg, &bx);
        let da = bx.distance_sq_to_point(a).sqrt();
        let db = bx.distance_sq_to_point(b).sqrt();
        prop_assert!(d <= da.min(db) + 1e-6);
    }

    #[test]
    fn hilbert_round_trip(x in 0u32..32, y in 0u32..32, z in 0u32..32) {
        let idx = hilbert_index_3d([x, y, z], 5);
        prop_assert_eq!(hilbert_coords_3d(idx, 5), [x, y, z]);
    }

    #[test]
    fn hilbert_is_injective(
        a in (0u32..16, 0u32..16, 0u32..16),
        b in (0u32..16, 0u32..16, 0u32..16),
    ) {
        let ia = hilbert_index_3d([a.0, a.1, a.2], 4);
        let ib = hilbert_index_3d([b.0, b.1, b.2], 4);
        prop_assert_eq!(ia == ib, a == b);
    }

    #[test]
    fn grid_cell_of_is_consistent_with_cell_aabb(
        p in arb_vec3(10.0),
        dims in (1u32..8, 1u32..8, 1u32..8),
    ) {
        let bounds = Aabb::new(Vec3::splat(-10.0), Vec3::splat(10.0));
        let g = UniformGrid::new(bounds, [dims.0, dims.1, dims.2]);
        let c = g.coords_of(p);
        let cell_box = g.cell_aabb(c);
        // The cell box (slightly expanded for FP slack) contains the point.
        prop_assert!(cell_box.expanded(1e-9).contains_point(p.clamp(bounds.min, bounds.max)));
    }

    #[test]
    fn grid_segment_traversal_covers_interior_crossings(
        // Endpoints snapped onto an integer sub-lattice so a large share
        // of the generated segments pass *exactly through* cell corners
        // and edges — the tie cases where the DDA used to stop early.
        ax in -8i32..8, ay in -8i32..8, az in -8i32..8,
        bx in -8i32..8, by in -8i32..8, bz in -8i32..8,
        dims in 1u32..9,
    ) {
        let bounds = Aabb::new(Vec3::splat(-8.0), Vec3::splat(8.0));
        let g = UniformGrid::new(bounds, [dims; 3]);
        let seg = Segment::new(
            Vec3::new(ax as f64, ay as f64, az as f64),
            Vec3::new(bx as f64, by as f64, bz as f64),
        );
        let mut cells = Vec::new();
        g.cells_for_segment(&seg, &mut cells);
        prop_assert_eq!(*cells.first().unwrap(), g.cell_of(seg.a));
        prop_assert_eq!(*cells.last().unwrap(), g.cell_of(seg.b));
        // Brute force over every cell: a cell whose *interior* the segment
        // crosses with positive length must be reported. The required set
        // clips against the cell box shrunk by eps: a segment riding
        // exactly along a shared face or edge touches the closed boxes on
        // both sides, but the floor convention assigns it to one cell only
        // (corner/edge touches are optional — the DDA legitimately picks
        // one route through a corner tie).
        let eps = 1e-9;
        for z in 0..dims {
            for y in 0..dims {
                for x in 0..dims {
                    let id = g.cell_id([x, y, z]);
                    let cell_box = g.cell_aabb([x, y, z]);
                    let interior = Aabb::new(
                        cell_box.min + Vec3::splat(eps),
                        cell_box.max - Vec3::splat(eps),
                    );
                    if let Some((t0, t1)) = clip_segment_to_aabb(&seg, &interior) {
                        if t1 - t0 > 1e-7 {
                            prop_assert!(
                                cells.contains(&id),
                                "cell {:?} crossed (t {t0}..{t1}) but not reported; got {:?}",
                                [x, y, z],
                                cells.iter().map(|&c| g.coords_from_id(c)).collect::<Vec<_>>()
                            );
                        }
                        // Every reported cell must at least touch the segment.
                    } else {
                        prop_assert!(
                            !cells.contains(&id) || segment_aabb_distance(&seg, &cell_box) < eps,
                            "cell {:?} reported but segment misses it",
                            [x, y, z]
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn grid_segment_traversal_covers_endpoints(
        a in arb_vec3(9.0), b in arb_vec3(9.0),
        dims in 1u32..12,
    ) {
        let bounds = Aabb::new(Vec3::splat(-10.0), Vec3::splat(10.0));
        let g = UniformGrid::new(bounds, [dims; 3]);
        let mut cells = Vec::new();
        g.cells_for_segment(&Segment::new(a, b), &mut cells);
        prop_assert!(cells.contains(&g.cell_of(a)));
        prop_assert!(cells.contains(&g.cell_of(b)));
        // Consecutive traversed cells are face-adjacent.
        for w in cells.windows(2) {
            let ca = g.coords_from_id(w[0]);
            let cb = g.coords_from_id(w[1]);
            let dist: u32 = ca.iter().zip(cb.iter()).map(|(&p, &q)| p.abs_diff(q)).sum();
            prop_assert!(dist <= 1, "non-adjacent cells {ca:?} -> {cb:?}");
        }
    }
}

/// The oracle for [`segment_aabb_distance`]: the 60-iteration ternary search
/// on the convex `distance(seg.at(t), box)²` that the closed form replaced.
/// It brackets the minimiser to (2/3)^60 ≈ 3e-11 of the parameter range, so
/// it can sit above the true distance by that share of the segment length,
/// and below it by rounding only.
fn ternary_distance(seg: &Segment, aabb: &Aabb) -> f64 {
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

/// Largest coordinate magnitude of the pair: what rounding errors scale with.
fn scale_of(seg: &Segment, aabb: &Aabb) -> f64 {
    [seg.a, seg.b, aabb.min, aabb.max]
        .iter()
        .flat_map(|v| [v.x, v.y, v.z])
        .fold(0.0, |m: f64, c| m.max(c.abs()))
}

/// The kernel's contract on one (segment, non-empty box) pair: never above
/// the oracle (bar a few ulps of the coordinates: both evaluate the same
/// function, at different parameters), below it by no more than the oracle's
/// own bracketing error, and exactly zero iff the slab clip hits.
fn check_against_oracle(seg: &Segment, aabb: &Aabb) -> Result<(), TestCaseError> {
    let got = segment_aabb_distance(seg, aabb);
    let want = ternary_distance(seg, aabb);
    let scale = scale_of(seg, aabb);
    prop_assert!(
        got <= want + 1e-12 + 8.0 * f64::EPSILON * scale,
        "closed form {got:e} above oracle {want:e}"
    );
    prop_assert!(
        got >= want - 1e-9 * (1.0 + scale),
        "closed form {got:e} far below oracle {want:e}"
    );
    prop_assert_eq!(got == 0.0, segment_intersects_aabb(seg, aabb));
    Ok(())
}

/// `v` with `from`'s coordinate on every axis whose bit is set in `mask`.
fn copy_axes(mut v: Vec3, from: Vec3, mask: u8) -> Vec3 {
    if mask & 1 != 0 {
        v.x = from.x;
    }
    if mask & 2 != 0 {
        v.y = from.y;
    }
    if mask & 4 != 0 {
        v.z = from.z;
    }
    v
}

/// The corner with `aabb.max` on the axes set in `sides`, `aabb.min` elsewhere.
fn box_corner(aabb: &Aabb, sides: u8) -> Vec3 {
    copy_axes(aabb.min, aabb.max, sides)
}

// The closed-form segment–box distance against the ternary-search oracle, on
// random pairs and on the degenerate families where breakpoints coincide,
// vanish or sit on an endpoint.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn closed_form_distance_matches_oracle(
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0)
    ) {
        check_against_oracle(&Segment::new(a, b), &bx)?;
    }

    #[test]
    fn closed_form_distance_axis_parallel_components(
        // One, two or three direction components exactly zero; three is the
        // zero-length segment, whose distance is the point's, exactly.
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0), mask in 1u8..8
    ) {
        let seg = Segment::new(a, copy_axes(b, a, mask));
        check_against_oracle(&seg, &bx)?;
        if mask == 7 {
            prop_assert_eq!(segment_aabb_distance(&seg, &bx), bx.distance_sq_to_point(a).sqrt());
        }
    }

    #[test]
    fn closed_form_distance_endpoint_on_face_edge_corner(
        // One, two or three coordinates of an endpoint exactly on a slab
        // plane: with the rest inside their slabs the endpoint sits on a
        // face, an edge or a corner, otherwise on the plane beside the box.
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0),
        mask in 1u8..8, sides in 0u8..8, rest_inside in 0u8..2,
    ) {
        let rest = if rest_inside == 1 { bx.closest_point(a) } else { a };
        let a = copy_axes(rest, box_corner(&bx, sides), mask);
        check_against_oracle(&Segment::new(a, b), &bx)?;
        check_against_oracle(&Segment::new(b, a), &bx)?;
    }

    #[test]
    fn closed_form_distance_segment_in_face_plane(
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0),
        axis in 0u8..3, sides in 0u8..8,
    ) {
        let plane = box_corner(&bx, sides);
        let seg = Segment::new(copy_axes(a, plane, 1 << axis), copy_axes(b, plane, 1 << axis));
        check_against_oracle(&seg, &bx)?;
    }

    #[test]
    fn closed_form_distance_zero_thickness_box(
        // A box flattened to a rectangle, a line or a point.
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0), mask in 1u8..8
    ) {
        let flat = Aabb::new(bx.min, copy_axes(bx.max, bx.min, mask));
        check_against_oracle(&Segment::new(a, b), &flat)?;
    }

    #[test]
    fn closed_form_distance_at_1e6_scale(
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0), origin in arb_vec3(1e6)
    ) {
        check_against_oracle(&Segment::new(a + origin, b + origin), &bx.translated(origin))?;
    }

    #[test]
    fn empty_box_is_infinitely_far_and_intersects_nothing(
        a in arb_vec3(50.0), b in arb_vec3(50.0), r in 0.0..100.0f64
    ) {
        let seg = Segment::new(a, b);
        let inverted =
            Aabb { min: Vec3::new(1.0, -60.0, -60.0), max: Vec3::new(-1.0, 60.0, 60.0) };
        for empty in [Aabb::EMPTY, inverted] {
            prop_assert_eq!(segment_aabb_distance(&seg, &empty), f64::INFINITY);
            prop_assert!(!capsule_intersects_aabb(&seg, r, &empty));
            prop_assert!(!capsule_intersects_aabb(&seg, f64::INFINITY, &empty));
        }
    }
}

// The capsule predicate's tiers (bounding-box reject, endpoint accept) are
// shortcuts, never a different answer: it must equal the untiered
// `distance ≤ radius`, judged here by the oracle. A radius within the
// oracle's own error of the distance is the one place the two may differ.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn capsule_tiers_match_untiered_distance_test(
        a in arb_vec3(50.0), b in arb_vec3(50.0), bx in arb_aabb(30.0), r in 0.0..25.0f64
    ) {
        let seg = Segment::new(a, b);
        let d = ternary_distance(&seg, &bx);
        if (d - r).abs() > 1e-9 * (1.0 + scale_of(&seg, &bx)) {
            prop_assert_eq!(capsule_intersects_aabb(&seg, r, &bx), d <= r);
        }
    }

    #[test]
    fn capsule_passing_a_corner_is_not_decided_by_its_bounding_box(
        // The family a prefilter-only predicate gets wrong. The axis crosses
        // a corner's outward diagonal at right angles, `s` away from the
        // corner, which is therefore its closest point; per axis it is only
        // `s/√3` away, so a capsule of radius `0.9·s` misses the box while
        // its bounding box reaches into it.
        bx in arb_aabb(30.0), sides in 0u8..8,
        s in 0.5..10.0f64, half_len in 0.0..40.0f64, turn in 0.0..std::f64::consts::TAU,
    ) {
        let out = copy_axes(Vec3::splat(-1.0), Vec3::ONE, sides) / 3f64.sqrt();
        let u = out.any_orthogonal();
        let across = u * turn.cos() + out.cross(u) * turn.sin();
        let mid = box_corner(&bx, sides) + out * s;
        let seg = Segment::new(mid - across * half_len, mid + across * half_len);
        let d = ternary_distance(&seg, &bx);
        prop_assert!((d - s).abs() < 1e-9 * (1.0 + scale_of(&seg, &bx)), "{d} is not {s}");
        prop_assert!(seg.aabb().expanded(0.9 * s).intersects(&bx));
        prop_assert!(!capsule_intersects_aabb(&seg, 0.9 * s, &bx));
        prop_assert!(capsule_intersects_aabb(&seg, 1.1 * s, &bx));
    }

    #[test]
    fn capsule_of_radius_zero_is_the_segment_test(
        a in arb_vec3(20.0), b in arb_vec3(20.0), bx in arb_aabb(15.0)
    ) {
        let seg = Segment::new(a, b);
        prop_assert_eq!(
            capsule_intersects_aabb(&seg, 0.0, &bx),
            segment_intersects_aabb(&seg, &bx)
        );
    }

    #[test]
    fn capsule_of_negative_or_nan_radius_intersects_nothing(
        // Not even a box its axis starts in.
        b in arb_vec3(50.0), bx in arb_aabb(30.0), r in 0.0..25.0f64
    ) {
        let seg = Segment::new(bx.center(), b);
        prop_assert!(capsule_intersects_aabb(&seg, r, &bx));
        prop_assert!(!capsule_intersects_aabb(&seg, -r - f64::MIN_POSITIVE, &bx));
        prop_assert!(!capsule_intersects_aabb(&seg, f64::NAN, &bx));
    }
}

/// The oracle for [`UniformGrid::coords_of`]: the `floor`-then-clamp form the
/// truncating cast replaced.
fn reference_coords_of(g: &UniformGrid, p: Vec3) -> [u32; 3] {
    let rel = p - g.bounds().min;
    let (size, dims) = (g.cell_size(), g.dims());
    let mut out = [0u32; 3];
    for a in 0..3 {
        let c = if size[a] <= 0.0 { 0.0 } else { (rel[a] / size[a]).floor() };
        out[a] = (c.max(0.0) as u32).min(dims[a] - 1);
    }
    out
}

/// The oracle for [`UniformGrid::for_each_segment_cell`]: the three-axis
/// Amanatides–Woo walk over per-axis coordinates it replaced, step cap and
/// endpoint fallback included.
fn reference_cells_for_segment(g: &UniformGrid, seg: &Segment, out: &mut Vec<u32>) {
    let start = reference_coords_of(g, seg.a);
    let end = reference_coords_of(g, seg.b);
    if start == end {
        out.push(g.cell_id(start));
        return;
    }
    let (min, size, dims) = (g.bounds().min, g.cell_size(), g.dims());
    let dir = seg.direction();
    let mut cur = start;
    let mut step = [0i64; 3];
    let mut t_max = [f64::INFINITY; 3];
    let mut t_delta = [f64::INFINITY; 3];
    for a in 0..3 {
        if dir[a] > 0.0 {
            step[a] = 1;
            let next_boundary = min[a] + (cur[a] as f64 + 1.0) * size[a];
            t_max[a] = (next_boundary - seg.a[a]) / dir[a];
            t_delta[a] = size[a] / dir[a];
        } else if dir[a] < 0.0 {
            step[a] = -1;
            let next_boundary = min[a] + cur[a] as f64 * size[a];
            t_max[a] = (next_boundary - seg.a[a]) / dir[a];
            t_delta[a] = size[a] / -dir[a];
        }
    }
    out.push(g.cell_id(cur));
    let max_steps = (dims[0] + dims[1] + dims[2]) as usize + 3;
    for _ in 0..max_steps {
        if cur == end {
            break;
        }
        let mut axis = usize::MAX;
        let mut best = f64::INFINITY;
        for a in 0..3 {
            if cur[a] != end[a] && (axis == usize::MAX || t_max[a] < best) {
                axis = a;
                best = t_max[a];
            }
        }
        cur[axis] = (cur[axis] as i64 + step[axis]) as u32;
        t_max[axis] += t_delta[axis];
        out.push(g.cell_id(cur));
    }
    if cur != end {
        out.push(g.cell_id(end));
    }
}

/// The walk must report the oracle's cells in the oracle's order, through
/// the sink and through its `Vec` caller, and none of them twice.
fn check_walk_against_reference(g: &UniformGrid, seg: &Segment) -> Result<(), TestCaseError> {
    let mut want = Vec::new();
    reference_cells_for_segment(g, seg, &mut want);
    let mut sunk = Vec::new();
    g.for_each_segment_cell(seg, |c| sunk.push(c));
    prop_assert_eq!(&sunk, &want, "walk differs on {:?} over {:?}", seg, g);
    let mut pushed = vec![u32::MAX];
    g.cells_for_segment(seg, &mut pushed);
    prop_assert_eq!(&pushed[1..], &want[..]);
    let mut unique = want.clone();
    unique.sort_unstable();
    unique.dedup();
    prop_assert_eq!(unique.len(), want.len(), "a cell was reported twice: {:?}", want);
    Ok(())
}

/// Lattices of every shape the walk meets: cubic and not, a single cell, a
/// single slab, bounds away from the origin.
fn arb_grid() -> impl Strategy<Value = UniformGrid> {
    let dims = prop_oneof![
        (1u32..40, 1u32..40, 1u32..40),
        (1u32..4, 1u32..4, 1u32..4),
        (32u32..33, 32u32..33, 32u32..33),
        (1u32..2, 1u32..2, 1u32..2),
    ];
    (arb_vec3(50.0), (0.5..40.0, 0.5..40.0, 0.5..40.0), dims).prop_map(|(min, (x, y, z), d)| {
        UniformGrid::new(Aabb::new(min, min + Vec3::new(x, y, z)), [d.0, d.1, d.2])
    })
}

/// The point `u ∈ [0, 1]³` of the way across the grid's bounds.
fn at_fraction(g: &UniformGrid, u: Vec3) -> Vec3 {
    let e = g.bounds().extent();
    g.bounds().min + Vec3::new(u.x * e.x, u.y * e.y, u.z * e.z)
}

/// A point whose coordinates, on the axes set in `mask`, sit exactly on the
/// lattice planes numbered `k` (so on a plane, an edge or a corner), computed
/// the way the walk computes its boundaries.
fn on_lattice(g: &UniformGrid, p: Vec3, k: [u32; 3], mask: u8) -> Vec3 {
    let (min, size) = (g.bounds().min, g.cell_size());
    let plane = Vec3::new(
        min.x + k[0] as f64 * size.x,
        min.y + k[1] as f64 * size.y,
        min.z + k[2] as f64 * size.z,
    );
    copy_axes(p, plane, mask)
}

// The sink-form cell walk against the walk it replaced: same cells, same
// order, on random segments and on the families where the boundary times tie,
// vanish or are never computed.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn cell_walk_matches_reference_on_random_segments(
        g in arb_grid(), a in arb_vec3(1.0), b in arb_vec3(1.0)
    ) {
        // Endpoints over [-0.5, 1.5]³ of the bounds: inside, outside, across.
        let seg = Segment::new(
            at_fraction(&g, a + Vec3::splat(0.5)),
            at_fraction(&g, b + Vec3::splat(0.5)),
        );
        check_walk_against_reference(&g, &seg)?;
    }

    #[test]
    fn cell_walk_matches_reference_on_neuron_sized_segments(
        // What pass 1 hashes: segments of under two cells per axis on the
        // 32³ lattice of the default resolution (≤ 7 cells, ≈ 4 typical).
        origin in arb_vec3(1e3), side in 10.0..500.0f64,
        a in (0.0..1.0, 0.0..1.0, 0.0..1.0), d in arb_vec3(1.7),
    ) {
        let g = UniformGrid::with_resolution(
            Aabb::new(origin, origin + Vec3::splat(side)), 32_768);
        let a = at_fraction(&g, Vec3::new(a.0, a.1, a.2));
        let seg = Segment::new(a, a + d * (side / 32.0));
        check_walk_against_reference(&g, &seg)?;
        let mut cells = Vec::new();
        g.cells_for_segment(&seg, &mut cells);
        prop_assert!(cells.len() <= 7, "{} cells", cells.len());
    }

    #[test]
    fn cell_walk_matches_reference_on_lattice_planes_edges_corners(
        g in arb_grid(), a in arb_vec3(1.0), b in arb_vec3(1.0),
        ka in (0u32..41, 0u32..41, 0u32..41), kb in (0u32..41, 0u32..41, 0u32..41),
        mask_a in 1u8..8, mask_b in 0u8..8,
    ) {
        let d = g.dims();
        let a = on_lattice(&g, at_fraction(&g, (a + Vec3::ONE) * 0.5),
            [ka.0 % (d[0] + 1), ka.1 % (d[1] + 1), ka.2 % (d[2] + 1)], mask_a);
        let b = on_lattice(&g, at_fraction(&g, (b + Vec3::ONE) * 0.5),
            [kb.0 % (d[0] + 1), kb.1 % (d[1] + 1), kb.2 % (d[2] + 1)], mask_b);
        check_walk_against_reference(&g, &Segment::new(a, b))?;
        check_walk_against_reference(&g, &Segment::new(b, a))?;
    }

    #[test]
    fn cell_walk_matches_reference_on_integer_sublattice(
        // The corner-tie family of `grid_segment_traversal_covers_interior_
        // crossings`: diagonals through shared corners and edges.
        ax in -9i32..10, ay in -9i32..10, az in -9i32..10,
        bx in -9i32..10, by in -9i32..10, bz in -9i32..10,
        dims in (1u32..17, 1u32..17, 1u32..17),
    ) {
        let g = UniformGrid::new(
            Aabb::new(Vec3::splat(-8.0), Vec3::splat(8.0)), [dims.0, dims.1, dims.2]);
        let seg = Segment::new(
            Vec3::new(ax as f64, ay as f64, az as f64),
            Vec3::new(bx as f64, by as f64, bz as f64),
        );
        check_walk_against_reference(&g, &seg)?;
    }

    #[test]
    fn cell_walk_matches_reference_on_axis_parallel_and_two_axis_segments(
        // One, two or three direction components exactly zero: the strided
        // run, the two-axis walk, the single cell.
        g in arb_grid(), a in arb_vec3(1.0), b in arb_vec3(1.0), mask in 1u8..8
    ) {
        let a = at_fraction(&g, a + Vec3::splat(0.5));
        let b = copy_axes(at_fraction(&g, b + Vec3::splat(0.5)), a, mask);
        check_walk_against_reference(&g, &Segment::new(a, b))?;
    }

    #[test]
    fn cell_walk_matches_reference_with_endpoints_outside_the_bounds(
        g in arb_grid(), a in arb_vec3(1.0), b in arb_vec3(1.0),
        reach in 1.0..1e6f64, sides in 0u8..8,
    ) {
        // `a` beyond the bounds by up to a million extents on every axis,
        // `b` anywhere: the clamped walk runs along the boundary cells.
        let out = copy_axes(Vec3::splat(-reach), Vec3::splat(1.0 + reach), sides);
        let a = at_fraction(&g, out + a);
        let b = at_fraction(&g, b + Vec3::splat(0.5));
        check_walk_against_reference(&g, &Segment::new(a, b))?;
        check_walk_against_reference(&g, &Segment::new(b, a))?;
    }

    #[test]
    fn cell_walk_coords_of_matches_floor_form(
        g in arb_grid(), p in arb_vec3(1.0), big in 1.0..1e30f64, pick in 0u8..6, mask in 0u8..8
    ) {
        // Quotients that are negative, NaN, ±∞ or beyond 2³², on any subset
        // of the axes, beside ordinary ones.
        let odd = [-big, big, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0][pick as usize];
        let p = copy_axes(at_fraction(&g, p + Vec3::splat(0.5)), Vec3::splat(odd), mask);
        prop_assert_eq!(g.coords_of(p), reference_coords_of(&g, p));
        let c = g.coords_of(p);
        prop_assert!((0..3).all(|a| c[a] < g.dims()[a]));
    }
}
