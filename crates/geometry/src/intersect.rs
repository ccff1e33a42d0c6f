//! Intersection predicates between shapes and axis-aligned boxes.
//!
//! These are the predicates range queries rely on: given a query region
//! (an [`Aabb`]), decide which objects belong to the result. Segments use
//! the slab clip. Capsules compare the segment–box distance with the radius;
//! that distance is a closed form (the squared distance is piecewise
//! quadratic in the segment parameter and is minimised piece by piece), not
//! an iteration to a tolerance. Triangles use the standard separating-axis
//! theorem (SAT) with 13 axes.
//!
//! Contracts of the segment and capsule tests:
//!
//! * touching counts: every comparison is `≤`;
//! * an empty box intersects nothing and is at distance `+∞`;
//! * [`segment_aabb_distance`] is `0.0` iff [`segment_intersects_aabb`];
//! * a capsule of negative or NaN radius intersects nothing, not even a box
//!   its axis passes through.

use crate::aabb::Aabb;
use crate::shapes::{Segment, Shape, Sphere, Triangle};
use crate::vec3::Vec3;

/// Clips the segment's parameter interval to the box using the slab method.
///
/// Returns `Some((t_enter, t_exit))` with `0 ≤ t_enter ≤ t_exit ≤ 1` when the
/// segment intersects the box, `None` otherwise. A segment fully inside
/// yields `(0, 1)`.
pub fn clip_segment_to_aabb(seg: &Segment, aabb: &Aabb) -> Option<(f64, f64)> {
    if aabb.is_empty() {
        return None;
    }
    let d = seg.direction();
    let mut t0: f64 = 0.0;
    let mut t1: f64 = 1.0;
    for axis in 0..3 {
        let (o, dir, lo, hi) = (seg.a[axis], d[axis], aabb.min[axis], aabb.max[axis]);
        if dir.abs() < f64::EPSILON {
            // Parallel to the slab: must start inside it.
            if o < lo || o > hi {
                return None;
            }
        } else {
            let inv = 1.0 / dir;
            let (mut near, mut far) = ((lo - o) * inv, (hi - o) * inv);
            if near > far {
                std::mem::swap(&mut near, &mut far);
            }
            t0 = t0.max(near);
            t1 = t1.min(far);
            if t0 > t1 {
                return None;
            }
        }
    }
    Some((t0, t1))
}

/// True when the segment intersects the box (touching counts).
#[inline]
pub fn segment_intersects_aabb(seg: &Segment, aabb: &Aabb) -> bool {
    clip_segment_to_aabb(seg, aabb).is_some()
}

/// Squared distance from a segment to a box: `+∞` for an empty box, exactly
/// `0.0` iff the slab clip hits.
///
/// `f(t) = distance(seg.at(t), box)²` is a sum of one convex term per axis,
/// each zero while the coordinate is inside its slab and quadratic outside,
/// so `f` is convex and piecewise quadratic and its pieces can only change
/// where the segment crosses one of the six slab planes: at most 6
/// breakpoints inside (0, 1), at most 7 intervals. On an interval every axis
/// stays on one side of its slab, `f` is one parabola there, and its minimum
/// over the interval is at the clamped vertex; the smallest of those is the
/// minimum of `f`.
fn segment_aabb_distance_sq(seg: &Segment, aabb: &Aabb) -> f64 {
    if aabb.is_empty() {
        return f64::INFINITY;
    }
    if segment_intersects_aabb(seg, aabb) {
        return 0.0;
    }
    let d = seg.direction();
    // Interval ends in ascending order: 0, the breakpoints, 1.
    let mut cuts = [0.0_f64; 8];
    let mut n = 1;
    for axis in 0..3 {
        if d[axis] != 0.0 {
            for plane in [aabb.min[axis], aabb.max[axis]] {
                let t = (plane - seg.a[axis]) / d[axis];
                if t > 0.0 && t < 1.0 {
                    cuts[n] = t;
                    n += 1;
                }
            }
        }
    }
    cuts[n] = 1.0;
    let cuts = &mut cuts[..=n];
    cuts.sort_unstable_by(f64::total_cmp);

    let mut best = f64::INFINITY;
    for w in cuts.windows(2) {
        let (t0, t1) = (w[0], w[1]);
        // The side of each slab the interval lies on, read off its midpoint,
        // picks the plane `c` the axis measures its distance to; the parabola
        // is Σ (a + t·d − c)² over the axes outside their slab.
        let mid = seg.at(0.5 * (t0 + t1));
        let (mut dd, mut od) = (0.0, 0.0);
        for axis in 0..3 {
            let c = if mid[axis] < aabb.min[axis] {
                aabb.min[axis]
            } else if mid[axis] > aabb.max[axis] {
                aabb.max[axis]
            } else {
                continue;
            };
            dd += d[axis] * d[axis];
            od += d[axis] * (seg.a[axis] - c);
        }
        let t = if dd > 0.0 { (-od / dd).clamp(t0, t1) } else { t0 };
        // Evaluating `f` itself at the minimiser (not the parabola's
        // coefficients) keeps a misread side harmless: the value is still a
        // distance the segment attains.
        best = best.min(aabb.distance_sq_to_point(seg.at(t)));
    }
    // The slab clip is the authority on contact: it reported a miss, so a
    // minimum that rounds to zero must not read as a hit.
    best.max(f64::MIN_POSITIVE)
}

/// Distance from a segment to a box: exactly `0.0` iff
/// [`segment_intersects_aabb`], `+∞` for an empty box, otherwise the minimum
/// of `distance(seg.at(t), box)` over `t ∈ [0, 1]` in closed form (at most
/// 7 parabolas, one clamped vertex each), exact up to rounding.
pub fn segment_aabb_distance(seg: &Segment, aabb: &Aabb) -> f64 {
    segment_aabb_distance_sq(seg, aabb).sqrt()
}

/// True when a capsule (segment with radius) intersects the box — the exact
/// test for the paper's cylinders treated as capsules. Touching counts; a
/// negative or NaN radius and an empty box intersect nothing.
///
/// Three tiers, each exact, cheapest first: the capsule's bounding box
/// misses the region → `false`; an endpoint of the axis lies in the region
/// → `true`; otherwise `distance² ≤ radius²`. Only capsules straddling the
/// region's boundary reach the last one.
#[inline]
pub fn capsule_intersects_aabb(seg: &Segment, radius: f64, aabb: &Aabb) -> bool {
    // `>=` is false for NaN too, and must come first: the endpoint tier
    // would otherwise accept a capsule of negative radius.
    radius >= 0.0
        && seg.aabb().expanded(radius).intersects(aabb)
        && (aabb.contains_point(seg.a)
            || aabb.contains_point(seg.b)
            || segment_aabb_distance_sq(seg, aabb) <= radius * radius)
}

/// True when a sphere intersects the box.
#[inline]
pub fn sphere_intersects_aabb(s: &Sphere, aabb: &Aabb) -> bool {
    aabb.distance_sq_to_point(s.center) <= s.radius * s.radius
}

/// Separating-axis test between a triangle and a box (13 axes: 3 box face
/// normals, 1 triangle normal, 9 edge cross products).
pub fn triangle_intersects_aabb(tri: &Triangle, aabb: &Aabb) -> bool {
    if aabb.is_empty() {
        return false;
    }
    let c = aabb.center();
    let h = aabb.extent() * 0.5;
    // Translate triangle so the box is centered at the origin.
    let v0 = tri.a - c;
    let v1 = tri.b - c;
    let v2 = tri.c - c;
    let e0 = v1 - v0;
    let e1 = v2 - v1;
    let e2 = v0 - v2;

    let axis_test = |axis: Vec3| -> bool {
        // Degenerate axes (cross of parallel edges) separate nothing.
        if axis.norm_sq() < 1e-24 {
            return true;
        }
        let p0 = v0.dot(axis);
        let p1 = v1.dot(axis);
        let p2 = v2.dot(axis);
        let r = h.x * axis.x.abs() + h.y * axis.y.abs() + h.z * axis.z.abs();
        let lo = p0.min(p1).min(p2);
        let hi = p0.max(p1).max(p2);
        !(lo > r || hi < -r)
    };

    // 1. Box face normals = triangle AABB vs box.
    if !tri.aabb().intersects(aabb) {
        return false;
    }
    // 2. Triangle normal.
    if !axis_test(e0.cross(e1)) {
        return false;
    }
    // 3. Nine edge cross products.
    let axes = [Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0), Vec3::new(0.0, 0.0, 1.0)];
    for e in [e0, e1, e2] {
        for u in axes {
            if !axis_test(u.cross(e)) {
                return false;
            }
        }
    }
    true
}

/// True when a shape intersects the box.
///
/// Point/segment/sphere/triangle tests are exact; the cylinder test is the
/// exact capsule test on its axis with the maximum radius (conservative for
/// strongly tapered cylinders).
pub fn shape_intersects_aabb(shape: &Shape, aabb: &Aabb) -> bool {
    match shape {
        Shape::Point(p) => aabb.contains_point(*p),
        Shape::Segment(s) => segment_intersects_aabb(s, aabb),
        Shape::Cylinder(c) => capsule_intersects_aabb(&c.axis(), c.max_radius(), aabb),
        Shape::Triangle(t) => triangle_intersects_aabb(t, aabb),
        Shape::Sphere(s) => sphere_intersects_aabb(s, aabb),
    }
}

/// True when the shape lies entirely inside the box (conservative: uses the
/// shape's bounding box).
#[inline]
pub fn shape_inside_aabb(shape: &Shape, aabb: &Aabb) -> bool {
    aabb.contains_aabb(&shape.aabb())
}

/// True when the cylinder's *axis* crosses the box boundary, i.e. the shape
/// both intersects the region and extends beyond it. This is how exit/entry
/// objects are detected on the simplified geometry.
pub fn segment_crosses_boundary(seg: &Segment, aabb: &Aabb) -> bool {
    let inside_a = aabb.contains_point(seg.a);
    let inside_b = aabb.contains_point(seg.b);
    if inside_a != inside_b {
        return true;
    }
    if inside_a && inside_b {
        return false;
    }
    // Both endpoints outside: crosses only if it passes through the box.
    segment_intersects_aabb(seg, aabb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shapes::Cylinder;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn clip_inside_segment() {
        let s = Segment::new(Vec3::splat(0.2), Vec3::splat(0.8));
        assert_eq!(clip_segment_to_aabb(&s, &unit()), Some((0.0, 1.0)));
    }

    #[test]
    fn clip_crossing_segment() {
        let s = Segment::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(2.0, 0.5, 0.5));
        let (t0, t1) = clip_segment_to_aabb(&s, &unit()).unwrap();
        assert!((s.at(t0).x - 0.0).abs() < 1e-12);
        assert!((s.at(t1).x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn clip_missing_segment() {
        let s = Segment::new(Vec3::new(-1.0, 2.0, 0.5), Vec3::new(2.0, 2.0, 0.5));
        assert!(clip_segment_to_aabb(&s, &unit()).is_none());
    }

    #[test]
    fn clip_parallel_slab_outside() {
        // Parallel to x slab, starting outside it.
        let s = Segment::new(Vec3::new(2.0, 0.2, 0.2), Vec3::new(2.0, 0.8, 0.8));
        assert!(clip_segment_to_aabb(&s, &unit()).is_none());
    }

    #[test]
    fn segment_distance_basics() {
        let s = Segment::new(Vec3::new(3.0, 0.5, 0.5), Vec3::new(4.0, 0.5, 0.5));
        assert!((segment_aabb_distance(&s, &unit()) - 2.0).abs() < 1e-6);
        let inside = Segment::new(Vec3::splat(0.4), Vec3::splat(0.6));
        assert_eq!(segment_aabb_distance(&inside, &unit()), 0.0);
    }

    #[test]
    fn segment_distance_diagonal() {
        // Closest approach at a corner.
        let s = Segment::new(Vec3::new(2.0, 2.0, 0.5), Vec3::new(2.0, 2.0, 0.6));
        let expect = (1.0_f64 + 1.0).sqrt();
        assert!((segment_aabb_distance(&s, &unit()) - expect).abs() < 1e-6);
    }

    #[test]
    fn capsule_test_uses_radius() {
        let s = Segment::new(Vec3::new(1.5, 0.5, 0.5), Vec3::new(2.0, 0.5, 0.5));
        assert!(!capsule_intersects_aabb(&s, 0.4, &unit()));
        assert!(capsule_intersects_aabb(&s, 0.6, &unit()));
    }

    #[test]
    fn sphere_tests() {
        assert!(sphere_intersects_aabb(&Sphere::new(Vec3::new(1.5, 0.5, 0.5), 0.6), &unit()));
        assert!(!sphere_intersects_aabb(&Sphere::new(Vec3::new(1.5, 0.5, 0.5), 0.4), &unit()));
        assert!(sphere_intersects_aabb(&Sphere::new(Vec3::splat(0.5), 0.1), &unit()));
    }

    #[test]
    fn triangle_plane_separation() {
        // Triangle whose plane misses the box entirely.
        let t = Triangle::new(
            Vec3::new(0.0, 0.0, 2.0),
            Vec3::new(1.0, 0.0, 2.0),
            Vec3::new(0.0, 1.0, 2.0),
        );
        assert!(!triangle_intersects_aabb(&t, &unit()));
        // Same triangle dropped into the box.
        let t2 = Triangle::new(
            Vec3::new(0.0, 0.0, 0.5),
            Vec3::new(1.0, 0.0, 0.5),
            Vec3::new(0.0, 1.0, 0.5),
        );
        assert!(triangle_intersects_aabb(&t2, &unit()));
    }

    #[test]
    fn triangle_edge_axis_separation() {
        // AABBs overlap but the triangle passes diagonally beside the box:
        // only an edge-cross axis separates them.
        // The edge line x+y = 2.2 passes outside the box corner (1,1); the
        // triangle AABB still overlaps the box, so only the edge-cross axis
        // separates them.
        let t = Triangle::new(
            Vec3::new(2.7, -0.5, 0.5),
            Vec3::new(-0.5, 2.7, 0.5),
            Vec3::new(2.7, -0.5, 0.6),
        );
        let near = Triangle::new(
            Vec3::new(1.0, -0.1, 0.5),
            Vec3::new(-0.1, 1.0, 0.5),
            Vec3::new(1.0, -0.1, 0.6),
        );
        assert!(triangle_intersects_aabb(&near, &unit()));
        assert!(!triangle_intersects_aabb(&t, &unit()));
    }

    #[test]
    fn degenerate_triangle_does_not_panic() {
        let t = Triangle::new(Vec3::splat(0.5), Vec3::splat(0.5), Vec3::splat(0.5));
        assert!(triangle_intersects_aabb(&t, &unit()));
        let out = Triangle::new(Vec3::splat(2.0), Vec3::splat(2.0), Vec3::splat(2.0));
        assert!(!triangle_intersects_aabb(&out, &unit()));
    }

    #[test]
    fn crosses_boundary_cases() {
        let b = unit();
        let crossing = Segment::new(Vec3::splat(0.5), Vec3::splat(1.5));
        assert!(segment_crosses_boundary(&crossing, &b));
        let inside = Segment::new(Vec3::splat(0.2), Vec3::splat(0.8));
        assert!(!segment_crosses_boundary(&inside, &b));
        let through = Segment::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::new(2.0, 0.5, 0.5));
        assert!(segment_crosses_boundary(&through, &b));
        let outside = Segment::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(!segment_crosses_boundary(&outside, &b));
    }

    #[test]
    fn shape_dispatch() {
        let b = unit();
        assert!(shape_intersects_aabb(&Shape::Point(Vec3::splat(0.5)), &b));
        assert!(!shape_intersects_aabb(&Shape::Point(Vec3::splat(1.5)), &b));
        let cyl = Shape::Cylinder(Cylinder::new(
            Vec3::new(1.2, 0.5, 0.5),
            Vec3::new(2.0, 0.5, 0.5),
            0.3,
            0.3,
        ));
        assert!(shape_intersects_aabb(&cyl, &b));
        assert!(shape_inside_aabb(&Shape::Point(Vec3::splat(0.5)), &b));
        assert!(!shape_inside_aabb(&cyl, &b));
    }
}
