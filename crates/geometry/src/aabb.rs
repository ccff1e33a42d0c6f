//! Axis-aligned bounding boxes.

use crate::vec3::Vec3;

/// An axis-aligned bounding box, stored as inclusive min/max corners.
///
/// An `Aabb` with any `min` component strictly greater than the matching
/// `max` component is *empty*; [`Aabb::EMPTY`] is the canonical empty box
/// (useful as the identity for [`Aabb::union`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// The empty box: the identity element of [`Aabb::union`].
    pub const EMPTY: Aabb =
        Aabb { min: Vec3::splat(f64::INFINITY), max: Vec3::splat(f64::NEG_INFINITY) };

    /// Creates a box from min/max corners.
    ///
    /// Debug-asserts that the box is well formed (min ≤ max per axis).
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Aabb {
        debug_assert!(
            min.x <= max.x && min.y <= max.y && min.z <= max.z,
            "malformed Aabb: min {min:?} max {max:?}"
        );
        Aabb { min, max }
    }

    /// Box around a single point.
    #[inline]
    pub(crate) fn from_point(p: Vec3) -> Aabb {
        Aabb { min: p, max: p }
    }

    /// Smallest box containing both points (in any order).
    #[inline]
    pub fn from_corners(a: Vec3, b: Vec3) -> Aabb {
        Aabb { min: a.min(b), max: a.max(b) }
    }

    /// Box centered at `center` with full side lengths `extent`.
    #[inline]
    pub fn from_center_extent(center: Vec3, extent: Vec3) -> Aabb {
        let half = extent * 0.5;
        Aabb { min: center - half, max: center + half }
    }

    /// Smallest box containing every point in the iterator; `EMPTY` if none.
    pub(crate) fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Aabb {
        points.into_iter().fold(Aabb::EMPTY, |acc, p| acc.union(&Aabb::from_point(p)))
    }

    /// True when the box contains no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y || self.min.z > self.max.z
    }

    /// Center point. Meaningless for empty boxes.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// Full side lengths per axis (zero-clamped).
    #[inline]
    pub fn extent(&self) -> Vec3 {
        (self.max - self.min).max(Vec3::ZERO)
    }

    /// Volume; zero for empty or degenerate boxes.
    #[inline]
    pub fn volume(&self) -> f64 {
        let e = self.extent();
        e.x * e.y * e.z
    }

    /// True when `p` lies inside or on the boundary.
    #[inline]
    pub fn contains_point(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    /// True when `other` lies entirely inside `self`.
    ///
    /// Every box (including `self`) contains the empty box.
    #[inline]
    pub fn contains_aabb(&self, other: &Aabb) -> bool {
        if other.is_empty() {
            return true;
        }
        self.contains_point(other.min) && self.contains_point(other.max)
    }

    /// True when the boxes share at least one point (boundary touching counts).
    #[inline]
    pub fn intersects(&self, other: &Aabb) -> bool {
        !self.is_empty()
            && !other.is_empty()
            && self.min.x <= other.max.x
            && self.max.x >= other.min.x
            && self.min.y <= other.max.y
            && self.max.y >= other.min.y
            && self.min.z <= other.max.z
            && self.max.z >= other.min.z
    }

    /// The intersection box; `EMPTY` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Aabb) -> Aabb {
        if !self.intersects(other) {
            return Aabb::EMPTY;
        }
        Aabb { min: self.min.max(other.min), max: self.max.min(other.max) }
    }

    /// Smallest box containing both.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        Aabb { min: self.min.min(other.min), max: self.max.max(other.max) }
    }

    /// Box grown by `margin` on every side (negative shrinks; may empty).
    #[inline]
    pub fn expanded(&self, margin: f64) -> Aabb {
        Aabb { min: self.min - Vec3::splat(margin), max: self.max + Vec3::splat(margin) }
    }

    /// Box translated by `delta`.
    #[inline]
    pub fn translated(&self, delta: Vec3) -> Aabb {
        Aabb { min: self.min + delta, max: self.max + delta }
    }

    /// The closest point inside the box to `p` (equals `p` when inside).
    #[inline]
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        p.clamp(self.min, self.max)
    }

    /// Squared distance from `p` to the box (zero when inside).
    #[inline]
    pub fn distance_sq_to_point(&self, p: Vec3) -> f64 {
        self.closest_point(p).distance_sq(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit() -> Aabb {
        Aabb::new(Vec3::ZERO, Vec3::ONE)
    }

    #[test]
    fn empty_properties() {
        assert!(Aabb::EMPTY.is_empty());
        assert_eq!(Aabb::EMPTY.volume(), 0.0);
        assert!(!Aabb::EMPTY.intersects(&unit()));
        assert!(unit().contains_aabb(&Aabb::EMPTY));
    }

    #[test]
    fn union_identity_is_empty() {
        let b = unit();
        assert_eq!(b.union(&Aabb::EMPTY), b);
        assert_eq!(Aabb::EMPTY.union(&b), b);
    }

    #[test]
    fn volume_and_surface() {
        let b = Aabb::new(Vec3::ZERO, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(b.volume(), 24.0);
    }

    #[test]
    fn contains_and_intersects() {
        let b = unit();
        assert!(b.contains_point(Vec3::splat(0.5)));
        assert!(b.contains_point(Vec3::ZERO)); // boundary inclusive
        assert!(!b.contains_point(Vec3::new(1.1, 0.5, 0.5)));

        let other = Aabb::new(Vec3::splat(0.5), Vec3::splat(2.0));
        assert!(b.intersects(&other));
        assert!(!b.contains_aabb(&other));
        assert!(b.contains_aabb(&Aabb::new(Vec3::splat(0.2), Vec3::splat(0.8))));

        let disjoint = Aabb::new(Vec3::splat(2.0), Vec3::splat(3.0));
        assert!(!b.intersects(&disjoint));
        assert!(b.intersection(&disjoint).is_empty());
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = unit();
        let b = Aabb::new(Vec3::splat(0.5), Vec3::splat(1.5));
        let i = a.intersection(&b);
        assert_eq!(i, Aabb::new(Vec3::splat(0.5), Vec3::splat(1.0)));
    }

    #[test]
    fn from_center_extent_round_trips() {
        let b = Aabb::from_center_extent(Vec3::new(1.0, 2.0, 3.0), Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(b.center(), Vec3::new(1.0, 2.0, 3.0));
        assert_eq!(b.extent(), Vec3::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn closest_point_and_distance() {
        let b = unit();
        assert_eq!(b.closest_point(Vec3::splat(0.5)), Vec3::splat(0.5));
        assert_eq!(b.closest_point(Vec3::new(2.0, 0.5, 0.5)), Vec3::new(1.0, 0.5, 0.5));
        assert!((b.distance_sq_to_point(Vec3::new(2.0, 0.5, 0.5)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn from_points_bounds_all() {
        let pts = [Vec3::new(0.0, 5.0, -1.0), Vec3::new(2.0, -3.0, 4.0), Vec3::new(1.0, 1.0, 1.0)];
        let b = Aabb::from_points(pts);
        for p in pts {
            assert!(b.contains_point(p));
        }
        assert_eq!(b.min, Vec3::new(0.0, -3.0, -1.0));
        assert_eq!(b.max, Vec3::new(2.0, 5.0, 4.0));
    }
}
