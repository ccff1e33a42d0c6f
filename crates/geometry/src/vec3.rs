//! Three-dimensional vector type used for all coordinates in the workspace.
//!
//! Coordinates are in micrometers (µm), matching the units used throughout
//! the SCOUT paper's evaluation (query volumes in µm³, gap distances in µm).

use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub, SubAssign};

/// A 3-D vector / point with `f64` components.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// X component (µm).
    pub x: f64,
    /// Y component (µm).
    pub y: f64,
    /// Z component (µm).
    pub z: f64,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 { x: 0.0, y: 0.0, z: 0.0 };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 { x: 1.0, y: 1.0, z: 1.0 };

    /// Creates a vector from its components.
    #[inline]
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f64) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, other: Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, other: Vec3) -> Vec3 {
        Vec3 {
            x: self.y * other.z - self.z * other.y,
            y: self.z * other.x - self.x * other.z,
            z: self.x * other.y - self.y * other.x,
        }
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f64 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.dot(self)
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f64 {
        (self - other).norm()
    }

    /// Squared distance to another point.
    #[inline]
    pub fn distance_sq(self, other: Vec3) -> f64 {
        (self - other).norm_sq()
    }

    /// Returns the unit vector in this direction, or `None` for a
    /// (near-)zero vector.
    #[inline]
    pub fn normalized(self) -> Option<Vec3> {
        let n = self.norm();
        if n <= f64::EPSILON {
            None
        } else {
            Some(self / n)
        }
    }

    /// Like [`Vec3::normalized`] but falls back to `+x` for degenerate input.
    #[inline]
    pub fn normalized_or_x(self) -> Vec3 {
        self.normalized().unwrap_or(Vec3::new(1.0, 0.0, 0.0))
    }

    /// Component-wise minimum.
    #[inline]
    pub(crate) fn min(self, other: Vec3) -> Vec3 {
        Vec3 { x: self.x.min(other.x), y: self.y.min(other.y), z: self.z.min(other.z) }
    }

    /// Component-wise maximum.
    #[inline]
    pub(crate) fn max(self, other: Vec3) -> Vec3 {
        Vec3 { x: self.x.max(other.x), y: self.y.max(other.y), z: self.z.max(other.z) }
    }

    /// Component-wise clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: Vec3, hi: Vec3) -> Vec3 {
        self.max(lo).min(hi)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f64) -> Vec3 {
        self + (other - self) * t
    }

    /// Largest component.
    #[inline]
    pub fn max_component(self) -> f64 {
        self.x.max(self.y).max(self.z)
    }

    /// An arbitrary unit vector orthogonal to `self` (which must be nonzero).
    pub fn any_orthogonal(self) -> Vec3 {
        // Pick the axis least aligned with self to avoid degeneracy.
        let a = if self.x.abs() <= self.y.abs() && self.x.abs() <= self.z.abs() {
            Vec3::new(1.0, 0.0, 0.0)
        } else if self.y.abs() <= self.z.abs() {
            Vec3::new(0.0, 1.0, 0.0)
        } else {
            Vec3::new(0.0, 0.0, 1.0)
        };
        self.cross(a).normalized_or_x()
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, o: Vec3) {
        *self = *self + o;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }
}

impl SubAssign for Vec3 {
    #[inline]
    fn sub_assign(&mut self, o: Vec3) {
        *self = *self - o;
    }
}

impl Mul<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f64) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f64 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f64> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f64) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl Index<usize> for Vec3 {
    type Output = f64;
    #[inline]
    fn index(&self, i: usize) -> &f64 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_cross_are_orthogonal() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-4.0, 0.5, 2.0);
        let c = a.cross(b);
        assert!(c.dot(a).abs() < 1e-12);
        assert!(c.dot(b).abs() < 1e-12);
    }

    #[test]
    fn norm_of_unit_axes() {
        assert_eq!(Vec3::new(1.0, 0.0, 0.0).norm(), 1.0);
        assert_eq!(Vec3::new(0.0, -1.0, 0.0).norm(), 1.0);
        assert!((Vec3::new(3.0, 4.0, 0.0).norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_is_none() {
        assert!(Vec3::ZERO.normalized().is_none());
        assert_eq!(Vec3::ZERO.normalized_or_x(), Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(2.0, 4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.5, 2.5, 4.5));
    }

    #[test]
    fn min_max_clamp() {
        let a = Vec3::new(1.0, 5.0, -2.0);
        let b = Vec3::new(2.0, 3.0, 0.0);
        assert_eq!(a.min(b), Vec3::new(1.0, 3.0, -2.0));
        assert_eq!(a.max(b), Vec3::new(2.0, 5.0, 0.0));
        assert_eq!(
            Vec3::new(10.0, -10.0, 0.5).clamp(Vec3::ZERO, Vec3::ONE),
            Vec3::new(1.0, 0.0, 0.5)
        );
    }

    #[test]
    fn any_orthogonal_is_orthogonal_unit() {
        for v in [
            Vec3::new(1.0, 0.0, 0.0),
            Vec3::new(0.0, 2.0, 0.0),
            Vec3::new(0.0, 0.0, -3.0),
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-0.3, 12.0, 4.5),
        ] {
            let o = v.any_orthogonal();
            assert!(v.dot(o).abs() < 1e-9, "not orthogonal for {v:?}");
            assert!((o.norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn index_matches_fields() {
        let v = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(v[0], 7.0);
        assert_eq!(v[1], 8.0);
        assert_eq!(v[2], 9.0);
    }

    #[test]
    #[should_panic]
    fn index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }
}
