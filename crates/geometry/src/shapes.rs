//! Geometric primitives used to model spatial objects.
//!
//! The SCOUT datasets model objects as 3-D cylinders (neuron segments,
//! arteries), triangles (surface meshes such as the lung airway model) and
//! line segments (road networks). §4.2 of the paper reduces each object to
//! one of three *simplified* geometries — a point, a straight line, or a
//! minimum bounding rectangle — before grid hashing; [`Simplified`] captures
//! exactly those three options.

use crate::aabb::Aabb;
use crate::vec3::Vec3;

/// A straight line segment between two points.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// Start point.
    pub a: Vec3,
    /// End point.
    pub b: Vec3,
}

impl Segment {
    /// Creates a segment.
    #[inline]
    pub fn new(a: Vec3, b: Vec3) -> Segment {
        Segment { a, b }
    }

    /// Midpoint.
    #[inline]
    pub(crate) fn midpoint(&self) -> Vec3 {
        (self.a + self.b) * 0.5
    }

    /// Direction from `a` to `b` (not normalized).
    #[inline]
    pub fn direction(&self) -> Vec3 {
        self.b - self.a
    }

    /// Point at parameter `t ∈ [0, 1]`.
    #[inline]
    pub fn at(&self, t: f64) -> Vec3 {
        self.a.lerp(self.b, t)
    }

    /// Tight bounding box.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        Aabb::from_corners(self.a, self.b)
    }

    /// Closest point on the segment to `p`.
    pub fn closest_point(&self, p: Vec3) -> Vec3 {
        let d = self.direction();
        let len_sq = d.norm_sq();
        if len_sq <= f64::EPSILON {
            return self.a;
        }
        let t = ((p - self.a).dot(d) / len_sq).clamp(0.0, 1.0);
        self.at(t)
    }
}

/// A truncated cone ("cylinder" in the paper's terminology): two endpoints
/// with a radius at each, the representation used for neuron morphologies
/// and arterial trees (§7.1: "Each cylinder is described by two end points
/// and a radius for each endpoint").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cylinder {
    /// First endpoint.
    pub a: Vec3,
    /// Second endpoint.
    pub b: Vec3,
    /// Radius at `a`.
    pub ra: f64,
    /// Radius at `b`.
    pub(crate) rb: f64,
}

impl Cylinder {
    /// Creates a cylinder.
    #[inline]
    pub fn new(a: Vec3, b: Vec3, ra: f64, rb: f64) -> Cylinder {
        Cylinder { a, b, ra, rb }
    }

    /// The center-line segment (the paper's simplification for cylinders:
    /// "SCOUT reduces the cylinder to a line segment by solely using the two
    /// endpoints").
    #[inline]
    pub fn axis(&self) -> Segment {
        Segment::new(self.a, self.b)
    }

    /// Largest of the two radii.
    #[inline]
    pub fn max_radius(&self) -> f64 {
        self.ra.max(self.rb)
    }

    /// Conservative bounding box: the axis box expanded by the max radius.
    #[inline]
    pub fn aabb(&self) -> Aabb {
        self.axis().aabb().expanded(self.max_radius())
    }
}

/// A triangle, used for polygon-mesh datasets (lung airway model).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Triangle {
    /// First vertex.
    pub(crate) a: Vec3,
    /// Second vertex.
    pub(crate) b: Vec3,
    /// Third vertex.
    pub(crate) c: Vec3,
}

impl Triangle {
    /// Creates a triangle.
    #[inline]
    pub fn new(a: Vec3, b: Vec3, c: Vec3) -> Triangle {
        Triangle { a, b, c }
    }

    /// Centroid.
    #[inline]
    pub(crate) fn centroid(&self) -> Vec3 {
        (self.a + self.b + self.c) / 3.0
    }

    /// Tight bounding box.
    #[inline]
    pub(crate) fn aabb(&self) -> Aabb {
        Aabb::from_points([self.a, self.b, self.c])
    }
}

/// A sphere, used for somata and as a generic blob primitive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sphere {
    /// Center.
    pub(crate) center: Vec3,
    /// Radius.
    pub(crate) radius: f64,
}

impl Sphere {
    /// Creates a sphere.
    #[inline]
    pub fn new(center: Vec3, radius: f64) -> Sphere {
        Sphere { center, radius }
    }

    /// Tight bounding box.
    #[inline]
    pub(crate) fn aabb(&self) -> Aabb {
        Aabb::from_center_extent(self.center, Vec3::splat(2.0 * self.radius))
    }
}

/// Any spatial-object geometry appearing in a SCOUT dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Shape {
    /// A bare point.
    Point(Vec3),
    /// A line segment (road networks).
    Segment(Segment),
    /// A cylinder (neurons, arteries).
    Cylinder(Cylinder),
    /// A mesh triangle (lung airway surfaces).
    Triangle(Triangle),
    /// A sphere (somata).
    Sphere(Sphere),
}

/// One of the three geometry simplifications of §4.2 used for grid hashing:
/// "A minimum bounding rectangle surrounding the object, a straight line or
/// a point can be used depending on the geometry of the object."
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Simplified {
    /// Representative point (centroid).
    Point(Vec3),
    /// Straight-line approximation (cylinder/segment axis).
    Segment(Segment),
    /// Minimum bounding rectangle (box).
    Box(Aabb),
}

/// Which simplification to apply when mapping objects to grid cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Simplification {
    /// Reduce every object to its centroid.
    Point,
    /// Reduce elongated objects to their axis segment (the paper's choice
    /// for the cylinder datasets); falls back to box for triangles.
    #[default]
    Segment,
    /// Use the minimum bounding box.
    Mbr,
}

impl Shape {
    /// Tight (or conservatively tight) bounding box.
    pub(crate) fn aabb(&self) -> Aabb {
        match self {
            Shape::Point(p) => Aabb::from_point(*p),
            Shape::Segment(s) => s.aabb(),
            Shape::Cylinder(c) => c.aabb(),
            Shape::Triangle(t) => t.aabb(),
            Shape::Sphere(s) => s.aabb(),
        }
    }

    /// Representative center point.
    pub(crate) fn centroid(&self) -> Vec3 {
        match self {
            Shape::Point(p) => *p,
            Shape::Segment(s) => s.midpoint(),
            Shape::Cylinder(c) => c.axis().midpoint(),
            Shape::Triangle(t) => t.centroid(),
            Shape::Sphere(s) => s.center,
        }
    }

    /// Applies a §4.2 geometry simplification.
    pub fn simplified(&self, mode: Simplification) -> Simplified {
        match mode {
            Simplification::Point => Simplified::Point(self.centroid()),
            Simplification::Mbr => Simplified::Box(self.aabb()),
            Simplification::Segment => match self {
                Shape::Point(p) => Simplified::Point(*p),
                Shape::Segment(s) => Simplified::Segment(*s),
                Shape::Cylinder(c) => Simplified::Segment(c.axis()),
                Shape::Sphere(s) => Simplified::Point(s.center),
                // Triangles have no meaningful axis; use the MBR.
                Shape::Triangle(t) => Simplified::Box(t.aabb()),
            },
        }
    }

    /// The axis segment for elongated shapes (used for exit-direction
    /// estimation); `None` for points/spheres/triangles.
    pub fn axis_segment(&self) -> Option<Segment> {
        match self {
            Shape::Segment(s) => Some(*s),
            Shape::Cylinder(c) => Some(c.axis()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segment_basics() {
        let s = Segment::new(Vec3::ZERO, Vec3::new(2.0, 0.0, 0.0));
        assert_eq!(s.midpoint(), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(s.at(0.25), Vec3::new(0.5, 0.0, 0.0));
    }

    #[test]
    fn segment_closest_point_clamps() {
        let s = Segment::new(Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(s.closest_point(Vec3::new(-5.0, 3.0, 0.0)), Vec3::ZERO);
        assert_eq!(s.closest_point(Vec3::new(9.0, 3.0, 0.0)), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(s.closest_point(Vec3::new(0.5, 3.0, 0.0)), Vec3::new(0.5, 0.0, 0.0));
    }

    #[test]
    fn degenerate_segment_closest_point() {
        let s = Segment::new(Vec3::ONE, Vec3::ONE);
        assert_eq!(s.closest_point(Vec3::new(4.0, 4.0, 4.0)), Vec3::ONE);
    }

    #[test]
    fn cylinder_aabb_includes_radius() {
        let c = Cylinder::new(Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0), 1.0, 2.0);
        let b = c.aabb();
        assert!(b.contains_point(Vec3::new(10.0, 2.0, 0.0)));
        assert!(b.contains_point(Vec3::new(-2.0, 0.0, 0.0)));
        assert_eq!(c.max_radius(), 2.0);
    }

    #[test]
    fn shape_centroids() {
        let t = Shape::Triangle(Triangle::new(
            Vec3::ZERO,
            Vec3::new(3.0, 0.0, 0.0),
            Vec3::new(0.0, 3.0, 0.0),
        ));
        assert_eq!(t.centroid(), Vec3::new(1.0, 1.0, 0.0));
        let s = Shape::Sphere(Sphere::new(Vec3::ONE, 2.0));
        assert_eq!(s.centroid(), Vec3::ONE);
    }

    #[test]
    fn simplification_modes() {
        let cyl = Shape::Cylinder(Cylinder::new(Vec3::ZERO, Vec3::new(4.0, 0.0, 0.0), 0.5, 0.5));
        match cyl.simplified(Simplification::Segment) {
            Simplified::Segment(s) => assert_eq!(s.b, Vec3::new(4.0, 0.0, 0.0)),
            other => panic!("expected segment, got {other:?}"),
        }
        match cyl.simplified(Simplification::Point) {
            Simplified::Point(p) => assert_eq!(p, Vec3::new(2.0, 0.0, 0.0)),
            other => panic!("expected point, got {other:?}"),
        }
        match cyl.simplified(Simplification::Mbr) {
            Simplified::Box(b) => assert!(b.contains_point(Vec3::new(4.0, 0.5, 0.5))),
            other => panic!("expected box, got {other:?}"),
        }
        // Triangles fall back to MBR under Segment mode.
        let tri = Shape::Triangle(Triangle::new(Vec3::ZERO, Vec3::ONE, Vec3::new(1.0, 0.0, 0.0)));
        assert!(matches!(tri.simplified(Simplification::Segment), Simplified::Box(_)));
    }

    #[test]
    fn axis_segment_only_for_elongated() {
        assert!(Shape::Point(Vec3::ZERO).axis_segment().is_none());
        assert!(Shape::Cylinder(Cylinder::new(Vec3::ZERO, Vec3::ONE, 0.1, 0.1))
            .axis_segment()
            .is_some());
    }
}
