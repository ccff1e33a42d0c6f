//! Range-query regions.
//!
//! The paper's microbenchmarks (Figure 10) describe queries by *volume*
//! (µm³) and *aspect ratio* — either a cube (ad-hoc queries, model building)
//! or a view frustum (walkthrough visualization). A frustum is enclosed by
//! an elongated box for culling (§7.2.3: "a sequence of spatial queries with
//! a volume (enclosing the view frustum)"), so regions here are axis-aligned
//! boxes parameterized by center, volume and aspect.

use crate::aabb::Aabb;
use crate::intersect::clip_segment_to_aabb;
use crate::shapes::Segment;
use crate::vec3::Vec3;

/// Query aspect ratio per Figure 10.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Aspect {
    /// Equal side lengths.
    Cube,
    /// A box enclosing a view frustum: elongated along the (axis-aligned)
    /// view direction with side ratios 1 : 1 : 2.25.
    Frustum,
    /// Arbitrary side-length ratios (normalized internally).
    Box(Vec3),
}

impl Aspect {
    /// Side-length ratios, normalized so their product is 1.
    pub(crate) fn ratios(&self) -> Vec3 {
        let r = match self {
            Aspect::Cube => Vec3::ONE,
            Aspect::Frustum => Vec3::new(1.0, 1.0, 2.25),
            Aspect::Box(v) => *v,
        };
        let geo_mean = (r.x * r.y * r.z).cbrt();
        r / geo_mean
    }
}

/// An axis-aligned range-query region.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRegion {
    aabb: Aabb,
}

impl QueryRegion {
    /// Region centered at `center` with the given `volume` and `aspect`.
    pub fn new(center: Vec3, volume: f64, aspect: Aspect) -> QueryRegion {
        assert!(volume > 0.0, "query volume must be positive, got {volume}");
        let side = volume.cbrt();
        let extent = aspect.ratios() * side;
        QueryRegion { aabb: Aabb::from_center_extent(center, extent) }
    }

    /// Region from an explicit box.
    pub fn from_aabb(aabb: Aabb) -> QueryRegion {
        QueryRegion { aabb }
    }

    /// The region's box.
    #[inline]
    pub fn aabb(&self) -> &Aabb {
        &self.aabb
    }

    /// Center point.
    #[inline]
    pub fn center(&self) -> Vec3 {
        self.aabb.center()
    }

    /// Volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.aabb.volume()
    }

    /// Side lengths.
    #[inline]
    pub(crate) fn extent(&self) -> Vec3 {
        self.aabb.extent()
    }

    /// Representative side length (cube root of the volume).
    #[inline]
    pub fn side(&self) -> f64 {
        self.volume().cbrt()
    }

    /// Region translated by `delta`.
    pub fn translated(&self, delta: Vec3) -> QueryRegion {
        QueryRegion { aabb: self.aabb.translated(delta) }
    }

    /// Region with the same center/aspect scaled to `factor ×` the volume.
    pub fn scaled(&self, factor: f64) -> QueryRegion {
        assert!(factor > 0.0);
        let s = factor.cbrt();
        QueryRegion { aabb: Aabb::from_center_extent(self.center(), self.extent() * s) }
    }

    /// Where (and in which direction) a segment leaves the region.
    ///
    /// Returns the boundary point at the segment's *exit* parameter together
    /// with the (normalized) outward direction, or `None` when the segment
    /// does not reach the boundary from inside.
    pub fn exit_of_segment(&self, seg: &Segment) -> Option<(Vec3, Vec3)> {
        let (_, t_exit) = clip_segment_to_aabb(seg, &self.aabb)?;
        // Exits only if the segment continues beyond the boundary.
        if t_exit >= 1.0 {
            return None;
        }
        let point = seg.at(t_exit);
        let dir = seg.direction().normalized()?;
        Some((point, dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cube_region_has_requested_volume() {
        let q = QueryRegion::new(Vec3::ZERO, 80_000.0, Aspect::Cube);
        assert!((q.volume() - 80_000.0).abs() < 1e-6);
        let e = q.extent();
        assert!((e.x - e.y).abs() < 1e-9 && (e.y - e.z).abs() < 1e-9);
    }

    #[test]
    fn frustum_region_is_elongated_with_same_volume() {
        let q = QueryRegion::new(Vec3::ZERO, 30_000.0, Aspect::Frustum);
        assert!((q.volume() - 30_000.0).abs() < 1e-6);
        let e = q.extent();
        assert!(e.z > e.x, "frustum box should be elongated in z");
        assert!((e.z / e.x - 2.25).abs() < 1e-9);
    }

    #[test]
    fn custom_aspect_normalizes() {
        let q = QueryRegion::new(Vec3::ZERO, 1000.0, Aspect::Box(Vec3::new(4.0, 1.0, 1.0)));
        assert!((q.volume() - 1000.0).abs() < 1e-9);
        let e = q.extent();
        assert!((e.x / e.y - 4.0).abs() < 1e-9);
    }

    #[test]
    fn scaled_preserves_center_and_aspect() {
        let q = QueryRegion::new(Vec3::ONE, 1000.0, Aspect::Frustum);
        let s = q.scaled(8.0);
        assert!((s.volume() - 8000.0).abs() < 1e-6);
        assert_eq!(s.center(), Vec3::ONE);
        let (e1, e2) = (q.extent(), s.extent());
        assert!((e2.z / e2.x - e1.z / e1.x).abs() < 1e-9);
    }

    #[test]
    fn exit_point_on_boundary() {
        let q = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::ONE));
        let seg = Segment::new(Vec3::splat(0.5), Vec3::new(2.0, 0.5, 0.5));
        let (p, d) = q.exit_of_segment(&seg).unwrap();
        assert!((p.x - 1.0).abs() < 1e-12);
        assert!((d.x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fully_inside_segment_has_no_exit() {
        let q = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::ONE));
        let seg = Segment::new(Vec3::splat(0.3), Vec3::splat(0.7));
        assert!(q.exit_of_segment(&seg).is_none());
    }

    #[test]
    #[should_panic]
    fn zero_volume_rejected() {
        let _ = QueryRegion::new(Vec3::ZERO, 0.0, Aspect::Cube);
    }
}
