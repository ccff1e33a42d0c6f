//! Shared machinery for position-history prefetchers.
//!
//! Every §2.2 trajectory-extrapolation method sees only the *positions* of
//! past queries — "current prefetching approaches for spatial data do not
//! perform well, because they only rely on previous query positions" (§1).
//! This module holds that position history and the common plan shape.

use scout_geometry::{QueryRegion, Vec3};
use scout_sim::{PrefetchPlan, PrefetchRequest};

/// Rolling history of query centers (and the latest region geometry).
#[derive(Debug, Clone, Default)]
pub(crate) struct CenterHistory {
    centers: Vec<Vec3>,
    last_region: Option<QueryRegion>,
    capacity: usize,
}

impl CenterHistory {
    /// History retaining the last `capacity` centers (≥ 2).
    pub(crate) fn new(capacity: usize) -> CenterHistory {
        CenterHistory { centers: Vec::new(), last_region: None, capacity: capacity.max(2) }
    }

    /// Records a query.
    pub(crate) fn push(&mut self, region: &QueryRegion) {
        self.centers.push(region.center());
        if self.centers.len() > self.capacity {
            self.centers.remove(0);
        }
        self.last_region = Some(*region);
    }

    /// Recorded centers, oldest first.
    pub(crate) fn centers(&self) -> &[Vec3] {
        &self.centers
    }

    /// The most recent query region.
    pub(crate) fn last_region(&self) -> Option<&QueryRegion> {
        self.last_region.as_ref()
    }

    /// The latest movement vector (cₙ − cₙ₋₁), if ≥ 2 queries were seen.
    pub(crate) fn last_delta(&self) -> Option<Vec3> {
        let n = self.centers.len();
        if n >= 2 {
            Some(self.centers[n - 1] - self.centers[n - 2])
        } else {
            None
        }
    }

    /// Clears the history.
    pub(crate) fn clear(&mut self) {
        self.centers.clear();
        self.last_region = None;
    }
}

/// Builds the standard plan for a predicted next-query center: the region
/// at the prediction, with the same volume and aspect as the last query.
/// This is exactly what the §2.2 methods do — they "predict the future
/// query location" and prefetch the anticipated query there; they have no
/// mechanism for spending surplus window budget elsewhere (that mechanism,
/// incremental prefetching, is SCOUT's §5.1 contribution). All
/// extrapolation baselines share this shape, so comparisons are
/// apples-to-apples.
pub(crate) fn plan_at_predicted_center(last_region: &QueryRegion, predicted: Vec3) -> PrefetchPlan {
    let delta = predicted - last_region.center();
    let at = last_region.translated(delta);
    PrefetchPlan { requests: vec![PrefetchRequest::Region(at)] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::Aspect;

    fn region(center: Vec3) -> QueryRegion {
        QueryRegion::new(center, 1000.0, Aspect::Cube)
    }

    #[test]
    fn history_caps_and_orders() {
        let mut h = CenterHistory::new(3);
        for i in 0..5 {
            h.push(&region(Vec3::new(i as f64, 0.0, 0.0)));
        }
        assert_eq!(h.centers().len(), 3);
        assert_eq!(h.centers()[0].x, 2.0);
        assert_eq!(h.centers()[2].x, 4.0);
        assert_eq!(h.last_delta().unwrap().x, 1.0);
        h.clear();
        assert!(h.centers().is_empty());
        assert!(h.last_delta().is_none());
    }

    #[test]
    fn plan_translates_and_grows() {
        let last = region(Vec3::ZERO);
        let plan = plan_at_predicted_center(&last, Vec3::new(10.0, 0.0, 0.0));
        assert_eq!(plan.requests.len(), 1);
        match &plan.requests[0] {
            scout_sim::PrefetchRequest::Region(r) => {
                assert_eq!(r.center(), Vec3::new(10.0, 0.0, 0.0));
                assert!((r.volume() - 1000.0).abs() < 1e-6);
            }
            other => panic!("unexpected request {other:?}"),
        }
    }
}
