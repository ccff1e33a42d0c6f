//! Trajectory-extrapolation prefetchers (§2.2).
//!
//! All of them interpolate/extrapolate the positions of past queries:
//! straight-line from the last two \[26\], polynomial of configurable degree
//! over degree+1 recent positions [4, 5], velocity-scaled motion \[30\], and
//! EWMA-weighted movement vectors \[7\].

use crate::common::{plan_at_predicted_center, CenterHistory};
use scout_geometry::{QueryRegion, Vec3};
use scout_index::QueryResult;
use scout_sim::{CpuUnits, PredictionStats, PrefetchPlan, Prefetcher, QueryScratch, SimContext};

/// Straight-line extrapolation from the last two query positions \[26\]:
/// `ĉ = cₙ + (cₙ − cₙ₋₁)`.
#[derive(Debug, Clone)]
pub struct StraightLine {
    history: CenterHistory,
}

impl Default for StraightLine {
    fn default() -> Self {
        StraightLine { history: CenterHistory::new(2) }
    }
}

impl StraightLine {
    /// Creates the prefetcher.
    pub fn new() -> StraightLine {
        StraightLine::default()
    }
}

impl Prefetcher for StraightLine {
    fn name(&self) -> String {
        "Straight Line".to_string()
    }

    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        self.history.push(region);
        PredictionStats {
            cpu: CpuUnits { extra_us: 0.5, ..Default::default() },
            ..Default::default()
        }
    }

    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        match (self.history.last_region(), self.history.last_delta()) {
            (Some(last), Some(delta)) => plan_at_predicted_center(last, last.center() + delta),
            _ => PrefetchPlan::empty(),
        }
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// Polynomial extrapolation [4, 5]: fits a degree-`d` polynomial per
/// coordinate through the last `d + 1` query positions (§3.3: "using as
/// many recent query locations to interpolate as their degree plus one")
/// and evaluates it one step ahead via Lagrange interpolation on the
/// uniform grid t = 0, 1, …, d.
#[derive(Debug, Clone)]
pub struct Polynomial {
    degree: usize,
    history: CenterHistory,
}

impl Polynomial {
    /// Polynomial prefetcher of the given degree (≥ 1).
    pub fn new(degree: usize) -> Polynomial {
        assert!(degree >= 1, "polynomial degree must be >= 1");
        Polynomial { degree, history: CenterHistory::new(degree + 1) }
    }

    /// Lagrange extrapolation of points y₀…y_d (at t = 0…d) to t = d + 1.
    fn extrapolate(points: &[Vec3]) -> Vec3 {
        let k = points.len();
        let t = k as f64; // evaluate one step past the last point
        let mut out = Vec3::ZERO;
        for (i, &p) in points.iter().enumerate() {
            let mut w = 1.0;
            for j in 0..k {
                if j != i {
                    w *= (t - j as f64) / (i as f64 - j as f64);
                }
            }
            out += p * w;
        }
        out
    }
}

impl Prefetcher for Polynomial {
    fn name(&self) -> String {
        format!("Polynomial Degree {}", self.degree)
    }

    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        self.history.push(region);
        PredictionStats {
            cpu: CpuUnits { extra_us: 1.0, ..Default::default() },
            ..Default::default()
        }
    }

    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        let centers = self.history.centers();
        let Some(last) = self.history.last_region() else {
            return PrefetchPlan::empty();
        };
        if centers.len() < 2 {
            return PrefetchPlan::empty();
        }
        // Use up to degree+1 most recent points.
        let take = (self.degree + 1).min(centers.len());
        let predicted = Self::extrapolate(&centers[centers.len() - take..]);
        plan_at_predicted_center(last, predicted)
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// Velocity-based motion prediction \[30\]: direction from the last movement,
/// magnitude from the mean speed over recent movements.
#[derive(Debug, Clone)]
pub struct Velocity {
    history: CenterHistory,
}

impl Default for Velocity {
    fn default() -> Self {
        Velocity { history: CenterHistory::new(4) }
    }
}

impl Velocity {
    /// Creates the prefetcher.
    pub fn new() -> Velocity {
        Velocity::default()
    }
}

impl Prefetcher for Velocity {
    fn name(&self) -> String {
        "Velocity".to_string()
    }

    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        self.history.push(region);
        PredictionStats {
            cpu: CpuUnits { extra_us: 0.8, ..Default::default() },
            ..Default::default()
        }
    }

    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        let centers = self.history.centers();
        let Some(last) = self.history.last_region() else {
            return PrefetchPlan::empty();
        };
        if centers.len() < 2 {
            return PrefetchPlan::empty();
        }
        let speeds: Vec<f64> = centers.windows(2).map(|w| w[0].distance(w[1])).collect();
        let mean_speed = speeds.iter().sum::<f64>() / speeds.len() as f64;
        let dir = (centers[centers.len() - 1] - centers[centers.len() - 2]).normalized_or_x();
        plan_at_predicted_center(last, last.center() + dir * mean_speed)
    }

    fn reset(&mut self) {
        self.history.clear();
    }
}

/// EWMA movement prediction \[7\]: "the last query is weighted with λ, the
/// second to last with (1 − λ)·λ, and so on" (§2.2) — the standard
/// recursion `v ← λ·Δ + (1 − λ)·v`.
#[derive(Debug, Clone)]
pub struct Ewma {
    lambda: f64,
    history: CenterHistory,
    velocity: Option<Vec3>,
}

impl Ewma {
    /// EWMA with weight `lambda ∈ (0, 1]`; the paper's best configuration
    /// is λ = 0.3 (§3.3).
    pub(crate) fn new(lambda: f64) -> Ewma {
        assert!(lambda > 0.0 && lambda <= 1.0, "lambda must be in (0, 1], got {lambda}");
        Ewma { lambda, history: CenterHistory::new(2), velocity: None }
    }

    /// The paper's best configuration: λ = 0.3.
    pub fn paper_best() -> Ewma {
        Ewma::new(0.3)
    }
}

impl Prefetcher for Ewma {
    fn name(&self) -> String {
        format!("EWMA (λ = {})", self.lambda)
    }

    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        self.history.push(region);
        if let Some(delta) = self.history.last_delta() {
            self.velocity = Some(match self.velocity {
                Some(v) => delta * self.lambda + v * (1.0 - self.lambda),
                None => delta,
            });
        }
        PredictionStats {
            cpu: CpuUnits { extra_us: 0.6, ..Default::default() },
            ..Default::default()
        }
    }

    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        match (self.history.last_region(), self.velocity) {
            (Some(last), Some(v)) => plan_at_predicted_center(last, last.center() + v),
            _ => PrefetchPlan::empty(),
        }
    }

    fn reset(&mut self) {
        self.history.clear();
        self.velocity = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{Aabb, Aspect, ObjectId, Shape, SpatialObject, StructureId};
    use scout_index::RTree;

    fn ctx_fixture() -> (Vec<SpatialObject>, RTree) {
        let objs: Vec<SpatialObject> = (0..100)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    StructureId(0),
                    Shape::Point(Vec3::new(i as f64, 0.0, 0.0)),
                )
            })
            .collect();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        (objs, tree)
    }

    fn observe_centers(p: &mut dyn Prefetcher, centers: &[Vec3]) -> Option<Vec3> {
        let (objs, tree) = ctx_fixture();
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(100.0)));
        let empty = QueryResult::default();
        let mut scratch = QueryScratch::new();
        for &c in centers {
            let r = QueryRegion::new(c, 1000.0, Aspect::Cube);
            p.observe_with_scratch(&ctx, &r, &empty, &mut scratch);
        }
        match p.plan(&ctx).requests.first() {
            Some(scout_sim::PrefetchRequest::Region(r)) => Some(r.center()),
            _ => None,
        }
    }

    #[test]
    fn straight_line_continues_linear_motion() {
        let mut p = StraightLine::new();
        let got =
            observe_centers(&mut p, &[Vec3::new(0.0, 0.0, 0.0), Vec3::new(5.0, 0.0, 0.0)]).unwrap();
        assert!((got - Vec3::new(10.0, 0.0, 0.0)).norm() < 1e-9);
    }

    #[test]
    fn straight_line_needs_two_points() {
        let mut p = StraightLine::new();
        assert!(observe_centers(&mut p, &[Vec3::ZERO]).is_none());
    }

    #[test]
    fn polynomial_degree2_follows_parabola() {
        // Centers on y = x² with x = 0,1,2 -> next should be (3, 9).
        let mut p = Polynomial::new(2);
        let got = observe_centers(
            &mut p,
            &[Vec3::new(0.0, 0.0, 0.0), Vec3::new(1.0, 1.0, 0.0), Vec3::new(2.0, 4.0, 0.0)],
        )
        .unwrap();
        assert!((got - Vec3::new(3.0, 9.0, 0.0)).norm() < 1e-9, "got {got:?}");
    }

    #[test]
    fn polynomial_exact_on_linear_motion_any_degree() {
        for degree in [1usize, 2, 3] {
            let mut p = Polynomial::new(degree);
            let pts: Vec<Vec3> =
                (0..=degree).map(|i| Vec3::new(i as f64 * 2.0, 1.0, 0.0)).collect();
            let got = observe_centers(&mut p, &pts).unwrap();
            let expect = Vec3::new((degree as f64 + 1.0) * 2.0, 1.0, 0.0);
            assert!((got - expect).norm() < 1e-9, "degree {degree}: {got:?}");
        }
    }

    #[test]
    fn ewma_blends_velocities() {
        // Movement turns: EWMA(0.5) should predict between old and new dirs.
        let mut p = Ewma::new(0.5);
        let got = observe_centers(
            &mut p,
            &[
                Vec3::new(0.0, 0.0, 0.0),
                Vec3::new(10.0, 0.0, 0.0),  // v = (10,0,0)
                Vec3::new(10.0, 10.0, 0.0), // delta (0,10,0); v = (5,5,0)
            ],
        )
        .unwrap();
        assert!((got - Vec3::new(15.0, 15.0, 0.0)).norm() < 1e-9, "got {got:?}");
    }

    #[test]
    fn ewma_lambda_one_equals_straight_line() {
        let pts = [Vec3::new(0.0, 0.0, 0.0), Vec3::new(3.0, 1.0, 0.0), Vec3::new(9.0, 5.0, 0.0)];
        let mut e = Ewma::new(1.0);
        let mut s = StraightLine::new();
        let ge = observe_centers(&mut e, &pts).unwrap();
        let gs = observe_centers(&mut s, &pts).unwrap();
        assert!((ge - gs).norm() < 1e-9);
    }

    #[test]
    fn velocity_uses_mean_speed() {
        // Steps of length 2 then 4: mean speed 3, direction +x.
        let mut p = Velocity::new();
        let got = observe_centers(
            &mut p,
            &[Vec3::new(0.0, 0.0, 0.0), Vec3::new(2.0, 0.0, 0.0), Vec3::new(6.0, 0.0, 0.0)],
        )
        .unwrap();
        assert!((got - Vec3::new(9.0, 0.0, 0.0)).norm() < 1e-9, "got {got:?}");
    }

    #[test]
    fn reset_clears_state() {
        let mut p = Ewma::paper_best();
        let _ = observe_centers(&mut p, &[Vec3::ZERO, Vec3::ONE]);
        p.reset();
        let (objs, tree) = ctx_fixture();
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(100.0)));
        assert!(p.plan(&ctx).requests.is_empty());
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn bad_lambda_rejected() {
        let _ = Ewma::new(0.0);
    }
}
