//! Static prefetching methods (§2.1): heuristics that ignore movement
//! history and prefetch around the current location.

use scout_geometry::hilbert::{hilbert_coords_3d, hilbert_index_3d};
use scout_geometry::{QueryRegion, UniformGrid, Vec3};
use scout_index::QueryResult;
use scout_sim::{
    CpuUnits, PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher, QueryScratch, SimContext,
};

/// Hilbert-Prefetch \[22\]: overlays a grid on the dataset, assigns each cell
/// its Hilbert value, and prefetches cells whose values neighbor the value
/// of the current query's cell (alternating +1, −1, +2, −2, …).
#[derive(Debug, Clone)]
pub struct HilbertPrefetch {
    /// Bits per axis of the prefetch grid (cells per axis = 2^order).
    order: u32,
    /// How many Hilbert-adjacent cells to request per window.
    fan: usize,
    last_center: Option<Vec3>,
}

impl HilbertPrefetch {
    /// Hilbert prefetcher with grid `2^order` cells per axis, requesting up
    /// to `fan` neighboring cells.
    pub fn new(order: u32, fan: usize) -> HilbertPrefetch {
        assert!((1..=scout_geometry::hilbert::MAX_ORDER_3D).contains(&order));
        HilbertPrefetch { order, fan, last_center: None }
    }
}

impl Default for HilbertPrefetch {
    /// 32³ cells, 24 neighboring cells per window.
    fn default() -> Self {
        HilbertPrefetch::new(5, 24)
    }
}

impl Prefetcher for HilbertPrefetch {
    fn name(&self) -> String {
        "Hilbert".to_string()
    }

    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        self.last_center = Some(region.center());
        PredictionStats {
            cpu: CpuUnits { extra_us: 0.5, ..Default::default() },
            ..Default::default()
        }
    }

    fn plan(&mut self, ctx: &SimContext<'_>) -> PrefetchPlan {
        let Some(center) = self.last_center else {
            return PrefetchPlan::empty();
        };
        let cells_per_axis = 1u32 << self.order;
        let grid = UniformGrid::new(ctx.bounds, [cells_per_axis; 3]);
        let coords = grid.coords_of(center);
        let h = hilbert_index_3d(coords, self.order);
        let max = 1u64 << (3 * self.order);

        let mut requests = Vec::with_capacity(self.fan);
        // Alternate +1, -1, +2, -2, ... in Hilbert value.
        let mut offsets: Vec<i64> = Vec::with_capacity(self.fan);
        let mut k = 1i64;
        while offsets.len() < self.fan {
            offsets.push(k);
            if offsets.len() < self.fan {
                offsets.push(-k);
            }
            k += 1;
        }
        for off in offsets {
            let hv = h as i64 + off;
            if hv < 0 || hv as u64 >= max {
                continue;
            }
            let c = hilbert_coords_3d(hv as u64, self.order);
            let cell = grid.cell_aabb(c);
            requests.push(PrefetchRequest::Region(QueryRegion::from_aabb(cell)));
        }
        PrefetchPlan { requests }
    }

    fn reset(&mut self) {
        self.last_center = None;
    }
}

/// Layered prefetching \[31\]: segments space into a grid and prefetches all
/// 26 cells surrounding the current one (nearest shells first).
#[derive(Debug, Clone)]
pub struct Layered {
    /// Cells per axis of the prefetch grid.
    cells_per_axis: u32,
    last_center: Option<Vec3>,
}

impl Layered {
    /// Layered prefetcher over a `cells_per_axis³` grid.
    pub fn new(cells_per_axis: u32) -> Layered {
        assert!(cells_per_axis >= 2);
        Layered { cells_per_axis, last_center: None }
    }
}

impl Default for Layered {
    fn default() -> Self {
        Layered::new(32)
    }
}

impl Prefetcher for Layered {
    fn name(&self) -> String {
        "Layered".to_string()
    }

    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        self.last_center = Some(region.center());
        PredictionStats {
            cpu: CpuUnits { extra_us: 0.3, ..Default::default() },
            ..Default::default()
        }
    }

    fn plan(&mut self, ctx: &SimContext<'_>) -> PrefetchPlan {
        let Some(center) = self.last_center else {
            return PrefetchPlan::empty();
        };
        let grid = UniformGrid::new(ctx.bounds, [self.cells_per_axis; 3]);
        let c = grid.coords_of(center);
        let mut cells: Vec<[u32; 3]> = Vec::with_capacity(26);
        for dz in -1i64..=1 {
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let n = [c[0] as i64 + dx, c[1] as i64 + dy, c[2] as i64 + dz];
                    if n.iter().all(|&v| v >= 0 && v < self.cells_per_axis as i64) {
                        cells.push([n[0] as u32, n[1] as u32, n[2] as u32]);
                    }
                }
            }
        }
        // Face neighbors before edge/corner neighbors (closer data first).
        cells.sort_by_key(|n| n.iter().zip(c.iter()).map(|(&a, &b)| a.abs_diff(b)).sum::<u32>());
        let requests = cells
            .into_iter()
            .map(|n| PrefetchRequest::Region(QueryRegion::from_aabb(grid.cell_aabb(n))))
            .collect();
        PrefetchPlan { requests }
    }

    fn reset(&mut self) {
        self.last_center = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{Aabb, Aspect, ObjectId, Shape, SpatialObject, StructureId};
    use scout_index::RTree;

    fn fixture() -> (Vec<SpatialObject>, RTree) {
        let objs: Vec<SpatialObject> = (0..200)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    StructureId(0),
                    Shape::Point(Vec3::new(
                        (i % 10) as f64 * 10.0,
                        ((i / 10) % 10) as f64 * 10.0,
                        (i / 100) as f64 * 10.0,
                    )),
                )
            })
            .collect();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        (objs, tree)
    }

    #[test]
    fn hilbert_requests_neighboring_cells() {
        let (objs, tree) = fixture();
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(100.0));
        let ctx = SimContext::new(&objs, &tree, bounds);
        let mut p = HilbertPrefetch::new(3, 8);
        let region = QueryRegion::new(Vec3::splat(50.0), 1000.0, Aspect::Cube);
        p.observe_with_scratch(&ctx, &region, &QueryResult::default(), &mut QueryScratch::new());
        let plan = p.plan(&ctx);
        assert!(!plan.requests.is_empty());
        assert!(plan.requests.len() <= 8);
        // All requested cells lie within bounds.
        for r in &plan.requests {
            if let PrefetchRequest::Region(q) = r {
                assert!(bounds.expanded(1e-6).contains_aabb(q.aabb()));
            }
        }
    }

    #[test]
    fn layered_requests_up_to_26_neighbors() {
        let (objs, tree) = fixture();
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(100.0));
        let ctx = SimContext::new(&objs, &tree, bounds);
        let mut p = Layered::new(4);
        let region = QueryRegion::new(Vec3::splat(50.0), 1000.0, Aspect::Cube);
        p.observe_with_scratch(&ctx, &region, &QueryResult::default(), &mut QueryScratch::new());
        let plan = p.plan(&ctx);
        assert_eq!(plan.requests.len(), 26);
    }

    #[test]
    fn layered_clips_at_domain_corner() {
        let (objs, tree) = fixture();
        let bounds = Aabb::new(Vec3::ZERO, Vec3::splat(100.0));
        let ctx = SimContext::new(&objs, &tree, bounds);
        let mut p = Layered::new(4);
        let region = QueryRegion::new(Vec3::splat(1.0), 100.0, Aspect::Cube);
        p.observe_with_scratch(&ctx, &region, &QueryResult::default(), &mut QueryScratch::new());
        // Corner cell has only 7 neighbors.
        assert_eq!(p.plan(&ctx).requests.len(), 7);
    }

    #[test]
    fn no_observation_no_plan() {
        let (objs, tree) = fixture();
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(100.0)));
        assert!(HilbertPrefetch::default().plan(&ctx).requests.is_empty());
        assert!(Layered::default().plan(&ctx).requests.is_empty());
    }
}
