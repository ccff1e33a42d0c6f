//! Property tests of the executor's accounting invariants, driven by a
//! randomized prefetcher that emits arbitrary plans.

use proptest::prelude::*;
use scout_geometry::{
    Aabb, Aspect, ObjectId, QueryRegion, Shape, SpatialObject, StructureId, Vec3,
};
use scout_index::{QueryResult, RTree};
use scout_sim::{
    run_sequence, ExecutorConfig, PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher,
    QueryScratch, SimContext,
};

/// Emits pseudo-random region plans derived from a seed list.
struct ChaosPrefetcher {
    plans: Vec<Vec<(f64, f64, f64, f64)>>,
    cursor: usize,
}

impl Prefetcher for ChaosPrefetcher {
    fn name(&self) -> String {
        "Chaos".into()
    }
    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        _region: &QueryRegion,
        _result: &QueryResult,
        _scratch: &mut QueryScratch,
    ) -> PredictionStats {
        PredictionStats::default()
    }
    fn plan(&mut self, _ctx: &SimContext<'_>) -> PrefetchPlan {
        let mut plan = PrefetchPlan::empty();
        if let Some(regions) = self.plans.get(self.cursor) {
            for &(x, y, z, side) in regions {
                plan.requests.push(PrefetchRequest::Region(QueryRegion::from_aabb(
                    Aabb::from_center_extent(Vec3::new(x, y, z), Vec3::splat(side.max(0.5))),
                )));
            }
        }
        self.cursor += 1;
        plan
    }
    fn reset(&mut self) {
        self.cursor = 0;
    }
}

fn dataset() -> Vec<SpatialObject> {
    let mut out = Vec::new();
    let mut id = 0u32;
    for x in 0..12 {
        for y in 0..12 {
            for z in 0..12 {
                out.push(SpatialObject::new(
                    ObjectId(id),
                    StructureId(0),
                    Shape::Point(Vec3::new(x as f64 * 5.0, y as f64 * 5.0, z as f64 * 5.0)),
                ));
                id += 1;
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn accounting_invariants_hold_under_arbitrary_plans(
        plans in prop::collection::vec(
            prop::collection::vec(
                (0.0..60.0, 0.0..60.0, 0.0..60.0, 1.0..40.0f64),
                0..6,
            ),
            1..8,
        ),
        window_ratio in 0.0..3.0f64,
        n_queries in 1usize..8,
    ) {
        let objects = dataset();
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let ctx = SimContext::new(&objects, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(60.0)));
        let regions: Vec<QueryRegion> = (0..n_queries)
            .map(|i| {
                QueryRegion::new(
                    Vec3::new(10.0 + i as f64 * 6.0, 30.0, 30.0),
                    3_000.0,
                    Aspect::Cube,
                )
            })
            .collect();
        let mut chaos = ChaosPrefetcher { plans, cursor: 0 };
        let config = ExecutorConfig { window_ratio, ..Default::default() };
        let trace = run_sequence(&ctx, &mut chaos, &regions, &config);

        prop_assert_eq!(trace.queries.len(), n_queries);
        for q in &trace.queries {
            // Hits never exceed the result size.
            prop_assert!(q.pages_hit <= q.pages_total);
            // Window is exactly r x d.
            prop_assert!((q.window_us - window_ratio * q.d_ref_us).abs() < 1e-9);
            // Residual time covers at least the missed pages at the
            // cheapest possible rate.
            let missed = (q.pages_total - q.pages_hit) as f64;
            prop_assert!(
                q.residual_us + 1e-9 >=
                    missed * config.disk.sequential_read_us.min(config.disk.random_read_us)
            );
        }
        // Prefetch I/O must fit inside the sum of windows.
        let window_total: f64 = trace.queries.iter().map(|q| q.window_us).sum();
        prop_assert!(trace.io.prefetch_io_us <= window_total + 1e-9);
        // Page conservation.
        let total: u64 = trace.io.result_pages_cache + trace.io.result_pages_disk;
        let expected: u64 = trace.queries.iter().map(|q| q.pages_total as u64).sum();
        prop_assert_eq!(total, expected);
        // Hit rate within [0, 1].
        prop_assert!((0.0..=1.0).contains(&trace.hit_rate()));
    }
}
