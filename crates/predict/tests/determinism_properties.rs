//! Predictor determinism under the multi-session engine (ISSUE 5).
//!
//! Property 1 — schedule independence: a [`HybridPrefetcher`] fleet whose
//! sessions touch disjoint page sets produces byte-identical per-session
//! traces under the round-robin and the work-stealing
//! [`MultiSessionExecutor`] schedules (and across repeated round-robin runs).
//! The fixture makes disjointness structural, not statistical: one point
//! cluster per session, clusters 100 000 µm apart on the x axis, queries
//! and prefetch overshoot confined deep inside each cluster — so no page
//! of one session's cluster can ever appear in another session's results,
//! prefetch regions, or history predictions, and the only shared state is
//! the cache data structure itself (run eviction-free).
//!
//! Property 2 — seed isolation: re-seeding one session's hybrid
//! (`with_seed`) decorrelates *that* session without changing any other
//! session's trace bit-for-bit.
//!
//! Decorrelation itself is asserted separately on an ambiguous fixture
//! (a star of fibers with more exits than SCOUT has prefetch locations,
//! where SCOUT's seeded k-means actually chooses): different seeds must
//! produce different plans.

use proptest::prelude::*;
use scout_geometry::{
    Aspect, ObjectId, QueryRegion, Segment, Shape, SpatialObject, StructureId, Vec3,
};
use scout_index::{RTree, SpatialIndex};
use scout_predict::HybridPrefetcher;
use scout_sim::{
    MultiSessionConfig, MultiSessionExecutor, MultiSessionReport, Prefetcher, QueryScratch,
    Schedule, Session, SimContext,
};

/// Distance between cluster origins — far beyond any query or prefetch
/// overshoot, so page sets cannot couple sessions.
const CLUSTER_GAP: f64 = 100_000.0;
/// Points per cluster, along the local x axis at unit spacing.
const CLUSTER_POINTS: u32 = 400;

fn clustered_dataset(k: usize) -> Vec<SpatialObject> {
    let mut objects = Vec::with_capacity(k * CLUSTER_POINTS as usize);
    let mut id = 0u32;
    for c in 0..k {
        let base = c as f64 * CLUSTER_GAP;
        for i in 0..CLUSTER_POINTS {
            objects.push(SpatialObject::new(
                ObjectId(id),
                StructureId(c as u32),
                Shape::Point(Vec3::new(base + i as f64, 0.5, 0.5)),
            ));
            id += 1;
        }
    }
    objects
}

/// Session `c`'s stream: a short tour deep inside cluster `c`, revisited
/// `laps` times — history-heavy, far from the cluster edges.
fn cluster_stream(c: usize, laps: usize) -> Vec<QueryRegion> {
    let base = c as f64 * CLUSTER_GAP;
    let tour: Vec<QueryRegion> = (0..6)
        .map(|j| {
            QueryRegion::new(
                Vec3::new(base + 60.0 + j as f64 * 30.0, 0.5, 0.5),
                1_000.0,
                Aspect::Cube,
            )
        })
        .collect();
    let mut out = Vec::with_capacity(6 * laps);
    for _ in 0..laps {
        out.extend(tour.iter().copied());
    }
    out
}

fn fleet(seeds: &[u64], laps: usize) -> Vec<Session> {
    seeds
        .iter()
        .enumerate()
        .map(|(c, &seed)| {
            Session::new(c, Box::new(HybridPrefetcher::with_seed(seed)), cluster_stream(c, laps))
        })
        .collect()
}

fn run_fleet(
    objects: &[SpatialObject],
    tree: &RTree,
    schedule: Schedule,
    seeds: &[u64],
    laps: usize,
) -> MultiSessionReport {
    let bounds = scout_geometry::Aabb::new(
        Vec3::new(-10.0, 0.0, 0.0),
        Vec3::new(seeds.len() as f64 * CLUSTER_GAP, 1.0, 1.0),
    );
    let ctx = SimContext::new(objects, tree, bounds);
    let engine =
        MultiSessionExecutor::new(MultiSessionConfig { schedule, ..MultiSessionConfig::default() });
    engine.run(&ctx, fleet(seeds, laps))
}

/// The bit-level signature of one session's slice of a report: counts plus
/// the exact bits of every simulated-time quantity.
fn session_signature(report: &MultiSessionReport, id: usize) -> (usize, u64, u64, [u64; 4]) {
    let s = &report.sessions[id];
    assert_eq!(s.id, id);
    (
        s.queries,
        s.pages_total,
        s.pages_hit,
        [
            s.response_us.to_bits(),
            s.residual.p50.to_bits(),
            s.residual.p95.to_bits(),
            s.residual.p99.to_bits(),
        ],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round-robin and work-stealing schedules (widths 1/2/4) agree
    /// bit-for-bit per session, and round-robin is reproducible against
    /// itself.
    #[test]
    fn hybrid_fleet_traces_are_schedule_independent(
        seed in 0u64..u64::MAX,
        k in 2usize..5,
        laps in 2usize..4,
    ) {
        let objects = clustered_dataset(k);
        let tree = RTree::bulk_load_with_capacity(&objects, 8);
        let seeds: Vec<u64> = (0..k as u64).map(|i| seed ^ (i * 0x9E37)).collect();

        let rr = run_fleet(&objects, &tree, Schedule::RoundRobin, &seeds, laps);
        let rr2 = run_fleet(&objects, &tree, Schedule::RoundRobin, &seeds, laps);

        // Precondition for exact equality: the runs never evicted.
        prop_assert_eq!(rr.cache.evictions, 0);

        for id in 0..k {
            let a = session_signature(&rr, id);
            prop_assert_eq!(a, session_signature(&rr2, id), "round-robin not reproducible");
        }

        // The M:N work-stealing scheduler (ISSUE 7) extends the ladder:
        // every width preserves the per-session signatures, and width 1
        // additionally renders byte-identically to round-robin.
        for workers in [1usize, 2, 4] {
            let ws = run_fleet(
                &objects, &tree, Schedule::WorkStealing { workers }, &seeds, laps,
            );
            prop_assert_eq!(ws.cache.evictions, 0);
            for id in 0..k {
                prop_assert_eq!(
                    session_signature(&rr, id),
                    session_signature(&ws, id),
                    "work-stealing width {} diverged from round-robin on session {}",
                    workers,
                    id
                );
            }
            if workers == 1 {
                prop_assert_eq!(
                    rr.render(),
                    ws.render(),
                    "width-1 work-stealing must render byte-identically to round-robin"
                );
            }
        }

        // The fleets made real use of the cache (the property is not
        // vacuous): revisited laps hit prefetched pages.
        prop_assert!(rr.total_pages_hit() > 0);
    }

    /// Re-seeding session 1 must not change session 0's trace at all.
    #[test]
    fn reseeding_one_session_leaves_the_others_bit_identical(
        seed in 0u64..u64::MAX,
        other in 0u64..u64::MAX,
        laps in 2usize..4,
    ) {
        // Make sure session 1 really is re-seeded between the two fleets.
        let other = if other == seed ^ 1 { other.wrapping_add(1) } else { other };
        let objects = clustered_dataset(2);
        let tree = RTree::bulk_load_with_capacity(&objects, 8);

        let a = run_fleet(&objects, &tree, Schedule::RoundRobin, &[seed, seed ^ 1], laps);
        let b = run_fleet(&objects, &tree, Schedule::RoundRobin, &[seed, other], laps);
        prop_assert_eq!(
            session_signature(&a, 0),
            session_signature(&b, 0),
            "session 0's trace moved when session 1 was re-seeded"
        );
    }
}

/// Fibers of the star: more than SCOUT's eight prefetch locations.
const SPOKES: u32 = 13;

/// Fibers radiating from one point: a query there sees more exits than
/// SCOUT's eight prefetch locations, so the Broad strategy clusters them
/// with k-means seeded from SCOUT's RNG — the seeded choice that
/// `with_seed` is meant to decorrelate.
fn star_dataset() -> Vec<SpatialObject> {
    let mut objects = Vec::new();
    for fiber in 0..SPOKES {
        let angle = fiber as f64 * std::f64::consts::TAU / SPOKES as f64;
        let dir = Vec3::new(angle.cos(), angle.sin(), 0.0);
        let at = |step: usize| Vec3::new(100.0, 100.0, 50.0) + dir * (step as f64 * 2.0);
        for step in 0..40 {
            objects.push(SpatialObject::new(
                ObjectId(objects.len() as u32),
                StructureId(fiber),
                Shape::Segment(Segment::new(at(step), at(step + 1))),
            ));
        }
    }
    objects
}

#[test]
fn with_seed_decorrelates_the_ambiguous_choice() {
    let objects = star_dataset();
    let tree = RTree::bulk_load_with_capacity(&objects, 8);
    let bounds = scout_geometry::Aabb::new(Vec3::ZERO, Vec3::splat(200.0));
    let ctx = SimContext::new(&objects, &tree, bounds);

    // Plans from repeated queries at the hub, where k-means must group
    // the fibers' exits into eight clusters.
    let plan_centers = |seed: u64| -> Vec<(u64, u64, u64)> {
        let mut hybrid = HybridPrefetcher::with_seed(seed);
        hybrid.reset();
        let mut centers = Vec::new();
        let mut scratch = QueryScratch::new();
        for _ in 0..6 {
            let r = QueryRegion::new(Vec3::new(100.0, 100.0, 50.0), 8_000.0, Aspect::Cube);
            let result = tree.range_query(&objects, &r);
            hybrid.observe_with_scratch(&ctx, &r, &result, &mut scratch);
            for req in hybrid.plan(&ctx).requests {
                if let scout_sim::PrefetchRequest::Region(reg) = req {
                    let c = reg.center();
                    centers.push((c.x.to_bits(), c.y.to_bits(), c.z.to_bits()));
                }
            }
        }
        centers
    };

    // Reproducible per seed …
    let reference = plan_centers(11);
    assert!(!reference.is_empty(), "SCOUT planned nothing at the hub");
    assert_eq!(plan_centers(11), reference);
    // … and some seed in a small pool clusters the exits differently.
    let decorrelated = (12..24u64).any(|s| plan_centers(s) != reference);
    assert!(decorrelated, "no seed in the pool changed SCOUT's k-means choice");
}
