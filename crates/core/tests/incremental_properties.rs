//! Property tests for incremental graph maintenance: over random
//! sliding-window query sequences — including forced fallbacks, session
//! resets, empty results, re-ordered results and lattice changes — the
//! incremental build must be **bit-identical** to a fresh full rebuild at
//! every step (vertices, reverse index, CSR adjacency, components, charged
//! work units), and the full rebuild is itself pinned to the seed
//! [`ReferenceGraph`] oracle.

use proptest::prelude::*;
use scout_core::reference::ReferenceGraph;
use scout_core::{FullBuildReason, GraphBuildKind, ResultGraph};
use scout_geometry::{
    Aabb, Cylinder, ObjectId, QueryRegion, Shape, Simplification, SpatialObject, StructureId, Vec3,
};
use scout_sim::{CpuUnits, QueryScratch};

fn arb_objects() -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec(
        ((0.0..40.0, 0.0..40.0, 0.0..40.0), (-4.0..4.0, -4.0..4.0, -4.0..4.0)),
        4..80,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), (dx, dy, dz)))| {
                let a = Vec3::new(x, y, z);
                SpatialObject::new(
                    ObjectId(i as u32),
                    StructureId(0),
                    Shape::Cylinder(Cylinder::new(a, a + Vec3::new(dx, dy, dz), 0.3, 0.3)),
                )
            })
            .collect()
    })
}

/// One step of a simulated query sequence.
#[derive(Debug, Clone)]
enum Step {
    /// Result window `[start, start + len)` over the id order (monotone
    /// retained order by construction).
    Window { start: usize, len: usize },
    /// A window with every `modulus`-th id dropped: still monotone, but
    /// consecutive thinned windows with different moduli renumber
    /// non-affinely, exercising the gather-map repair path.
    Thinned { start: usize, len: usize, modulus: usize },
    /// Same as `Window`, but reversed — retained objects re-ordered, must
    /// fall back.
    Reversed { start: usize, len: usize },
    /// Empty result set.
    Empty,
    /// Session reset: the incremental cache is invalidated.
    Reset,
    /// The query region (and with it the hashing lattice) moves.
    MoveRegion,
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // The vendored proptest stand-in has no weighted `prop_oneof`; the
    // sliding-window arm is repeated to bias sequences toward slides.
    let step = prop_oneof![
        (0usize..60, 1usize..40).prop_map(|(start, len)| Step::Window { start, len }),
        (0usize..60, 1usize..40).prop_map(|(start, len)| Step::Window { start, len }),
        (0usize..60, 1usize..40).prop_map(|(start, len)| Step::Window { start, len }),
        (0usize..60, 1usize..40).prop_map(|(start, len)| Step::Window { start, len }),
        (0usize..60, 4usize..40, 2usize..5).prop_map(|(start, len, modulus)| Step::Thinned {
            start,
            len,
            modulus
        }),
        (0usize..60, 4usize..40, 2usize..5).prop_map(|(start, len, modulus)| Step::Thinned {
            start,
            len,
            modulus
        }),
        (0usize..60, 2usize..40).prop_map(|(start, len)| Step::Reversed { start, len }),
        Just(Step::Empty),
        Just(Step::Reset),
        Just(Step::MoveRegion),
    ];
    prop::collection::vec(step, 1..12)
}

/// Asserts two [`ResultGraph`]s are the same graph, bit for bit.
fn assert_same_graph(g: &ResultGraph, f: &ResultGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.vertex_count(), f.vertex_count());
    prop_assert_eq!(g.edge_count(), f.edge_count());
    for v in 0..g.vertex_count() as u32 {
        prop_assert_eq!(g.object_id(v), f.object_id(v), "vertex {} renumbered", v);
        prop_assert_eq!(g.vertex_of(g.object_id(v)), Some(v));
        prop_assert_eq!(g.neighbors(v), f.neighbors(v), "row {} differs", v);
    }
    prop_assert_eq!(g.vertex_of(ObjectId(u32::MAX)), None);
    let (gc, gn) = g.components();
    let (fc, fn_) = f.components();
    prop_assert_eq!(gn, fn_);
    prop_assert_eq!(gc, fc);
    Ok(())
}

fn assert_same_units(a: &CpuUnits, b: &CpuUnits) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.graph_object_inserts, b.graph_object_inserts);
    prop_assert_eq!(a.graph_edge_inserts, b.graph_edge_inserts);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The master equivalence property: any interleaving of sliding
    /// windows, reorders, resets, empty results and lattice moves keeps
    /// the incremental graph bit-identical to a fresh full rebuild (and
    /// to the seed reference oracle).
    #[test]
    fn incremental_always_equals_full_rebuild(
        objects in arb_objects(),
        steps in arb_steps(),
        res in 64u32..40_000,
        threshold in 0.0f64..0.9,
    ) {
        let n = objects.len();
        let region_a = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let region_b = QueryRegion::from_aabb(Aabb::new(Vec3::splat(-1.0), Vec3::splat(41.0)));
        let mut region = region_a;
        let mut scratch = QueryScratch::new();
        let mut inc = ResultGraph::default();
        for step in steps {
            let ids: Vec<ObjectId> = match step {
                Step::Window { start, len } => {
                    let s = start % n;
                    (s..(s + len).min(n)).map(|i| ObjectId(i as u32)).collect()
                }
                Step::Thinned { start, len, modulus } => {
                    let s = start % n;
                    (s..(s + len).min(n))
                        .filter(|i| i % modulus != 0)
                        .map(|i| ObjectId(i as u32))
                        .collect()
                }
                Step::Reversed { start, len } => {
                    let s = start % n;
                    (s..(s + len).min(n)).rev().map(|i| ObjectId(i as u32)).collect()
                }
                Step::Empty => Vec::new(),
                Step::Reset => {
                    inc.invalidate_cache();
                    continue;
                }
                Step::MoveRegion => {
                    region = if region.aabb() == region_a.aabb() { region_b } else { region_a };
                    continue;
                }
            };
            let (units, _kind) = inc.build_grid_hash_incremental(
                &mut scratch,
                &objects,
                &ids,
                &region,
                res,
                Simplification::Segment,
                threshold,
            );
            let (full, full_units) =
                ResultGraph::grid_hash(&objects, &ids, &region, res, Simplification::Segment);
            assert_same_graph(&inc, &full)?;
            assert_same_units(&units, &full_units)?;
            let (reference, ref_units) =
                ReferenceGraph::grid_hash(&objects, &ids, &region, res, Simplification::Segment);
            prop_assert_eq!(inc.vertex_count(), reference.vertex_count());
            prop_assert_eq!(inc.edge_count(), reference.edge_count());
            assert_same_units(&units, &ref_units)?;
        }
    }

    /// High-overlap monotone slides under a fixed lattice actually take
    /// the incremental path (the property above would pass vacuously if
    /// every step fell back), and re-running the *same* window is a
    /// repair too.
    #[test]
    fn high_overlap_slides_take_the_incremental_path(
        objects in arb_objects(),
        res in 64u32..40_000,
    ) {
        let n = objects.len();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let mut scratch = QueryScratch::new();
        let mut inc = ResultGraph::default();
        let w = (n / 2).max(2);
        let advance = (w / 8).max(1); // ≥ 7/8 overlap per step
        let mut start = 0usize;
        let mut kinds = Vec::new();
        while start + w <= n {
            let ids: Vec<ObjectId> = (start..start + w).map(|i| ObjectId(i as u32)).collect();
            let (_, kind) = inc.build_grid_hash_incremental(
                &mut scratch, &objects, &ids, &region, res, Simplification::Segment, 0.5,
            );
            kinds.push(kind);
            start += advance;
        }
        prop_assert_eq!(kinds[0], GraphBuildKind::Full(FullBuildReason::Cold));
        for (i, k) in kinds.iter().enumerate().skip(1) {
            prop_assert_eq!(*k, GraphBuildKind::Incremental, "step {} fell back", i);
        }
        let stats = inc.cache_stats();
        prop_assert_eq!(stats.incremental_builds as usize, kinds.len() - 1);
        prop_assert_eq!(stats.full_builds(), 1);
    }
}

#[test]
fn fallback_reasons_are_reported() {
    let objects: Vec<SpatialObject> = (0..32)
        .map(|i| {
            SpatialObject::new(
                ObjectId(i),
                StructureId(0),
                Shape::Point(Vec3::new(i as f64, 5.0, 5.0)),
            )
        })
        .collect();
    let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
    let moved = QueryRegion::from_aabb(Aabb::new(Vec3::splat(0.5), Vec3::splat(40.5)));
    let mut scratch = QueryScratch::new();
    let mut g = ResultGraph::default();
    let window = |a: u32, b: u32| (a..b).map(ObjectId).collect::<Vec<_>>();
    let build = |g: &mut ResultGraph, scratch: &mut _, ids: &[ObjectId], r: &QueryRegion, t| {
        g.build_grid_hash_incremental(scratch, &objects, ids, r, 4096, Simplification::Point, t).1
    };

    // Cold cache → full.
    let k = build(&mut g, &mut scratch, &window(0, 16), &region, 0.5);
    assert_eq!(k, GraphBuildKind::Full(FullBuildReason::Cold));
    // Warm, high overlap → incremental.
    let k = build(&mut g, &mut scratch, &window(2, 18), &region, 0.5);
    assert_eq!(k, GraphBuildKind::Incremental);
    // Lattice moved → full.
    let k = build(&mut g, &mut scratch, &window(2, 18), &moved, 0.5);
    assert_eq!(k, GraphBuildKind::Full(FullBuildReason::GridChanged));
    // Low overlap → full.
    let k = build(&mut g, &mut scratch, &window(20, 30), &moved, 0.5);
    assert_eq!(k, GraphBuildKind::Full(FullBuildReason::LowOverlap));
    // Re-ordered retained objects → full.
    let mut rev = window(20, 30);
    rev.reverse();
    let k = build(&mut g, &mut scratch, &rev, &moved, 0.5);
    assert_eq!(k, GraphBuildKind::Full(FullBuildReason::Reordered));
    // Thresholds above 1.0 disable the delta path even on the identical
    // result set.
    let k = build(&mut g, &mut scratch, &rev, &moved, 1.1);
    assert_eq!(k, GraphBuildKind::Full(FullBuildReason::LowOverlap));
    // Session reset → cold again.
    g.invalidate_cache();
    let k = build(&mut g, &mut scratch, &rev, &moved, 0.5);
    assert_eq!(k, GraphBuildKind::Full(FullBuildReason::Cold));

    let stats = g.cache_stats();
    assert_eq!(stats.incremental_builds, 1);
    assert_eq!(stats.full_cold, 2);
    assert_eq!(stats.full_grid_changed, 1);
    assert_eq!(stats.full_low_overlap, 2);
    assert_eq!(stats.full_reordered, 1);
    assert_eq!(stats.total_builds(), 7);
}

#[test]
fn backward_slides_repair_correctly() {
    // A dense cluster so sliding windows share cells across the boundary
    // (touched retained rows whose entering neighbors renumber *below*
    // them — the merge path, not the concatenation fast path).
    let objects: Vec<SpatialObject> = (0..120)
        .map(|i| {
            SpatialObject::new(
                ObjectId(i),
                StructureId(0),
                Shape::Point(Vec3::new((i as f64) * 0.35, 5.0, 5.0)),
            )
        })
        .collect();
    let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(42.0)));
    let mut scratch = QueryScratch::new();
    let mut g = ResultGraph::default();
    // Forward then backward then forward slides, all high-overlap.
    for (start, len) in [(40u32, 60u32), (50, 60), (35, 60), (25, 60), (40, 60)] {
        let ids: Vec<ObjectId> = (start..start + len).map(ObjectId).collect();
        let (units, _) = g.build_grid_hash_incremental(
            &mut scratch,
            &objects,
            &ids,
            &region,
            512,
            Simplification::Point,
            0.3,
        );
        let (full, full_units) =
            ResultGraph::grid_hash(&objects, &ids, &region, 512, Simplification::Point);
        assert_eq!(units, full_units);
        for v in 0..full.vertex_count() as u32 {
            assert_eq!(g.neighbors(v), full.neighbors(v), "row {v} differs at window {start}");
            assert_eq!(g.object_id(v), full.object_id(v));
        }
    }
    assert_eq!(g.cache_stats().incremental_builds, 4, "{:?}", g.cache_stats());
}

#[test]
fn empty_results_round_trip_through_the_cache() {
    let objects: Vec<SpatialObject> = (0..8)
        .map(|i| {
            SpatialObject::new(
                ObjectId(i),
                StructureId(0),
                Shape::Point(Vec3::new(i as f64, 1.0, 1.0)),
            )
        })
        .collect();
    let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(10.0)));
    let mut scratch = QueryScratch::new();
    let mut g = ResultGraph::default();
    let ids: Vec<ObjectId> = (0..8).map(ObjectId).collect();
    // populated → empty → empty → populated, all through the incremental
    // entry point (two consecutive empty results count as full overlap).
    for (step, ids) in [&ids[..], &[], &[], &ids[..]].iter().enumerate() {
        let (units, _) = g.build_grid_hash_incremental(
            &mut scratch,
            &objects,
            ids,
            &region,
            512,
            Simplification::Point,
            0.5,
        );
        let (full, full_units) =
            ResultGraph::grid_hash(&objects, ids, &region, 512, Simplification::Point);
        assert_eq!(g.vertex_count(), full.vertex_count(), "step {step}");
        assert_eq!(g.edge_count(), full.edge_count(), "step {step}");
        assert_eq!(units, full_units, "step {step}");
    }
    // The empty → empty transition was a (degenerate) incremental repair.
    assert_eq!(g.cache_stats().incremental_builds, 1);
}

#[test]
fn memory_bytes_includes_the_incremental_cache() {
    let objects: Vec<SpatialObject> = (0..64)
        .map(|i| {
            SpatialObject::new(
                ObjectId(i),
                StructureId(0),
                Shape::Point(Vec3::new((i % 8) as f64, (i / 8) as f64, 1.0)),
            )
        })
        .collect();
    let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(10.0)));
    let ids: Vec<ObjectId> = (0..64).map(ObjectId).collect();
    let mut scratch = QueryScratch::new();

    // A graph built through the plain path holds no cache state…
    let mut plain = ResultGraph::default();
    plain.build_grid_hash(&mut scratch, &objects, &ids, &region, 512, Simplification::Point);
    assert_eq!(plain.cache_memory_bytes(), 0);

    // …while the incremental path's capture is part of memory_bytes: the
    // two graphs are identical, so the reported difference must be
    // exactly the persistent cache.
    let mut cached = ResultGraph::default();
    cached.build_grid_hash_incremental(
        &mut scratch,
        &objects,
        &ids,
        &region,
        512,
        Simplification::Point,
        0.5,
    );
    assert!(cached.cache_memory_bytes() > 0, "capture left no persistent state");
    assert_eq!(cached.memory_bytes() - cached.cache_memory_bytes(), plain.memory_bytes());
    // Invalidation keeps the buffers (capacity-based accounting).
    let before = cached.cache_memory_bytes();
    cached.invalidate_cache();
    assert_eq!(cached.cache_memory_bytes(), before);
}

#[test]
fn the_first_repair_after_a_full_build_derives_and_later_ones_do_not() {
    // A full build leaves one pair list in the cache; the repair after it
    // derives cell lists and runs from that (the cache grows, once), the
    // next repair finds them current, and every later full build → repair
    // transition — empty results included — derives again into buffers
    // that are already there.
    //
    // Five objects per 2.5-wide cell column, each crossing the y = 5 cell
    // boundary (two cells a vertex, every neighbour met twice); windows
    // slide by whole columns, so every populated result has the same
    // number of vertices, pairs and edges and no buffer ever needs to grow
    // for size alone.
    let objects: Vec<SpatialObject> = (0..80)
        .map(|i| {
            let a = Vec3::new(0.25 + i as f64 * 0.5, 4.0, 5.5);
            SpatialObject::new(
                ObjectId(i),
                StructureId(0),
                Shape::Cylinder(Cylinder::new(a, a + Vec3::new(0.0, 2.0, 0.0), 0.1, 0.1)),
            )
        })
        .collect();
    let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
    let window = |a: u32| (a..a + 60).map(ObjectId).collect::<Vec<_>>();
    let full = |r| GraphBuildKind::Full(r);
    let steps = [
        (window(0), full(FullBuildReason::Cold), false),
        (window(5), GraphBuildKind::Incremental, true),
        (window(15), GraphBuildKind::Incremental, false),
        (Vec::new(), full(FullBuildReason::LowOverlap), false),
        (Vec::new(), GraphBuildKind::Incremental, false),
        (window(15), full(FullBuildReason::LowOverlap), false),
        (window(20), GraphBuildKind::Incremental, false),
        (window(10), GraphBuildKind::Incremental, false),
    ];
    let mut scratch = QueryScratch::new();
    let mut g = ResultGraph::default();
    for (step, (ids, kind, grows)) in steps.iter().enumerate() {
        let before = g.cache_memory_bytes();
        let (units, got) = g.build_grid_hash_incremental(
            &mut scratch,
            &objects,
            ids,
            &region,
            4096,
            Simplification::Segment,
            0.5,
        );
        assert_eq!(got, *kind, "step {step}");
        let (fresh, fresh_units) =
            ResultGraph::grid_hash(&objects, ids, &region, 4096, Simplification::Segment);
        assert_same_graph(&g, &fresh).unwrap_or_else(|e| panic!("step {step}: {e}"));
        assert_eq!(units, fresh_units, "step {step}");
        assert_eq!(g.edge_count(), if ids.is_empty() { 0 } else { 120 }, "step {step}");
        let after = g.cache_memory_bytes();
        if step == 0 {
            assert!(after > 0, "the capture holds the pair list");
        } else {
            assert_eq!(after > before, *grows, "step {step}: cache {before} -> {after} bytes");
        }
    }
}
