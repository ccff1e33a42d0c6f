//! Property tests for SCOUT's approximate graph construction, including
//! the CSR-vs-reference equivalence suite: the flat build must produce
//! identical vertex numbering, edge sets and component labels as the seed
//! adjacency-list implementation it replaced.

use proptest::prelude::*;
use scout_core::reference::ReferenceGraph;
use scout_core::ResultGraph;
use scout_geometry::{
    Aabb, Cylinder, ObjectAdjacency, ObjectId, QueryRegion, Shape, Simplification, SpatialObject,
    StructureId, UniformGrid, Vec3,
};

fn arb_objects() -> impl Strategy<Value = Vec<SpatialObject>> {
    prop::collection::vec(
        ((0.0..40.0, 0.0..40.0, 0.0..40.0), (-4.0..4.0, -4.0..4.0, -4.0..4.0)),
        1..80,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Grid hashing never connects objects farther apart than one cell
    /// diagonal (edges come from sharing a cell).
    #[test]
    fn edges_respect_cell_diameter(objects in arb_objects(), res in 8u32..40_000) {
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let (g, _) =
            ResultGraph::grid_hash(&objects, &ids, &region, res, Simplification::Segment);
        let grid = UniformGrid::with_resolution(*region.aabb(), res);
        let max_dist = grid.cell_diagonal() + 1e-9;
        for v in 0..g.vertex_count() as u32 {
            let a = &objects[g.object_id(v).index()];
            let seg_a = a.shape.axis_segment().expect("cylinders have axes");
            for &w in g.neighbors(v) {
                let b = &objects[g.object_id(w).index()];
                let seg_b = b.shape.axis_segment().expect("cylinders have axes");
                // Segment-to-segment distance lower bound via endpoints /
                // closest points: use the min over closest-point pairs.
                let d = seg_a
                    .closest_point(seg_b.a)
                    .distance(seg_b.a)
                    .min(seg_a.closest_point(seg_b.b).distance(seg_b.b))
                    .min(seg_b.closest_point(seg_a.a).distance(seg_a.a))
                    .min(seg_b.closest_point(seg_a.b).distance(seg_a.b));
                prop_assert!(
                    d <= max_dist,
                    "edge between objects {d:.3} apart; cell diagonal {max_dist:.3}"
                );
            }
        }
    }

    /// Coarser grids produce at least as many edges as finer grids
    /// (§4.2: excess edges from coarse resolutions).
    #[test]
    fn coarser_grids_do_not_lose_edges(objects in arb_objects()) {
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let (fine, _) =
            ResultGraph::grid_hash(&objects, &ids, &region, 32_768, Simplification::Segment);
        let (coarse, _) =
            ResultGraph::grid_hash(&objects, &ids, &region, 64, Simplification::Segment);
        prop_assert!(coarse.edge_count() + 2 >= fine.edge_count(),
            "coarse {} vs fine {}", coarse.edge_count(), fine.edge_count());
    }

    /// Component labels partition the vertices: every vertex gets exactly
    /// one label in [0, count).
    #[test]
    fn components_partition_vertices(objects in arb_objects()) {
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let (g, _) =
            ResultGraph::grid_hash(&objects, &ids, &region, 4_096, Simplification::Segment);
        let (comp, count) = g.components();
        prop_assert_eq!(comp.len(), g.vertex_count());
        for &c in &comp {
            prop_assert!((c as usize) < count);
        }
        // Edges stay within components.
        for v in 0..g.vertex_count() as u32 {
            for &w in g.neighbors(v) {
                prop_assert_eq!(comp[v as usize], comp[w as usize]);
            }
        }
    }

    /// Graph construction is deterministic.
    #[test]
    fn grid_hash_is_deterministic(objects in arb_objects()) {
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let (a, ua) =
            ResultGraph::grid_hash(&objects, &ids, &region, 4_096, Simplification::Segment);
        let (b, ub) =
            ResultGraph::grid_hash(&objects, &ids, &region, 4_096, Simplification::Segment);
        prop_assert_eq!(a.edge_count(), b.edge_count());
        prop_assert_eq!(ua.graph_edge_inserts, ub.graph_edge_inserts);
    }

    /// The CSR grid-hash build is equivalent to the seed adjacency-list
    /// build: identical vertex numbering, reverse index, edge sets,
    /// component labeling and charged work units.
    #[test]
    fn csr_grid_hash_matches_reference(objects in arb_objects(), res in 8u32..40_000) {
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let (g, gu) =
            ResultGraph::grid_hash(&objects, &ids, &region, res, Simplification::Segment);
        let (r, ru) =
            ReferenceGraph::grid_hash(&objects, &ids, &region, res, Simplification::Segment);
        assert_graphs_equal(&g, &r)?;
        prop_assert_eq!(gu.graph_object_inserts, ru.graph_object_inserts);
        prop_assert_eq!(gu.graph_edge_inserts, ru.graph_edge_inserts);
    }
}

/// Asserts the CSR graph and the reference graph are the same graph:
/// vertex numbering, reverse index, per-vertex edge sets, edge count and
/// component labeling.
fn assert_graphs_equal(g: &ResultGraph, r: &ReferenceGraph) -> Result<(), TestCaseError> {
    prop_assert_eq!(g.vertex_count(), r.vertex_count());
    prop_assert_eq!(g.edge_count(), r.edge_count());
    for v in 0..g.vertex_count() as u32 {
        prop_assert_eq!(g.object_id(v), r.object_id(v), "vertex {} renumbered", v);
        prop_assert_eq!(g.vertex_of(g.object_id(v)), Some(v));
        prop_assert_eq!(r.vertex_of(r.object_id(v)), Some(v));
        // Edge sets: the reference lists are in incidental insertion
        // order; sorted they must equal the canonical CSR rows.
        let mut expect = r.neighbors(v).to_vec();
        expect.sort_unstable();
        prop_assert_eq!(g.neighbors(v), &expect[..], "edge set of vertex {} differs", v);
    }
    // Absent objects resolve to no vertex in both.
    prop_assert_eq!(g.vertex_of(ObjectId(u32::MAX)), None);
    prop_assert_eq!(r.vertex_of(ObjectId(u32::MAX)), None);
    // Component labeling (ids assigned in first-encounter order) matches.
    let (gc, gn) = g.components();
    let (rc, rn) = r.components();
    prop_assert_eq!(gn, rn);
    prop_assert_eq!(gc, rc);
    Ok(())
}

/// Builds both graphs over every object and asserts they are the same
/// graph charging the same units.
fn assert_build_matches_reference(
    objects: &[SpatialObject],
    region: &QueryRegion,
    res: u32,
    simplification: Simplification,
) -> Result<ResultGraph, TestCaseError> {
    let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
    let (g, gu) = ResultGraph::grid_hash(objects, &ids, region, res, simplification);
    let (r, ru) = ReferenceGraph::grid_hash(objects, &ids, region, res, simplification);
    assert_graphs_equal(&g, &r)?;
    prop_assert_eq!(gu.graph_object_inserts, ru.graph_object_inserts);
    prop_assert_eq!(gu.graph_edge_inserts, ru.graph_edge_inserts);
    Ok(g)
}

fn cylinder(i: usize, a: Vec3, b: Vec3) -> SpatialObject {
    SpatialObject::new(
        ObjectId(i as u32),
        StructureId(0),
        Shape::Cylinder(Cylinder::new(a, b, 0.3, 0.3)),
    )
}

// The chain-pass assembly against the seed build, on the inputs that steer
// it: both `head` tables, vertices without cells, crowded cells, pairs of
// vertices that meet in several cells, and the explicit build's two-object
// cells.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// A small result is chained through the cell-indexed `head` up to
    /// 4 096 cells and through the open-addressed one beyond — at the
    /// default 32 768 cells and at 2³⁰, where a segment covers hundreds of
    /// cells and no histogram could be afforded.
    #[test]
    fn csr_grid_hash_matches_reference_under_both_head_tables(
        objects in arb_objects(),
        res in prop_oneof![
            8u32..4_097, 4_097u32..40_000, Just(32_768u32), Just(1u32 << 30)
        ],
    ) {
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        assert_build_matches_reference(&objects, &region, res, Simplification::Segment)?;
    }

    /// MBR-simplified objects whose box misses the region cover no cell: their
    /// rows are empty, wherever they sit in the result — last included,
    /// which reads the final offset.
    #[test]
    fn csr_grid_hash_matches_reference_with_boxes_outside_the_region(
        objects in arb_objects(), res in 8u32..40_000, lo in 5.0..20.0f64, side in 1.0..20.0f64,
    ) {
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::splat(lo), Vec3::splat(lo + side)));
        let g = assert_build_matches_reference(&objects, &region, res, Simplification::Mbr)?;
        for (v, o) in objects.iter().enumerate() {
            if !o.aabb().intersects(region.aabb()) {
                prop_assert!(g.neighbors(v as u32).is_empty(), "vertex {} has no cell", v);
            }
        }
    }

    /// One cell with more than 64 members is a clique, each pair found
    /// once; a few stragglers elsewhere keep it from being the whole graph.
    #[test]
    fn csr_grid_hash_matches_reference_in_a_crowded_cell(
        crowd in prop::collection::vec((0.0..4.9, 0.0..4.9, 0.0..4.9), 65..130),
        others in arb_objects(),
        res in prop_oneof![Just(512u32), Just(32_768u32)],
    ) {
        // Points in the first cell of the 8³ lattice (27 cells of the 32³).
        let mut objects: Vec<SpatialObject> = others;
        for (x, y, z) in crowd {
            let p = Vec3::new(x, y, z);
            objects.push(cylinder(objects.len(), p, p));
        }
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        assert_build_matches_reference(&objects, &region, res, Simplification::Segment)?;
    }

    /// Bundles of near-parallel segments share two to four cells with each
    /// other: every such pair must still be one edge.
    #[test]
    fn csr_grid_hash_matches_reference_when_vertices_share_several_cells(
        bundles in prop::collection::vec(
            ((2.0..30.0, 2.0..30.0, 2.0..30.0), (-9.0..9.0, -9.0..9.0, -9.0..9.0), 2usize..6),
            1..12,
        ),
        jitter in prop::collection::vec((-0.4..0.4, -0.4..0.4, -0.4..0.4), 60),
        res in prop_oneof![Just(512u32), Just(4_096u32), Just(32_768u32)],
    ) {
        let mut objects = Vec::new();
        for ((x, y, z), (dx, dy, dz), strands) in bundles {
            for _ in 0..strands {
                let j = jitter[objects.len() % jitter.len()];
                let a = Vec3::new(x + j.0, y + j.1, z + j.2);
                objects.push(cylinder(objects.len(), a, a + Vec3::new(dx, dy, dz)));
            }
        }
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let g = assert_build_matches_reference(&objects, &region, res, Simplification::Segment)?;
        // The family is what it claims: some pair of vertices meets in at
        // least two cells (checked on the coarse lattices, where a strand
        // spans a cell or two).
        if res == 512 {
            let grid = UniformGrid::with_resolution(*region.aabb(), res);
            let cells_of = |o: &SpatialObject| {
                let mut cells = Vec::new();
                grid.cells_for_simplified(&o.shape.simplified(Simplification::Segment), &mut cells);
                cells
            };
            let shared = (0..objects.len()).flat_map(|a| (0..a).map(move |b| (a, b))).any(|(a, b)| {
                let cb = cells_of(&objects[b]);
                cells_of(&objects[a]).iter().filter(|c| cb.contains(c)).count() >= 2
            });
            prop_assert!(shared || g.edge_count() == 0 || objects.len() < 4);
        }
    }

    /// The CSR explicit-adjacency build is equivalent to the seed build
    /// on random adjacencies and random result subsets. The adjacency is
    /// as untidy as a dataset's may be: entries listed on one end only,
    /// repeated entries and self-entries.
    #[test]
    fn csr_explicit_matches_reference(
        objects in arb_objects(),
        raw_edges in prop::collection::vec((0usize..80, 0usize..80), 0..160),
        keep_mask in prop::collection::vec(0u8..2, 80),
    ) {
        let n = objects.len();
        let mut lists: Vec<Vec<ObjectId>> = vec![Vec::new(); n];
        for (i, &(a, b)) in raw_edges.iter().enumerate() {
            let (a, b) = (a % n, b % n);
            lists[a].push(ObjectId(b as u32));
            // Every odd pair is listed on `a`'s end only, every fifth
            // twice there, and every seventh adds a self-entry.
            if i % 2 == 0 {
                lists[b].push(ObjectId(a as u32));
            }
            if i % 5 == 0 {
                lists[a].push(ObjectId(b as u32));
            }
            if i % 7 == 0 {
                lists[a].push(ObjectId(a as u32));
            }
        }
        let adj = ObjectAdjacency::from_lists(&lists);
        // A random result subset (never empty: keep object 0).
        let mut ids: Vec<ObjectId> = objects
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || keep_mask[*i % keep_mask.len()] == 1)
            .map(|(_, o)| o.id)
            .collect();
        ids.dedup();
        let (g, gu) = ResultGraph::from_explicit(&adj, &ids);
        let (r, ru) = ReferenceGraph::from_explicit(&adj, &ids);
        assert_graphs_equal(&g, &r)?;
        prop_assert_eq!(gu.graph_object_inserts, ru.graph_object_inserts);
        prop_assert_eq!(gu.graph_edge_inserts, ru.graph_edge_inserts);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A result dense enough for the cell-indexed `head` at the default
    /// resolution (≥ 8 192 pairs over 32 768 cells) — the `follow` side.
    #[test]
    fn csr_grid_hash_matches_reference_on_a_dense_result(
        raw in prop::collection::vec(
            ((0.0..40.0, 0.0..40.0, 0.0..40.0), (-2.5..2.5, -2.5..2.5, -2.5..2.5)),
            2_600..3_200,
        ),
    ) {
        let objects: Vec<SpatialObject> = raw
            .into_iter()
            .enumerate()
            .map(|(i, ((x, y, z), (dx, dy, dz)))| {
                let a = Vec3::new(x, y, z);
                cylinder(i, a, a + Vec3::new(dx, dy, dz))
            })
            .collect();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        assert_build_matches_reference(&objects, &region, 32_768, Simplification::Segment)?;
    }
}

/// The depth-first labeller union-find replaced, as it stood: labels in
/// first-encounter order over ascending vertex ids.
fn dfs_components(g: &ResultGraph) -> (Vec<u32>, usize) {
    let n = g.vertex_count();
    let mut comp = vec![u32::MAX; n];
    let mut stack = Vec::new();
    let mut next = 0u32;
    for v in 0..n as u32 {
        if comp[v as usize] != u32::MAX {
            continue;
        }
        comp[v as usize] = next;
        stack.push(v);
        while let Some(u) = stack.pop() {
            for &w in g.neighbors(u) {
                if comp[w as usize] == u32::MAX {
                    comp[w as usize] = next;
                    stack.push(w);
                }
            }
        }
        next += 1;
    }
    (comp, next as usize)
}

/// `components_into` — into a buffer holding an earlier graph's labels —
/// equals the DFS labeller label for label and in count.
fn assert_components_match_dfs(g: &ResultGraph) -> Result<(), TestCaseError> {
    let mut comp = vec![7; 3];
    let count = g.components_into(&mut comp);
    let (dfs, dfs_count) = dfs_components(g);
    prop_assert_eq!(count, dfs_count);
    prop_assert_eq!(comp, dfs);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Union-find labels equal the DFS's on grid builds, from a few
    /// crowded cells at coarse resolutions to scattered singletons at fine.
    #[test]
    fn components_match_the_dfs_labeller_on_grid_builds(
        objects in arb_objects(),
        res in prop_oneof![8u32..512, 512u32..40_000],
    ) {
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::ZERO, Vec3::splat(40.0)));
        let (g, _) = ResultGraph::grid_hash(&objects, &ids, &region, res, Simplification::Segment);
        assert_components_match_dfs(&g)?;
    }

    /// … and on explicit builds over random adjacencies and result subsets,
    /// where an edge may join any two vertices however far apart.
    #[test]
    fn components_match_the_dfs_labeller_on_explicit_builds(
        n in 1usize..120,
        raw_edges in prop::collection::vec((0usize..120, 0usize..120), 0..200),
        keep in prop::collection::vec(0u8..5, 120),
    ) {
        let mut lists: Vec<Vec<ObjectId>> = vec![Vec::new(); n];
        for &(a, b) in &raw_edges {
            let (a, b) = (a % n, b % n);
            if a != b {
                lists[a].push(ObjectId(b as u32));
            }
        }
        let ids: Vec<ObjectId> =
            (0..n).filter(|&i| i == 0 || keep[i] != 0).map(|i| ObjectId(i as u32)).collect();
        let (g, _) = ResultGraph::from_explicit(&ObjectAdjacency::from_lists(&lists), &ids);
        assert_components_match_dfs(&g)?;
    }
}

/// Vertices 0 and 3, and 1 and 4, are joined first; the edge 3–4 merges
/// the two sets only at vertex 4. A labeller that gives each vertex the
/// least label among its lower neighbours leaves vertex 1 on label 1 and
/// counts three components; there are two.
#[test]
fn a_late_edge_merges_two_earlier_components() {
    let lists: Vec<Vec<ObjectId>> = [&[3][..], &[4], &[], &[0, 4], &[1, 3]]
        .iter()
        .map(|l| l.iter().map(|&i| ObjectId(i)).collect())
        .collect();
    let ids: Vec<ObjectId> = (0..5).map(ObjectId).collect();
    let (g, _) = ResultGraph::from_explicit(&ObjectAdjacency::from_lists(&lists), &ids);
    let (comp, count) = g.components();
    assert_eq!((comp, count), (vec![0, 0, 1, 0, 0], 2));
    assert_components_match_dfs(&g).unwrap();
}
