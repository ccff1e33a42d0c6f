//! The prediction half against its oracles.
//!
//! Exit detection, candidate continuity, exit scoring and k-means read a
//! per-query result frame and flat tables; the implementations they
//! replaced — which chase the dataset array per vertex, hash ids and
//! labels, and walk every exit's chain from scratch — live on in
//! `scout_core::reference`. Every property here asserts *bitwise*
//! equality between the two on random neuron and road beds, over full and
//! thinned results and every `Simplification`: the model outputs of a run
//! may not move by an ulp.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scout_core::candidates::CandidateTracker;
use scout_core::exits::{find_exits_into, Exit};
use scout_core::kmeans::kmeans;
use scout_core::scoring::{score_exits, ScoringScratch};
use scout_core::{reference, ResultFrame, ResultGraph, ScoutScratch};
use scout_geometry::{
    Aspect, ObjectAdjacency, ObjectId, QueryRegion, Segment, Shape, Simplification, SpatialObject,
    StructureId, Vec3,
};
use scout_index::{RTree, SpatialIndex};
use scout_sim::QueryScratch;
use scout_synth::{generate_neurons, generate_roads, Dataset, NeuronParams, RoadParams};
use std::collections::HashSet;
use std::sync::OnceLock;

struct Bed {
    dataset: Dataset,
    tree: RTree,
}

/// A neuron block (cylinders and somata, grid-hashed) and a road network
/// (segments with an explicit adjacency), built once.
fn beds() -> &'static [Bed; 2] {
    static BEDS: OnceLock<[Bed; 2]> = OnceLock::new();
    BEDS.get_or_init(|| {
        [
            // The benchmark bed's density (~0.04 objects per µm³) in a
            // block small enough to build in a debug test.
            generate_neurons(
                &NeuronParams { bounds_side: 120.0, ..NeuronParams::with_target_objects(60_000) },
                11,
            ),
            generate_roads(&RoadParams { grid_n: 40, ..Default::default() }, 12),
        ]
        .map(|dataset| {
            let tree = RTree::bulk_load_with_capacity(&dataset.objects, 32);
            Bed { dataset, tree }
        })
    })
}

/// One random query over one of the beds, its graph built and labeled,
/// the frame describing exactly its vertices.
struct Case {
    objects: &'static [SpatialObject],
    region: QueryRegion,
    simplification: Simplification,
    graph: ResultGraph,
    component_of: Vec<u32>,
    comp_count: usize,
    frame: ResultFrame,
    rng: SmallRng,
}

fn case(seed: u64) -> Case {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bed = &beds()[rng.random_range(0..2usize)];
    let objects = &bed.dataset.objects[..];
    // Centered on an object, so the result is never empty; sized for tens
    // to a few thousand result objects.
    let center = objects[rng.random_range(0..objects.len())].centroid();
    let side = bed.dataset.bounds.extent().x * rng.random_range(0.06..0.3);
    let region = QueryRegion::new(center, side * side * side, Aspect::Cube);
    let mut ids = bed.tree.range_query(objects, &region).objects;
    if rng.random_bool(0.5) {
        // A thinned result: the builds take any subset of the ids.
        let keep = rng.random_range(0.2..0.9);
        ids.retain(|_| rng.random_bool(keep));
    }
    let simplification = [Simplification::Point, Simplification::Segment, Simplification::Mbr]
        [rng.random_range(0..3usize)];

    let mut scratch = QueryScratch::new();
    let mut graph = ResultGraph::default();
    let frame = match &bed.dataset.adjacency {
        // The explicit build has no per-object loop: its caller gathers.
        Some(adjacency) if rng.random_bool(0.5) => {
            let mut frame = ResultFrame::default();
            frame.gather(objects, &ids, simplification);
            graph.build_explicit(&mut scratch, adjacency, &ids);
            frame
        }
        _ => {
            let resolution = [512, 4_096, 32_768][rng.random_range(0..3usize)];
            graph.build_grid_hash(&mut scratch, objects, &ids, &region, resolution, simplification);
            std::mem::take(&mut scratch.part::<ScoutScratch>().frame)
        }
    };
    let (component_of, comp_count) = graph.components();
    Case { objects, region, simplification, graph, component_of, comp_count, frame, rng }
}

impl Case {
    /// Exits of every component, through the hot path.
    fn exits(&mut self) -> Vec<Exit> {
        let mut exits = Vec::new();
        find_exits_into(
            &self.frame,
            &self.graph,
            &self.component_of,
            self.comp_count,
            &self.region,
            None,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut exits,
        );
        exits
    }
}

fn bits(v: Vec3) -> [u64; 3] {
    [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()]
}

fn exit_bits(e: &Exit) -> ([u64; 3], [u64; 3], u32, u32) {
    (bits(e.point), bits(e.dir), e.vertex, e.component)
}

/// Scores every exit through the hot path and through the oracle and
/// asserts equal bits and equal charged steps; returns the steps.
fn assert_scores_match(
    graph: &ResultGraph,
    objects: &[SpatialObject],
    center: Vec3,
    side: f64,
    movement: Option<Vec3>,
    exits: &[Exit],
    frame: &ResultFrame,
) -> Result<u64, TestCaseError> {
    let mut scoring = ScoringScratch::default();
    let centroids = &frame.centroids;
    let steps = score_exits(graph, centroids, center, side, movement, exits, &mut scoring);
    prop_assert_eq!(scoring.scores.len(), exits.len());
    let mut oracle_steps = 0u64;
    for (i, exit) in exits.iter().enumerate() {
        let oracle =
            reference::exit_score(graph, objects, center, side, movement, exit, &mut oracle_steps);
        let (score, index) = scoring.scores[i];
        prop_assert_eq!(index as usize, i);
        prop_assert_eq!(score.to_bits(), oracle.to_bits(), "exit {}: {} vs {}", i, score, oracle);
    }
    prop_assert_eq!(steps, oracle_steps);
    Ok(steps)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Exits read off the frame equal exits read off the dataset array:
    /// point, direction, vertex, component, order and traversal steps —
    /// under no filter and under a random component filter.
    #[test]
    fn exits_match_the_object_chasing_oracle(seed in 0u64..u64::MAX) {
        let mut c = case(seed);
        let filter: Option<Vec<bool>> = c
            .rng
            .random_bool(0.6)
            .then(|| (0..c.comp_count).map(|_| c.rng.random_bool(0.4)).collect());
        let filter_set: Option<HashSet<u32>> = filter
            .as_ref()
            .map(|flags| (0..c.comp_count as u32).filter(|&k| flags[k as usize]).collect());

        let mut exits = vec![Exit { point: Vec3::ZERO, dir: Vec3::ZERO, vertex: 9, component: 9 }];
        let steps = find_exits_into(
            &c.frame,
            &c.graph,
            &c.component_of,
            c.comp_count,
            &c.region,
            filter.as_deref(),
            &mut Vec::new(),
            &mut Vec::new(),
            &mut exits,
        );
        let (oracle, oracle_steps) = reference::find_exits(
            c.objects,
            &c.graph,
            &c.component_of,
            &c.region,
            filter_set.as_ref(),
            c.simplification,
        );
        prop_assert_eq!(steps, oracle_steps);
        prop_assert_eq!(
            exits.iter().map(exit_bits).collect::<Vec<_>>(),
            oracle.iter().map(exit_bits).collect::<Vec<_>>()
        );
    }

    /// Memoised chain walks score every exit exactly as walking each one
    /// from scratch over the dataset array does, and charge the same steps.
    #[test]
    fn scores_match_the_unmemoised_oracle(seed in 0u64..u64::MAX) {
        let mut c = case(seed);
        let exits = c.exits();
        let movement = c.rng.random_bool(0.7).then(|| {
            Vec3::new(
                c.rng.random_range(-1.0..1.0),
                c.rng.random_range(-1.0..1.0),
                c.rng.random_range(-1.0..1.0),
            )
            .normalized_or_x()
        });
        // The query center, or somewhere off it.
        let center = c.region.center() + Vec3::splat(c.rng.random_range(-0.3..0.3) * c.region.side());
        assert_scores_match(
            &c.graph, c.objects, center, c.region.side(), movement, &exits, &c.frame,
        )?;
    }

    /// Probing the graph's reverse index per previous exit (and the frame
    /// per prediction) flags exactly the components the hashing oracle
    /// collects, for the same charged steps.
    #[test]
    fn continuity_matches_the_hashing_oracle(seed in 0u64..u64::MAX) {
        let mut c = case(seed);
        let n = c.graph.vertex_count();
        let mut tracker = CandidateTracker::new();
        // Previous exits: some of this result's objects (shared-exit
        // continuity), some strangers, or none at all (gap continuity).
        let mut prev_ids: Vec<ObjectId> = Vec::new();
        if n > 0 && c.rng.random_bool(0.6) {
            for _ in 0..c.rng.random_range(1..12usize) {
                prev_ids.push(c.graph.object_id(c.rng.random_range(0..n as u32)));
            }
        }
        for _ in 0..c.rng.random_range(0..6usize) {
            prev_ids.push(ObjectId(c.rng.random_range(0..c.objects.len() as u32)));
        }
        // Predictions: on the result, just off it, or far away.
        let mut predictions: Vec<Vec3> = Vec::new();
        for _ in 0..c.rng.random_range(0..5usize) {
            let anchor = c.objects[c.rng.random_range(0..c.objects.len())].centroid();
            let on_result = n > 0 && c.rng.random_bool(0.7);
            let anchor = if on_result {
                c.frame.centroids[c.rng.random_range(0..n)]
            } else {
                anchor
            };
            predictions.push(anchor + Vec3::splat(c.rng.random_range(-2.0..2.0)));
        }
        if c.rng.random_bool(0.9) {
            tracker.commit_ids(prev_ids, &predictions);
        }
        let tolerance = c.rng.random_range(0.0..0.2) * c.region.side();

        let mut flags = vec![true; 3];
        let cont = tracker.continuing_components(
            &c.frame.centroids,
            &c.graph,
            &c.component_of,
            c.comp_count,
            tolerance,
            &mut flags,
        );
        let (oracle, oracle_steps) = reference::continuing_components(
            &tracker, c.objects, &c.graph, &c.component_of, tolerance,
        );
        prop_assert_eq!(flags.len(), c.comp_count);
        let flagged: HashSet<u32> =
            (0..c.comp_count as u32).filter(|&k| flags[k as usize]).collect();
        prop_assert_eq!(&flagged, &oracle);
        prop_assert_eq!(cont.components, oracle.len());
        prop_assert_eq!(cont.steps, oracle_steps);
    }

    /// Single-evaluation k-means clusters exit locations into exactly the
    /// oracle's clusters: same members, same centroid bits, same order —
    /// duplicates, exact ties and `k` beyond the point count included.
    #[test]
    fn kmeans_matches_the_double_evaluation_oracle(seed in 0u64..u64::MAX) {
        let mut c = case(seed);
        let mut points: Vec<Vec3> = c.exits().iter().map(|e| e.point).collect();
        for _ in 0..c.rng.random_range(0..40usize) {
            let p = c.frame.centroids[c.rng.random_range(0..c.graph.vertex_count())];
            points.push(p);
            if c.rng.random_bool(0.3) {
                points.push(p); // coinciding locations
            }
        }
        if c.rng.random_bool(0.3) {
            // A small integer lattice instead: points equidistant from two
            // centroids are the rule there, so the tie rule decides.
            points = (0..c.rng.random_range(3..30usize))
                .map(|_| {
                    let mut axis = || c.rng.random_range(0..4u32) as f64;
                    Vec3::new(axis(), axis(), axis())
                })
                .collect();
        }
        let k = c.rng.random_range(0..14usize);
        let iterations = c.rng.random_range(0..16usize);
        let kmeans_seed = c.rng.random::<u64>();
        let clusters = kmeans(&points, k, kmeans_seed, iterations);
        let oracle = reference::kmeans(&points, k, kmeans_seed, iterations);
        prop_assert_eq!(clusters.len(), oracle.len());
        for (a, b) in clusters.iter().zip(&oracle) {
            prop_assert_eq!(&a.members, &b.members);
            prop_assert_eq!(bits(a.centroid), bits(b.centroid));
        }
    }
}

/// A straight chain of `n` unit segments along x with its explicit
/// adjacency, fully inside a region whose +x face cuts the last segment.
fn chain(n: u32) -> (Vec<SpatialObject>, ResultGraph, ResultFrame, QueryRegion) {
    let objects: Vec<SpatialObject> = (0..n)
        .map(|i| {
            let a = Vec3::new(i as f64, 50.0, 50.0);
            let shape = Shape::Segment(Segment::new(a, a + Vec3::new(1.0, 0.0, 0.0)));
            SpatialObject::new(ObjectId(i), StructureId(0), shape)
        })
        .collect();
    let lists: Vec<Vec<ObjectId>> = (0..n)
        .map(|i| {
            [i.checked_sub(1), (i + 1 < n).then_some(i + 1)]
                .into_iter()
                .flatten()
                .map(ObjectId)
                .collect()
        })
        .collect();
    let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
    let mut frame = ResultFrame::default();
    frame.gather(&objects, &ids, Simplification::Segment);
    let mut graph = ResultGraph::default();
    graph.build_explicit(&mut QueryScratch::new(), &ObjectAdjacency::from_lists(&lists), &ids);
    // x spans [-0.5, n - 0.5]: the last segment crosses the +x face.
    let side = n as f64;
    let center = Vec3::new(side / 2.0 - 0.5, 50.0, 50.0);
    let region = QueryRegion::new(center, side * side * side, Aspect::Cube);
    (objects, graph, frame, region)
}

/// The exit of the chain's last segment, walked through both paths.
fn chain_walk_steps(n: u32) -> u64 {
    let (objects, graph, frame, region) = chain(n);
    let (component_of, comp_count) = graph.components();
    let mut exits = Vec::new();
    find_exits_into(
        &frame,
        &graph,
        &component_of,
        comp_count,
        &region,
        None,
        &mut Vec::new(),
        &mut Vec::new(),
        &mut exits,
    );
    assert_eq!(exits.len(), 1, "only the last segment crosses the boundary");
    assert_eq!(exits[0].vertex, n - 1);
    // The same exit twice: the second walk runs entirely off the memo.
    let exits = [exits[0], exits[0]];
    let steps =
        assert_scores_match(&graph, &objects, region.center(), region.side(), None, &exits, &frame)
            .unwrap();
    assert_eq!(steps % 2, 0);
    steps / 2
}

#[test]
fn memoised_walk_stops_at_the_24_vertex_cap() {
    // 40 segments: the walk stands on the end vertex (1 neighbor) and on
    // 23 interior ones (2 each), then stops with vertices to spare.
    assert_eq!(chain_walk_steps(40), 1 + 23 * 2);
    // Exactly 24 segments: the last scan the cap allows is the far end's,
    // which is also where the chain runs out.
    assert_eq!(chain_walk_steps(24), 1 + 22 * 2 + 1);
}

#[test]
fn memoised_walk_stops_at_dead_ends() {
    // 5 segments: 4 interior steps, then the far end scans its only
    // neighbor — where the walk came from — and stops.
    assert_eq!(chain_walk_steps(5), 1 + 3 * 2 + 1);
    // A lone segment has nowhere to go at all.
    assert_eq!(chain_walk_steps(1), 0);
}

/// A hand-built graph: one point object per centroid, `edges` as the
/// explicit adjacency, the frame gathered.
fn fixture(
    centroids: &[Vec3],
    edges: &[(u32, u32)],
) -> (Vec<SpatialObject>, ResultGraph, ResultFrame) {
    let objects: Vec<SpatialObject> = centroids
        .iter()
        .enumerate()
        .map(|(i, &c)| SpatialObject::new(ObjectId(i as u32), StructureId(0), Shape::Point(c)))
        .collect();
    let mut lists = vec![Vec::new(); centroids.len()];
    for &(a, b) in edges {
        lists[a as usize].push(ObjectId(b));
        lists[b as usize].push(ObjectId(a));
    }
    let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
    let mut frame = ResultFrame::default();
    frame.gather(&objects, &ids, Simplification::Segment);
    let mut graph = ResultGraph::default();
    graph.build_explicit(&mut QueryScratch::new(), &ObjectAdjacency::from_lists(&lists), &ids);
    (objects, graph, frame)
}

/// An exit at `vertex` whose walk sets off against `dir`.
fn exit_at(vertex: u32, dir: Vec3) -> Exit {
    Exit { point: Vec3::ZERO, dir, vertex, component: 0 }
}

/// Scores `exits` on the fixture through both paths (side 1, no movement)
/// and returns the hot path's scores.
fn fixture_scores(
    (objects, graph, frame): &(Vec<SpatialObject>, ResultGraph, ResultFrame),
    center: Vec3,
    exits: &[Exit],
) -> Vec<f64> {
    assert_scores_match(graph, objects, center, 1.0, None, exits, frame).unwrap();
    let mut scoring = ScoringScratch::default();
    score_exits(graph, &frame.centroids, center, 1.0, None, exits, &mut scoring);
    scoring.scores.iter().map(|&(s, _)| s).collect()
}

#[test]
fn walks_cross_coincident_centroids_along_plus_x() {
    // v1 and v2 share a centroid: the edge between them has no direction,
    // and both of its slots read +x. The walk from v0 runs +x into v1,
    // takes the zero-length edge (+x agrees), arrives at v2 along +x, must
    // not turn back to v1 (whose slot also reads +x), and so reaches v3
    // rather than v4 behind it. The walk from v3 comes down to v2 heading
    // -x and -y; v1's slot, +x, turns away from that, so it takes v4.
    let x = |x, y| Vec3::new(x, y, 0.0);
    let v = [x(0.0, 0.0), x(1.0, 0.0), x(1.0, 0.0), x(2.0, 1.0), x(0.0, 0.2)];
    let bed = fixture(&v, &[(0, 1), (1, 2), (2, 3), (2, 4)]);
    let from_v0 = exit_at(0, x(-1.0, 0.0));
    assert_eq!(fixture_scores(&bed, v[3], &[from_v0]), [-0.0], "the walk reaches v3");
    let from_v3 = exit_at(3, (v[3] - v[2]).normalized_or_x());
    assert_eq!(fixture_scores(&bed, v[4], &[from_v3]), [-0.0], "the walk reaches v4");
}

#[test]
fn equally_aligned_neighbours_go_to_the_first_slot() {
    // From v0 along +x, v1 and v2 are mirror images: their alignments are
    // the same bits. The first slot (v1) wins, so the walk never comes
    // near the center beside v4, at the end of v2's branch.
    let x = |x, y| Vec3::new(x, y, 0.0);
    let bed = fixture(
        &[x(0.0, 0.0), x(1.0, 1.0), x(1.0, -1.0), x(2.0, 2.0), x(2.0, -2.0)],
        &[(0, 1), (0, 2), (1, 3), (2, 4)],
    );
    let centroids = &bed.2.centroids;
    let align = |v: usize| (centroids[v] - centroids[0]).normalized_or_x().dot(x(1.0, 0.0));
    assert_eq!(align(1).to_bits(), align(2).to_bits(), "the fixture must tie");
    let center = x(2.0, -2.0);
    let scores = fixture_scores(&bed, center, &[exit_at(0, x(-1.0, 0.0))]);
    assert_eq!(scores, [-center.norm()], "the walk takes v1's branch");
}

#[test]
fn walks_enter_a_vertex_from_each_side() {
    // A chain v0 v1 v2 v3 v4 that bends at v2, and a spur v5 off v2 that
    // carries straight on from the left. Arriving at v2 from the left, the
    // walk turns into the spur; from the right it carries on to v1; down
    // the spur it turns to v1 too. Each walk runs twice, the second time
    // off the memo.
    let x = |x, y| Vec3::new(x, y, 0.0);
    let v = [x(0.0, 0.0), x(1.0, 0.0), x(2.0, 0.0), x(3.0, -1.0), x(4.0, -2.0), x(3.0, 0.2)];
    let bed = fixture(&v, &[(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)]);
    let out = |from: usize, to: usize| (v[to] - v[from]).normalized_or_x();
    let (left, right, spur) = (exit_at(0, out(1, 0)), exit_at(4, out(3, 4)), exit_at(5, out(2, 5)));
    let center = x(3.0, 1.0);
    let scores = fixture_scores(&bed, center, &[left, right, spur, left, right, spur]);
    let walked =
        |path: &[usize]| -path.iter().map(|&i| v[i].distance(center)).fold(f64::MAX, f64::min);
    assert_eq!(
        scores[..3],
        [walked(&[0, 1, 2, 5]), walked(&[4, 3, 2, 1, 0]), walked(&[5, 2, 1, 0])]
    );
    assert_ne!(scores[0], scores[1], "the two sides must part at v2");
    assert_eq!(scores[..3], scores[3..], "memoised walks score as fresh ones");
}

#[test]
fn kmeans_breaks_exact_ties_across_the_lane_block_boundary() {
    // Five sites on a line, twenty copies each, and the midpoints between
    // neighbouring sites: with `k` = 5, one past the assign step's
    // four-centroid block, k-means++ seeds the five sites in a random
    // order, and every midpoint is an exact tie between two of them — for
    // many seeds between centroid 3 (end of the first block) and centroid
    // 4 (the padded second block). The first centroid in order must win.
    let mut points: Vec<Vec3> = Vec::new();
    for site in 0..5 {
        points.extend(std::iter::repeat_n(Vec3::new(10.0 * site as f64, 0.0, 0.0), 20));
    }
    points.extend((0..4).map(|m| Vec3::new(10.0 * m as f64 + 5.0, 0.0, 0.0)));
    for seed in 0..256 {
        for iterations in [1, 12] {
            let clusters = kmeans(&points, 5, seed, iterations);
            let oracle = reference::kmeans(&points, 5, seed, iterations);
            assert_eq!(clusters.len(), oracle.len(), "seed {seed}");
            for (a, b) in clusters.iter().zip(&oracle) {
                assert_eq!(a.members, b.members, "seed {seed}, {iterations} iterations");
                assert_eq!(bits(a.centroid), bits(b.centroid), "seed {seed}");
            }
        }
    }
}
