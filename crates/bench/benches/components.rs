//! Criterion microbenchmarks of the core components: STR bulk loading,
//! R-tree range queries (cache-resident and cold) and nearest-page probes,
//! FLAT crawls, grid-hash graph building (whole, and its cell-walk kernel),
//! connected components, SCOUT's whole observe step, k-means, the
//! Hilbert curve, and the sharded cache's fleet-shaped traffic through its
//! owned and its shared handle.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use scout_core::kmeans::kmeans;
use scout_core::{ResultGraph, Scout, ScoutConfig};
use scout_geometry::hilbert::hilbert_index_3d;
use scout_geometry::intersect::shape_intersects_aabb;
use scout_geometry::{
    Aspect, QueryRegion, Segment, Shape, Simplification, Simplified, UniformGrid, Vec3,
};
use scout_index::{
    str_pack, FlatConfig, FlatIndex, KnnScratch, OrderedSpatialIndex, RTree, SpatialIndex,
};
use scout_sim::workloads::ADHOC_PATTERN;
use scout_sim::{Prefetcher, QueryScratch, SimContext};
use scout_storage::{PageCache, PageId, ShardedCache};
use scout_synth::{generate_neurons, generate_sequences, NeuronParams};
use std::hint::black_box;

/// The two halves of a served `follow` query in isolation, on a bed of the
/// benchmark's density (1.3 M neurons over the default tissue block — the
/// 60 k bed above is 20× sparser and fits in the last-level cache).
fn bench_follow_query(c: &mut Criterion) {
    let dataset = generate_neurons(&NeuronParams::with_target_objects(1_300_000), 42);
    let objects = &dataset.objects;
    let rtree = RTree::bulk_load_with_capacity(objects, 87);
    // Guided sequences as the workload issues them; flattened, they are a
    // tour of distinct regions all over the block.
    let tour: Vec<QueryRegion> = generate_sequences(&dataset, &ADHOC_PATTERN.sequence, 11, 7)
        .into_iter()
        .flat_map(|s| s.regions)
        .take(256)
        .collect();
    assert_eq!(tour.len(), 256);

    c.bench_function("rtree_range_query_cold", |b| {
        // 256 regions × ~8.7 k tested records of 88 bytes: ~200 MB touched
        // per lap, so no region finds its records cached from the last lap.
        let mut next = 0;
        b.iter(|| {
            next = (next + 1) % tour.len();
            black_box(rtree.range_query(objects, &tour[next]).objects.len())
        })
    });

    // The recorded result closest to the workload's mean size (4.3 k
    // objects): the bed of the three entries below.
    let (region, result) = tour
        .iter()
        .map(|r| (r, rtree.range_query(objects, r)))
        .min_by_key(|(_, res)| res.objects.len().abs_diff(4_300))
        .unwrap();
    assert!(result.objects.len().abs_diff(4_300) < 500, "{} objects", result.objects.len());

    c.bench_function("scout_observe_4k", |b| {
        // Observed over and over by one warmed prefetcher.
        let ctx = SimContext::new(objects, &rtree, dataset.bounds);
        let mut scout = Scout::with_defaults();
        scout.reset();
        let mut scratch = QueryScratch::new();
        b.iter(|| {
            let stats = scout.observe_with_scratch(&ctx, region, &result, &mut scratch);
            black_box((stats.candidates, scout.plan(&ctx).requests.len()))
        })
    });

    let config = ScoutConfig::default();

    c.bench_function("grid_hash_build_4k", |b| {
        // The graph build alone — what `observe` spends most of its time
        // in — warmed.
        let mut graph = ResultGraph::default();
        let mut scratch = QueryScratch::new();
        b.iter(|| {
            black_box(graph.build_grid_hash(
                &mut scratch,
                objects,
                &result.objects,
                region,
                config.grid_resolution,
                config.simplification,
            ))
        })
    });

    c.bench_function("grid_cells_for_segment_4k", |b| {
        // Pass 1's kernel alone: the cell walk over the same result's
        // neuron-sized segments on the region's 32³ lattice.
        let grid = UniformGrid::with_resolution(*region.aabb(), config.grid_resolution);
        let segments: Vec<Segment> = result
            .objects
            .iter()
            .filter_map(|o| match objects[o.index()].shape.simplified(config.simplification) {
                Simplified::Segment(seg) => Some(seg),
                _ => None, // a soma sphere simplifies to a point: no walk
            })
            .collect();
        assert!(segments.len() * 10 > result.objects.len() * 9, "{} segments", segments.len());
        b.iter(|| {
            let mut sum = 0u32;
            for seg in &segments {
                grid.for_each_segment_cell(seg, |c| sum = sum.wrapping_add(c));
            }
            black_box(sum)
        })
    });
}

fn bench_components(c: &mut Criterion) {
    let dataset = generate_neurons(&NeuronParams::with_target_objects(60_000), 42);
    let objects = &dataset.objects;
    let rtree = RTree::bulk_load_with_capacity(objects, 87);
    let flat = FlatIndex::bulk_load_with(objects, 87, FlatConfig::default());
    let center = dataset.bounds.center();
    let region = QueryRegion::new(center, 80_000.0, Aspect::Cube);
    let result = rtree.range_query(objects, &region);

    c.bench_function("str_pack_60k", |b| b.iter(|| black_box(str_pack(objects, 87).page_count())));

    c.bench_function("rtree_bulk_load_60k", |b| {
        b.iter(|| black_box(RTree::bulk_load_with_capacity(objects, 87).height()))
    });

    c.bench_function("rtree_range_query_80k_um3", |b| {
        b.iter(|| black_box(rtree.range_query(objects, &region).objects.len()))
    });

    c.bench_function("rtree_k_nearest_pages_16", |b| {
        let (mut knn, mut pages) = (KnnScratch::new(), Vec::new());
        b.iter(|| {
            rtree.k_nearest_pages_into(center, 16, &mut knn, &mut pages);
            black_box(pages.len())
        })
    });

    c.bench_function("capsule_predicate_boundary_mix", |b| {
        // Equal thirds of the cases the capsule predicate's tiers settle: an
        // endpoint inside the region, the bounding box clear of it, and
        // straddling its boundary. Only the last reach the distance kernel,
        // and in a real range query they are the minority.
        let aabb = region.aabb();
        let mut thirds: [Vec<&Shape>; 3] = Default::default();
        for o in objects {
            let Shape::Cylinder(cyl) = &o.shape else { continue };
            let class = if aabb.contains_point(cyl.a) || aabb.contains_point(cyl.b) {
                0
            } else if !cyl.aabb().intersects(aabb) {
                1
            } else {
                2
            };
            thirds[class].push(&o.shape);
        }
        let per_class = thirds.iter().map(Vec::len).min().unwrap();
        assert!(per_class > 0, "a class of the boundary mix is empty");
        let mix: Vec<&Shape> =
            (0..per_class).flat_map(|i| thirds.iter().map(move |t| t[i])).collect();
        b.iter(|| black_box(mix.iter().filter(|s| shape_intersects_aabb(s, aabb)).count()))
    });

    c.bench_function("flat_crawl_80k_um3", |b| {
        b.iter(|| black_box(flat.crawl_region(region.aabb(), center).len()))
    });

    c.bench_function("grid_hash_graph_build", |b| {
        b.iter(|| {
            let (g, _) = ResultGraph::grid_hash(
                objects,
                &result.objects,
                &region,
                32_768,
                Simplification::Segment,
            );
            black_box(g.edge_count())
        })
    });

    c.bench_function("connected_components", |b| {
        let (g, _) = ResultGraph::grid_hash(
            objects,
            &result.objects,
            &region,
            32_768,
            Simplification::Segment,
        );
        b.iter(|| black_box(g.components().1))
    });

    c.bench_function("kmeans_200_points_k8", |b| {
        let points: Vec<Vec3> = (0..200)
            .map(|i| {
                let f = i as f64;
                Vec3::new((f * 17.3) % 100.0, (f * 31.7) % 100.0, (f * 7.9) % 100.0)
            })
            .collect();
        b.iter_batched(
            || points.clone(),
            |p| black_box(kmeans(&p, 8, 7, 12).len()),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("hilbert_index_3d_order16", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for i in 0..64u32 {
                acc ^= hilbert_index_3d([i * 991, i * 577, i * 131], 16);
            }
            black_box(acc)
        })
    });
}

/// The `fleet` workload's cache traffic without the fleet: a 16 384-page
/// cache in 16 shards, 43-page queries. Per query, every page is
/// `access`ed, then each miss is probed with `contains` and `insert`ed, as
/// a served query and its window do. 256 sessions take turns, one query
/// each a round, and each walks 20 pages a query, so 23 of a query's pages
/// were inserted by the session's previous query one round ago and still
/// hit. One iteration is one query: divide by 43 for the cost of a page.
/// It drives `&ShardedCache`, the handle the benchmark's fleet loops use;
/// the owned cache reaches a shard through the same accessor.
fn bench_sharded_cache(c: &mut Criterion) {
    const PAGES_PER_QUERY: usize = 43;
    const SESSIONS: u32 = 256;
    const ROUNDS: u32 = 16;
    let stream: Vec<PageId> = (0..ROUNDS)
        .flat_map(|round| (0..SESSIONS).map(move |s| s * 512 + round * 20))
        .flat_map(|start| (start..start + PAGES_PER_QUERY as u32).map(PageId))
        .collect();
    let queries: Vec<&[PageId]> = stream.chunks_exact(PAGES_PER_QUERY).collect();

    fn replay<C: PageCache>(cache: &mut C, query: &[PageId], misses: &mut Vec<PageId>) -> usize {
        misses.clear();
        misses.extend(query.iter().copied().filter(|&p| !cache.access(p)));
        for &page in misses.iter() {
            if !cache.contains(page) {
                cache.insert(page);
            }
        }
        misses.len()
    }

    c.bench_function("sharded_cache_fleet_ops_shared", |b| {
        let cache = ShardedCache::new(16_384, 16);
        let (mut handle, mut next, mut misses) = (&cache, 0, Vec::new());
        b.iter(|| {
            next = (next + 1) % queries.len();
            replay(&mut handle, queries[next], &mut misses)
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sharded_cache, bench_components, bench_follow_query
}
criterion_main!(benches);
