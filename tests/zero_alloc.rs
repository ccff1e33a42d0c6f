//! Steady-state allocation accounting for the query hot path (ISSUE 3 +
//! ISSUE 4).
//!
//! The graph-build phase of `Session::step` — `ResultGraph::build_grid_hash`
//! / `build_explicit` plus component labelling against the stepping
//! thread's [`QueryScratch`] arena, which this test holds as one local —
//! must perform **zero** heap allocations once the
//! buffers have warmed to the workload: over a guided sweep of range-query
//! results, and over sliding full and thinned (every other object) result
//! windows on both sides of the chain pass's `head`-table switch. A
//! counting global allocator wraps the system allocator; after a warmup
//! tour over every query of the sequence, re-running the builds must leave
//! the counter untouched.
//!
//! The prediction half (ISSUE 13) is held to a small constant instead of
//! zero: a warmed `Scout::observe_with_scratch` allocates only the
//! `PrefetchPlan` it hands out, however large the result.
//!
//! The index calls under a served query (ISSUE 23) — `range_query_into`
//! and `pages_in_region_into` on the R-tree — are held to zero as well.
//!
//! SCOUT-OPT's gap crawl (§6.3) over a FLAT index is held to the same
//! small constant as SCOUT's prediction: it recycles its crawl buffers.
//!
//! A whole `Session::step` — serve, digest, window — with `NoPrefetch`
//! over a `PrefetchCache` allocates only when the session's trace grows
//! its query list: the serve and window buffers belong to the thread.
//!
//! Generating a neuron dataset is held to fewer allocations than one per
//! ten guide nodes: the guide's adjacency is one CSR array, not a list per
//! node.
//!
//! This binary holds exactly one `#[test]` on purpose: the counter is
//! process-global, so a concurrently running sibling test would pollute
//! the measured window.

use scout::core::ResultGraph;
use scout::geometry::{Aspect, ObjectAdjacency, QueryRegion, UniformGrid};
use scout::index::{RTree, SpatialIndex};
use scout::predict::HybridPrefetcher;
use scout::sim::{ExecutorConfig, NoPrefetch, Prefetcher, QueryScratch, Session, SimContext};
use scout_synth::{generate_neurons, NeuronParams};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc acquires memory too: growing a Vec in the measured
        // window must count.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn steady_state_graph_build_allocates_nothing() {
    // A small tissue block and a guided sweep of queries along it.
    let dataset = generate_neurons(
        &NeuronParams { neuron_count: 6, fiber_steps: 150, ..Default::default() },
        17,
    );
    let objects = &dataset.objects;
    let tree = RTree::bulk_load_with_capacity(objects, 16);
    let side = dataset.bounds.extent().x * 0.2;
    let regions: Vec<QueryRegion> = (0..6)
        .map(|i| {
            let t = (i as f64 + 0.5) / 6.0;
            let c = dataset.bounds.min + (dataset.bounds.max - dataset.bounds.min) * t;
            QueryRegion::new(c, side * side * side, Aspect::Cube)
        })
        .collect();
    let results: Vec<Vec<scout::geometry::ObjectId>> =
        regions.iter().map(|r| tree.range_query(objects, r).objects).collect();
    assert!(
        results.iter().any(|r| r.len() > 50),
        "fixture too sparse: results {:?}",
        results.iter().map(Vec::len).collect::<Vec<_>>()
    );
    // A synthetic explicit adjacency (chain within each fiber's id range).
    let lists: Vec<Vec<scout::geometry::ObjectId>> = (0..objects.len())
        .map(|i| {
            let mut l = Vec::new();
            if i > 0 {
                l.push(scout::geometry::ObjectId(i as u32 - 1));
            }
            if i + 1 < objects.len() {
                l.push(scout::geometry::ObjectId(i as u32 + 1));
            }
            l
        })
        .collect();
    let adjacency = ObjectAdjacency::from_lists(&lists);

    let mut scratch = QueryScratch::new();
    let mut graph = ResultGraph::default();

    // Warmup tour: every query once, both build paths, so every buffer
    // reaches the workload's high-water capacity.
    let resolution = 32_768;
    let simplification = scout::geometry::Simplification::Segment;
    for (region, ids) in regions.iter().zip(&results) {
        graph.build_grid_hash(&mut scratch, objects, ids, region, resolution, simplification);
        graph.components_into(&mut scratch.components);
        graph.build_explicit(&mut scratch, &adjacency, ids);
        graph.components_into(&mut scratch.components);
    }

    // Steady state: the same tour must not allocate at all.
    let before = allocations();
    for _ in 0..3 {
        for (region, ids) in regions.iter().zip(&results) {
            graph.build_grid_hash(&mut scratch, objects, ids, region, resolution, simplification);
            let n = graph.components_into(&mut scratch.components);
            std::hint::black_box(n);
            graph.build_explicit(&mut scratch, &adjacency, ids);
            let n = graph.components_into(&mut scratch.components);
            std::hint::black_box(n);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "graph-build phase allocated {} times in steady state",
        after - before
    );

    // --- Range scan and page walk (ISSUE 23) -------------------------------
    //
    // What a served query and a `Region` prefetch request ask of the index:
    // `range_query_into` and `pages_in_region_into` refill caller-owned
    // buffers, and the R-tree's mask walk keeps no stack of its own, so
    // once the buffers have held the sweep's largest result neither call
    // allocates.
    let mut result = scout::index::QueryResult::default();
    let mut pages = Vec::new();
    let index_tour = |result: &mut scout::index::QueryResult,
                      pages: &mut Vec<scout::storage::PageId>| {
        for (region, ids) in regions.iter().zip(&results) {
            tree.range_query_into(objects, region, result);
            assert_eq!(&result.objects, ids);
            tree.pages_in_region_into(region.aabb(), pages);
            assert_eq!(pages, &result.pages);
        }
    };
    index_tour(&mut result, &mut pages);
    let before = allocations();
    for _ in 0..3 {
        index_tour(&mut result, &mut pages);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "range scan and page walk allocated {} times in steady state",
        after - before
    );

    // --- Sliding windows, both `head` tables -------------------------------
    //
    // Result windows sliding along the tissue under one viewport: the full
    // windows stand for SCOUT's result sets, every-other-object subsets of
    // them for the thinner graphs a subset build gives. Each is built on a fine
    // lattice (more cells than 4 × pairs: the chain pass hashes cells into
    // its `head` table) and on a coarse one (`head` indexed by cell id).
    let all_ids: Vec<scout::geometry::ObjectId> = objects.iter().map(|o| o.id).collect();
    let n = all_ids.len();
    let w = n / 2;
    let advance = (w / 8).max(1);
    let full_windows: Vec<&[scout::geometry::ObjectId]> =
        (0..8).map(|k| &all_ids[k * advance..k * advance + w]).collect();
    let sparse_windows: Vec<Vec<scout::geometry::ObjectId>> = full_windows
        .iter()
        .map(|win| win.iter().copied().filter(|o| o.0 % 2 == 0).collect())
        .collect();
    let viewport = QueryRegion::from_aabb(dataset.bounds);
    let coarse = 512;
    for (res, direct) in [(resolution, false), (coarse, true)] {
        graph.build_grid_hash(
            &mut scratch,
            objects,
            full_windows[0],
            &viewport,
            res,
            simplification,
        );
        let cells = UniformGrid::with_resolution(*viewport.aabb(), res).cell_count() as usize;
        assert_eq!(
            cells <= scratch.cell_pairs.len().max(1024) * 4,
            direct,
            "resolution {res} is on the wrong side of the `head`-table switch: \
             {cells} cells, {} pairs",
            scratch.cell_pairs.len()
        );
    }

    let tour = |graph: &mut ResultGraph, scratch: &mut QueryScratch| {
        for (win, sparse) in full_windows.iter().zip(&sparse_windows) {
            for ids in [win, sparse.as_slice()] {
                for res in [resolution, coarse] {
                    graph.build_grid_hash(scratch, objects, ids, &viewport, res, simplification);
                    let c = graph.components_into(&mut scratch.components);
                    std::hint::black_box(c);
                }
            }
        }
    };
    tour(&mut graph, &mut scratch);
    let before = allocations();
    for _ in 0..3 {
        tour(&mut graph, &mut scratch);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "sliding-window graph builds allocated {} times in steady state",
        after - before
    );

    // --- Hybrid adaptive layer (ISSUE 5) -----------------------------------
    //
    // A steady-state Hybrid tour over a revisit loop: the observe path the
    // prediction subsystem adds on top of SCOUT — Markov model update,
    // coverage accounting + feedback, and the merged history prediction
    // (`HybridPrefetcher::digest_history`) — must perform zero allocations
    // once the model table (fixed at construction), the staging buffers
    // and the scratch extraction buffers have warmed. SCOUT's own plan
    // assembly allocates by design and is measured by the graph-build
    // sections above, so the steady-state window drives the adaptive layer
    // in isolation.
    let ctx = SimContext::new(objects, &tree, dataset.bounds);
    let query_results: Vec<scout::index::QueryResult> =
        regions.iter().map(|r| tree.range_query(objects, r)).collect();
    let mut hybrid = HybridPrefetcher::with_defaults();
    hybrid.reset();

    // Warmup: full observe + plan laps, so every buffer — SCOUT's, the
    // Markov extraction frontier, the staging vectors, the controller's
    // inputs — reaches the loop's high-water capacity.
    for _ in 0..4 {
        for (region, result) in regions.iter().zip(&query_results) {
            hybrid.observe_with_scratch(&ctx, region, result, &mut scratch);
            let plan = hybrid.plan(&ctx);
            std::hint::black_box(plan.requests.len());
        }
    }

    // Steady state: the adaptive layer alone, three more laps.
    let before = allocations();
    for _ in 0..3 {
        for result in &query_results {
            let work = hybrid.digest_history(&ctx, result, &mut scratch);
            std::hint::black_box(work);
        }
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "hybrid adaptive observe path allocated {} times in steady state",
        after - before
    );
    // And the measured laps exercised a live model and controller.
    assert!(hybrid.markov().transitions() > 0, "Markov model never trained");
    assert!(hybrid.controller().observations() >= 3 * regions.len() as u64);

    // --- Prediction half (ISSUE 13) ----------------------------------------
    //
    // The whole of `Scout::observe_with_scratch` — graph build, labeling,
    // candidate continuity, exit detection, exit scoring, k-means, plan
    // assembly, tracker commit — over the same sweep. The result frame
    // and the candidate flags live in the scratch arena, scores and
    // k-means buffers in the prefetcher's own recycled scoring arena, and
    // the chosen locations are written in place, so a warmed
    // query allocates only what it hands out: the `PrefetchPlan`'s request
    // vector. The count is a small constant per query (at most 4), and a
    // sweep whose results are twice as large allocates no more.
    use scout::core::Scout;
    let observe_sweep = |regions: &[QueryRegion], scratch: &mut QueryScratch| -> (u64, usize) {
        let results: Vec<scout::index::QueryResult> =
            regions.iter().map(|r| tree.range_query(objects, r)).collect();
        let mut scout = Scout::with_defaults();
        scout.reset();
        let lap = |scout: &mut Scout, scratch: &mut QueryScratch| {
            for (region, result) in regions.iter().zip(&results) {
                let stats = scout.observe_with_scratch(&ctx, region, result, scratch);
                let plan = scout.plan(&ctx);
                std::hint::black_box((stats.candidates, plan.requests.len()));
            }
        };
        for _ in 0..4 {
            lap(&mut scout, scratch);
        }
        let before = allocations();
        for _ in 0..3 {
            lap(&mut scout, scratch);
        }
        (allocations() - before, results.iter().map(|r| r.objects.len()).sum())
    };
    let (sweep_allocs, sweep_objects) = observe_sweep(&regions, &mut scratch);
    let queries = 3 * regions.len() as u64;
    assert!(
        sweep_allocs <= 4 * queries,
        "SCOUT's observe allocated {sweep_allocs} times over {queries} warmed queries"
    );
    let wide: Vec<QueryRegion> = regions.iter().map(|r| r.scaled(3.0)).collect();
    let (wide_allocs, wide_objects) = observe_sweep(&wide, &mut scratch);
    assert!(
        wide_objects >= 2 * sweep_objects,
        "the wide sweep is not wider: {wide_objects} vs {sweep_objects} result objects"
    );
    assert!(
        wide_allocs <= sweep_allocs,
        "allocations grew with the result size: {wide_allocs} over {wide_objects} objects \
         vs {sweep_allocs} over {sweep_objects}"
    );

    // --- SCOUT-OPT gap tour --------------------------------------------------
    //
    // The sweep's queries leave gaps between them (centers ≈ 0.29 of the
    // extent apart, sides 0.2), so over a FLAT index SCOUT-OPT crawls
    // through every gap (§6.3). The crawl's visited set, queue, page and
    // centroid lists live in the prefetcher, the result-page lookup is a
    // recycled sorted copy, and the crawl's seed probe searches in the
    // thread's k-NN scratch: a warmed query allocates only the plan it
    // hands out — the request vector, its gap-page list and the two series
    // the plan is assembled from, about four allocations a query (a crawl
    // that built its own buffers took about 32).
    use scout::core::ScoutOpt;
    use scout::index::{FlatConfig, FlatIndex};
    use scout::sim::PrefetchRequest;
    let flat = FlatIndex::bulk_load_with(objects, 16, FlatConfig::default());
    let flat_ctx = SimContext::new(objects, &flat, dataset.bounds).with_ordered(&flat);
    let flat_results: Vec<scout::index::QueryResult> =
        regions.iter().map(|r| flat.range_query(objects, r)).collect();
    let mut opt = ScoutOpt::with_defaults();
    opt.reset();
    let mut gap_plans = 0;
    let mut gap_lap = |opt: &mut ScoutOpt, scratch: &mut QueryScratch| {
        for (region, result) in regions.iter().zip(&flat_results) {
            let stats = opt.observe_with_scratch(&flat_ctx, region, result, scratch);
            let plan = opt.plan(&flat_ctx);
            gap_plans +=
                plan.requests.iter().any(|r| matches!(r, PrefetchRequest::GapPages(_))) as usize;
            std::hint::black_box((stats.candidates, plan.requests.len()));
        }
    };
    for _ in 0..4 {
        gap_lap(&mut opt, &mut scratch);
    }
    let before = allocations();
    for _ in 0..3 {
        gap_lap(&mut opt, &mut scratch);
    }
    let gap_allocs = allocations() - before;
    assert!(gap_plans >= 7 * 2, "the tour must cross gaps: {gap_plans} gap plans");
    assert!(
        gap_allocs <= 6 * queries,
        "SCOUT-OPT's gap tour allocated {gap_allocs} times over {queries} warmed queries"
    );

    // --- A whole step of the timeline ---------------------------------------
    //
    // `Session::step` with a prefetcher that predicts nothing: range query
    // into the thread's result buffer, demand reads, the empty window. Once
    // one pass over the stream has warmed the thread's buffers, a step
    // allocates exactly when the trace's query list outgrows its capacity.
    use scout::storage::PrefetchCache;
    let exec = ExecutorConfig::default();
    let stream: Vec<QueryRegion> = regions.iter().cycle().take(24).copied().collect();
    let mut session = Session::new(0, Box::new(NoPrefetch), stream);
    let mut cache = PrefetchCache::new(exec.cache_pages);
    session.begin(&exec, None);
    while session.step(&ctx, &mut cache, &exec) {}
    session.begin(&exec, None);
    assert!(session.step(&ctx, &mut cache, &exec));
    let (mut steps, mut growths, mut capacity) = (0, 0, session.trace().queries.capacity());
    let before = allocations();
    while session.step(&ctx, &mut cache, &exec) {
        steps += 1;
        let grown = session.trace().queries.capacity();
        growths += (grown != capacity) as u64;
        capacity = grown;
    }
    let step_allocs = allocations() - before;
    assert_eq!(steps, 23);
    assert!(growths > 0, "the measured steps never grew the trace");
    assert_eq!(
        step_allocs, growths,
        "{steps} warmed steps allocated {step_allocs} times; the trace grew {growths} times"
    );

    // --- Batch queue steady state (ISSUE 9) --------------------------------
    //
    // One round of the batched I/O lane — stage a phase's pages (unique
    // misses, coalesced duplicates, and window requests),
    // submit in elevator order, fan outcomes back out, recycle — must
    // allocate nothing once the slot/waiter/outcome buffers and the
    // single-flight page table have warmed to the phase's high-water
    // occupancy.
    use scout::storage::{DiskModel, DiskProfile, IoBatcher, PageId};
    let mut batcher = IoBatcher::new(DiskModel::new(DiskProfile::default()));
    let mut fetched: Vec<(PageId, Result<f64, scout::storage::FailedRead>)> = Vec::new();
    let mut slots: Vec<u32> = Vec::new();
    let round = |batcher: &mut IoBatcher,
                 slots: &mut Vec<u32>,
                 fetched: &mut Vec<(PageId, Result<f64, scout::storage::FailedRead>)>,
                 epoch: u64| {
        slots.clear();
        // Staged in descending order so the elevator sort does real work;
        // every page staged twice, so the coalescing table fans out.
        for p in (0..96u32).rev() {
            let (slot, _) = batcher.stage(PageId(p));
            slots.push(slot);
            let (dup, coalesced) = batcher.stage(PageId(p));
            assert_eq!(dup, slot);
            assert!(coalesced);
        }
        for p in 96..128u32 {
            assert!(batcher.try_stage(PageId(p), p, p.is_multiple_of(2)));
        }
        let io_us = batcher.submit(1, epoch);
        std::hint::black_box(io_us);
        batcher.copy_outcomes(slots, fetched);
        assert_eq!(fetched.len(), 96);
        batcher.begin_phase();
    };
    round(&mut batcher, &mut slots, &mut fetched, 0);
    let before = allocations();
    for epoch in 1..4u64 {
        round(&mut batcher, &mut slots, &mut fetched, epoch);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "batch-queue round allocated {} times in steady state",
        after - before
    );
    let report = batcher.report();
    assert_eq!(report.batches, 4);
    assert_eq!(report.unique_pages, 4 * 128);
    assert_eq!(report.coalesced, 4 * 96);

    // --- Telemetry recording steady state -----------------------------------
    //
    // The armed hot path — wall-clock spans into the shared registry and
    // flight-recorder event records — must allocate nothing in steady
    // state: histograms are fixed-size atomics by construction, and the
    // event ring pre-allocates its capacity and overwrites in place once
    // it has wrapped.
    use scout::telemetry::{Event, FlightRecorder, HistogramId, MetricsRegistry, SpanTimer};
    let registry = MetricsRegistry::new();
    let mut ring = FlightRecorder::with_capacity(7, 64);
    // Warmup: wrap the ring once, so every later record is an overwrite.
    for i in 0..96u32 {
        ring.record(i as f64, Event::QueryServed { query: i, pages: 3, hits: 1, failed: false });
    }
    let before = allocations();
    for i in 0..1_000u64 {
        {
            // Timed the way a session times its serve sub-phase.
            let _span = SpanTimer::start(registry.histogram(HistogramId::SpanServeUs));
            ring.record(i as f64, Event::WindowOpened { budget_us: i as f64 });
        }
        ring.record(i as f64, Event::WindowClosed { prefetched: (i % 4) as u32, gaps: 0 });
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "telemetry recording allocated {} times in steady state",
        after - before
    );
    assert!(ring.dropped() > 0, "the ring must have wrapped during the tour");

    // --- Guide graph bookkeeping --------------------------------------------
    //
    // Not a steady state but a budget: a generator grows its guide skeleton
    // into two flat lists and scatters them into CSR rows once, so the
    // allocations of a whole generation scale with its fiber subtrees, not
    // with its guide nodes. Per-node adjacency lists would take about one
    // block per node.
    let before = allocations();
    let tissue = generate_neurons(&NeuronParams { neuron_count: 8, ..Default::default() }, 23);
    let blocks = allocations() - before;
    let nodes = tissue.guide.node_count() as u64;
    assert!(
        blocks * 10 < nodes,
        "generating {nodes} guide nodes allocated {blocks} blocks, not fewer than one per ten"
    );
}
