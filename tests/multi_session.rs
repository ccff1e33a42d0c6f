//! Acceptance tests of the multi-session engine: round-robin determinism
//! and cross-session cache sharing; byte-identity with round-robin at
//! every fleet width, under eviction pressure too; and fleet edge cases.

mod common;

use common::{bed_and_streams, chaos_matrix_seed, fnv1a, scout_sessions, WORKLOAD_SEED};
use scout::prelude::*;
use scout::sim::{QueryScratch, QueryTrace};
use scout_synth::{generate_sequences, SequenceParams};

/// An eviction-free executor config: the shared cache holds the whole
/// dataset and the window is generous, which makes cache membership per
/// round the union of all sessions' prefetches — the precondition for
/// order-independent totals (DESIGN.md §5).
fn ample_config(bed: &TestBed, shards: usize, schedule: Schedule) -> MultiSessionConfig {
    MultiSessionConfig {
        exec: ExecutorConfig {
            window_ratio: 8.0,
            cache_pages: bed.rtree.layout().page_count(),
            ..ExecutorConfig::default()
        },
        shards,
        schedule,
        ..Default::default()
    }
}

/// The digest of a fleet's render followed by its disk-busy bits.
fn report_digest(report: &MultiSessionReport) -> u64 {
    let busy = report.disk_busy_us.to_bits().to_le_bytes();
    fnv1a(report.render().bytes().chain(busy))
}

/// `ample_config` squeezed until the cache evicts and windows bind: 24
/// cache pages and a window ratio of 1.6.
fn pressure_config(bed: &TestBed, schedule: Schedule, batched: bool) -> MultiSessionConfig {
    let mut config = ample_config(bed, 8, schedule);
    config.exec.window_ratio = 1.6;
    config.exec.cache_pages = 24;
    config.batch = BatchPlan { enabled: batched };
    config
}

#[test]
fn round_robin_is_deterministic_byte_for_byte() {
    let (bed, streams) = bed_and_streams(4, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let engine = MultiSessionExecutor::new(ample_config(&bed, 8, Schedule::RoundRobin));
    let a = engine.run(&ctx, scout_sessions(&streams)).render();
    let b = engine.run(&ctx, scout_sessions(&streams)).render();
    assert_eq!(a, b, "two round-robin runs with the same seed diverged");
}

#[test]
fn sessions_following_the_same_structure_share_the_cache() {
    // Two clients on the *same* fiber: a SCOUT leader and a rider that
    // never prefetches. With a private cache the rider hits nothing; over
    // the shared cache it rides the leader's prefetches.
    let (bed, streams) = bed_and_streams(1, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let shared_stream = streams[0].clone();

    let engine = MultiSessionExecutor::new(ample_config(&bed, 8, Schedule::RoundRobin));
    let sessions = vec![
        Session::new(0, Box::new(Scout::with_defaults()), shared_stream.clone()),
        Session::new(1, Box::new(NoPrefetch), shared_stream.clone()),
    ];
    let shared = engine.run(&ctx, sessions);

    // Private baseline: the rider alone never hits.
    let engine = MultiSessionExecutor::new(ample_config(&bed, 8, Schedule::RoundRobin));
    let private =
        engine.run(&ctx, vec![Session::new(1, Box::new(NoPrefetch), shared_stream.clone())]);
    assert_eq!(private.sessions[0].pages_hit, 0, "a lone NoPrefetch client cannot hit");

    let rider = &shared.sessions[1];
    assert!(rider.pages_hit > 0, "rider should have been served from the leader's prefetches");
    // And the leader loses nothing: its own hits match a solo run.
    let engine = MultiSessionExecutor::new(ample_config(&bed, 8, Schedule::RoundRobin));
    let solo_leader = engine
        .run(&ctx, vec![Session::new(0, Box::new(Scout::with_defaults()), shared_stream.clone())]);
    assert_eq!(shared.sessions[0].pages_hit, solo_leader.sessions[0].pages_hit);
}

#[test]
fn report_exposes_percentiles_and_cache_stats() {
    let (bed, streams) = bed_and_streams(3, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let engine = MultiSessionExecutor::new(ample_config(&bed, 4, Schedule::RoundRobin));
    let report = engine.run(&ctx, scout_sessions(&streams));

    assert_eq!(report.sessions.len(), 3);
    for s in &report.sessions {
        assert!(s.residual.p50 <= s.residual.p95);
        assert!(s.residual.p95 <= s.residual.p99);
        assert!(s.queries > 0);
    }
    assert!(report.cache.accesses() > 0, "shared cache saw no traffic");
    assert!(report.cache.insertions > 0, "nothing was prefetched");
    assert!(report.disk_busy_us > 0.0);
    let rendered = report.render();
    assert!(rendered.contains("p99"));
    assert!(rendered.contains("shared cache"));
}

// ---------------------------------------------------------------------------
// ISSUE 7: the M:N work-stealing scheduler
// ---------------------------------------------------------------------------

#[test]
fn work_stealing_totals_match_round_robin_at_every_width() {
    // Width picks only which thread runs a range query or a prediction;
    // every cache, disk and clock operation runs on the caller in slot
    // order. So every width renders round-robin's bytes and its disk-busy
    // bits, with ample capacity and under eviction pressure alike.
    let (bed, streams) = bed_and_streams(8, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let ample = ample_config(&bed, 8, Schedule::RoundRobin);
    let pressure = pressure_config(&bed, Schedule::RoundRobin, false);
    for (config, evicts) in [(ample, false), (pressure, true)] {
        let rr = MultiSessionExecutor::new(config).run(&ctx, scout_sessions(&streams));
        assert_eq!(rr.cache.evictions > 0, evicts, "precondition violated: {:?}", rr.cache);
        for workers in [1, 2, 4, 8] {
            let schedule = Schedule::WorkStealing { workers };
            let ws = MultiSessionExecutor::new(MultiSessionConfig { schedule, ..config })
                .run(&ctx, scout_sessions(&streams));
            let at = format!("width {workers}, cache_pages {}", config.exec.cache_pages);
            assert_eq!(ws.render(), rr.render(), "{at}");
            assert_eq!(ws.disk_busy_us.to_bits(), rr.disk_busy_us.to_bits(), "{at}");
            assert_eq!(ws.cache, rr.cache, "{at}");
            let sched = ws.scheduler.expect("work-stealing runs attach scheduler counters");
            assert_eq!(sched.rounds, 8, "{at}");
        }
    }
}

#[test]
fn concurrent_wide_fleets_share_nothing() {
    // Two OS threads each run a width-2 fleet over the same bed at the
    // same time (the barrier releases them together), under eviction
    // pressure. A fleet owns its cache, pool and helper threads, so each
    // must replay its own streams' width-1 run byte for byte — render,
    // disk-busy bits and every scheduler count but the helpers' steps.
    let (bed, streams) = bed_and_streams(8, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let run = |streams: &[Vec<scout::geometry::QueryRegion>], workers| {
        let config = pressure_config(&bed, Schedule::WorkStealing { workers }, false);
        let report = MultiSessionExecutor::new(config).run(&ctx, scout_sessions(streams));
        assert!(report.cache.evictions > 0, "precondition violated: width-{workers} never evicted");
        let sched = report.scheduler.expect("work-stealing runs attach scheduler counters");
        let sched = SchedulerReport { workers: 0, steals: 0, ..sched };
        (report.render(), report.disk_busy_us.to_bits(), sched)
    };
    let halves = [&streams[..5], &streams[3..]];
    let together = std::sync::Barrier::new(halves.len());
    let wide = std::thread::scope(|scope| {
        let fleets = halves.map(|half| {
            scope.spawn(|| {
                together.wait();
                run(half, 2)
            })
        });
        fleets.map(|fleet| fleet.join().expect("a concurrent fleet panicked"))
    });
    for (half, wide) in halves.iter().zip(wide) {
        assert_eq!(wide, run(half, 1));
    }
}

#[test]
fn work_stealing_width1_is_byte_identical_to_round_robin() {
    // The width-1 oracle holds even under eviction pressure — a cache far
    // smaller than the dataset — because it runs the exact round-robin
    // interleaving, not merely an equivalent one.
    let (bed, streams) = bed_and_streams(5, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let pressure = pressure_config(&bed, Schedule::RoundRobin, false);
    for config in [ample_config(&bed, 8, Schedule::RoundRobin), pressure] {
        let rr = MultiSessionExecutor::new(config).run(&ctx, scout_sessions(&streams));
        let mut ws_config = config;
        ws_config.schedule = Schedule::WorkStealing { workers: 1 };
        let ws = MultiSessionExecutor::new(ws_config).run(&ctx, scout_sessions(&streams));
        assert_eq!(
            rr.render(),
            ws.render(),
            "width-1 M:N diverged from round-robin (cache_pages = {})",
            config.exec.cache_pages
        );
        assert_eq!(rr.disk_busy_us.to_bits(), ws.disk_busy_us.to_bits());
    }
}

#[test]
fn width_one_under_pressure_replays_its_pinned_digest() {
    // The width-1 fleet's exact bytes under eviction pressure, unbatched
    // and batched: a change to how the round engine orders its work that
    // moves one probe, promotion, insert or clock advance moves these.
    // Wider fleets replay them.
    let (bed, streams) = bed_and_streams(5, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    for (batched, pinned) in [(false, 0x253a_dbb6_5c45_6389), (true, 0x886a_462a_9213_61b1)] {
        let mut schedules = vec![Schedule::RoundRobin];
        schedules.extend([2, 4].map(|workers| Schedule::WorkStealing { workers }));
        for schedule in schedules {
            let config = pressure_config(&bed, schedule, batched);
            let report = MultiSessionExecutor::new(config).run(&ctx, scout_sessions(&streams));
            assert!(report.cache.evictions > 0, "precondition violated: the cache never evicted");
            let digest = report_digest(&report);
            assert_eq!(digest, pinned, "{schedule:?}, batched = {batched}: {digest:#x}");
        }
    }
}

#[test]
fn every_width_equals_a_loop_over_the_shared_handle() {
    // The engine splits each serve into passes and runs its pure ones on
    // helper threads. A serve-all/finish-all loop of whole steps over
    // `&ShardedCache` on one thread must see the same cache at every
    // width: under eviction pressure, where any difference in a probe, a
    // promotion or an insert moves who hits, every session's accounting
    // and the cache's counters are equal bit for bit.
    let (bed, streams) = bed_and_streams(5, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let config = pressure_config(&bed, Schedule::RoundRobin, false);
    let exec = &config.exec;

    let cache = ShardedCache::new(exec.cache_pages, config.shards);
    let clock = SharedClock::new();
    let mut sessions = scout_sessions(&streams);
    for session in &mut sessions {
        session.begin(exec, Some(clock.clone()));
    }
    let mut active: Vec<usize> = (0..sessions.len()).collect();
    while !active.is_empty() {
        for &i in &active {
            sessions[i].serve_observe(&ctx, &mut &cache, exec);
        }
        for &i in &active {
            sessions[i].finish_window(&ctx, &mut &cache, exec);
        }
        active.retain(|&i| !sessions[i].is_done());
    }
    let bits = |p: LatencyPercentiles| [p.p50, p.p95, p.p99].map(f64::to_bits);
    let looped: Vec<_> = sessions
        .iter()
        .map(|s| {
            let trace = s.trace();
            let residuals: Vec<f64> = trace.queries.iter().map(|q| q.residual_us).collect();
            let response = trace.total_response_us().to_bits();
            (s.id(), trace.io.result_pages_cache, bits(percentiles(&residuals)), response)
        })
        .collect();
    assert!(cache.stats().evictions > 0, "precondition violated: the cache never evicted");

    let mut schedules = vec![Schedule::RoundRobin];
    schedules.extend([1, 2, 4].map(|workers| Schedule::WorkStealing { workers }));
    for schedule in schedules {
        let engine = MultiSessionExecutor::new(MultiSessionConfig { schedule, ..config });
        let report = engine.run(&ctx, scout_sessions(&streams));
        let engine: Vec<_> = report
            .sessions
            .iter()
            .map(|s| (s.id, s.pages_hit, bits(s.residual), s.response_us.to_bits()))
            .collect();
        assert_eq!(engine, looped, "{schedule:?}: per-session accounting diverged");
        assert_eq!(report.cache, cache.stats(), "{schedule:?}: cache counters diverged");
        assert_eq!(report.disk_busy_us.to_bits(), clock.now_us().to_bits(), "{schedule:?}");
    }
}

#[test]
fn fleet_predictions_equal_solo_predictions() {
    // The stepping thread lends one scratch arena to every session it
    // steps, so a width-1 fleet interleaves its sessions' digests on one
    // arena. A buffer a prefetcher forgot to clear would carry another
    // query into this one's prediction. Each query's prediction and the
    // CPU it charges must therefore be what the same prefetcher computes
    // alone, and what it computes from a fresh arena on every query; none
    // of it depends on the shared cache.
    //
    // Each stream is walked twice, so the hybrid's history side predicts
    // on the second lap. Queries of about 1 000 objects give its model
    // more pages than its budget on some queries: only when the budget
    // binds does the coverage it scores from the arena reach its stats.
    let bed = TestBed::new(generate_neurons(&NeuronParams::with_target_objects(20_000), 11));
    let volume = 1000.0 / bed.dataset.density();
    let params = SequenceParams { length: 8, volume, ..SequenceParams::sensitivity_default() };
    let streams: Vec<Vec<QueryRegion>> =
        generate_sequences(&bed.dataset, &params, 2, WORKLOAD_SEED)
            .iter()
            .map(|s| s.regions.repeat(2))
            .collect();
    let ctx = bed.ctx_rtree();
    let exec = ExecutorConfig { window_ratio: 1.6, cache_pages: 24, ..ExecutorConfig::default() };
    let seeded: [fn(u64) -> Box<dyn Prefetcher>; 2] = [
        |seed| Box::new(Scout::with_seed(seed)),
        |seed| Box::new(HybridPrefetcher::with_seed(seed)),
    ];
    // `Debug` prints every field, each `f64` round-trip exact.
    let signature = |q: &QueryTrace| {
        let model = [q.graph_build_us, q.prediction_us, q.window_us].map(f64::to_bits);
        (format!("{:?}", q.prediction), model)
    };
    for make in seeded {
        let cache = ShardedCache::new(exec.cache_pages, 8);
        let clock = SharedClock::new();
        let mut sessions: Vec<Session> = streams
            .iter()
            .enumerate()
            .map(|(id, regions)| Session::new(id, make(0xBEEF + id as u64), regions.clone()))
            .collect();
        for session in &mut sessions {
            session.begin(&exec, Some(clock.clone()));
        }
        while !sessions.iter().all(Session::is_done) {
            for session in &mut sessions {
                session.serve_observe(&ctx, &mut &cache, &exec);
            }
            for session in &mut sessions {
                session.finish_window(&ctx, &mut &cache, &exec);
            }
        }
        for (id, session) in sessions.iter().enumerate() {
            let seed = 0xBEEF + id as u64;
            let solo = run_sequence(&ctx, make(seed).as_mut(), &streams[id], &exec);
            let mut fresh = make(seed);
            let fleet = &session.trace().queries;
            assert_eq!(fleet.len(), solo.queries.len());
            for (n, (a, b)) in fleet.iter().zip(&solo.queries).enumerate() {
                assert_eq!(signature(a), signature(b), "session {id} query {n}: fleet vs solo");
                let region = &streams[id][n];
                let result = ctx.index.range_query(ctx.objects, region);
                let c = fresh.observe_with_scratch(&ctx, region, &result, &mut QueryScratch::new());
                let _ = fresh.plan(&ctx);
                assert_eq!(
                    format!("{:?}", a.prediction),
                    format!("{c:?}"),
                    "session {id} query {n}"
                );
            }
        }
    }
}

#[test]
fn prefetchers_sharing_one_arena_match_fresh_arenas() {
    // The arena holds one part per type — SCOUT's graph buffers, the
    // history side's frontier — and every part's contents die with the
    // call that filled them. SCOUT, SCOUT-OPT and the hybrid take turns
    // query by query on one arena; each one's prediction stats and plan
    // must be what the same prefetcher computes on a fresh arena every
    // query: on a grid-hashed neuron bed and on a road bed whose explicit
    // adjacency takes the other build. Each stream is walked twice so the
    // hybrid's history side predicts too.
    let neurons = TestBed::new(generate_neurons(&NeuronParams::with_target_objects(20_000), 11));
    let roads = TestBed::new(generate_roads(&RoadParams { grid_n: 24, ..Default::default() }, 21));
    for bed in [&neurons, &roads] {
        let volume = 400.0 / bed.dataset.density();
        let params = SequenceParams { length: 8, volume, ..SequenceParams::sensitivity_default() };
        let regions =
            generate_sequences(&bed.dataset, &params, 1, WORKLOAD_SEED)[0].regions.repeat(2);
        let make = || -> [Box<dyn Prefetcher>; 3] {
            [
                Box::new(Scout::with_seed(5)),
                Box::new(ScoutOpt::with_defaults()),
                Box::new(HybridPrefetcher::with_seed(5)),
            ]
        };
        let contexts = [bed.ctx_rtree(), bed.ctx_flat(), bed.ctx_rtree()];
        let (mut shared, mut fresh) = (make(), make());
        let mut arena = QueryScratch::new();
        for (n, region) in regions.iter().enumerate() {
            for (i, ctx) in contexts.iter().enumerate() {
                let result = ctx.index.range_query(ctx.objects, region);
                let a = shared[i].observe_with_scratch(ctx, region, &result, &mut arena);
                let b =
                    fresh[i].observe_with_scratch(ctx, region, &result, &mut QueryScratch::new());
                let name = shared[i].name();
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name} query {n}: stats");
                let (a, b) = (shared[i].plan(ctx), fresh[i].plan(ctx));
                assert_eq!(format!("{a:?}"), format!("{b:?}"), "{name} query {n}: plan");
            }
        }
    }
}

#[test]
fn tenant_labels_do_not_reorder_the_fleet() {
    // Tenants are report labels: a fleet that spans two of them runs in
    // slot order like an unlabelled one, so under eviction pressure —
    // where visiting order decides who hits — every session's accounting
    // is the unlabelled run's, bit for bit.
    let (bed, streams) = bed_and_streams(6, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let mut config = ample_config(&bed, 8, Schedule::WorkStealing { workers: 1 });
    config.exec.window_ratio = 1.6;
    config.exec.cache_pages = 24;
    let engine = MultiSessionExecutor::new(config);
    let signature = |report: &MultiSessionReport| -> Vec<_> {
        let r =
            |s: &SessionReport| [s.residual.p50, s.residual.p95, s.residual.p99].map(f64::to_bits);
        report
            .sessions
            .iter()
            .map(|s| (s.id, s.queries, s.pages_total, s.pages_hit, r(s)))
            .collect()
    };
    let plain = engine.run(&ctx, scout_sessions(&streams));
    let tenants = [0, 0, 0, 0, 7, 7];
    let labelled = engine.run(
        &ctx,
        scout_sessions(&streams).into_iter().zip(tenants).map(|(s, t)| s.with_tenant(t)).collect(),
    );
    assert!(plain.cache.evictions > 0, "precondition violated: the cache never evicted");
    assert_eq!(signature(&labelled), signature(&plain));
    assert_eq!(labelled.tenants.len(), 2);
    assert!(labelled.render().contains("tenant"));
}

#[test]
fn zero_query_fleet_terminates_instantly() {
    let (bed, _) = bed_and_streams(1, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    for schedule in [
        Schedule::RoundRobin,
        Schedule::WorkStealing { workers: 1 },
        Schedule::WorkStealing { workers: 4 },
    ] {
        let engine = MultiSessionExecutor::new(ample_config(&bed, 8, schedule));
        let sessions: Vec<Session> =
            (0..5).map(|id| Session::new(id, Box::new(NoPrefetch), Vec::new())).collect();
        let report = engine.run(&ctx, sessions);
        assert_eq!(report.sessions.len(), 5, "{schedule:?}");
        assert!(report.sessions.iter().all(|s| s.queries == 0), "{schedule:?}");
        assert_eq!(report.total_pages(), 0, "{schedule:?}");
    }
}

#[test]
fn one_session_with_a_hundred_thousand_queries() {
    // Stresses round count, not work per query: a 40-point line scanned
    // with single-object queries, so each of the 100k rounds is a cheap
    // index probe plus one cached page access. The scheduler must neither
    // overflow a queue nor slow down asymptotically.
    let objects: Vec<SpatialObject> = (0..40)
        .map(|i| {
            SpatialObject::new(
                scout::geometry::ObjectId(i),
                scout::geometry::StructureId(0),
                Shape::Point(Vec3::new(10.0 * i as f64, 0.5, 0.5)),
            )
        })
        .collect();
    let dataset = Dataset {
        domain: Domain::Neuron,
        bounds: Aabb::new(Vec3::ZERO, Vec3::new(400.0, 1.0, 1.0)),
        objects,
        guide: scout_synth::GuideGraph::new(),
        adjacency: None,
    };
    let bed = TestBed::with_page_capacity(dataset, 16);
    let ctx = bed.ctx_rtree();
    let regions: Vec<QueryRegion> = (0..100_000)
        .map(|i| QueryRegion::new(Vec3::new(10.0 * (i % 40) as f64, 0.5, 0.5), 8.0, Aspect::Cube))
        .collect();
    for workers in [1, 2] {
        let engine =
            MultiSessionExecutor::new(ample_config(&bed, 4, Schedule::WorkStealing { workers }));
        let report = engine.run(&ctx, vec![Session::new(0, Box::new(NoPrefetch), regions.clone())]);
        assert_eq!(report.sessions[0].queries, 100_000, "width {workers}");
        let sched = report.scheduler.unwrap();
        assert_eq!(sched.rounds, 100_000, "width {workers}");
    }
}

#[test]
fn unequal_query_counts_park_instead_of_spinning() {
    let (bed, streams) = bed_and_streams(2, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let mut per_width: Vec<(u64, u64)> = Vec::new();
    for workers in [1, 2, 4] {
        let engine =
            MultiSessionExecutor::new(ample_config(&bed, 8, Schedule::WorkStealing { workers }));
        let sessions = vec![
            Session::new(0, Box::new(NoPrefetch), streams[0].clone()),
            Session::new(1, Box::new(NoPrefetch), streams[1][..2].to_vec()),
            Session::new(2, Box::new(NoPrefetch), Vec::new()),
        ];
        let report = engine.run(&ctx, sessions);
        assert_eq!(report.sessions[0].queries, 8);
        assert_eq!(report.sessions[1].queries, 2);
        assert_eq!(report.sessions[2].queries, 0);
        let sched = report.scheduler.unwrap();
        let total_queries = 10u64;
        assert!(
            sched.parks <= 2 * total_queries,
            "parks must track work, not rounds × fleet size: {} at width {workers}",
            sched.parks
        );
        assert_eq!(sched.rounds, 8, "width {workers}");
        per_width.push((sched.rounds, sched.parks));
    }
    // Park accounting is schedule-invariant: every width does the same
    // serves and carries the same survivors.
    assert!(per_width.windows(2).all(|w| w[0] == w[1]), "{per_width:?}");
}

/// A prefetcher that panics while observing its `detonate_at`-th query —
/// the PR 6 panic-propagation harness, aimed at the session scheduler.
struct Detonator {
    seen: usize,
    detonate_at: usize,
}

impl Prefetcher for Detonator {
    fn name(&self) -> String {
        "Detonator".to_string()
    }
    fn observe_with_scratch(
        &mut self,
        _ctx: &SimContext<'_>,
        _region: &QueryRegion,
        _result: &scout::index::QueryResult,
        _scratch: &mut scout::sim::QueryScratch,
    ) -> scout::sim::PredictionStats {
        self.seen += 1;
        assert!(self.seen < self.detonate_at, "session detonated on schedule");
        scout::sim::PredictionStats::default()
    }
    fn plan(&mut self, _ctx: &SimContext<'_>) -> scout::sim::PrefetchPlan {
        scout::sim::PrefetchPlan::empty()
    }
    fn reset(&mut self) {
        self.seen = 0;
    }
}

#[test]
fn panicking_session_does_not_deadlock_the_fleet() {
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    for workers in [1, 2, 4] {
        let engine =
            MultiSessionExecutor::new(ample_config(&bed, 8, Schedule::WorkStealing { workers }));
        let mut sessions = scout_sessions(&streams);
        sessions[2] =
            Session::new(2, Box::new(Detonator { seen: 0, detonate_at: 3 }), streams[2].clone());
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&ctx, sessions)));
        let payload = caught.expect_err(&format!("width {workers} swallowed the session panic"));
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is a message");
        assert!(message.contains("detonated"), "width {workers}: {message}");
        // Nothing of the dead fleet is left behind: the same schedule must
        // run a healthy fleet to completion immediately afterwards.
        let report = engine.run(&ctx, scout_sessions(&streams));
        assert_eq!(report.sessions.len(), 4, "width {workers}");
        assert!(report.sessions.iter().all(|s| s.queries == 8), "width {workers}");
    }
}

/// ISSUE 8 satellite: the PR 7 panic-containment guarantee must hold
/// while the disk is actively injecting faults — a session blowing up
/// mid-observe and a flaky device are independent failure domains, and
/// neither may mask or amplify the other.
#[test]
fn panicking_session_under_fault_injection_is_still_contained() {
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    let weather = FaultConfig {
        seed: 0xBAD5EED,
        transient_rate: 0.10,
        corrupt_rate: 0.03,
        stuck_rate: 0.01,
        slow_rate: 0.05,
        slow_multiplier: 8.0,
    };
    for workers in [2, 4] {
        let mut config = ample_config(&bed, 8, Schedule::WorkStealing { workers });
        config.exec.faults = FaultPlan::injecting(weather);
        let engine = MultiSessionExecutor::new(config);
        let mut sessions = scout_sessions(&streams);
        sessions[2] =
            Session::new(2, Box::new(Detonator { seen: 0, detonate_at: 3 }), streams[2].clone());
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| engine.run(&ctx, sessions)));
        let payload = caught.expect_err(&format!("width {workers} swallowed the session panic"));
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .expect("panic payload is a message");
        assert!(message.contains("detonated"), "width {workers}: {message}");
        // Nothing of the dead fleet is left behind: the same engine then
        // runs a healthy fleet over the same faulty device to completion,
        // and the report (fault block included) still renders.
        let report = engine.run(&ctx, scout_sessions(&streams));
        assert_eq!(report.sessions.len(), 4, "width {workers}");
        assert!(report.sessions.iter().all(|s| s.queries == 8), "width {workers}");
        let faults = report.faults.expect("fault injection was enabled");
        assert_eq!(faults.corruption_served, 0, "width {workers}: corrupt page served");
        assert!(faults.injected() > 0, "width {workers}: weather never materialized");
        assert!(report.render().contains("faults:"), "width {workers}");
    }
}
