//! Every call into the engine, in one file.
//!
//! The benchmark measures each layer from outside, through trait-level
//! entry points (`SpatialIndex`, `PageCache`, `Prefetcher`) and the exact
//! calls the engine's own path makes, and hands the rest of the benchmark
//! plain numbers. An engine refactor breaks at most this file. It avoids
//! what ROADMAP item 2 slates for deletion: no `Schedule::Threaded`, no
//! `run_sequence`, and `DiskModel::read_page` only for the d-reference.

use crate::spec::{Sizes, Workload, FLEET_QUERIES_PER_SESSION};
use crate::stats::Digest;
use crate::trace::{Name, Tracer};
use scout_baselines::StraightLine;
use scout_core::{ResultGraph, Scout, ScoutConfig, ScoutOpt};
use scout_geometry::intersect::shape_intersects_aabb;
use scout_geometry::QueryRegion;
use scout_index::{QueryResult, SpatialIndex};
use scout_sim::workloads::{ADHOC_PATTERN, VIS_GAPS_HIGH};
use scout_sim::{
    ExecutorConfig, MultiSessionConfig, MultiSessionExecutor, MultiSessionReport, NoPrefetch,
    PrefetchRequest, Prefetcher, QueryScratch, QueryTrace, Schedule, Session, SimContext, TestBed,
};
use scout_storage::{
    BatchPlan, CacheStats, DiskModel, FaultConfig, FaultPlan, FaultReport, IoBatcher, IoStats,
    PageCache, PageId, PrefetchCache, RetryPolicy, ShardedCache, SharedClock,
};
use scout_synth::{
    generate_neurons, generate_roads, generate_sequences, NeuronParams, RoadParams, SequenceParams,
};
use scout_telemetry::{HistogramId, TelemetryPlan};
use std::hint::black_box;
use std::time::Instant;

/// Per-client prefetch cache of the single-session workloads; fits the
/// ≈ 2.5 k pages one sequence touches.
const SINGLE_CACHE_PAGES: usize = 4096;
/// Roads bed: objects per page (47.7 k pages at full scale).
const ROAD_PAGE_CAPACITY: usize = 4;
/// Fleet query volume, in objects' worth of dataset volume (§8.4 "large").
const ROAD_OBJECTS_PER_QUERY: f64 = 2500.0;
const FLEET_SHARDS: usize = 16;
const FLEET_TENANTS: usize = 4;
/// Demand-read attempts on the degraded device. The engine default of 4
/// fails about one query in 200 000; 8 makes a failed query a 1e-13
/// event, so the workload is one on which no operation fails.
const DEGRADED_MAX_ATTEMPTS: u32 = 8;
/// Entries kept per recorded page stream (16 MB each).
const OP_STREAM_CAP: usize = 4_000_000;

/// Decorrelates the generators that share the benchmark seed.
fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut x = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn micros(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64() * 1e6
}

// ---------------------------------------------------------------------------
// Plain data handed to the rest of the benchmark
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub dataset_gen_s: f64,
    pub bulk_load_s: f64,
    pub sequence_gen_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.dataset_gen_s + self.bulk_load_s + self.sequence_gen_s
    }
}

/// The model outputs of one query the metrics and checks read.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRow {
    pub pages_total: u64,
    pub pages_hit: u64,
    pub result_objects: u64,
    /// Simulated µs the analyst waited.
    pub residual_us: f64,
    /// Simulated µs the same result costs with nothing cached: the
    /// paper's `d` (cold read, fresh head) plus page processing.
    pub cold_us: f64,
    pub graph_vertices: u64,
    pub graph_edges: u64,
    pub candidates: u64,
    pub memory_bytes: u64,
    pub failed: bool,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoTotals {
    pub result_pages_cache: u64,
    pub result_pages_disk: u64,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheTotals {
    pub hits: u64,
    pub misses: u64,
    pub coalesced_hits: u64,
    pub insertions: u64,
    pub evictions: u64,
}

impl CacheTotals {
    fn add(&mut self, s: &CacheStats) {
        self.hits += s.hits;
        self.misses += s.misses;
        self.coalesced_hits += s.coalesced_hits;
        self.insertions += s.insertions;
        self.evictions += s.evictions;
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTotals {
    pub retries: u64,
    pub dropped_prefetch: u64,
    pub degraded_windows: u64,
    pub breaker_trips: u64,
    pub corruption_served: u64,
    pub failed_queries: u64,
}

impl FaultTotals {
    fn add(&mut self, f: &FaultReport) {
        self.retries += f.retries;
        self.dropped_prefetch += f.dropped_prefetch;
        self.degraded_windows += f.degraded_windows;
        self.breaker_trips += f.breaker_trips;
        self.corruption_served += f.corruption_served;
        self.failed_queries += f.failed_queries;
    }
}

/// One pass over every query with per-query data: an engine pass driven
/// through `Session`, or the traced replica of one.
#[derive(Debug, Default)]
pub struct QueryPass {
    /// Wall µs of each query's serve phase, in execution order.
    pub serve_us: Vec<f64>,
    /// Wall µs of each query's prefetch window, in execution order.
    pub window_us: Vec<f64>,
    /// Model outputs, ordered by (session, query).
    pub rows: Vec<QueryRow>,
    /// Rows each session (or sequence) contributed, in session order.
    pub session_rows: Vec<usize>,
    /// Over every field of every `QueryTrace`.
    pub digest: Digest,
    pub io: IoTotals,
    pub cache: CacheTotals,
    pub faults: FaultTotals,
    pub graph_builds: u64,
    pub graph_builds_incremental: u64,
    /// Simulated µs the device was busy.
    pub disk_busy_us: f64,
    pub wall_s: f64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct SchedulerTotals {
    pub rounds: u64,
    pub parks: u64,
    pub steals: u64,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct BatchTotals {
    pub staged: u64,
    pub unique_pages: u64,
    pub coalesced: u64,
}

/// What an armed `TelemetryPlan::default()` registry recorded.
#[derive(Debug, Clone, Copy, Default)]
pub struct TelemetryTotals {
    pub events: u64,
    pub events_dropped: u64,
    pub span_serve_us_p50: f64,
    pub span_window_us_p50: f64,
    pub span_phase_flip_us_p99: f64,
    pub span_batch_submit_us_p50: f64,
}

/// One `MultiSessionExecutor::run` of the whole fleet.
#[derive(Debug, Default)]
pub struct FleetPass {
    pub wall_s: f64,
    pub queries: u64,
    pub pages_total: u64,
    pub pages_hit: u64,
    /// Simulated residual p95 over all queries, µs.
    pub residual_p95_us: f64,
    pub response_us: f64,
    pub cache: CacheTotals,
    pub disk_busy_us: f64,
    pub shed_sessions: u64,
    pub faults: FaultTotals,
    pub scheduler: SchedulerTotals,
    pub batch: BatchTotals,
    pub telemetry: TelemetryTotals,
    /// Over the report's render and every per-session number.
    pub digest: Digest,
    /// Per session: (pages hit, pages total, response µs bits).
    pub sessions: Vec<(u64, u64, u64)>,
}

#[derive(Debug, Clone, Copy)]
pub struct EngineMode {
    /// Crew of `nproc` workers instead of one.
    pub wide: bool,
    /// Armed `TelemetryPlan::default()`.
    pub armed: bool,
}

/// The page streams the replica saw, for the isolated storage replays.
#[derive(Debug, Default)]
pub struct OpStreams {
    access: Vec<PageId>,
    probes: Vec<PageId>,
    inserts: Vec<PageId>,
    demand_reads: Vec<PageId>,
    /// Phases the streams span (queries of a single client, rounds of a
    /// fleet): sets the batch size of the batcher replay.
    phases: usize,
}

fn push_capped(stream: &mut Vec<PageId>, page: PageId) {
    if stream.len() < OP_STREAM_CAP {
        stream.push(page);
    }
}

/// The traced replica's output beside its spans.
#[derive(Debug, Default)]
pub struct Replica {
    pub pass: QueryPass,
    pub ops: OpStreams,
    /// Exact-predicate tests `range_query` ran, all queries.
    pub predicate_tests: u64,
    /// Of those, the ones re-run inside `geometry.replay` spans.
    pub replayed_tests: u64,
}

/// ns per call of the storage layer's public operations, replayed in
/// isolation over the recorded page streams.
#[derive(Debug, Default)]
pub struct StorageMicro {
    pub cache_probe_ns: f64,
    pub cache_insert_ns: f64,
    pub disk_read_ns: f64,
    pub disk_peek_ns: f64,
    pub batch_stage_ns: f64,
    pub batch_submit_us: Vec<f64>,
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

/// A generated dataset bulk-loaded into both indexes, plus the query
/// streams: everything a workload's set-up builds.
pub struct Bed {
    workload: Workload,
    sizes: Sizes,
    bed: TestBed,
    streams: Vec<Vec<QueryRegion>>,
    /// The workload's execution environment (what `Session::begin` takes).
    exec: ExecutorConfig,
    pub times: SetupTimes,
}

/// Dataset generation + both index bulk loads + sequence generation.
pub fn setup(workload: Workload, sizes: Sizes, seed: u64) -> Bed {
    let t = Instant::now();
    let dataset = if workload.is_fleet() {
        let params = RoadParams { grid_n: sizes.road_grid, ..RoadParams::default() };
        generate_roads(&params, derive_seed(seed, 1))
    } else {
        generate_neurons(
            &NeuronParams::with_target_objects(sizes.neuron_objects),
            derive_seed(seed, 1),
        )
    };
    let dataset_gen_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let bed = if workload.is_fleet() {
        TestBed::with_page_capacity(dataset, ROAD_PAGE_CAPACITY)
    } else {
        TestBed::new(dataset)
    };
    let bulk_load_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let (params, count) = match workload {
        Workload::Follow => (ADHOC_PATTERN.sequence, sizes.sequences),
        Workload::Gaps => (VIS_GAPS_HIGH.sequence, sizes.sequences),
        Workload::Fleet | Workload::FleetDegraded => (
            SequenceParams {
                length: FLEET_QUERIES_PER_SESSION,
                volume: ROAD_OBJECTS_PER_QUERY / bed.dataset.density(),
                ..SequenceParams::sensitivity_default()
            },
            sizes.streams,
        ),
    };
    let streams = generate_sequences(&bed.dataset, &params, count, derive_seed(seed, 2))
        .into_iter()
        .map(|s| s.regions)
        .collect();
    let sequence_gen_s = t.elapsed().as_secs_f64();

    Bed {
        workload,
        sizes,
        bed,
        streams,
        exec: executor_config(workload, &sizes, seed),
        times: SetupTimes { dataset_gen_s, bulk_load_s, sequence_gen_s },
    }
}

fn executor_config(workload: Workload, sizes: &Sizes, seed: u64) -> ExecutorConfig {
    let base = ExecutorConfig::default();
    match workload {
        Workload::Follow => ExecutorConfig {
            window_ratio: ADHOC_PATTERN.window_ratio,
            cache_pages: SINGLE_CACHE_PAGES,
            ..base
        },
        Workload::Gaps => ExecutorConfig {
            window_ratio: VIS_GAPS_HIGH.window_ratio,
            cache_pages: SINGLE_CACHE_PAGES,
            ..base
        },
        Workload::Fleet => ExecutorConfig { cache_pages: sizes.fleet_cache_pages, ..base },
        Workload::FleetDegraded => ExecutorConfig {
            cache_pages: sizes.fleet_cache_pages,
            faults: FaultPlan {
                inject: Some(FaultConfig { seed: derive_seed(seed, 3), ..FaultConfig::default() }),
                retry: RetryPolicy {
                    max_attempts: DEGRADED_MAX_ATTEMPTS,
                    ..RetryPolicy::default()
                },
                ..FaultPlan::default()
            },
            ..base
        },
    }
}

/// One client of the replica: what a `Session` owns inside the engine.
struct Client {
    exec: ExecutorConfig,
    prefetcher: Box<dyn Prefetcher>,
    disk: DiskModel,
    scratch: QueryScratch,
    io: IoStats,
    open: Option<(QueryTrace, f64)>,
    queries: Vec<QueryTrace>,
}

impl Client {
    fn new(exec: ExecutorConfig, mut prefetcher: Box<dyn Prefetcher>, disk: DiskModel) -> Client {
        prefetcher.reset();
        Client {
            exec,
            prefetcher,
            disk,
            scratch: QueryScratch::new(),
            io: IoStats::new(),
            open: None,
            queries: Vec::new(),
        }
    }
}

impl Bed {
    pub fn describe(&self) -> String {
        let objects = self.bed.dataset.len();
        let pages = self.bed.rtree.layout().page_count();
        if self.workload.is_fleet() {
            format!(
                "roads bed: {objects} objects, {pages} pages; {} sessions x {} queries over {} \
                 streams, {FLEET_TENANTS} tenants, shared cache {} pages in {FLEET_SHARDS} shards",
                self.sizes.sessions,
                FLEET_QUERIES_PER_SESSION,
                self.streams.len(),
                self.sizes.fleet_cache_pages
            )
        } else {
            format!(
                "neuron bed: {objects} objects, {pages} pages; {} sequences, {} queries, \
                 cache {SINGLE_CACHE_PAGES} pages per sequence",
                self.streams.len(),
                self.query_count()
            )
        }
    }

    /// Queries one pass executes.
    pub fn query_count(&self) -> usize {
        if self.workload.is_fleet() {
            (0..self.sizes.sessions).map(|i| self.streams[i % self.streams.len()].len()).sum()
        } else {
            self.streams.iter().map(Vec::len).sum()
        }
    }

    fn ctx(&self) -> SimContext<'_> {
        match self.workload {
            Workload::Gaps => self.bed.ctx_flat(),
            _ => self.bed.ctx_rtree(),
        }
    }

    fn prefetcher(&self) -> Box<dyn Prefetcher> {
        match self.workload {
            Workload::Follow => Box::new(Scout::with_defaults()),
            Workload::Gaps => Box::new(ScoutOpt::with_defaults()),
            Workload::Fleet | Workload::FleetDegraded => Box::new(StraightLine::new()),
        }
    }

    fn fleet_sessions(&self) -> Vec<Session> {
        (0..self.sizes.sessions)
            .map(|i| {
                Session::new(i, self.prefetcher(), self.streams[i % self.streams.len()].clone())
                    .with_tenant(i % FLEET_TENANTS)
            })
            .collect()
    }

    fn row(&self, q: &QueryTrace) -> QueryRow {
        QueryRow {
            pages_total: q.pages_total as u64,
            pages_hit: q.pages_hit as u64,
            result_objects: q.result_objects as u64,
            residual_us: q.residual_us,
            cold_us: q.d_ref_us + q.pages_total as f64 * self.exec.costs.page_process_us,
            graph_vertices: q.prediction.graph_vertices as u64,
            graph_edges: q.prediction.graph_edges as u64,
            candidates: q.prediction.candidates as u64,
            memory_bytes: q.prediction.memory_bytes as u64,
            failed: q.outcome.is_failed(),
        }
    }

    /// Folds one client's traces into the pass, in (session, query) order.
    fn absorb(&self, pass: &mut QueryPass, queries: &[QueryTrace], io: &IoStats) {
        for q in queries {
            digest_query(&mut pass.digest, q);
            pass.rows.push(self.row(q));
        }
        pass.session_rows.push(queries.len());
        pass.io.result_pages_cache += io.result_pages_cache;
        pass.io.result_pages_disk += io.result_pages_disk;
    }

    fn absorb_session(&self, pass: &mut QueryPass, session: &Session) {
        let trace = session.trace();
        self.absorb(pass, &trace.queries, &trace.io);
        if let Some(g) = session.graph_cache_counters() {
            pass.graph_builds += g.total();
            pass.graph_builds_incremental += g.incremental;
        }
        if let Some(f) = session.fault_report() {
            pass.faults.add(&f);
        }
    }

    // -----------------------------------------------------------------------
    // Engine passes
    // -----------------------------------------------------------------------

    /// One client following every sequence through the engine's own
    /// `Session::{begin, serve_observe, finish_window}`, a fresh session
    /// and cache per sequence (§7.1 clears all caches between sequences).
    pub fn single_pass(&self) -> QueryPass {
        let ctx = self.ctx();
        let exec = self.exec;
        let mut pass = QueryPass::default();
        let started = Instant::now();
        for (id, regions) in self.streams.iter().enumerate() {
            let mut session = Session::new(id, self.prefetcher(), regions.clone());
            session.begin(&exec, None);
            let mut cache = PrefetchCache::new(exec.cache_pages);
            loop {
                let t0 = Instant::now();
                if !session.serve_observe(&ctx, &mut cache, &exec) {
                    break;
                }
                let t1 = Instant::now();
                session.finish_window(&ctx, &mut cache, &exec);
                let t2 = Instant::now();
                pass.serve_us.push(micros(t0, t1));
                pass.window_us.push(micros(t1, t2));
            }
            self.absorb_session(&mut pass, &session);
            pass.cache.add(&cache.stats());
            let io = &session.trace().io;
            pass.disk_busy_us += io.residual_io_us + io.prefetch_io_us;
        }
        pass.wall_s = started.elapsed().as_secs_f64();
        pass
    }

    fn fleet_config(&self, mode: EngineMode) -> MultiSessionConfig {
        let mut exec = self.exec;
        if mode.armed {
            exec.telemetry = Some(TelemetryPlan::default());
        }
        let degraded = self.workload == Workload::FleetDegraded;
        let schedule = match (mode.wide, degraded) {
            (true, _) => Schedule::WorkStealing { workers: crate::host::nproc() },
            (false, false) => Schedule::WorkStealing { workers: 1 },
            // Batched round-robin runs the width-1 batched loop.
            (false, true) => Schedule::RoundRobin,
        };
        MultiSessionConfig {
            exec,
            shards: FLEET_SHARDS,
            schedule,
            batch: if degraded { BatchPlan::enabled() } else { BatchPlan::default() },
            ..MultiSessionConfig::default()
        }
    }

    /// The whole fleet through `MultiSessionExecutor::run`; only that call
    /// is timed.
    pub fn fleet_engine_pass(&self, mode: EngineMode) -> FleetPass {
        let engine = MultiSessionExecutor::new(self.fleet_config(mode));
        let sessions = self.fleet_sessions();
        let ctx = self.ctx();
        let t = Instant::now();
        let report = engine.run(&ctx, sessions);
        let wall_s = t.elapsed().as_secs_f64();
        fleet_pass(&report, wall_s)
    }

    /// A bench-owned serve-all/finish-all round loop over the same
    /// sessions, `&ShardedCache` and `SharedClock` the engine would use
    /// (unbatched; on the degraded workload the sessions read the faulty
    /// device through their own retry ladders). It is what a client of the
    /// `Session` API sees per query, which `MultiSessionExecutor::run`
    /// hides, and the baseline of the engine's own overhead.
    pub fn fleet_session_loop(&self) -> QueryPass {
        let ctx = self.ctx();
        let exec = self.exec;
        let cache = ShardedCache::new(exec.cache_pages, FLEET_SHARDS);
        let clock = SharedClock::new();
        let mut sessions = self.fleet_sessions();
        let mut pass = QueryPass::default();
        let started = Instant::now();
        for session in &mut sessions {
            session.begin(&exec, Some(clock.clone()));
        }
        let mut active: Vec<usize> = (0..sessions.len()).collect();
        while !active.is_empty() {
            for &i in &active {
                let t0 = Instant::now();
                sessions[i].serve_observe(&ctx, &mut &cache, &exec);
                pass.serve_us.push(micros(t0, Instant::now()));
            }
            for &i in &active {
                let t0 = Instant::now();
                sessions[i].finish_window(&ctx, &mut &cache, &exec);
                pass.window_us.push(micros(t0, Instant::now()));
            }
            active.retain(|&i| !sessions[i].is_done());
        }
        pass.wall_s = started.elapsed().as_secs_f64();
        for session in &sessions {
            self.absorb_session(&mut pass, session);
        }
        pass.cache.add(&cache.stats());
        pass.disk_busy_us = clock.now_us();
        pass
    }

    /// Simulated µs the fleet's analysts would wait in total with nothing
    /// prefetched, on a healthy device: a `NoPrefetch` session per
    /// distinct stream through the engine (nothing is ever cached, so a
    /// session's residuals do not depend on its siblings), weighted by how
    /// many sessions follow each stream.
    pub fn fleet_cold_us(&self) -> f64 {
        let exec =
            ExecutorConfig { cache_pages: self.sizes.fleet_cache_pages, ..Default::default() };
        let engine = MultiSessionExecutor::new(MultiSessionConfig {
            exec,
            shards: FLEET_SHARDS,
            ..MultiSessionConfig::default()
        });
        let sessions = self
            .streams
            .iter()
            .enumerate()
            .map(|(i, regions)| Session::new(i, Box::new(NoPrefetch), regions.clone()))
            .collect();
        let report = engine.run(&self.ctx(), sessions);
        (0..self.sizes.sessions).map(|i| report.sessions[i % self.streams.len()].response_us).sum()
    }

    // -----------------------------------------------------------------------
    // Correctness: an independent scan
    // -----------------------------------------------------------------------

    /// Runs every `every`-th distinct query through `range_query` and
    /// through an AABB-prefilter + exact-predicate scan of all objects;
    /// returns (queries checked, queries whose object sets differ).
    pub fn check_range_queries(&self, every: usize) -> (usize, usize) {
        let ctx = self.ctx();
        let (mut checked, mut wrong) = (0, 0);
        for region in self.streams.iter().flatten().step_by(every) {
            let mut got: Vec<u32> =
                ctx.index.range_query(ctx.objects, region).objects.iter().map(|o| o.0).collect();
            got.sort_unstable();
            let aabb = region.aabb();
            let want: Vec<u32> = ctx
                .objects
                .iter()
                .filter(|o| o.aabb().intersects(aabb) && shape_intersects_aabb(&o.shape, aabb))
                .map(|o| o.id.0)
                .collect();
            checked += 1;
            wrong += usize::from(got != want);
        }
        (checked, wrong)
    }

    // -----------------------------------------------------------------------
    // The traced replica
    // -----------------------------------------------------------------------

    /// Timeline phases 1–2 of one query, assembled from the public calls
    /// `serve_and_observe` makes, a span at each layer boundary.
    fn replica_serve<C: PageCache>(
        &self,
        ctx: &SimContext<'_>,
        client: &mut Client,
        region: &QueryRegion,
        cache: &mut C,
        tr: &mut Tracer,
        ops: &mut OpStreams,
    ) -> QueryResult {
        let exec = client.exec;
        let mut q = QueryTrace::default();
        tr.open(Name::RangeQuery);
        let result = ctx.index.range_query(ctx.objects, region);
        tr.close();
        q.pages_total = result.pages.len();
        q.result_objects = result.objects.len();

        tr.open(Name::DRef);
        q.d_ref_us = {
            let mut fresh = DiskModel::new(exec.disk);
            result.pages.iter().map(|&p| fresh.read_page(p)).sum::<f64>()
        };
        tr.close();

        tr.open(Name::ServeLoop);
        let mut retry_budget = exec.faults.retry.deadline_us;
        for &page in &result.pages {
            if cache.access(page) {
                q.pages_hit += 1;
                client.io.result_pages_cache += 1;
            } else {
                push_capped(&mut ops.demand_reads, page);
                let t = client
                    .disk
                    .read_page_retrying(page, &exec.faults.retry, &mut retry_budget)
                    .expect("the replica runs on a fault-free device");
                q.residual_us += t;
                client.io.result_pages_disk += 1;
                client.io.residual_io_us += t;
            }
        }
        tr.close();
        q.residual_us += q.pages_total as f64 * exec.costs.page_process_us;
        for &page in &result.pages {
            push_capped(&mut ops.access, page);
        }

        tr.open(Name::Observe);
        q.prediction =
            client.prefetcher.observe_with_scratch(ctx, region, &result, &mut client.scratch);
        tr.close();
        q.graph_build_us = exec.costs.graph_build_us(&q.prediction.cpu);
        q.prediction_us = exec.costs.prediction_us(&q.prediction.cpu);
        q.window_us = exec.window_ratio * q.d_ref_us;
        let prediction_delay = if client.prefetcher.overlaps_prediction() {
            0.0
        } else {
            (q.graph_build_us - q.residual_us).max(0.0) + q.prediction_us
        };
        let budget_us = (q.window_us - prediction_delay).max(0.0);
        client.open = Some((q, budget_us));
        result
    }

    /// Timeline phase 3, from the calls `run_prefetch_window` makes.
    fn replica_window<C: PageCache>(
        &self,
        ctx: &SimContext<'_>,
        client: &mut Client,
        cache: &mut C,
        tr: &mut Tracer,
        ops: &mut OpStreams,
    ) {
        let (mut q, mut budget) = client.open.take().expect("window follows serve");
        tr.open(Name::Plan);
        let plan = client.prefetcher.plan(ctx);
        tr.close();
        let mut closed = false;
        for request in plan.requests {
            let (pages, is_gap) = match request {
                PrefetchRequest::Region(r) => {
                    tr.open(Name::PagesInRegion);
                    let pages = ctx.index.pages_in_region(r.aabb());
                    tr.close();
                    (pages, false)
                }
                PrefetchRequest::Pages(p) => (p, false),
                PrefetchRequest::GapPages(p) => (p, true),
            };
            tr.open(Name::WindowLoop);
            let mut probed = 0;
            for &page in &pages {
                probed += 1;
                if cache.contains(page) {
                    continue;
                }
                let t = client.disk.peek_read_us(page);
                if t > budget {
                    closed = true;
                    break;
                }
                let t = client
                    .disk
                    .try_read_page(page, 0)
                    .expect("the replica runs on a fault-free device");
                budget -= t;
                cache.insert(page);
                push_capped(&mut ops.inserts, page);
                client.io.prefetch_io_us += t;
                client.io.prefetch_pages_disk += 1;
                q.prefetch_pages += 1;
                if is_gap {
                    client.io.gap_pages_disk += 1;
                    q.gap_pages += 1;
                }
            }
            tr.close();
            for &page in &pages[..probed] {
                push_capped(&mut ops.probes, page);
            }
            if closed {
                break;
            }
        }
        client.queries.push(q);
    }

    /// Exact-predicate tests `range_query` ran for `result`.
    fn predicate_tests(&self, ctx: &SimContext<'_>, result: &QueryResult) -> u64 {
        let layout = ctx.index.layout();
        result.pages.iter().map(|&p| layout.page(p).objects.len() as u64).sum()
    }

    /// Re-runs the exact-predicate tests `range_query` made for this
    /// result, alone, inside a `geometry.replay` span.
    fn replay_geometry(
        &self,
        ctx: &SimContext<'_>,
        region: &QueryRegion,
        result: &QueryResult,
        tr: &mut Tracer,
        replica: &mut Replica,
    ) {
        let layout = ctx.index.layout();
        tr.open(Name::GeometryReplay);
        let mut inside = 0u64;
        for &pid in &result.pages {
            for &oid in &layout.page(pid).objects {
                inside += u64::from(shape_intersects_aabb(
                    &ctx.objects[oid.index()].shape,
                    region.aabb(),
                ));
            }
        }
        tr.close();
        assert_eq!(inside, result.objects.len() as u64, "replayed predicate disagrees");
        replica.replayed_tests += self.predicate_tests(ctx, result);
    }

    /// The single-client replica of the Figure-2 timeline. After the
    /// pass — so that they do not cool the caches of the spans they
    /// explain — every `geometry_every`-th query replays its predicate
    /// tests and, on grid-hashed datasets, every query its graph build
    /// (`ResultGraph::build_grid_hash_incremental` with the default
    /// `ScoutConfig`), each in a span of its own.
    pub fn single_replica(&self, tr: &mut Tracer, geometry_every: usize) -> Replica {
        let ctx = self.ctx();
        let exec = self.exec;
        let mut replica = Replica::default();
        replica.ops.phases = self.query_count();
        let mut results = Vec::with_capacity(self.query_count());
        let started = Instant::now();
        for (id, regions) in self.streams.iter().enumerate() {
            let mut client = Client::new(exec, self.prefetcher(), DiskModel::new(exec.disk));
            let mut cache = PrefetchCache::new(exec.cache_pages);
            for (n, region) in regions.iter().enumerate() {
                tr.context(id, n, true);
                tr.open(Name::Serve);
                let result =
                    self.replica_serve(&ctx, &mut client, region, &mut cache, tr, &mut replica.ops);
                tr.close();
                tr.open(Name::Window);
                self.replica_window(&ctx, &mut client, &mut cache, tr, &mut replica.ops);
                tr.close();
                results.push(result);
            }
            self.absorb(&mut replica.pass, &client.queries, &client.io);
            replica.pass.cache.add(&cache.stats());
            replica.pass.disk_busy_us += client.io.residual_io_us + client.io.prefetch_io_us;
            if let Some(g) = client.prefetcher.graph_cache_counters() {
                replica.pass.graph_builds += g.total();
                replica.pass.graph_builds_incremental += g.incremental;
            }
        }
        replica.pass.wall_s = started.elapsed().as_secs_f64();

        let graph_config = ScoutConfig::default();
        let mut results = results.iter().enumerate();
        for (id, regions) in self.streams.iter().enumerate() {
            let mut graph = ResultGraph::default();
            let mut scratch = QueryScratch::new();
            for (n, (region, (ordinal, result))) in regions.iter().zip(results.by_ref()).enumerate()
            {
                tr.context(id, n, true);
                replica.predicate_tests += self.predicate_tests(&ctx, result);
                if ordinal % geometry_every == 0 {
                    self.replay_geometry(&ctx, region, result, tr, &mut replica);
                }
                if ctx.adjacency.is_none() {
                    tr.open(Name::GraphReplay);
                    black_box(graph.build_grid_hash_incremental(
                        &mut scratch,
                        ctx.objects,
                        &result.objects,
                        region,
                        graph_config.grid_resolution,
                        graph_config.simplification,
                        graph_config.incremental_overlap_threshold,
                    ));
                    tr.close();
                }
            }
        }
        copy_span_times(tr, &mut replica.pass);
        replica
    }

    /// The fleet replica: the round-robin loop (all serves of a round,
    /// then all windows) over a `&ShardedCache` and a `SharedClock`. Spans
    /// of every `keep_every`-th session go to the trace file; every
    /// `geometry_every`-th query replays its predicate tests after the
    /// pass.
    pub fn fleet_replica(
        &self,
        tr: &mut Tracer,
        geometry_every: usize,
        keep_every: usize,
    ) -> Replica {
        let ctx = self.ctx();
        // The replica has no access to the crate-private fault control, so
        // it reproduces the fault-free unbatched fleet on both workloads.
        let exec = ExecutorConfig { faults: FaultPlan::default(), ..self.exec };
        let cache = ShardedCache::new(exec.cache_pages, FLEET_SHARDS);
        let clock = SharedClock::new();
        let mut replica = Replica::default();
        replica.ops.phases = FLEET_QUERIES_PER_SESSION;
        let mut sampled = Vec::new();
        let started = Instant::now();
        let mut clients: Vec<Client> = (0..self.sizes.sessions)
            .map(|_| {
                Client::new(
                    exec,
                    self.prefetcher(),
                    DiskModel::with_clock(exec.disk, clock.clone()),
                )
            })
            .collect();
        let mut ordinal = 0;
        for round in 0..FLEET_QUERIES_PER_SESSION {
            for (id, client) in clients.iter_mut().enumerate() {
                let region = &self.streams[id % self.streams.len()][round];
                tr.context(id, round, id % keep_every == 0);
                tr.open(Name::Serve);
                let result =
                    self.replica_serve(&ctx, client, region, &mut &cache, tr, &mut replica.ops);
                tr.close();
                replica.predicate_tests += self.predicate_tests(&ctx, &result);
                if ordinal % geometry_every == 0 {
                    sampled.push((id, round, result));
                }
                ordinal += 1;
            }
            for (id, client) in clients.iter_mut().enumerate() {
                tr.context(id, round, id % keep_every == 0);
                tr.open(Name::Window);
                self.replica_window(&ctx, client, &mut &cache, tr, &mut replica.ops);
                tr.close();
            }
        }
        replica.pass.wall_s = started.elapsed().as_secs_f64();
        for client in &clients {
            self.absorb(&mut replica.pass, &client.queries, &client.io);
        }
        replica.pass.cache.add(&cache.stats());
        replica.pass.disk_busy_us = clock.now_us();
        for (id, round, result) in &sampled {
            let region = &self.streams[id % self.streams.len()][*round];
            tr.context(*id, *round, id % keep_every == 0);
            self.replay_geometry(&ctx, region, result, tr, &mut replica);
        }
        copy_span_times(tr, &mut replica.pass);
        replica
    }

    // -----------------------------------------------------------------------
    // Isolated storage replays
    // -----------------------------------------------------------------------

    /// Replays the recorded page streams through the storage layer's
    /// public operations, each kind in a loop of its own.
    pub fn storage_replay(&self, ops: &OpStreams) -> StorageMicro {
        let exec = self.exec;
        let (cache_insert_ns, cache_probe_ns) = if self.workload.is_fleet() {
            let cache = ShardedCache::new(exec.cache_pages, FLEET_SHARDS);
            replay_cache(&mut &cache, ops)
        } else {
            replay_cache(&mut PrefetchCache::new(exec.cache_pages), ops)
        };

        let device = || {
            let mut disk = DiskModel::new(exec.disk);
            if let Some(faults) = exec.faults.inject {
                disk.enable_faults(faults, 0);
            }
            disk
        };
        // Verified reads: the demand path's retrying read, then the
        // window path's single attempt.
        let mut disk = device();
        let t = Instant::now();
        for &page in &ops.demand_reads {
            // The deadline is a per-query budget; a replayed read gets a
            // whole one so that none fails.
            let mut budget = exec.faults.retry.deadline_us;
            let _ = black_box(disk.read_page_retrying(page, &exec.faults.retry, &mut budget));
        }
        for &page in &ops.inserts {
            let _ = black_box(disk.try_read_page(page, 0));
        }
        let disk_read_ns = per_op_ns(t, ops.demand_reads.len() + ops.inserts.len());
        let t = Instant::now();
        for &page in &ops.inserts {
            black_box(disk.peek_read_us(page));
        }
        let disk_peek_ns = per_op_ns(t, ops.inserts.len());

        // Demand lane (coalescing `stage`) then window lane (`try_stage`),
        // one batch per phase, submitted in elevator order.
        let mut batcher = IoBatcher::new(device());
        let mut staged = 0usize;
        let mut stage_s = 0.0;
        let mut batch_submit_us = Vec::new();
        let phases = ops.phases.max(1);
        for (lane, stream) in [&ops.demand_reads, &ops.inserts].into_iter().enumerate() {
            let chunk = stream.len().div_ceil(phases).max(1);
            for (epoch, pages) in stream.chunks(chunk).enumerate() {
                batcher.begin_phase();
                let t = Instant::now();
                for &page in pages {
                    if lane == 0 {
                        black_box(batcher.contains(page));
                        black_box(batcher.stage(page));
                    } else if !batcher.contains(page) {
                        black_box(batcher.try_stage(page, 0, false));
                    }
                }
                stage_s += t.elapsed().as_secs_f64();
                staged += pages.len();
                let t = Instant::now();
                black_box(batcher.submit(if lane == 0 { 1 } else { 0 }, epoch as u64));
                batch_submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        StorageMicro {
            cache_probe_ns,
            cache_insert_ns,
            disk_read_ns,
            disk_peek_ns,
            batch_stage_ns: if staged == 0 { 0.0 } else { stage_s * 1e9 / staged as f64 },
            batch_submit_us,
        }
    }
}

/// A replica pass's per-query wall times are its two phase spans.
fn copy_span_times(tr: &Tracer, pass: &mut QueryPass) {
    pass.serve_us = tr.durations(Name::Serve).to_vec();
    pass.window_us = tr.durations(Name::Window).to_vec();
}

fn per_op_ns(started: Instant, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        started.elapsed().as_secs_f64() * 1e9 / ops as f64
    }
}

/// (ns per insert, ns per access/contains probe) on a fresh cache: all
/// recorded inserts first, then every recorded probe.
fn replay_cache<C: PageCache>(cache: &mut C, ops: &OpStreams) -> (f64, f64) {
    let t = Instant::now();
    for &page in &ops.inserts {
        black_box(cache.insert(page));
    }
    let insert_ns = per_op_ns(t, ops.inserts.len());
    let t = Instant::now();
    for &page in &ops.access {
        black_box(cache.access(page));
    }
    for &page in &ops.probes {
        black_box(cache.contains(page));
    }
    (insert_ns, per_op_ns(t, ops.access.len() + ops.probes.len()))
}

/// Every field of a `QueryTrace`, bit for bit.
fn digest_query(d: &mut Digest, q: &QueryTrace) {
    for v in [
        q.pages_total,
        q.pages_hit,
        q.result_objects,
        q.prefetch_pages,
        q.gap_pages,
        q.prediction.graph_vertices,
        q.prediction.graph_edges,
        q.prediction.graph_components,
        q.prediction.memory_bytes,
        q.prediction.candidates,
    ] {
        d.u64(v as u64);
    }
    let cpu = &q.prediction.cpu;
    for v in [cpu.graph_object_inserts, cpu.graph_edge_inserts, cpu.traversal_steps] {
        d.u64(v);
    }
    for v in
        [q.residual_us, q.d_ref_us, q.window_us, q.graph_build_us, q.prediction_us, cpu.extra_us]
    {
        d.f64(v);
    }
    d.u64(u64::from(q.outcome.is_failed()));
}

fn fleet_pass(report: &MultiSessionReport, wall_s: f64) -> FleetPass {
    let mut pass = FleetPass {
        wall_s,
        queries: report.sessions.iter().map(|s| s.queries as u64).sum(),
        pages_total: report.total_pages(),
        pages_hit: report.total_pages_hit(),
        residual_p95_us: report.residual.p95,
        response_us: report.total_response_us(),
        disk_busy_us: report.disk_busy_us,
        shed_sessions: report.total_shed() as u64,
        ..FleetPass::default()
    };
    pass.cache.add(&report.cache);
    if let Some(f) = &report.faults {
        pass.faults.add(f);
    }
    if let Some(s) = &report.scheduler {
        pass.scheduler = SchedulerTotals { rounds: s.rounds, parks: s.parks, steals: s.steals };
    }
    if let Some(b) = &report.batch {
        pass.batch =
            BatchTotals { staged: b.staged, unique_pages: b.unique_pages, coalesced: b.coalesced };
    }
    if let Some(t) = &report.telemetry {
        pass.telemetry = TelemetryTotals {
            events: t.events().len() as u64,
            events_dropped: t.dropped_events(),
            span_serve_us_p50: t.percentile(HistogramId::SpanServeUs, 50.0),
            span_window_us_p50: t.percentile(HistogramId::SpanWindowUs, 50.0),
            span_phase_flip_us_p99: t.percentile(HistogramId::SpanPhaseFlipUs, 99.0),
            span_batch_submit_us_p50: t.percentile(HistogramId::SpanBatchSubmitUs, 50.0),
        };
    }
    pass.digest.bytes(report.render().as_bytes());
    pass.digest.f64(report.disk_busy_us);
    for s in &report.sessions {
        pass.sessions.push((s.pages_hit, s.pages_total, s.response_us.to_bits()));
        for v in [s.response_us, s.residual.p50, s.residual.p95, s.residual.p99] {
            pass.digest.f64(v);
        }
        for v in [s.pages_hit, s.pages_total, s.queries as u64, u64::from(s.shed)] {
            pass.digest.u64(v);
        }
    }
    pass
}
