//! The multi-session execution engine.
//!
//! K concurrent clients ([`Session`]s), one shared
//! [`ShardedCache`], one simulated disk whose busy time accumulates on a
//! [`SharedClock`]. Every schedule executes the same bulk-synchronous
//! round — round *i* first serves every session's query *i* against the
//! cache state left by round *i − 1*, then runs every session's prefetch
//! window — through one round body and one round loop
//! (`scheduler.rs`). Every cache, disk and batch-lane operation runs on
//! the calling thread in slot order (the order the sessions were handed
//! in); the schedule only picks how many threads share the pure parts of
//! each serve, the range queries and the predictions:
//!
//! * [`Schedule::RoundRobin`] — the caller alone.
//! * [`Schedule::WorkStealing`] — the same loop with up to `workers`
//!   threads sharing the pure parts, any number of sessions over a fixed
//!   width. It differs from round-robin only in attaching the
//!   [`SchedulerReport`].
//!
//! Identical inputs produce byte-identical reports at every width, under
//! eviction, faults and batching alike. See DESIGN.md §5 and §10.

use crate::batch::BatchCtl;
use crate::context::SimContext;
use crate::executor::ExecutorConfig;
use crate::report::{pct, pct_or_na, percentiles_mut, LatencyPercentiles, Table};
use crate::scheduler::{run_fleet, RoundBody, SchedulerReport};
use crate::session::Session;
use crate::telemetry::TelemetryReport;
use scout_geometry::split;
use scout_storage::{
    hit_ratio, BatchPlan, BatchReport, CacheStats, FaultReport, ShardedCache, SharedClock,
};
use scout_telemetry::{FlightLog, MetricsRegistry};
use std::sync::Arc;

/// How the engine schedules its sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Single-threaded interleaving in slot order — exactly width-1 work
    /// stealing, without the scheduler counters.
    #[default]
    RoundRobin,
    /// `workers` threads (0 = one a core) share the range queries and
    /// predictions of each serve, in contiguous chunks of the active
    /// sessions; everything else stays on the calling thread, so the run
    /// is byte-identical to round-robin. (The name predates the chunks;
    /// nothing is stolen from a queue.) Scales to tens of thousands of
    /// sessions.
    WorkStealing {
        /// Threads per pure pass; 0 picks one a core, the count the
        /// bulk loads' splits read.
        workers: usize,
    },
}

/// Configuration of a multi-session run.
#[derive(Debug, Clone, Copy)]
pub struct MultiSessionConfig {
    /// The per-session execution environment (window ratio, cache size,
    /// disk, CPU costs). `cache_pages` is the *total* shared capacity:
    /// the shards split it exactly (any remainder goes one page each to
    /// the low shards), so `ShardedCache::capacity` — also reported in
    /// `CacheStats` — equals the request for any shard count.
    pub exec: ExecutorConfig,
    /// Shard count of the shared cache (rounded up to a power of two).
    pub shards: usize,
    /// Session schedule.
    pub schedule: Schedule,
    /// Batched I/O submission (DESIGN.md §12): collect each phase's page
    /// reads, single-flight cross-session duplicates, and submit them in
    /// seek-aware elevator order. Disabled by default, which keeps every
    /// schedule on immediate submission, byte for byte.
    pub batch: BatchPlan,
}

impl Default for MultiSessionConfig {
    fn default() -> Self {
        MultiSessionConfig {
            exec: ExecutorConfig::default(),
            shards: 8,
            schedule: Schedule::RoundRobin,
            batch: BatchPlan::default(),
        }
    }
}

/// Runs K sessions over one shared sharded cache.
#[derive(Debug, Clone)]
pub struct MultiSessionExecutor {
    config: MultiSessionConfig,
}

impl MultiSessionExecutor {
    /// An engine with the given configuration (validated here, so a bad
    /// config fails at construction, not mid-run).
    pub fn new(config: MultiSessionConfig) -> MultiSessionExecutor {
        config.exec.assert_valid();
        assert!(config.shards >= 1, "shard count must be >= 1");
        MultiSessionExecutor { config }
    }

    /// Runs the sessions over a fresh shared cache (§7.1 clears every
    /// cache between sequences).
    pub fn run(&self, ctx: &SimContext<'_>, mut sessions: Vec<Session>) -> MultiSessionReport {
        let mut cache = ShardedCache::new(self.config.exec.cache_pages, self.config.shards);
        let clock = SharedClock::new();
        for session in &mut sessions {
            session.begin(&self.config.exec, Some(clock.clone()));
        }
        let exec = &self.config.exec;
        // Arm telemetry strictly opt-in: `None` (the default) constructs
        // nothing, keeping every path byte-identical to a disarmed run.
        let spans = exec.telemetry.map(|_| Arc::new(MetricsRegistry::new()));
        if let Some(registry) = &spans {
            for session in &mut sessions {
                session.arm_telemetry(Arc::clone(registry));
            }
        }
        let mut batch =
            self.config.batch.enabled.then(|| BatchCtl::new(exec, &clock, spans.as_ref()));
        // One round body, one round loop (DESIGN.md §10): round-robin is
        // width 1 with the scheduler counters dropped.
        let mut body = RoundBody { ctx, exec, batch: batch.as_mut() };
        let width = match self.config.schedule {
            Schedule::RoundRobin => 1,
            // The core count, as the bulk loads' splits read it.
            Schedule::WorkStealing { workers: 0 } => split::width(usize::MAX, 1),
            Schedule::WorkStealing { workers } => workers,
        };
        let (mut sessions, report) =
            run_fleet(&mut body, &mut cache, sessions, width, spans.as_deref());
        let scheduler = (self.config.schedule != Schedule::RoundRobin).then_some(report);

        // Teardown of the batch lanes: their counters, and their disks'
        // fault counters for the fleet total (retry continuations already
        // live in the per-session reports).
        let (batch_report, batch_faults, batch_recorder) = match batch.map(BatchCtl::finish) {
            Some((report, faults, recorder)) => (Some(report), faults, recorder),
            None => (None, None, None),
        };
        // Telemetry teardown: merge every session's event ring (plus the
        // batch engine's) into one sealed flight log.
        let telemetry = spans.map(|registry| {
            let mut flight = FlightLog::default();
            for session in &mut sessions {
                if let Some(mut st) = session.take_telemetry() {
                    flight.absorb(&mut st.recorder);
                }
            }
            if let Some(mut rec) = batch_recorder {
                flight.absorb(&mut rec);
            }
            flight.seal();
            TelemetryReport { registry, flight }
        });
        let mut report =
            MultiSessionReport::assemble(sessions, cache.stats(), clock.now_us(), scheduler);
        report.batch = batch_report;
        if let Some(bf) = batch_faults {
            report.faults.get_or_insert_with(FaultReport::default).merge(&bf);
        }
        report.telemetry = telemetry;
        report
    }
}

/// One session's slice of a multi-session report.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Session id.
    pub id: usize,
    /// Tenant the session billed to (0 unless assigned).
    pub tenant: usize,
    /// Always false: every session runs. Kept because the benchmark
    /// adapter reads and hashes it.
    pub shed: bool,
    /// Queries executed.
    pub queries: usize,
    /// Result pages requested / served from the shared cache.
    pub pages_total: u64,
    /// Result pages served from the shared cache.
    pub pages_hit: u64,
    /// Residual (user-visible) latency percentiles across this session's
    /// queries, µs.
    pub residual: LatencyPercentiles,
    /// Total user-visible response time, µs.
    pub response_us: f64,
    /// This session's fault-layer counters (injection, retries, breaker);
    /// `None` when fault injection was disabled.
    pub faults: Option<FaultReport>,
}

impl SessionReport {
    /// This session's cache-hit rate over result pages.
    pub fn hit_rate(&self) -> f64 {
        hit_ratio(self.pages_hit, self.pages_total)
    }
}

/// One tenant's aggregate slice of a multi-session run: per-tenant
/// latency and hit accounting.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Tenant id.
    pub(crate) tenant: usize,
    /// Sessions billed to this tenant.
    pub(crate) sessions: usize,
    /// Always 0: every session runs. Kept because the benchmark adapter
    /// hashes the render's tenant `shed` column.
    pub(crate) shed: usize,
    /// Queries executed across this tenant's sessions.
    pub(crate) queries: usize,
    /// Result pages requested by this tenant.
    pub(crate) pages_total: u64,
    /// Result pages served from the shared cache.
    pub(crate) pages_hit: u64,
    /// Residual latency percentiles across this tenant's queries, µs.
    pub(crate) residual: LatencyPercentiles,
}

impl TenantReport {
    /// This tenant's cache-hit rate over result pages.
    pub(crate) fn hit_rate(&self) -> f64 {
        hit_ratio(self.pages_hit, self.pages_total)
    }
}

/// Aggregate + per-session results of one multi-session run.
#[derive(Debug, Clone)]
pub struct MultiSessionReport {
    /// Per-session slices, ordered by session id regardless of which
    /// thread finished first (order-independent accounting).
    pub sessions: Vec<SessionReport>,
    /// Per-tenant aggregates, ordered by tenant id. Always populated;
    /// single-tenant fleets get one row covering everything.
    pub tenants: Vec<TenantReport>,
    /// Shared-cache counters for the whole run.
    pub cache: CacheStats,
    /// Total simulated time the shared disk spent busy, µs — the
    /// contention K sessions put on one device.
    pub disk_busy_us: f64,
    /// Residual latency percentiles across *all* sessions' queries, µs.
    pub residual: LatencyPercentiles,
    /// Scheduler counters; `None` under round-robin. Never part
    /// of [`MultiSessionReport::render`], so width-1 work-stealing renders
    /// byte-identically to round-robin.
    pub scheduler: Option<SchedulerReport>,
    /// Fleet-wide fault-layer counters: the merge of every session's
    /// report. `None` when fault injection was disabled, which keeps
    /// [`MultiSessionReport::render`] byte-identical to pre-fault runs.
    pub faults: Option<FaultReport>,
    /// Batched-I/O lane counters (DESIGN.md §12); `None` when batching was
    /// disabled. Never part of [`MultiSessionReport::render`], so batched
    /// runs stay render-comparable with unbatched ones.
    pub batch: Option<BatchReport>,
    /// The armed run's telemetry view (DESIGN.md §13): the shared span
    /// registry plus the sealed flight log. `None` when
    /// `ExecutorConfig.telemetry` was `None` — the default — and never
    /// part of [`MultiSessionReport::render`], so armed runs stay
    /// render-comparable with disarmed ones.
    pub telemetry: Option<TelemetryReport>,
}

impl MultiSessionReport {
    fn assemble(
        sessions: Vec<Session>,
        cache: CacheStats,
        disk_busy_us: f64,
        scheduler: Option<SchedulerReport>,
    ) -> MultiSessionReport {
        let mut all_residuals: Vec<f64> = Vec::new();
        let mut per_tenant: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut reports: Vec<SessionReport> = sessions
            .into_iter()
            .map(|session| {
                let tenant = session.tenant();
                let (id, trace) = session.into_trace();
                let faults = trace.faults;
                let mut residuals: Vec<f64> = trace.queries.iter().map(|q| q.residual_us).collect();
                all_residuals.extend_from_slice(&residuals);
                match per_tenant.iter_mut().find(|(t, _)| *t == tenant) {
                    Some((_, rs)) => rs.extend_from_slice(&residuals),
                    None => per_tenant.push((tenant, residuals.clone())),
                }
                SessionReport {
                    id,
                    tenant,
                    shed: false,
                    queries: trace.queries.len(),
                    pages_total: trace.io.result_pages_total(),
                    pages_hit: trace.io.result_pages_cache,
                    residual: percentiles_mut(&mut residuals),
                    response_us: trace.total_response_us(),
                    faults,
                }
            })
            .collect();
        reports.sort_by_key(|r| r.id);
        per_tenant.sort_by_key(|(t, _)| *t);
        let tenants = per_tenant
            .into_iter()
            .map(|(tenant, mut residuals)| {
                let mine = reports.iter().filter(|s| s.tenant == tenant);
                TenantReport {
                    tenant,
                    sessions: mine.clone().count(),
                    shed: 0,
                    queries: mine.clone().map(|s| s.queries).sum(),
                    pages_total: mine.clone().map(|s| s.pages_total).sum(),
                    pages_hit: mine.map(|s| s.pages_hit).sum(),
                    residual: percentiles_mut(&mut residuals),
                }
            })
            .collect();
        let mut faults: Option<FaultReport> = None;
        for s in &reports {
            if let Some(f) = &s.faults {
                faults.get_or_insert_with(FaultReport::default).merge(f);
            }
        }
        MultiSessionReport {
            sessions: reports,
            tenants,
            cache,
            disk_busy_us,
            residual: percentiles_mut(&mut all_residuals),
            scheduler,
            faults,
            batch: None,
            telemetry: None,
        }
    }

    /// Total result pages requested across sessions.
    pub fn total_pages(&self) -> u64 {
        self.sessions.iter().map(|s| s.pages_total).sum()
    }

    /// Total result pages served from the shared cache across sessions.
    pub fn total_pages_hit(&self) -> u64 {
        self.sessions.iter().map(|s| s.pages_hit).sum()
    }

    /// Shared-cache hit rate over all sessions' result pages.
    pub fn hit_rate(&self) -> f64 {
        hit_ratio(self.total_pages_hit(), self.total_pages())
    }

    /// Total user-visible response time across sessions, µs.
    pub fn total_response_us(&self) -> f64 {
        self.sessions.iter().map(|s| s.response_us).sum()
    }

    /// Renders the per-session table plus the aggregate line. Deterministic
    /// for deterministic runs (the round-robin determinism test compares
    /// two renderings byte-for-byte).
    pub fn render(&self) -> String {
        let mut t =
            Table::new(["session", "queries", "pages", "hit %", "p50 ms", "p95 ms", "p99 ms"]);
        let ms = |us: f64| format!("{:.3}", us / 1_000.0);
        for s in &self.sessions {
            t.row([
                format!("#{}", s.id),
                s.queries.to_string(),
                s.pages_total.to_string(),
                pct_or_na(s.hit_rate(), s.pages_total),
                ms(s.residual.p50),
                ms(s.residual.p95),
                ms(s.residual.p99),
            ]);
        }
        t.row([
            "all".to_string(),
            self.sessions.iter().map(|s| s.queries).sum::<usize>().to_string(),
            self.total_pages().to_string(),
            pct_or_na(self.hit_rate(), self.total_pages()),
            ms(self.residual.p50),
            ms(self.residual.p95),
            ms(self.residual.p99),
        ]);
        // Zero accesses renders as `n/a`, not `0.0 %` — an unused cache is
        // not a cold one.
        let shared_hit = match self.cache.accesses() {
            0 => "n/a".to_string(),
            _ => format!("{} %", pct(self.cache.hit_rate())),
        };
        let mut out = format!(
            "{}\nshared cache: {} hits / {} accesses ({}), {} of {} pages used, {} evictions\n\
             disk busy: {:.1} simulated ms\n",
            t.render(),
            self.cache.hits,
            self.cache.accesses(),
            shared_hit,
            self.cache.len,
            self.cache.capacity,
            self.cache.evictions,
            self.disk_busy_us / 1_000.0,
        );
        // Per-tenant fairness table — only when the fleet actually spans
        // tenants (single-tenant runs keep the historical layout, which
        // the byte-identity determinism tests compare).
        if self.tenants.len() > 1 {
            let mut tt = Table::new(["tenant", "sessions", "shed", "queries", "hit %", "p95 ms"]);
            for t in &self.tenants {
                tt.row([
                    format!("t{}", t.tenant),
                    t.sessions.to_string(),
                    t.shed.to_string(),
                    t.queries.to_string(),
                    pct_or_na(t.hit_rate(), t.pages_total),
                    ms(t.residual.p95),
                ]);
            }
            out.push_str(&tt.render());
            out.push('\n');
        }
        // Fault-layer counters — only when fault injection ran, so
        // fault-free renders stay byte-identical to pre-fault ones (the
        // determinism tests compare renders).
        if let Some(faults) = &self.faults {
            let failed: u64 = faults.failed_queries;
            out.push_str(&faults.summary());
            out.push('\n');
            if failed > 0 {
                for s in &self.sessions {
                    if let Some(f) = &s.faults {
                        if f.failed_queries > 0 {
                            out.push_str(&format!(
                                "failed queries #{}: {}\n",
                                s.id, f.failed_queries
                            ));
                        }
                    }
                }
            }
        }
        out
    }

    /// Always 0: every session runs. Kept because the benchmark adapter
    /// reads it.
    pub fn total_shed(&self) -> usize {
        self.sessions.iter().filter(|s| s.shed).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::NoPrefetch;
    use scout_geometry::{
        Aabb, Aspect, ObjectId, QueryRegion, Shape, SpatialObject, StructureId, Vec3,
    };
    use scout_index::RTree;

    fn dataset() -> Vec<SpatialObject> {
        (0..300)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    StructureId(0),
                    Shape::Point(Vec3::new(i as f64, 0.5, 0.5)),
                )
            })
            .collect()
    }

    fn stream(offset: f64, n: usize) -> Vec<QueryRegion> {
        (0..n)
            .map(|i| {
                QueryRegion::new(
                    Vec3::new(offset + i as f64 * 12.0, 0.5, 0.5),
                    1_000.0,
                    Aspect::Cube,
                )
            })
            .collect()
    }

    fn sessions(k: usize, n: usize) -> Vec<Session> {
        (0..k)
            .map(|id| Session::new(id, Box::new(NoPrefetch), stream(10.0 + id as f64 * 3.0, n)))
            .collect()
    }

    #[test]
    fn round_robin_runs_every_session_to_completion() {
        let objs = dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(300.0)));
        let engine = MultiSessionExecutor::new(MultiSessionConfig::default());
        let report = engine.run(&ctx, sessions(4, 5));
        assert_eq!(report.sessions.len(), 4);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.id, i);
            assert_eq!(s.queries, 5);
            assert!(s.pages_total > 0);
        }
        assert!(report.disk_busy_us > 0.0);
        assert!(report.render().contains("shared cache"));
    }

    #[test]
    fn mixed_length_sessions_are_handled() {
        let objs = dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(300.0)));
        for schedule in [
            Schedule::RoundRobin,
            Schedule::WorkStealing { workers: 1 },
            Schedule::WorkStealing { workers: 3 },
        ] {
            let engine =
                MultiSessionExecutor::new(MultiSessionConfig { schedule, ..Default::default() });
            let sessions = vec![
                Session::new(0, Box::new(NoPrefetch), stream(10.0, 7)),
                Session::new(1, Box::new(NoPrefetch), stream(40.0, 2)),
                Session::new(2, Box::new(NoPrefetch), Vec::new()),
            ];
            let report = engine.run(&ctx, sessions);
            assert_eq!(report.sessions[0].queries, 7, "{schedule:?}");
            assert_eq!(report.sessions[1].queries, 2, "{schedule:?}");
            assert_eq!(report.sessions[2].queries, 0, "{schedule:?}");
        }
    }

    #[test]
    fn empty_session_list_assembles_the_same_report_everywhere() {
        // All schedules must reach the same assembled (empty) report.
        let objs = dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(300.0)));
        let reference =
            MultiSessionExecutor::new(MultiSessionConfig::default()).run(&ctx, Vec::new()).render();
        for schedule in [Schedule::RoundRobin, Schedule::WorkStealing { workers: 2 }] {
            let engine =
                MultiSessionExecutor::new(MultiSessionConfig { schedule, ..Default::default() });
            let report = engine.run(&ctx, Vec::new());
            assert!(report.sessions.is_empty(), "{schedule:?}");
            assert!(report.tenants.is_empty(), "{schedule:?}");
            assert_eq!(report.hit_rate(), 0.0, "{schedule:?}");
            assert_eq!(report.render(), reference, "{schedule:?}");
        }
    }

    #[test]
    fn work_stealing_runs_every_session_to_completion() {
        let objs = dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(300.0)));
        let engine = MultiSessionExecutor::new(MultiSessionConfig {
            schedule: Schedule::WorkStealing { workers: 4 },
            ..Default::default()
        });
        let report = engine.run(&ctx, sessions(6, 5));
        assert_eq!(report.sessions.len(), 6);
        for (i, s) in report.sessions.iter().enumerate() {
            assert_eq!(s.id, i, "reports must be ordered by session id");
            assert_eq!(s.queries, 5);
            assert!(!s.shed);
        }
        let sched = report.scheduler.expect("work-stealing attaches scheduler counters");
        assert_eq!(sched.rounds, 5);
    }

    #[test]
    fn zero_access_rows_render_as_na() {
        // A session that never touched a page and an untouched shared
        // cache: the report must say "no measurement", not "0.0 %" — the
        // two are indistinguishable otherwise.
        let report = MultiSessionReport {
            sessions: vec![SessionReport {
                id: 0,
                tenant: 0,
                shed: false,
                queries: 0,
                pages_total: 0,
                pages_hit: 0,
                residual: LatencyPercentiles::default(),
                response_us: 0.0,
                faults: None,
            }],
            tenants: Vec::new(),
            cache: CacheStats::default(),
            disk_busy_us: 0.0,
            residual: LatencyPercentiles::default(),
            scheduler: None,
            faults: None,
            batch: None,
            telemetry: None,
        };
        let s = report.render();
        assert!(s.contains("accesses (n/a)"), "shared-cache line: {s}");
        // Session row, aggregate row and shared-cache line carry the
        // marker.
        assert_eq!(s.matches("n/a").count(), 3, "{s}");
    }

    #[test]
    #[should_panic(expected = "invalid ExecutorConfig")]
    fn invalid_exec_config_rejected_at_construction() {
        let mut config = MultiSessionConfig::default();
        config.exec.cache_pages = 0;
        let _ = MultiSessionExecutor::new(config);
    }
}
