//! The `fig_scale` sweep: M:N scheduler throughput at 1k/10k/100k
//! concurrent sessions.
//!
//! SCOUT's setting is many analysts on one shared store; the paper's
//! evaluation stops at tens of clients because thread-per-session does.
//! This sweep drives the ISSUE 7 work-stealing scheduler across session
//! counts × worker counts and records throughput (prefetch windows per
//! second — one window per query), residual latency percentiles, and the
//! scheduler's steal/park/shed counters.
//!
//! Two guard values, checked by CI against `BENCH_scale.json`:
//!
//! * `mn_vs_rr_pages_hit_mismatches` — at the smallest count, under the
//!   eviction-free config of DESIGN.md §5, every measured width must
//!   produce exactly round-robin's pages-hit totals (0 = all match).
//! * `mn_w1_regressions` — width-1 M:N runs the same in-order loop as
//!   round-robin, so its wall clock must stay within noise (2×) of RR
//!   (0 = within bound).
//!
//! The throughput sweep itself runs under cache *pressure* (a small
//! shared cache, multiple tenants) — realistic contention, not the
//! determinism regime.

use crate::{scale, seed};
use scout_baselines::StraightLine;
use scout_geometry::QueryRegion;
use scout_index::SpatialIndex;
use scout_sim::{
    default_parallelism, AdmissionControl, ExecutorConfig, MultiSessionConfig,
    MultiSessionExecutor, MultiSessionReport, Schedule, Session, TestBed,
};
use scout_synth::{generate_sequences, SequenceParams};
use std::time::Instant;

/// Distinct query streams shared across the fleet (sessions cycle over
/// them, so 100k sessions need 64 stream generations, not 100k).
const STREAM_POOL: usize = 64;
/// Tenants the fleet is spread over.
const TENANTS: usize = 4;

/// One (session count × worker count) measurement.
#[derive(Debug, Clone)]
pub struct ScalePoint {
    /// Concurrent sessions.
    pub sessions: usize,
    /// Requested crew width.
    pub workers: usize,
    /// Wall-clock time of the fleet run, ms.
    pub wall_ms: f64,
    /// Prefetch windows (= queries) completed per wall-clock second.
    pub windows_per_sec: f64,
    /// Residual latency percentiles across all queries, µs (simulated).
    pub p50_us: f64,
    /// 95th percentile, µs.
    pub p95_us: f64,
    /// 99th percentile, µs.
    pub p99_us: f64,
    /// Result pages requested across the fleet.
    pub pages_total: u64,
    /// Result pages served from the shared cache.
    pub pages_hit: u64,
    /// Shared-cache evictions (pressure indicator).
    pub evictions: u64,
    /// Sessions taken from another worker's queue.
    pub steals: u64,
    /// Sessions parked at phase boundaries.
    pub parks: u64,
    /// Sessions shed by admission control.
    pub shed: u64,
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
}

/// One width's determinism check at the smallest count (eviction-free
/// config): M:N totals vs the round-robin oracle.
#[derive(Debug, Clone)]
pub struct GuardPoint {
    /// Crew width checked.
    pub workers: usize,
    /// Pages hit by the M:N run.
    pub pages_hit: u64,
    /// Pages hit by round-robin (the oracle).
    pub rr_pages_hit: u64,
    /// Evictions observed (must be 0 for the totals contract to apply).
    pub evictions: u64,
    /// Wall-clock of the M:N run, ms.
    pub wall_ms: f64,
    /// Wall-clock of the round-robin run, ms.
    pub rr_wall_ms: f64,
}

impl GuardPoint {
    /// True when this width reproduced round-robin's accounting exactly.
    pub fn matches(&self) -> bool {
        self.pages_hit == self.rr_pages_hit && self.evictions == 0
    }
}

/// A full `fig_scale` sweep.
#[derive(Debug, Clone)]
pub struct ScaleReport {
    /// Scale factor the sweep ran at.
    pub scale: f64,
    /// Queries per session.
    pub queries_per_session: usize,
    /// Machine parallelism (`SCOUT_THREADS`-aware).
    pub max_parallelism: usize,
    /// One entry per (session count × worker count), sweep order.
    pub points: Vec<ScalePoint>,
    /// One determinism check per width, at the smallest count.
    pub guards: Vec<GuardPoint>,
    /// Fault-injection plan of the sweep (always disabled here; recorded
    /// so every bench artifact states its fault knobs, ISSUE 8).
    pub faults: scout_storage::FaultPlan,
}

impl ScaleReport {
    /// Widths whose eviction-free totals diverged from round-robin — the
    /// primary CI guard; must stay 0.
    pub fn mn_vs_rr_pages_hit_mismatches(&self) -> u64 {
        self.guards.iter().filter(|g| !g.matches()).count() as u64
    }

    /// Width-1 guard runs slower than 2× round-robin — width 1 runs the
    /// identical loop, so anything beyond noise is dispatch overhead.
    /// Must stay 0.
    pub fn mn_w1_regressions(&self) -> u64 {
        self.guards
            .iter()
            .filter(|g| g.workers == 1 && g.wall_ms > 2.0 * g.rr_wall_ms.max(1.0))
            .count() as u64
    }

    /// Serializes the report as pretty-printed JSON (no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&crate::meta_json("scale"));
        out.push_str(&format!(
            "  \"config\": {{ \"scale\": {:.2}, \"queries_per_session\": {}, \
             \"schedule\": \"work-stealing\", \"workers\": {:?}, \"max_parallelism\": {}, \
             \"tenants\": {}, \"seed\": {}, {}, {} }},\n",
            self.scale,
            self.queries_per_session,
            {
                let mut widths: Vec<usize> = self.points.iter().map(|p| p.workers).collect();
                widths.sort_unstable();
                widths.dedup();
                widths
            },
            self.max_parallelism,
            TENANTS,
            seed(),
            crate::faults_json(&self.faults),
            crate::batch_json(&scout_storage::BatchPlan::default()),
        ));
        out.push_str("  \"points\": [\n");
        for (i, p) in self.points.iter().enumerate() {
            let comma = if i + 1 < self.points.len() { "," } else { "" };
            out.push_str(&format!(
                "    {{ \"sessions\": {}, \"workers\": {}, \"wall_ms\": {:.1}, \
                 \"windows_per_sec\": {:.0}, \"p50_us\": {:.1}, \"p95_us\": {:.1}, \
                 \"p99_us\": {:.1}, \"pages_total\": {}, \"pages_hit\": {}, \
                 \"evictions\": {}, \"steals\": {}, \"parks\": {}, \"shed\": {}, \
                 \"rounds\": {} }}{}\n",
                p.sessions,
                p.workers,
                p.wall_ms,
                p.windows_per_sec,
                p.p50_us,
                p.p95_us,
                p.p99_us,
                p.pages_total,
                p.pages_hit,
                p.evictions,
                p.steals,
                p.parks,
                p.shed,
                p.rounds,
                comma
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"guard\": {\n");
        for g in &self.guards {
            out.push_str(&format!(
                "    \"width_{}\": {{ \"pages_hit\": {}, \"rr_pages_hit\": {}, \
                 \"evictions\": {}, \"wall_ms\": {:.1}, \"rr_wall_ms\": {:.1} }},\n",
                g.workers, g.pages_hit, g.rr_pages_hit, g.evictions, g.wall_ms, g.rr_wall_ms
            ));
        }
        out.push_str(&format!(
            "    \"mn_vs_rr_pages_hit_mismatches\": {},\n    \"mn_w1_regressions\": {}\n  }}\n}}\n",
            self.mn_vs_rr_pages_hit_mismatches(),
            self.mn_w1_regressions()
        ));
        out
    }
}

/// The fleet: `count` sessions cycling over a pool of guided streams,
/// spread round-robin across [`TENANTS`] tenants. [`StraightLine`] keeps
/// per-query prediction cost trivial — this sweep measures the scheduler,
/// not the predictor.
fn build_sessions(count: usize, streams: &[Vec<QueryRegion>]) -> Vec<Session> {
    (0..count)
        .map(|i| {
            Session::new(i, Box::new(StraightLine::new()), streams[i % streams.len()].clone())
                .with_tenant(i % TENANTS)
        })
        .collect()
}

fn run_timed(
    engine: &MultiSessionExecutor,
    bed: &TestBed,
    sessions: Vec<Session>,
) -> (MultiSessionReport, f64) {
    let ctx = bed.ctx_rtree();
    let t0 = Instant::now();
    let report = engine.run(&ctx, sessions);
    (report, t0.elapsed().as_secs_f64() * 1_000.0)
}

fn windows_per_sec(report: &MultiSessionReport, wall_ms: f64) -> f64 {
    let windows: usize = report.sessions.iter().map(|s| s.queries).sum();
    if wall_ms > 0.0 {
        windows as f64 / (wall_ms / 1_000.0)
    } else {
        0.0
    }
}

/// Runs the sweep at `scale_factor` (1.0 = 1k/10k/100k sessions; CI uses
/// 0.1 for 100/1k/10k). Deterministic in `seed` for all simulated
/// quantities; only wall-clock fields vary per host.
pub fn run(scale_factor: f64, seed: u64) -> ScaleReport {
    let dataset = crate::neuron_dataset_with_objects(20_000);
    let bed = TestBed::with_page_capacity(dataset, 32);
    let queries_per_session = ((8.0 * scale_factor).round() as usize).clamp(2, 8);
    let params =
        SequenceParams { length: queries_per_session, ..SequenceParams::sensitivity_default() };
    let streams: Vec<Vec<QueryRegion>> =
        generate_sequences(&bed.dataset, &params, STREAM_POOL, seed)
            .into_iter()
            .map(|s| s.regions)
            .collect();

    // Pressure config for the throughput sweep: a shared cache far smaller
    // than the working set, so admission-relevant contention is real.
    let pressure = ExecutorConfig { window_ratio: 1.6, cache_pages: 512, ..Default::default() };
    let mut counts: Vec<usize> = [1_000.0, 10_000.0, 100_000.0]
        .iter()
        .map(|c| ((c * scale_factor) as usize).max(20))
        .collect();
    counts.dedup();
    let mut widths = vec![1, 2, 4, default_parallelism()];
    widths.sort_unstable();
    widths.dedup();

    let mut points = Vec::new();
    for &count in &counts {
        for &workers in &widths {
            let engine = MultiSessionExecutor::new(MultiSessionConfig {
                exec: pressure,
                shards: 16,
                schedule: Schedule::WorkStealing { workers },
                admission: AdmissionControl::unlimited(),
                ..Default::default()
            });
            let (report, wall_ms) = run_timed(&engine, &bed, build_sessions(count, &streams));
            let sched = report.scheduler.expect("work-stealing attaches counters");
            points.push(ScalePoint {
                sessions: count,
                workers,
                wall_ms,
                windows_per_sec: windows_per_sec(&report, wall_ms),
                p50_us: report.residual.p50,
                p95_us: report.residual.p95,
                p99_us: report.residual.p99,
                pages_total: report.total_pages(),
                pages_hit: report.total_pages_hit(),
                evictions: report.cache.evictions,
                steals: sched.steals,
                parks: sched.parks,
                shed: sched.shed,
                rounds: sched.rounds,
            });
        }
    }

    let smallest = counts[0];
    // Determinism guard, smallest count, eviction-free config: the cache
    // holds the whole layout and uses a single shard, so per-shard capacity
    // equals the page count and eviction is structurally impossible (16
    // shards would split the budget and let a skewed shard overflow even
    // though the total fits). Totals must equal round-robin at every width.
    let ample = ExecutorConfig {
        window_ratio: 8.0,
        cache_pages: bed.rtree.layout().page_count(),
        ..Default::default()
    };
    let rr_engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec: ample,
        shards: 1,
        schedule: Schedule::RoundRobin,
        ..Default::default()
    });
    let (rr, rr_wall_ms) = run_timed(&rr_engine, &bed, build_sessions(smallest, &streams));
    let guards = widths
        .iter()
        .map(|&workers| {
            let engine = MultiSessionExecutor::new(MultiSessionConfig {
                exec: ample,
                shards: 1,
                schedule: Schedule::WorkStealing { workers },
                ..Default::default()
            });
            let (ws, wall_ms) = run_timed(&engine, &bed, build_sessions(smallest, &streams));
            GuardPoint {
                workers,
                pages_hit: ws.total_pages_hit(),
                rr_pages_hit: rr.total_pages_hit(),
                evictions: ws.cache.evictions.max(rr.cache.evictions),
                wall_ms,
                rr_wall_ms,
            }
        })
        .collect();

    ScaleReport {
        scale: scale_factor,
        queries_per_session,
        max_parallelism: default_parallelism(),
        points,
        guards,
        faults: pressure.faults,
    }
}

/// Entry point shared by the bin and the bench target: runs at the
/// `SCOUT_BENCH_SCALE` scale and returns (report, json).
pub fn run_default() -> (ScaleReport, String) {
    let report = run(scale(), seed());
    let json = report.to_json();
    (report, json)
}
