//! The `fig_obs` sweep: flight-recorder telemetry on/off (ISSUE 10).
//!
//! Telemetry is strictly opt-in (`ExecutorConfig.telemetry = None` by
//! default), so this harness measures the two promises the tentpole
//! makes, on a `fig_scale`-style fleet (stream pool, tenants, cache
//! pressure):
//!
//! * **identity** — disarmed runs are byte-identical across reruns, and
//!   *armed* runs render byte-identically to disarmed ones (the report
//!   never renders telemetry); failures feed the
//!   `telemetry_disabled_mismatches` CI guard (must stay 0). Armed
//!   width-1 runs additionally export byte-identical JSONL event streams
//!   across reruns and across the RR/WS1 schedule pair, feeding
//!   `jsonl_rerun_mismatches` (must stay 0).
//! * **overhead** — an armed fleet must sustain ≥ 95 % of the disarmed
//!   fleet's wall-clock windows-per-second (best of three runs each, to
//!   damp host noise); a breach feeds `telemetry_overhead_regressions`
//!   (must stay 0).
//!
//! `BENCH_obs.json` also embeds a short excerpt of the merged JSONL
//! timeline plus the armed run's headline counters, so the artifact shows
//! what the flight recorder actually captured.

use crate::{scale, seed};
use scout_baselines::StraightLine;
use scout_geometry::QueryRegion;
use scout_sim::{
    default_parallelism, AdmissionControl, ExecutorConfig, MultiSessionConfig,
    MultiSessionExecutor, MultiSessionReport, Schedule, Session, TestBed,
};
use scout_storage::BatchPlan;
use scout_synth::{generate_sequences, SequenceParams};
use scout_telemetry::{CounterId, TelemetryPlan};
use std::time::Instant;

/// Distinct query streams shared across the fleet (as in `fig_scale`).
const STREAM_POOL: usize = 64;
/// Tenants the fleet is spread over.
const TENANTS: usize = 4;
/// Timed runs per arm of the overhead measurement; best wall time wins.
/// Each arm also gets one untimed warmup run first (allocator, page
/// tables, branch predictors), so the best is a steady-state number.
const OVERHEAD_RUNS: usize = 5;
/// Lines of the merged JSONL timeline embedded in the artifact.
const EXCERPT_LINES: usize = 12;

/// The render byte-identity checks (armed must be invisible).
#[derive(Debug, Clone)]
pub struct RenderChecks {
    /// Two disarmed round-robin runs render byte-identically.
    pub disarmed_rerun_identical: bool,
    /// An armed round-robin run renders byte-identically to a disarmed
    /// one — telemetry never changes the report.
    pub armed_rr_matches_disarmed: bool,
    /// Armed width-1 work stealing renders byte-identically to the same
    /// disarmed round-robin reference.
    pub armed_ws1_matches_disarmed: bool,
}

/// The armed width-1 event-stream byte-identity checks.
#[derive(Debug, Clone)]
pub struct JsonlChecks {
    /// Two armed round-robin runs export byte-identical JSONL.
    pub rr_rerun_identical: bool,
    /// Armed width-1 work stealing exports byte-identical JSONL to armed
    /// round-robin (the W1 determinism ladder extends to events).
    pub ws1_matches_rr: bool,
    /// Two armed *batched* round-robin runs export byte-identical JSONL
    /// (batch-engine submit events included).
    pub batched_rerun_identical: bool,
}

/// One arm of the overhead measurement.
#[derive(Debug, Clone)]
pub struct OverheadArm {
    /// Best wall-clock time across `OVERHEAD_RUNS` runs, ms.
    pub wall_ms: f64,
    /// Prefetch windows (= queries) per wall-clock second at that best.
    pub windows_per_sec: f64,
}

/// A full `fig_obs` run.
#[derive(Debug, Clone)]
pub struct ObsReport {
    /// Scale factor the sweep ran at.
    pub scale: f64,
    /// Sessions in the overhead fleet.
    pub sessions: usize,
    /// Queries per session.
    pub queries_per_session: usize,
    /// Crew width of the overhead fleet.
    pub workers: usize,
    /// Telemetry disarmed (the default engine).
    pub disarmed: OverheadArm,
    /// Telemetry armed (events + spans + metrics).
    pub armed: OverheadArm,
    /// The render byte-identity checks.
    pub render: RenderChecks,
    /// The armed W1 JSONL byte-identity checks.
    pub jsonl: JsonlChecks,
    /// Events retained in the armed identity run's merged flight log.
    pub events: usize,
    /// Events lost to ring wrap-around (0 at these fleet sizes).
    pub dropped_events: u64,
    /// Queries served per the armed run's telemetry counter.
    pub queries_served: u64,
    /// Prefetch windows opened per the armed run's telemetry counter.
    pub windows_opened: u64,
    /// Pages prefetched per the armed run's telemetry counter.
    pub prefetch_pages: u64,
    /// The first `EXCERPT_LINES` lines of the merged JSONL timeline.
    pub excerpt: Vec<String>,
}

impl ObsReport {
    /// Armed throughput as a fraction of disarmed (1.0 = free).
    pub fn armed_ratio(&self) -> f64 {
        if self.disarmed.windows_per_sec > 0.0 {
            self.armed.windows_per_sec / self.disarmed.windows_per_sec
        } else {
            0.0
        }
    }

    /// Failed render byte-identity checks — the primary CI guard; must
    /// stay 0 (armed telemetry must be invisible in every report).
    pub fn telemetry_disabled_mismatches(&self) -> u64 {
        u64::from(!self.render.disarmed_rerun_identical)
            + u64::from(!self.render.armed_rr_matches_disarmed)
            + u64::from(!self.render.armed_ws1_matches_disarmed)
    }

    /// Failed armed-W1 JSONL byte-identity checks — the determinism CI
    /// guard; must stay 0.
    pub fn jsonl_rerun_mismatches(&self) -> u64 {
        u64::from(!self.jsonl.rr_rerun_identical)
            + u64::from(!self.jsonl.ws1_matches_rr)
            + u64::from(!self.jsonl.batched_rerun_identical)
    }

    /// 1 when the armed fleet fell below 95 % of disarmed windows-per-
    /// second — the overhead CI guard; must stay 0.
    pub fn telemetry_overhead_regressions(&self) -> u64 {
        u64::from(self.armed_ratio() < 0.95)
    }

    /// Serializes the report as pretty-printed JSON (no external deps).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&crate::meta_json("obs"));
        out.push_str(&format!(
            "  \"config\": {{ \"scale\": {:.2}, \"sessions\": {}, \"queries_per_session\": {}, \
             \"schedule\": \"work-stealing\", \"workers\": {}, \"max_parallelism\": {}, \
             \"tenants\": {}, \"overhead_runs\": {}, \"seed\": {}, {}, {} }},\n",
            self.scale,
            self.sessions,
            self.queries_per_session,
            self.workers,
            default_parallelism(),
            TENANTS,
            OVERHEAD_RUNS,
            seed(),
            crate::faults_json(&scout_storage::FaultPlan::default()),
            crate::batch_json(&BatchPlan::default()),
        ));
        out.push_str(&format!(
            "  \"overhead\": {{ \"disarmed_wall_ms\": {:.1}, \
             \"disarmed_windows_per_sec\": {:.0}, \"armed_wall_ms\": {:.1}, \
             \"armed_windows_per_sec\": {:.0}, \"armed_ratio\": {:.3} }},\n",
            self.disarmed.wall_ms,
            self.disarmed.windows_per_sec,
            self.armed.wall_ms,
            self.armed.windows_per_sec,
            self.armed_ratio(),
        ));
        out.push_str(&format!(
            "  \"render\": {{ \"disarmed_rerun_identical\": {}, \
             \"armed_rr_matches_disarmed\": {}, \"armed_ws1_matches_disarmed\": {} }},\n",
            self.render.disarmed_rerun_identical,
            self.render.armed_rr_matches_disarmed,
            self.render.armed_ws1_matches_disarmed,
        ));
        out.push_str(&format!(
            "  \"jsonl\": {{ \"rr_rerun_identical\": {}, \"ws1_matches_rr\": {}, \
             \"batched_rerun_identical\": {} }},\n",
            self.jsonl.rr_rerun_identical,
            self.jsonl.ws1_matches_rr,
            self.jsonl.batched_rerun_identical,
        ));
        out.push_str(&format!(
            "  \"flight\": {{ \"events\": {}, \"dropped_events\": {}, \"queries_served\": {}, \
             \"windows_opened\": {}, \"prefetch_pages\": {} }},\n",
            self.events,
            self.dropped_events,
            self.queries_served,
            self.windows_opened,
            self.prefetch_pages,
        ));
        out.push_str("  \"excerpt\": [\n");
        for (i, line) in self.excerpt.iter().enumerate() {
            let comma = if i + 1 < self.excerpt.len() { "," } else { "" };
            out.push_str(&format!("    {}{}\n", line, comma));
        }
        out.push_str("  ],\n");
        out.push_str(&format!(
            "  \"guard\": {{\n    \"telemetry_disabled_mismatches\": {},\n    \
             \"jsonl_rerun_mismatches\": {},\n    \"telemetry_overhead_regressions\": {}\n  \
             }}\n}}\n",
            self.telemetry_disabled_mismatches(),
            self.jsonl_rerun_mismatches(),
            self.telemetry_overhead_regressions(),
        ));
        out
    }
}

fn engine(
    exec: ExecutorConfig,
    schedule: Schedule,
    batched: bool,
    armed: bool,
) -> MultiSessionExecutor {
    let exec = ExecutorConfig { telemetry: armed.then(TelemetryPlan::default), ..exec };
    MultiSessionExecutor::new(MultiSessionConfig {
        exec,
        shards: 16,
        schedule,
        admission: AdmissionControl::unlimited(),
        batch: BatchPlan { enabled: batched },
    })
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

/// The fleet: `count` sessions cycling over a pool of guided streams,
/// spread across [`TENANTS`] tenants — the `fig_scale` construction.
fn build_sessions(count: usize, streams: &[Vec<QueryRegion>]) -> Vec<Session> {
    (0..count)
        .map(|i| {
            Session::new(i, Box::new(StraightLine::new()), streams[i % streams.len()].clone())
                .with_tenant(i % TENANTS)
        })
        .collect()
}

/// Runs the sweep. Deterministic in `seed` for all simulated quantities
/// and for the JSONL checks; only wall-clock fields vary per host.
pub fn run(scale_factor: f64, seed: u64) -> ObsReport {
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
    let pressure = ExecutorConfig { window_ratio: 1.6, cache_pages: 512, ..Default::default() };

    // --- overhead: the same fleet, telemetry off vs on, best-of-N wall
    // clock. Telemetry never charges the simulated clock, so the only
    // honest denominator is wall time.
    let fleet_size = ((1_000.0 * scale_factor) as usize).max(20);
    let workers = default_parallelism();
    let windows: usize = queries_per_session * fleet_size;
    let measure = |armed: bool| -> OverheadArm {
        let eng = engine(pressure, Schedule::WorkStealing { workers }, false, armed);
        let _ = run_timed(&eng, &bed, build_sessions(fleet_size, &streams));
        let mut best = f64::INFINITY;
        for _ in 0..OVERHEAD_RUNS {
            let (_, wall_ms) = run_timed(&eng, &bed, build_sessions(fleet_size, &streams));
            best = best.min(wall_ms);
        }
        let wps = if best > 0.0 { windows as f64 / (best / 1_000.0) } else { 0.0 };
        OverheadArm { wall_ms: best, windows_per_sec: wps }
    };
    let disarmed = measure(false);
    let armed = measure(true);

    // --- identity: a small fleet, byte-for-byte. Renders must not see
    // telemetry at all; armed width-1 JSONL must be a pure function of
    // the workload.
    let idn = 8.min(fleet_size);
    let run_arm = |schedule: Schedule, batched: bool, armed: bool| -> MultiSessionReport {
        run_timed(&engine(pressure, schedule, batched, armed), &bed, build_sessions(idn, &streams))
            .0
    };
    let jsonl = |r: &MultiSessionReport| -> String {
        r.telemetry.as_ref().map(|t| t.to_jsonl()).unwrap_or_default()
    };
    let disarmed_a = run_arm(Schedule::RoundRobin, false, false).render();
    let disarmed_b = run_arm(Schedule::RoundRobin, false, false).render();
    let armed_rr_a = run_arm(Schedule::RoundRobin, false, true);
    let armed_rr_b = run_arm(Schedule::RoundRobin, false, true);
    let armed_ws1 = run_arm(Schedule::WorkStealing { workers: 1 }, false, true);
    let batched_a = run_arm(Schedule::RoundRobin, true, true);
    let batched_b = run_arm(Schedule::RoundRobin, true, true);
    let render = RenderChecks {
        disarmed_rerun_identical: disarmed_a == disarmed_b,
        armed_rr_matches_disarmed: armed_rr_a.render() == disarmed_a,
        armed_ws1_matches_disarmed: armed_ws1.render() == disarmed_a,
    };
    let jsonl_checks = JsonlChecks {
        rr_rerun_identical: jsonl(&armed_rr_a) == jsonl(&armed_rr_b),
        ws1_matches_rr: jsonl(&armed_ws1) == jsonl(&armed_rr_a),
        batched_rerun_identical: jsonl(&batched_a) == jsonl(&batched_b),
    };

    let telem = armed_rr_a.telemetry.as_ref().expect("armed run attaches telemetry");
    let excerpt: Vec<String> =
        jsonl(&armed_rr_a).lines().take(EXCERPT_LINES).map(str::to_string).collect();
    ObsReport {
        scale: scale_factor,
        sessions: fleet_size,
        queries_per_session,
        workers,
        disarmed,
        armed,
        render,
        jsonl: jsonl_checks,
        events: telem.events().len(),
        dropped_events: telem.dropped_events(),
        queries_served: telem.counter(CounterId::QueriesServed),
        windows_opened: telem.counter(CounterId::WindowsOpened),
        prefetch_pages: telem.counter(CounterId::PrefetchPages),
        excerpt,
    }
}

/// Entry point shared by the bin and the bench target: runs at the
/// `SCOUT_BENCH_SCALE` scale and returns (report, json).
pub fn run_default() -> (ObsReport, String) {
    let report = run(scale(), seed());
    let json = report.to_json();
    (report, json)
}
