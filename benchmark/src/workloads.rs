//! Runs one workload and turns what the adapter measured into the named
//! metrics and the named checks.
//!
//! Every wall metric is best-of-passes. The work is deterministic and
//! interference on a shared host only ever adds time, so single-session
//! workloads run identical passes and keep, per query, the minimum latency;
//! fleet workloads keep the fastest pass. The median and quartile distance
//! over passes are printed beside each best so the noise stays visible.

use crate::adapter::{self, Bed, EngineMode, FleetPass, QueryPass, QueryRow, Replica};
use crate::spec::{self, Metric, Sizes, Workload};
use crate::stats::{self, Digest};
use crate::trace::{Name, Tracer};
use crate::{host, say, Run};
use std::io::Write;
use std::path::PathBuf;

/// Builds of the bed per untraced run; `setup_s` is their median.
const SETUP_BUILDS: usize = 3;
/// Every n-th distinct query is checked against an independent scan.
const SCAN_CHECK_EVERY: usize = 25;
/// Every n-th replica query replays its predicate tests (on the neuron
/// bed a replay costs about what the range query did).
const GEOMETRY_REPLAY_EVERY: usize = 4;
const FLEET_GEOMETRY_REPLAY_EVERY: usize = 16;
/// Fleet replica: every n-th session's spans go to the trace file.
const FLEET_TRACE_EVERY: usize = 64;
/// The paper's accuracy band for SCOUT (71–92 %).
const PAPER_HIT_BAND: (f64, f64) = (0.71, 0.92);
/// Σ layer spans ÷ engine wall must land here for the budget to add up.
const CLOSURE_BAND: (f64, f64) = (0.85, 1.15);
const ENGINE_DIGESTS: &str = "model_digest_stable_across_passes";
const LOOP_DIGESTS: &str = "session_loop_digest_stable_across_passes";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckKind {
    /// About the program's outputs: decides `correct`.
    Output,
    /// A claim derived from wall time (which layer dominates, whether the
    /// layer budget closes): printed, and fatal to the suite command, but
    /// not a statement about output correctness.
    Wall,
}

#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub kind: CheckKind,
    /// `None`: not evaluated at this scale.
    pub pass: Option<bool>,
    pub detail: String,
}

#[derive(Debug)]
pub struct Outcome {
    pub metrics: Vec<(Metric, f64)>,
    pub checks: Vec<Check>,
    pub attempted: u64,
    pub failed: u64,
    pub digest: Digest,
}

#[derive(Default)]
struct Collected {
    metrics: Vec<(&'static str, f64)>,
    checks: Vec<Check>,
}

impl Collected {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn check(&mut self, name: &'static str, kind: CheckKind, pass: bool, detail: String) {
        self.checks.push(Check { name, kind, pass: Some(pass), detail });
    }

    fn skip(&mut self, name: &'static str, kind: CheckKind, why: &str) {
        self.checks.push(Check { name, kind, pass: None, detail: why.to_string() });
    }

    /// Orders the metrics as `table` does; each must be set exactly once
    /// and be a finite number.
    fn finish(self, table: &[Metric], attempted: u64, failed: u64, digest: Digest) -> Outcome {
        let metrics = table
            .iter()
            .map(|m| {
                let mut values = self.metrics.iter().filter(|(n, _)| *n == m.name).map(|(_, v)| *v);
                let value =
                    values.next().unwrap_or_else(|| panic!("metric {} not measured", m.name));
                assert!(values.next().is_none(), "metric {} measured twice", m.name);
                assert!(value.is_finite(), "metric {} is {value}", m.name);
                (*m, value)
            })
            .collect();
        assert_eq!(self.metrics.len(), table.len(), "a metric outside the table was measured");
        Outcome { metrics, checks: self.checks, attempted, failed, digest }
    }
}

pub fn run(run: &Run, log: &mut dyn Write) -> Outcome {
    let sizes = spec::sizes(run.workload, run.seconds, run.smoke);
    match (run.workload.is_fleet(), run.trace) {
        (false, false) => single_end_to_end(run, sizes, log),
        (false, true) => single_traced(run, sizes, log),
        (true, false) => fleet_end_to_end(run, sizes, log),
        (true, true) => fleet_traced(run, sizes, log),
    }
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Builds the bed `builds` times; returns the last bed and the median of
/// the build times.
fn timed_setups(run: &Run, sizes: Sizes, builds: usize, log: &mut dyn Write) -> (Bed, f64) {
    let mut totals = Vec::new();
    let mut bed = None;
    for _ in 0..builds {
        drop(bed.take()); // one bed in memory at a time
        let built = adapter::setup(run.workload, sizes, run.seed);
        totals.push(built.times.total_s());
        bed = Some(built);
    }
    let bed = bed.expect("at least one build");
    say(log, format_args!("workload {}: {}", run.workload.name(), bed.describe()));
    say(
        log,
        format_args!(
            "noise setup_s: median {:.4} s of {builds} builds {:?}",
            stats::median(&totals),
            totals.iter().map(|t| format!("{t:.4}")).collect::<Vec<_>>()
        ),
    );
    (bed, stats::median(&totals))
}

/// Wall µs of each query of a pass (serve phase + prefetch window).
fn query_wall_us(pass: &QueryPass) -> Vec<f64> {
    pass.serve_us.iter().zip(&pass.window_us).map(|(s, w)| s + w).collect()
}

struct Model {
    hit_rate: f64,
    speedup: f64,
    residual_ms_mean: f64,
    residual_ms_p95: f64,
    failed_queries: u64,
}

fn model_of_rows(rows: &[QueryRow]) -> Model {
    let total: u64 = rows.iter().map(|r| r.pages_total).sum();
    let hit: u64 = rows.iter().map(|r| r.pages_hit).sum();
    let residual: f64 = rows.iter().map(|r| r.residual_us).sum();
    let cold: f64 = rows.iter().map(|r| r.cold_us).sum();
    let residual_ms = stats::sorted(&rows.iter().map(|r| r.residual_us / 1e3).collect::<Vec<_>>());
    Model {
        hit_rate: hit as f64 / total as f64,
        speedup: cold / residual,
        residual_ms_mean: residual / 1e3 / rows.len() as f64,
        residual_ms_p95: stats::percentile(&residual_ms, 95.0),
        failed_queries: rows.iter().filter(|r| r.failed).count() as u64,
    }
}

fn set_model(c: &mut Collected, m: &Model) {
    c.set("model_hit_rate", m.hit_rate);
    c.set("model_speedup", m.speedup);
    c.set("model_residual_ms_mean", m.residual_ms_mean);
    c.set("model_residual_ms_p95", m.residual_ms_p95);
}

/// Check (a): `range_query` against an independent scan.
fn check_scan(c: &mut Collected, bed: &Bed) {
    let (checked, wrong) = bed.check_range_queries(SCAN_CHECK_EVERY);
    c.check(
        "range_query_matches_scan",
        CheckKind::Output,
        checked > 0 && wrong == 0,
        format!("{wrong} of {checked} sampled queries differ from a full scan"),
    );
}

/// Check (b) on per-query data: every requested page is a hit, a disk
/// read, or was skipped by a query that failed.
fn check_page_accounting(c: &mut Collected, name: &'static str, pass: &QueryPass) {
    let requested: u64 = pass.rows.iter().map(|r| r.pages_total).sum();
    let hit: u64 = pass.rows.iter().map(|r| r.pages_hit).sum();
    let any_failed = pass.rows.iter().any(|r| r.failed);
    let served = pass.io.result_pages_cache + pass.io.result_pages_disk;
    let per_query = pass.rows.iter().all(|r| r.pages_hit <= r.pages_total);
    let ok = per_query
        && hit == pass.io.result_pages_cache
        && hit == pass.cache.hits
        && if any_failed { served <= requested } else { served == requested };
    c.check(
        name,
        CheckKind::Output,
        ok,
        format!(
            "{} hit + {} from disk of {requested} requested; cache counted {} hits",
            pass.io.result_pages_cache, pass.io.result_pages_disk, pass.cache.hits
        ),
    );
}

fn check_digests(c: &mut Collected, name: &'static str, digests: &[Digest]) {
    c.check(
        name,
        CheckKind::Output,
        digests.windows(2).all(|w| w[0] == w[1]),
        format!("{} passes", digests.len()),
    );
}

/// Failures counted against the queries attempted: failed queries, shed
/// sessions and failed output checks.
fn failures(c: &Collected, failed_queries: u64, shed: u64) -> u64 {
    let failed_checks =
        c.checks.iter().filter(|k| k.kind == CheckKind::Output && k.pass == Some(false)).count();
    failed_queries + shed + failed_checks as u64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn p(values: &[f64], pct: f64) -> f64 {
    stats::percentile(&stats::sorted(values), pct)
}

// ---------------------------------------------------------------------------
// follow, gaps: end to end
// ---------------------------------------------------------------------------

fn single_end_to_end(run: &Run, sizes: Sizes, log: &mut dyn Write) -> Outcome {
    let mut c = Collected::default();
    let (bed, setup_s) = timed_setups(run, sizes, SETUP_BUILDS, log);
    let passes: Vec<QueryPass> = (0..spec::SINGLE_PASSES).map(|_| bed.single_pass()).collect();
    let peak_rss_mb = host::peak_rss_mb();

    let walls: Vec<Vec<f64>> = passes.iter().map(query_wall_us).collect();
    let best = stats::elementwise_min(&walls);
    let n = best.len();
    for (name, pct) in [("query_wall_us_p50", 50.0), ("query_wall_us_p99", 99.0)] {
        let per_pass: Vec<f64> = walls.iter().map(|w| p(w, pct)).collect();
        say(
            log,
            format_args!(
                "noise {name}: best-of-passes {:.1}, per pass median {:.1}, iqr/median {:.3} (n = {n} x {} passes)",
                p(&best, pct),
                stats::median(&per_pass),
                stats::iqr_ratio(&per_pass),
                walls.len()
            ),
        );
    }

    let model = model_of_rows(&passes[0].rows);
    check_scan(&mut c, &bed);
    check_page_accounting(&mut c, "page_accounting", &passes[0]);
    check_digests(&mut c, ENGINE_DIGESTS, &passes.iter().map(|p| p.digest).collect::<Vec<_>>());
    check_paper_band(&mut c, run, model.hit_rate);
    let failed = failures(&c, model.failed_queries, 0);

    c.set("setup_s", setup_s);
    c.set("queries_per_s", n as f64 / (stats::sum(&best) / 1e6));
    c.set("query_wall_us_p50", p(&best, 50.0));
    c.set("query_wall_us_p99", p(&best, 99.0));
    set_model(&mut c, &model);
    c.set("peak_rss_mb", peak_rss_mb);
    c.set("served_share", 1.0 - failed as f64 / n as f64);
    c.finish(&spec::END_TO_END, n as u64, failed, passes[0].digest)
}

/// Check (e), model half: SCOUT's accuracy on the paper's headline case
/// lands where the paper says, at the paper's scale.
fn check_paper_band(c: &mut Collected, run: &Run, hit_rate: f64) {
    const NAME: &str = "follow_hit_rate_in_paper_band";
    if run.workload != Workload::Follow || run.smoke {
        c.skip(NAME, CheckKind::Output, "only follow at full scale");
        return;
    }
    c.check(
        NAME,
        CheckKind::Output,
        (PAPER_HIT_BAND.0..=PAPER_HIT_BAND.1).contains(&hit_rate),
        format!("{hit_rate:.4} against {PAPER_HIT_BAND:?}"),
    );
}

// ---------------------------------------------------------------------------
// follow, gaps: traced
// ---------------------------------------------------------------------------

/// The per-name best of several traced passes: per span, the minimum over
/// passes (deterministic work closes the same spans in the same order).
struct Spans {
    tracers: Vec<Tracer>,
}

impl Spans {
    fn best(&self, name: Name) -> Vec<f64> {
        let passes: Vec<Vec<f64>> =
            self.tracers.iter().map(|t| t.durations(name).to_vec()).collect();
        stats::elementwise_min(&passes)
    }

    /// Per query, µs inside calls into the layers: what the direct
    /// children of the query's two phase spans cover.
    fn layer_us_per_query(&self) -> Vec<f64> {
        let passes: Vec<Vec<f64>> = self
            .tracers
            .iter()
            .map(|t| {
                let serve = t.children(Name::Serve);
                let window = t.children(Name::Window);
                serve.iter().zip(window).map(|(s, w)| s + w).collect()
            })
            .collect();
        stats::elementwise_min(&passes)
    }

    fn total(&self, name: Name) -> f64 {
        stats::sum(&self.best(name))
    }

    fn write(&self, workload: Workload, log: &mut dyn Write) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("trace_{}.jsonl", workload.name()));
        let tracer = self.tracers.last().expect("at least one traced pass");
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::File::create(&path))
            .and_then(|f| tracer.write_jsonl(&mut std::io::BufWriter::new(f)));
        match written {
            Ok(()) => {
                say(log, format_args!("trace: {} spans in {}", tracer.span_count(), path.display()))
            }
            Err(e) => say(log, format_args!("trace: not written to {}: {e}", path.display())),
        }
    }
}

/// The layer metrics both kinds of workload read off the replica.
fn set_replica_metrics(
    c: &mut Collected,
    bed: &Bed,
    spans: &Spans,
    replica: &Replica,
    queries: usize,
) {
    let n = queries as f64;
    let rows = &replica.pass.rows;
    let range_query = spans.best(Name::RangeQuery);
    let observe = spans.best(Name::Observe);
    let geometry_us = spans.total(Name::GeometryReplay);
    c.set(
        "geometry.intersect_ns_per_test",
        ratio(geometry_us * 1e3, replica.replayed_tests as f64),
    );
    c.set("geometry.tests_per_query", replica.predicate_tests as f64 / n);
    c.set("index.range_query_us_p50", p(&range_query, 50.0));
    c.set("index.range_query_us_p99", p(&range_query, 99.0));
    c.set("index.pages_in_region_us_p50", p(&spans.best(Name::PagesInRegion), 50.0));
    c.set("index.pages_per_query", rows.iter().map(|r| r.pages_total).sum::<u64>() as f64 / n);
    c.set(
        "index.objects_tested_per_result",
        ratio(
            replica.predicate_tests as f64,
            rows.iter().map(|r| r.result_objects).sum::<u64>() as f64,
        ),
    );
    c.set("index.bulk_load_s", bed.times.bulk_load_s);
    c.set("core.observe_us_p50", p(&observe, 50.0));
    c.set("core.observe_us_p99", p(&observe, 99.0));
    c.set("core.graph_build_us_p50", p(&spans.best(Name::GraphReplay), 50.0));
    c.set("core.plan_us_p50", p(&spans.best(Name::Plan), 50.0));
    c.set(
        "core.graph_vertices_per_query",
        rows.iter().map(|r| r.graph_vertices).sum::<u64>() as f64 / n,
    );
    c.set("core.graph_edges_per_query", rows.iter().map(|r| r.graph_edges).sum::<u64>() as f64 / n);
    c.set("core.candidates_per_query", rows.iter().map(|r| r.candidates).sum::<u64>() as f64 / n);
    c.set("core.memory_bytes_peak", rows.iter().map(|r| r.memory_bytes).max().unwrap_or(0) as f64);
    c.set("storage.d_ref_us_per_query", spans.total(Name::DRef) / n);

    let micro = bed.storage_replay(&replica.ops);
    c.set("storage.cache_probe_ns", micro.cache_probe_ns);
    c.set("storage.cache_insert_ns", micro.cache_insert_ns);
    c.set("storage.disk_read_ns", micro.disk_read_ns);
    c.set("storage.disk_peek_ns", micro.disk_peek_ns);
    c.set("storage.batch_stage_ns", micro.batch_stage_ns);
    c.set("storage.batch_submit_us_p50", p(&micro.batch_submit_us, 50.0));
    c.set("synth.dataset_gen_s", bed.times.dataset_gen_s);
    c.set("synth.sequence_gen_s", bed.times.sequence_gen_s);
}

/// Prints the layer budget and sets the metrics that tie it to the
/// end-to-end number: `engine_us` is the engine's wall time for all
/// queries, `layer_us` what of it the replica found inside layer calls.
fn set_budget(
    c: &mut Collected,
    run: &Run,
    spans: &Spans,
    engine_us: f64,
    queries: usize,
    log: &mut dyn Write,
) {
    let layer_us = stats::sum(&spans.layer_us_per_query());
    let replica_us = spans.total(Name::Serve) + spans.total(Name::Window);
    say(log, format_args!("budget: engine wall {:.1} us/query", engine_us / queries as f64));
    for name in [
        Name::RangeQuery,
        Name::DRef,
        Name::ServeLoop,
        Name::Observe,
        Name::Plan,
        Name::PagesInRegion,
        Name::WindowLoop,
    ] {
        let us = spans.total(name);
        say(
            log,
            format_args!(
                "budget: {:24} {:10.1} us/query  {:5.1} % of engine wall",
                name.label(),
                us / queries as f64,
                100.0 * us / engine_us
            ),
        );
    }
    let closure = layer_us / engine_us;
    c.set("sim.glue_us_per_query", (engine_us - layer_us) / queries as f64);
    c.set("sim.closure_ratio", closure);
    c.set("bench.trace_overhead_ratio", replica_us / engine_us);

    let share = spans.total(Name::RangeQuery) / engine_us;
    let storage =
        (spans.total(Name::DRef) + spans.total(Name::ServeLoop) + spans.total(Name::WindowLoop))
            / engine_us;
    if run.smoke {
        c.skip("layer_budget_closes", CheckKind::Wall, "only at full scale");
        c.skip("dominant_layer", CheckKind::Wall, "only at full scale");
        return;
    }
    match run.workload {
        Workload::FleetDegraded => c.skip(
            "layer_budget_closes",
            CheckKind::Wall,
            "the replica is fault-free and unbatched",
        ),
        _ => c.check(
            "layer_budget_closes",
            CheckKind::Wall,
            (CLOSURE_BAND.0..=CLOSURE_BAND.1).contains(&closure),
            format!("sum of layer spans / engine wall = {closure:.3} against {CLOSURE_BAND:?}"),
        ),
    }
    // The claims that make the workloads worth having: the same layers
    // carry very different shares of the wall time on each.
    let detail = format!(
        "index.range_query is {share:.3} of wall, the storage loops {storage:.3}, claimed {}",
        match run.workload {
            Workload::Follow => "range_query >= 0.5 and storage <= 0.05",
            _ => "range_query <= 0.65 and storage >= 0.15",
        }
    );
    match run.workload {
        Workload::Follow => {
            c.check("dominant_layer", CheckKind::Wall, share >= 0.5 && storage <= 0.05, detail)
        }
        Workload::Fleet => {
            c.check("dominant_layer", CheckKind::Wall, share <= 0.65 && storage >= 0.15, detail)
        }
        _ => c.skip("dominant_layer", CheckKind::Wall, "no claim on this workload"),
    }
}

/// Check (d): the replica's model outputs are the engine's, exactly —
/// which is what licenses reading its spans as the engine's budget.
fn check_replica(c: &mut Collected, engine: &QueryPass, replica: &QueryPass) {
    let differing = engine.rows.iter().zip(&replica.rows).filter(|(a, b)| a != b).count()
        + engine.rows.len().abs_diff(replica.rows.len());
    c.check(
        "replica_matches_engine",
        CheckKind::Output,
        differing == 0 && engine.digest == replica.digest,
        format!("{differing} of {} queries differ", engine.rows.len()),
    );
}

/// Scheduler, telemetry, batch and fault metrics of a single client: the
/// layers are not on its path.
fn set_fleet_only_zero(c: &mut Collected) {
    for name in [
        "storage.batch_unique_pages",
        "storage.batch_coalesced_ratio",
        "storage.fault_retries",
        "storage.fault_dropped_prefetch",
        "storage.degraded_windows",
        "storage.breaker_trips",
        "storage.corruption_served",
        "sim.engine_overhead_us_per_query",
        "sim.sched.rounds",
        "sim.sched.parks",
        "sim.sched.steals_wmax",
        "sim.sched.w1_queries_per_s",
        "sim.sched.w1_iqr_ratio",
        "sim.sched.wmax_queries_per_s",
        "sim.sched.wmax_iqr_ratio",
        "sim.sched.scaling_ratio",
        "sim.span_serve_us_p50",
        "sim.span_window_us_p50",
        "sim.span_phase_flip_us_p99",
        "sim.span_batch_submit_us_p50",
        "telemetry.armed_ratio",
        "telemetry.events",
        "telemetry.events_dropped",
    ] {
        c.set(name, 0.0);
    }
}

/// Wall metrics of the engine's two `Session` calls, from passes driven
/// through them.
fn set_session_call_metrics(c: &mut Collected, passes: &[QueryPass]) {
    let serve =
        stats::elementwise_min(&passes.iter().map(|p| p.serve_us.clone()).collect::<Vec<_>>());
    let window =
        stats::elementwise_min(&passes.iter().map(|p| p.window_us.clone()).collect::<Vec<_>>());
    let pooled: Vec<f64> = passes.iter().flat_map(query_wall_us).collect();
    c.set("sim.serve_observe_us_p50", p(&serve, 50.0));
    c.set("sim.serve_observe_us_p99", p(&serve, 99.0));
    c.set("sim.finish_window_us_p50", p(&window, 50.0));
    c.set("sim.finish_window_us_p99", p(&window, 99.0));
    c.set("sim.query_wall_raw_us_p99", p(&pooled, 99.0));
}

fn single_traced(run: &Run, sizes: Sizes, log: &mut dyn Write) -> Outcome {
    let mut c = Collected::default();
    let (bed, _) = timed_setups(run, sizes, 1, log);
    let engine: Vec<QueryPass> = (0..spec::SINGLE_PASSES).map(|_| bed.single_pass()).collect();
    let mut spans = Spans { tracers: Vec::new() };
    let mut replicas = Vec::new();
    for _ in 0..spec::SINGLE_PASSES {
        let mut tracer = Tracer::new();
        replicas.push(bed.single_replica(&mut tracer, GEOMETRY_REPLAY_EVERY));
        spans.tracers.push(tracer);
    }
    let replica = replicas.pop().expect("at least one pass");
    let n = engine[0].rows.len();
    let engine_best = stats::elementwise_min(&engine.iter().map(query_wall_us).collect::<Vec<_>>());

    set_replica_metrics(&mut c, &bed, &spans, &replica, n);
    set_session_call_metrics(&mut c, &engine);
    set_budget(&mut c, run, &spans, stats::sum(&engine_best), n, log);
    set_fleet_only_zero(&mut c);
    let pass = &engine[0];
    c.set(
        "core.incremental_build_ratio",
        ratio(pass.graph_builds_incremental as f64, pass.graph_builds as f64),
    );
    c.set("storage.cache_evictions", pass.cache.evictions as f64);
    c.set("storage.prefetch_pages", pass.cache.insertions as f64);
    c.set(
        "storage.prefetch_used_ratio",
        ratio(pass.cache.hits as f64, pass.cache.insertions as f64),
    );
    c.set("storage.disk_busy_model_s", pass.disk_busy_us / 1e6);

    check_replica(&mut c, pass, &replica.pass);
    check_digests(&mut c, ENGINE_DIGESTS, &engine.iter().map(|p| p.digest).collect::<Vec<_>>());
    spans.write(run.workload, log);

    let failed = failures(&c, pass.rows.iter().filter(|r| r.failed).count() as u64, 0);
    c.finish(&spec::PER_LAYER, n as u64, failed, pass.digest)
}

// ---------------------------------------------------------------------------
// fleet, fleet_degraded: end to end
// ---------------------------------------------------------------------------

const NARROW: EngineMode = EngineMode { wide: false, armed: false };
/// Passes of the bench-owned `Session` loop; per query the minimum counts.
const LOOP_PASSES: usize = 2;

fn fastest(passes: &[FleetPass]) -> &FleetPass {
    passes.iter().min_by(|a, b| a.wall_s.total_cmp(&b.wall_s)).expect("at least one pass")
}

fn walls(passes: &[FleetPass]) -> Vec<f64> {
    passes.iter().map(|p| p.wall_s).collect()
}

/// Check (b) on a fleet: every requested page is a cache hit, a miss, or
/// was absorbed by a sibling's in-flight read; no corrupt page is served.
fn check_fleet_accounting(c: &mut Collected, pass: &FleetPass) {
    let accounted = pass.cache.hits + pass.cache.misses + pass.cache.coalesced_hits;
    let ok = if pass.faults.failed_queries == 0 {
        accounted == pass.pages_total
    } else {
        accounted <= pass.pages_total
    };
    c.check(
        "page_accounting",
        CheckKind::Output,
        ok && pass.pages_hit == pass.cache.hits,
        format!(
            "{} hits + {} misses + {} coalesced of {} requested",
            pass.cache.hits, pass.cache.misses, pass.cache.coalesced_hits, pass.pages_total
        ),
    );
    c.check(
        "no_corruption_served",
        CheckKind::Output,
        pass.faults.corruption_served == 0,
        format!("{} corrupt pages served", pass.faults.corruption_served),
    );
}

/// Per session (pages hit, pages total, response µs bits) of a pass with
/// per-query rows, summed the way the engine's report sums them.
fn session_sums(pass: &QueryPass) -> Vec<(u64, u64, u64)> {
    let mut rows = pass.rows.iter();
    pass.session_rows
        .iter()
        .map(|&count| {
            let (mut hit, mut total, mut response) = (0, 0, 0.0);
            for r in rows.by_ref().take(count) {
                hit += r.pages_hit;
                total += r.pages_total;
                response += r.residual_us;
            }
            (hit, total, f64::to_bits(response))
        })
        .collect()
}

/// Check (d) on the fault-free fleet: a bench-owned loop over the same
/// public calls yields the engine's per-session numbers exactly.
fn check_loop_matches_engine(
    c: &mut Collected,
    run: &Run,
    name: &'static str,
    engine: &FleetPass,
    pass: &QueryPass,
) {
    if run.workload == Workload::FleetDegraded {
        c.skip(name, CheckKind::Output, "the engine pass is batched, the loop is not");
        return;
    }
    let sums = session_sums(pass);
    let differing = sums.iter().zip(&engine.sessions).filter(|(a, b)| a != b).count()
        + sums.len().abs_diff(engine.sessions.len());
    c.check(
        name,
        CheckKind::Output,
        differing == 0 && pass.cache == engine.cache,
        format!("{differing} of {} sessions differ", engine.sessions.len()),
    );
}

fn fleet_model(pass: &FleetPass, cold_us: f64) -> Model {
    Model {
        hit_rate: pass.pages_hit as f64 / pass.pages_total as f64,
        speedup: cold_us / pass.response_us,
        residual_ms_mean: pass.response_us / 1e3 / pass.queries as f64,
        residual_ms_p95: pass.residual_p95_us / 1e3,
        failed_queries: pass.faults.failed_queries,
    }
}

fn fleet_end_to_end(run: &Run, sizes: Sizes, log: &mut dyn Write) -> Outcome {
    let mut c = Collected::default();
    let (bed, setup_s) = timed_setups(run, sizes, SETUP_BUILDS, log);
    let passes: Vec<FleetPass> =
        (0..sizes.fleet_passes).map(|_| bed.fleet_engine_pass(NARROW)).collect();
    let loops: Vec<QueryPass> = (0..LOOP_PASSES).map(|_| bed.fleet_session_loop()).collect();
    let peak_rss_mb = host::peak_rss_mb();
    let best = fastest(&passes);
    let n = best.queries;
    say(
        log,
        format_args!(
            "noise queries_per_s: fastest pass {:.4} s, median {:.4} s, iqr/median {:.3} ({} passes of {n} queries)",
            best.wall_s,
            stats::median(&walls(&passes)),
            stats::iqr_ratio(&walls(&passes)),
            passes.len()
        ),
    );

    let model = fleet_model(best, bed.fleet_cold_us());
    check_scan(&mut c, &bed);
    check_fleet_accounting(&mut c, best);
    check_page_accounting(&mut c, "session_page_accounting", &loops[0]);
    check_digests(&mut c, ENGINE_DIGESTS, &passes.iter().map(|p| p.digest).collect::<Vec<_>>());
    check_digests(&mut c, LOOP_DIGESTS, &loops.iter().map(|l| l.digest).collect::<Vec<_>>());
    check_loop_matches_engine(&mut c, run, "session_loop_matches_engine", best, &loops[0]);
    let failed = failures(&c, model.failed_queries, best.shed_sessions);

    let wall = stats::elementwise_min(&loops.iter().map(query_wall_us).collect::<Vec<_>>());
    c.set("setup_s", setup_s);
    c.set("queries_per_s", n as f64 / best.wall_s);
    c.set("query_wall_us_p50", p(&wall, 50.0));
    c.set("query_wall_us_p99", p(&wall, 99.0));
    set_model(&mut c, &model);
    c.set("peak_rss_mb", peak_rss_mb);
    c.set("served_share", 1.0 - failed as f64 / n as f64);
    c.finish(&spec::END_TO_END, n, failed, best.digest)
}

// ---------------------------------------------------------------------------
// fleet, fleet_degraded: traced
// ---------------------------------------------------------------------------

fn fleet_traced(run: &Run, sizes: Sizes, log: &mut dyn Write) -> Outcome {
    let mut c = Collected::default();
    let (bed, _) = timed_setups(run, sizes, 1, log);
    let collect = |mode: EngineMode, passes: usize| -> Vec<FleetPass> {
        (0..passes).map(|_| bed.fleet_engine_pass(mode)).collect()
    };
    let narrow = collect(NARROW, sizes.fleet_passes);
    let armed = collect(EngineMode { wide: false, armed: true }, 2);
    let loops: Vec<QueryPass> = (0..LOOP_PASSES).map(|_| bed.fleet_session_loop()).collect();
    let mut spans = Spans { tracers: Vec::new() };
    let mut replicas = Vec::new();
    for _ in 0..2 {
        let mut tracer = Tracer::new();
        replicas.push(bed.fleet_replica(
            &mut tracer,
            FLEET_GEOMETRY_REPLAY_EVERY,
            FLEET_TRACE_EVERY,
        ));
        spans.tracers.push(tracer);
    }
    let replica = replicas.pop().expect("two passes");
    // Last: after a width-`nproc` pass every later pass in this process
    // runs slower (measured: width-1 passes 3.3 -> 3.9 s, armed 1.5x).
    let wide = collect(EngineMode { wide: true, armed: false }, sizes.fleet_passes);

    let best = fastest(&narrow);
    let n = best.queries as usize;
    set_replica_metrics(&mut c, &bed, &spans, &replica, n);
    set_session_call_metrics(&mut c, &loops);
    set_budget(&mut c, run, &spans, best.wall_s * 1e6, n, log);

    c.set("core.incremental_build_ratio", 0.0); // StraightLine builds no graph
    c.set("storage.cache_evictions", best.cache.evictions as f64);
    c.set("storage.prefetch_pages", best.cache.insertions as f64);
    c.set(
        "storage.prefetch_used_ratio",
        ratio(best.cache.hits as f64, best.cache.insertions as f64),
    );
    c.set("storage.disk_busy_model_s", best.disk_busy_us / 1e6);
    c.set("storage.batch_unique_pages", best.batch.unique_pages as f64);
    c.set(
        "storage.batch_coalesced_ratio",
        ratio(best.batch.coalesced as f64, best.batch.staged as f64),
    );
    c.set("storage.fault_retries", best.faults.retries as f64);
    c.set("storage.fault_dropped_prefetch", best.faults.dropped_prefetch as f64);
    c.set("storage.degraded_windows", best.faults.degraded_windows as f64);
    c.set("storage.breaker_trips", best.faults.breaker_trips as f64);
    c.set("storage.corruption_served", best.faults.corruption_served as f64);

    let loop_wall_s = stats::min(&loops.iter().map(|l| l.wall_s).collect::<Vec<_>>());
    say(
        log,
        format_args!(
            "engine overhead: engine.run {:.4} s (fastest of {:?}) against the session loop {:.4} s (fastest of {:?})",
            best.wall_s,
            walls(&narrow),
            loop_wall_s,
            loops.iter().map(|l| l.wall_s).collect::<Vec<_>>()
        ),
    );
    c.set("sim.engine_overhead_us_per_query", (best.wall_s - loop_wall_s) * 1e6 / n as f64);
    let widest = wide.last().expect("at least one wide pass");
    c.set("sim.sched.rounds", widest.scheduler.rounds as f64);
    c.set("sim.sched.parks", widest.scheduler.parks as f64);
    c.set("sim.sched.steals_wmax", widest.scheduler.steals as f64);
    let w1 = n as f64 / stats::median(&walls(&narrow));
    let wmax = n as f64 / stats::median(&walls(&wide));
    c.set("sim.sched.w1_queries_per_s", w1);
    c.set("sim.sched.w1_iqr_ratio", stats::iqr_ratio(&walls(&narrow)));
    c.set("sim.sched.wmax_queries_per_s", wmax);
    c.set("sim.sched.wmax_iqr_ratio", stats::iqr_ratio(&walls(&wide)));
    c.set("sim.sched.scaling_ratio", wmax / w1);
    say(
        log,
        format_args!(
            "scheduler: width 1 {w1:.0} queries/s, width {} {wmax:.0} queries/s (medians of {})",
            host::nproc(),
            narrow.len()
        ),
    );
    let telemetry = &fastest(&armed).telemetry;
    c.set("sim.span_serve_us_p50", telemetry.span_serve_us_p50);
    c.set("sim.span_window_us_p50", telemetry.span_window_us_p50);
    c.set("sim.span_phase_flip_us_p99", telemetry.span_phase_flip_us_p99);
    c.set("sim.span_batch_submit_us_p50", telemetry.span_batch_submit_us_p50);
    c.set("telemetry.armed_ratio", fastest(&armed).wall_s / best.wall_s);
    c.set("telemetry.events", telemetry.events as f64);
    c.set("telemetry.events_dropped", telemetry.events_dropped as f64);

    check_fleet_accounting(&mut c, best);
    check_digests(&mut c, ENGINE_DIGESTS, &narrow.iter().map(|p| p.digest).collect::<Vec<_>>());
    check_digests(&mut c, LOOP_DIGESTS, &loops.iter().map(|l| l.digest).collect::<Vec<_>>());
    check_loop_matches_engine(&mut c, run, "replica_matches_engine", best, &replica.pass);
    check_loop_matches_engine(&mut c, run, "session_loop_matches_engine", best, &loops[0]);
    spans.write(run.workload, log);

    let failed = failures(&c, best.faults.failed_queries, best.shed_sessions);
    c.finish(&spec::PER_LAYER, n as u64, failed, best.digest)
}
