//! Golden traces: the model's fingerprint under `cargo test`.
//!
//! Smoke-scale versions of the benchmark's four workloads, plus a faulty
//! run of the sequence executor, go through the public engine, and every
//! simulated number they produce is written out as text and compared with
//! a committed file under `tests/golden/`:
//!
//! * `follow` — SCOUT on the R-tree, one `Session` per guided sequence,
//!   over the neuron bed and over a street grid;
//! * `gaps` — SCOUT-OPT over FLAT on gapped sequences;
//! * `fleet` — a width-1 `StraightLine` fleet over an evicting
//!   `ShardedCache`;
//! * `fleet_degraded` — the same fleet, batched, on a faulty device;
//! * `sequence_faults` — `follow`'s streams through `run_sequences` on a
//!   faulty device, the immediate serve path's fault ladder.
//!
//! Each query writes one line holding every field the benchmark's
//! `model_digest` hashes per query, `f64`s as `{:?}` (which round-trips
//! exactly). A fleet adds the engine's per-session numbers and its report
//! `render()`; its per-query lines come from the serve-all/finish-all
//! `Session` loop a client of the public API would write.
//!
//! On a mismatch the actual text is written under `target/` and the test
//! fails on the first differing line. A change that moves the model
//! updates the golden file in the same diff (copy the written file over
//! it), so a reader sees which queries and fields moved. The comparison
//! asserts only on x86_64 Linux: other targets may round transcendental
//! functions differently.

use scout::prelude::*;
use scout::sim::workloads::{ADHOC_PATTERN, VIS_GAPS_HIGH};
use scout::sim::QueryTrace;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::OnceLock;

/// The neuron bed `follow`, `gaps` and `sequence_faults` share.
fn neuron_bed() -> &'static TestBed {
    static BED: OnceLock<TestBed> = OnceLock::new();
    BED.get_or_init(|| {
        TestBed::new(generate_neurons(&NeuronParams::with_target_objects(30_000), 42))
    })
}

/// Streets on an exact lattice. A walk that arrives along a street at a
/// T-junction meets two mirror-image branches whose alignments are the
/// same bits, so SCOUT's continuation must break the tie; the neuron bed
/// never ties.
fn street_bed() -> TestBed {
    let params = RoadParams {
        grid_n: 16,
        jitter_frac: 0.0,
        wiggle_frac: 0.0,
        keep_prob: 0.8,
        ..RoadParams::default()
    };
    TestBed::new(generate_roads(&params, 46))
}

/// One line per query: every field of the trace the benchmark hashes.
fn write_query(out: &mut String, session: usize, n: usize, q: &QueryTrace) {
    let p = &q.prediction;
    let cpu = &p.cpu;
    let _ = writeln!(
        out,
        "s{session} q{n} pages={} hit={} objects={} prefetch={} gap={} vertices={} edges={} \
         components={} memory={} candidates={} object_inserts={} edge_inserts={} steps={} \
         residual_us={:?} d_ref_us={:?} window_us={:?} graph_build_us={:?} prediction_us={:?} \
         extra_us={:?} failed={}",
        q.pages_total,
        q.pages_hit,
        q.result_objects,
        q.prefetch_pages,
        q.gap_pages,
        p.graph_vertices,
        p.graph_edges,
        p.graph_components,
        p.memory_bytes,
        p.candidates,
        cpu.graph_object_inserts,
        cpu.graph_edge_inserts,
        cpu.traversal_steps,
        q.residual_us,
        q.d_ref_us,
        q.window_us,
        q.graph_build_us,
        q.prediction_us,
        cpu.extra_us,
        q.outcome.is_failed(),
    );
}

/// One client per sequence, a fresh session and cache each (§7.1).
fn single_client(
    ctx: &SimContext<'_>,
    exec: &ExecutorConfig,
    streams: &[Vec<QueryRegion>],
    prefetcher: impl Fn() -> Box<dyn Prefetcher>,
) -> String {
    let mut out = String::new();
    for (id, regions) in streams.iter().enumerate() {
        let mut session = Session::new(id, prefetcher(), regions.clone());
        session.begin(exec, None);
        let mut cache = PrefetchCache::new(exec.cache_pages);
        while session.step(ctx, &mut cache, exec) {}
        for (n, q) in session.trace().queries.iter().enumerate() {
            write_query(&mut out, id, n, q);
        }
    }
    out
}

/// Compares `actual` with `tests/golden/<name>.txt`.
fn check(name: &str, actual: &str) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("create the golden output directory");
    let written = dir.join(format!("{name}.txt"));
    std::fs::write(&written, actual).expect("write the actual trace");
    if !cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        return;
    }
    let golden =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&golden).unwrap_or_default();
    if expected == actual {
        return;
    }
    let (line, want, got) = expected
        .lines()
        .map(Some)
        .chain(std::iter::repeat(None))
        .zip(actual.lines().map(Some).chain(std::iter::repeat(None)))
        .enumerate()
        .find(|(_, (a, b))| a != b)
        .map(|(i, (a, b))| (i + 1, a.unwrap_or("<end of file>"), b.unwrap_or("<end of file>")))
        .expect("unequal texts differ on some line");
    panic!(
        "{name}: the trace moved from {} at line {line}\n  golden: {want}\n  actual: {got}\n\
         the whole actual trace is in {}",
        golden.display(),
        written.display()
    );
}

#[test]
fn follow_matches_its_golden_trace() {
    let bed = neuron_bed();
    let streams = region_lists(&generate_sequences(&bed.dataset, &ADHOC_PATTERN.sequence, 3, 7));
    let exec = ExecutorConfig {
        window_ratio: ADHOC_PATTERN.window_ratio,
        cache_pages: 4096,
        ..ExecutorConfig::default()
    };
    let mut actual =
        single_client(&bed.ctx_rtree(), &exec, &streams, || Box::new(Scout::with_defaults()));
    let streets = street_bed();
    let params = SequenceParams { volume: 27_000.0, ..ADHOC_PATTERN.sequence };
    let streams = region_lists(&generate_sequences(&streets.dataset, &params, 3, 9));
    actual.push_str("streets\n");
    actual.push_str(&single_client(&streets.ctx_rtree(), &exec, &streams, || {
        Box::new(Scout::with_defaults())
    }));
    check("follow", &actual);
}

#[test]
fn gaps_matches_its_golden_trace() {
    let bed = neuron_bed();
    let streams = region_lists(&generate_sequences(&bed.dataset, &VIS_GAPS_HIGH.sequence, 2, 8));
    let exec = ExecutorConfig {
        window_ratio: VIS_GAPS_HIGH.window_ratio,
        cache_pages: 4096,
        ..ExecutorConfig::default()
    };
    let actual =
        single_client(&bed.ctx_flat(), &exec, &streams, || Box::new(ScoutOpt::with_defaults()));
    check("gaps", &actual);
}

/// Sessions of the smoke fleet, cycling over its streams.
const FLEET_SESSIONS: usize = 16;
/// Queries each fleet session issues.
const FLEET_QUERIES: usize = 12;
/// The shared cache: far smaller than the fleet's working set.
const FLEET_CACHE_PAGES: usize = 64;
const FLEET_SHARDS: usize = 16;

/// A roads bed and the fleet's distinct query streams.
fn road_bed() -> (TestBed, Vec<Vec<QueryRegion>>) {
    let dataset = generate_roads(&RoadParams { grid_n: 24, ..RoadParams::default() }, 43);
    let bed = TestBed::with_page_capacity(dataset, 4);
    let params = SequenceParams {
        length: FLEET_QUERIES,
        volume: 2500.0 / bed.dataset.density(),
        ..SequenceParams::sensitivity_default()
    };
    let streams = region_lists(&generate_sequences(&bed.dataset, &params, 6, 44));
    (bed, streams)
}

fn fleet_sessions(streams: &[Vec<QueryRegion>]) -> Vec<Session> {
    (0..FLEET_SESSIONS)
        .map(|i| {
            Session::new(i, Box::new(StraightLine::new()), streams[i % streams.len()].clone())
                .with_tenant(i % 4)
        })
        .collect()
}

/// The fleet's golden text: per-query lines from a serve-all/finish-all
/// loop over the locked cache, then the engine's per-session numbers and
/// its render.
fn fleet_trace(exec: ExecutorConfig, schedule: Schedule, batch: BatchPlan) -> String {
    let (bed, streams) = road_bed();
    let ctx = bed.ctx_rtree();
    let mut out = String::new();

    let cache = ShardedCache::new(exec.cache_pages, FLEET_SHARDS);
    let clock = SharedClock::new();
    let mut sessions = fleet_sessions(&streams);
    for session in &mut sessions {
        session.begin(&exec, Some(clock.clone()));
    }
    for _ in 0..FLEET_QUERIES {
        for session in &mut sessions {
            session.serve_observe(&ctx, &mut &cache, &exec);
        }
        for session in &mut sessions {
            session.finish_window(&ctx, &mut &cache, &exec);
        }
    }
    for session in &sessions {
        assert!(session.is_done());
        for (n, q) in session.trace().queries.iter().enumerate() {
            write_query(&mut out, session.id(), n, q);
        }
    }
    let stats = cache.stats();
    assert!(
        stats.evictions > 0 && stats.hits > 0,
        "the loop's cache must hit and evict: {stats:?}"
    );
    let _ = writeln!(out, "loop cache {stats:?} disk_busy_us={:?}", clock.now_us());

    let engine = MultiSessionExecutor::new(MultiSessionConfig {
        exec,
        shards: FLEET_SHARDS,
        schedule,
        batch,
    });
    let report = engine.run(&ctx, fleet_sessions(&streams));
    assert!(report.cache.evictions > 0, "the engine's cache must evict");
    for s in &report.sessions {
        let _ = writeln!(
            out,
            "engine s{} tenant={} queries={} pages={} hit={} response_us={:?} p50={:?} p95={:?} \
             p99={:?} shed={}",
            s.id,
            s.tenant,
            s.queries,
            s.pages_total,
            s.pages_hit,
            s.response_us,
            s.residual.p50,
            s.residual.p95,
            s.residual.p99,
            s.shed,
        );
    }
    let _ = writeln!(out, "engine disk_busy_us={:?}", report.disk_busy_us);
    out.push_str(&report.render());
    out
}

#[test]
fn fleet_matches_its_golden_trace() {
    let exec = ExecutorConfig { cache_pages: FLEET_CACHE_PAGES, ..ExecutorConfig::default() };
    let actual = fleet_trace(exec, Schedule::WorkStealing { workers: 1 }, BatchPlan::default());
    check("fleet", &actual);
}

#[test]
fn fleet_degraded_matches_its_golden_trace() {
    let exec = ExecutorConfig {
        cache_pages: FLEET_CACHE_PAGES,
        faults: FaultPlan {
            inject: Some(FaultConfig { seed: 45, ..FaultConfig::default() }),
            retry: RetryPolicy { max_attempts: 8, ..RetryPolicy::default() },
            ..FaultPlan::default()
        },
        ..ExecutorConfig::default()
    };
    let actual = fleet_trace(exec, Schedule::RoundRobin, BatchPlan::enabled());
    check("fleet_degraded", &actual);
}

/// `follow`'s streams through `run_sequences` on a faulty device: the
/// immediate serve path's retry ladder, dropped prefetches and circuit
/// breaker, one fresh cache and fault stream per sequence.
#[test]
fn sequence_faults_matches_its_golden_trace() {
    let bed = neuron_bed();
    let streams = region_lists(&generate_sequences(&bed.dataset, &ADHOC_PATTERN.sequence, 3, 7));
    let exec = ExecutorConfig {
        window_ratio: ADHOC_PATTERN.window_ratio,
        cache_pages: 512,
        faults: FaultPlan {
            inject: Some(FaultConfig {
                seed: 99,
                transient_rate: 0.30,
                corrupt_rate: 0.03,
                stuck_rate: 0.02,
                slow_rate: 0.05,
                slow_multiplier: 8.0,
            }),
            ..FaultPlan::default()
        },
        ..ExecutorConfig::default()
    };
    let traces = run_sequences(&bed.ctx_rtree(), &mut Scout::with_defaults(), &streams, &exec);
    let mut actual = String::new();
    let mut total = FaultReport::default();
    for (id, trace) in traces.iter().enumerate() {
        for (n, q) in trace.queries.iter().enumerate() {
            write_query(&mut actual, id, n, q);
        }
        let faults = trace.faults.as_ref().expect("injection was enabled");
        let _ = writeln!(actual, "s{id} {}", faults.summary());
        total.merge(faults);
    }
    // Every rung of the ladder must fire, or the trace pins nothing. The
    // summary is the one public view of the exhausted-read count.
    let summary = total.summary();
    for rung in [
        "retries",
        "exhausted",
        "prefetch dropped",
        "windows degraded",
        "breaker trips",
        "failed queries",
    ] {
        let count = summary
            .split([',', ';'])
            .find_map(|part| part.trim().strip_suffix(rung))
            .and_then(|n| n.trim().parse::<u64>().ok())
            .unwrap_or_else(|| panic!("no `{rung}` count in {summary:?}"));
        assert!(count > 0, "no {rung} over the run: {summary}");
    }
    check("sequence_faults", &actual);
}
