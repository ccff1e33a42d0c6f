//! Chaos properties of the fault-injected I/O path: under any fault seed
//! the engine must neither panic, deadlock nor serve corrupt pages at
//! widths 1/2/4, and widths 2 and 4 replay width 1 byte for byte; a
//! zero-fault configuration must behave exactly like the pre-fault
//! executor; and a fault schedule is a pure function of its seed, so
//! same-seed reruns reproduce the same outcomes.

mod common;

use common::{
    bed_and_streams, chaos_matrix_seed, field, fnv1a, lines_of, one_window_per_query,
    scout_sessions, WORKLOAD_SEED,
};
use scout::prelude::*;

/// Eviction-free fleet config (see DESIGN.md §5) with the given fault
/// plan installed.
fn chaos_config(bed: &TestBed, schedule: Schedule, faults: FaultPlan) -> MultiSessionConfig {
    MultiSessionConfig {
        exec: ExecutorConfig {
            window_ratio: 8.0,
            cache_pages: bed.rtree.layout().page_count(),
            faults,
            ..ExecutorConfig::default()
        },
        shards: 8,
        schedule,
        ..Default::default()
    }
}

/// A noisy-but-survivable schedule: every fault category active at rates
/// well above the defaults, so eight queries per session reliably hit
/// retries, drops and the occasional unrecoverable read.
fn rough_weather(seed: u64) -> FaultConfig {
    FaultConfig {
        seed,
        transient_rate: 0.10,
        corrupt_rate: 0.03,
        stuck_rate: 0.01,
        slow_rate: 0.05,
        slow_multiplier: 8.0,
    }
}

#[test]
fn any_fault_seed_survives_every_width() {
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    for seed in [1u64, 2, 3, 5, 8, 13, 0xDEAD, 0xC0FFEE] {
        let mut width_one = None;
        for workers in [1usize, 2, 4] {
            let config = chaos_config(
                &bed,
                Schedule::WorkStealing { workers },
                FaultPlan::injecting(rough_weather(seed)),
            );
            let report = MultiSessionExecutor::new(config).run(&ctx, scout_sessions(&streams));
            let render = report.render();
            assert_eq!(
                width_one.get_or_insert_with(|| render.clone()),
                &render,
                "seed {seed:#x}: width {workers} diverged from width 1"
            );
            // Liveness: every session ran its full stream (failed queries
            // surface as ServeOutcome::Failed, never as a stall).
            assert!(
                report.sessions.iter().all(|s| s.queries == 8),
                "seed {seed:#x} width {workers}: a session stalled"
            );
            let faults = report.faults.expect("fault injection was enabled");
            // Safety: the verified read path catches every corrupt page.
            assert_eq!(
                faults.corruption_served, 0,
                "seed {seed:#x} width {workers}: corrupt page served"
            );
            // The schedule actually did something at these rates.
            assert!(faults.injected() > 0, "seed {seed:#x} width {workers}: no faults injected");
            // The report renders with the fault block attached.
            assert!(render.contains("faults:"), "seed {seed:#x} width {workers}: {render}");
        }
    }
}

#[test]
fn zero_rate_injection_matches_the_plain_run_exactly() {
    let (bed, streams) = bed_and_streams(3, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    let plain =
        MultiSessionExecutor::new(chaos_config(&bed, Schedule::RoundRobin, FaultPlan::default()))
            .run(&ctx, scout_sessions(&streams));
    let armed = MultiSessionExecutor::new(chaos_config(
        &bed,
        Schedule::RoundRobin,
        FaultPlan::injecting(FaultConfig::none(99)),
    ))
    .run(&ctx, scout_sessions(&streams));

    // A zero-rate injector must not perturb a single observable metric:
    // same pages, same hits, same simulated latency to the last bit.
    assert_eq!(plain.sessions.len(), armed.sessions.len());
    for (p, a) in plain.sessions.iter().zip(&armed.sessions) {
        assert_eq!(
            (p.id, p.queries, p.pages_total, p.pages_hit),
            (a.id, a.queries, a.pages_total, a.pages_hit)
        );
        assert_eq!(p.response_us.to_bits(), a.response_us.to_bits(), "session {}", p.id);
        assert!(p.faults.is_none(), "plain run grew a fault report");
        let f = a.faults.expect("armed run lost its fault report");
        assert_eq!(f.injected(), 0);
        assert!(f.reads_attempted > 0);
    }
    assert_eq!(plain.disk_busy_us.to_bits(), armed.disk_busy_us.to_bits());

    // With injection disabled the render carries no fault block at all —
    // byte-identical to the pre-fault (PR 7) report format.
    assert!(!plain.render().contains("faults:"));
    assert!(armed.render().contains("faults:"));

    // The single-client entry point `run_sequence` steps one session over
    // a private cache instead of a fleet's shared one, so the same
    // contract is checked there, per prefetcher and under a binding
    // window: disabled ≡ zero-rate armed in the I/O ledger and, per query,
    // in pages, hits and latency bits — and under rough weather that path
    // too injects and never serves a corrupt page.
    let exec = |faults| ExecutorConfig {
        window_ratio: 1.6,
        cache_pages: 512,
        faults,
        ..ExecutorConfig::default()
    };
    let roster: [Box<dyn Prefetcher>; 3] = [
        Box::new(NoPrefetch),
        Box::new(Scout::with_defaults()),
        Box::new(HybridPrefetcher::with_defaults()),
    ];
    let per_query = |t: &scout::sim::SequenceTrace| -> Vec<(usize, usize, u64)> {
        t.queries.iter().map(|q| (q.pages_total, q.pages_hit, q.residual_us.to_bits())).collect()
    };
    // `run_sequence` resets the prefetcher, so one instance serves all runs.
    for mut p in roster {
        let name = p.name();
        let mut trace = |faults| run_sequences(&ctx, p.as_mut(), &streams, &exec(faults));
        let plain = trace(FaultPlan::default());
        let armed = trace(FaultPlan::injecting(FaultConfig::none(99)));
        for (p, z) in plain.iter().zip(&armed) {
            assert_eq!(p.io, z.io, "{name}: I/O ledger");
            assert_eq!(per_query(p), per_query(z), "{name}: per-query trace");
            assert!(p.faults.is_none(), "{name}: plain trace grew a fault report");
        }
        let mut faults = FaultReport::default();
        for t in trace(FaultPlan::injecting(rough_weather(99))) {
            faults.merge(&t.faults.expect("injection was enabled"));
        }
        assert_eq!(faults.corruption_served, 0, "{name}: corrupt page served");
        assert!(faults.injected() > 0, "{name}: no faults injected");
    }
}

#[test]
fn same_fault_seed_reruns_byte_identically_at_width_one() {
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    let plan = FaultPlan::injecting(rough_weather(0xFEED));
    let rr = MultiSessionExecutor::new(chaos_config(&bed, Schedule::RoundRobin, plan));
    let a = rr.run(&ctx, scout_sessions(&streams)).render();
    let b = rr.run(&ctx, scout_sessions(&streams)).render();
    assert_eq!(a, b, "same fault seed, same schedule, different trace");

    // Width-1 work stealing replays the identical serialized order, so the
    // fault schedule (keyed on page/epoch/attempt, not on arrival time)
    // reproduces the identical report.
    let ws =
        MultiSessionExecutor::new(chaos_config(&bed, Schedule::WorkStealing { workers: 1 }, plan));
    let c = ws.run(&ctx, scout_sessions(&streams)).render();
    assert_eq!(a, c, "width-1 work stealing diverged from round-robin under faults");
}

#[test]
fn faulted_width_one_replays_its_pinned_digest() {
    // One fault seed's width-1 render, bytes and disk-busy bits, on a
    // fixed workload seed (the CI matrix's seed would move the streams).
    let (bed, streams) = bed_and_streams(4, WORKLOAD_SEED);
    let ctx = bed.ctx_rtree();
    let plan = FaultPlan::injecting(rough_weather(0xFEED));
    let report = MultiSessionExecutor::new(chaos_config(&bed, Schedule::RoundRobin, plan))
        .run(&ctx, scout_sessions(&streams));
    assert!(report.faults.expect("fault injection was enabled").injected() > 0);
    let busy = report.disk_busy_us.to_bits().to_le_bytes();
    let digest = fnv1a(report.render().bytes().chain(busy));
    assert_eq!(digest, 0x07fa_e67c_7649_2118, "{digest:#x}");
}

#[test]
fn width_two_and_four_preserve_the_interleaving_invariants() {
    // Every read, retry, dropped prefetch, breaker decision and clock
    // advance happens on the fleet's calling thread in slot order, at any
    // width; helper threads run only range queries and predictions. So
    // under rough weather widths 2 and 4 replay width 1 byte for byte —
    // render, disk-busy bits and fault tallies, unbatched and batched,
    // with ample capacity and with a cache squeezed until it evicts (24
    // pages, window ratio 1.6), where any reordered probe, promotion or
    // insert would move a hit. A slow-only schedule rides along:
    // stragglers fire, and a slow read never fails a query.
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    let rough = FaultPlan::injecting(rough_weather(0xFEED));
    let slow_only = FaultPlan::injecting(FaultConfig {
        slow_rate: 0.2,
        slow_multiplier: 2.0,
        ..FaultConfig::none(0xFEED)
    });
    let legs = [
        (rough, false, false),
        (rough, true, false),
        (rough, false, true),
        (rough, true, true),
        (slow_only, false, false),
    ];
    for (plan, batched, squeezed) in legs {
        let config = |schedule| {
            let mut config = MultiSessionConfig {
                batch: BatchPlan { enabled: batched },
                ..chaos_config(&bed, schedule, plan)
            };
            if squeezed {
                config.exec.cache_pages = 24;
                config.exec.window_ratio = 1.6;
            }
            config
        };
        let rr = MultiSessionExecutor::new(config(Schedule::RoundRobin))
            .run(&ctx, scout_sessions(&streams));
        assert_eq!(rr.cache.evictions > 0, squeezed, "{:?}", rr.cache);
        let faults = rr.faults.expect("fault injection was enabled");
        if plan == slow_only {
            assert!(faults.injected_slow > 0, "the slow schedule never fired");
            assert_eq!(faults.failed_queries, 0, "a slow read failed a query");
        } else {
            assert!(faults.retries > 0 && faults.dropped_prefetch > 0, "{faults:?}");
        }
        for workers in [2usize, 4] {
            for rerun in 0..2 {
                let report = MultiSessionExecutor::new(config(Schedule::WorkStealing { workers }))
                    .run(&ctx, scout_sessions(&streams));
                let at = format!("width {workers} rerun {rerun} {plan:?} {batched} {squeezed}");
                assert_eq!(report.render(), rr.render(), "{at}");
                assert_eq!(report.disk_busy_us.to_bits(), rr.disk_busy_us.to_bits(), "{at}");
                assert_eq!(report.faults, rr.faults, "{at}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// ISSUE 9: batched I/O submission under fault injection
// ---------------------------------------------------------------------------

/// `chaos_config` with the demand/window batch lanes enabled.
fn batched_chaos_config(
    bed: &TestBed,
    schedule: Schedule,
    faults: FaultPlan,
) -> MultiSessionConfig {
    MultiSessionConfig { batch: BatchPlan { enabled: true }, ..chaos_config(bed, schedule, faults) }
}

#[test]
fn batched_any_fault_seed_survives_every_width() {
    // The batched mirror of `any_fault_seed_survives_every_width`: the
    // same 8 seeds × widths 1/2/4 liveness, safety and width-1 replay
    // sweep with the demand/window lanes turned on. Coalesced failures fan out to every
    // waiter as a clean `ServeOutcome::Failed`, never a stall, and the
    // verified read path still catches every corrupt page.
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    for seed in [1u64, 2, 3, 5, 8, 13, 0xDEAD, 0xC0FFEE] {
        let mut width_one = None;
        for workers in [1usize, 2, 4] {
            let config = batched_chaos_config(
                &bed,
                Schedule::WorkStealing { workers },
                FaultPlan::injecting(rough_weather(seed)),
            );
            let report = MultiSessionExecutor::new(config).run(&ctx, scout_sessions(&streams));
            let render = report.render();
            assert_eq!(
                width_one.get_or_insert_with(|| render.clone()),
                &render,
                "seed {seed:#x}: batched width {workers} diverged from width 1"
            );
            assert!(
                report.sessions.iter().all(|s| s.queries == 8),
                "seed {seed:#x} width {workers}: a session stalled under batching"
            );
            let faults = report.faults.expect("fault injection was enabled");
            assert_eq!(
                faults.corruption_served, 0,
                "seed {seed:#x} width {workers}: corrupt page served under batching"
            );
            assert!(faults.injected() > 0, "seed {seed:#x} width {workers}: no faults injected");
            assert!(report.batch.expect("batch report").batches > 0);
        }
    }
}

#[test]
fn armed_flight_log_matches_every_sessions_fault_report() {
    // The armed flight log under the same 8 seeds × widths 1/2/4,
    // immediate and batched: one `window` line per query, a `shed` one
    // for every window the breakers shed, and `retry_ladder` lines that
    // add up to the sessions' retries. The oracle is each session's fault
    // report: `total_shed()` counts admission sheds, which never happen.
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    let mut shed_any = false;
    for seed in [1u64, 2, 3, 5, 8, 13, 0xDEAD, 0xC0FFEE] {
        for batched in [false, true] {
            for workers in [1usize, 2, 4] {
                let plan = FaultPlan::injecting(rough_weather(seed));
                let mut config = chaos_config(&bed, Schedule::WorkStealing { workers }, plan);
                config.exec.telemetry = Some(TelemetryPlan);
                config.batch.enabled = batched;
                let report = MultiSessionExecutor::new(config).run(&ctx, scout_sessions(&streams));
                let at = format!("seed {seed:#x}, batched {batched}, width {workers}");
                let telem = report.telemetry.as_ref().expect("armed");
                assert_eq!(telem.dropped_events(), 0, "{at}: the ring wrapped");
                let jsonl = telem.to_jsonl();
                let windows = one_window_per_query(&jsonl, &report, &at);
                let faults: Vec<FaultReport> =
                    report.sessions.iter().map(|s| s.faults.expect("injecting")).collect();
                let shed = windows.iter().filter(|line| line.contains("\"shed\": true")).count();
                let degraded: u64 = faults.iter().map(|f| f.degraded_windows).sum();
                assert_eq!(shed as u64, degraded, "{at}: shed window lines");
                let ladder = lines_of(&jsonl, "retry_ladder");
                let sum = |key| ladder.iter().map(|line| field(line, key)).sum::<u64>();
                let retries: u64 = faults.iter().map(|f| f.retries).sum();
                let recovered: u64 = faults.iter().map(|f| f.recovered).sum();
                assert_eq!(sum("attempts"), retries, "{at}: retry attempts");
                assert_eq!(sum("recovered"), recovered, "{at}: recovered reads");
                shed_any |= shed > 0;
            }
        }
    }
    assert!(shed_any, "no seed shed a window, so no shed line was checked");
}

#[test]
fn batched_fault_seed_reruns_byte_identically_at_width_one() {
    let (bed, streams) = bed_and_streams(4, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    let plan = FaultPlan::injecting(rough_weather(0xFEED));
    let rr = MultiSessionExecutor::new(batched_chaos_config(&bed, Schedule::RoundRobin, plan));
    let a = rr.run(&ctx, scout_sessions(&streams)).render();
    let b = rr.run(&ctx, scout_sessions(&streams)).render();
    assert_eq!(a, b, "batched same-seed rerun diverged");
    let ws = MultiSessionExecutor::new(batched_chaos_config(
        &bed,
        Schedule::WorkStealing { workers: 1 },
        plan,
    ));
    let c = ws.run(&ctx, scout_sessions(&streams)).render();
    assert_eq!(a, c, "batched width-1 work stealing diverged from batched round-robin");
}

#[test]
fn coalesced_failure_fans_one_error_to_every_waiter() {
    // K sessions replaying the *same* stream over a device where stuck
    // pages are common. Stuck pages are a device property — keyed on
    // (seed, page), independent of which lane's disk touches them — so a
    // page the batch disk cannot read is equally unreadable by every
    // waiter's per-session retry continuation. Each waiter must therefore
    // fail the *same* queries: one `IoError` per waiter, identical
    // per-session failure counts, and retries charged per waiter (K
    // sessions × own retry ladder), not once per batch.
    let (bed, streams) = bed_and_streams(1, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    let shared = streams[0].clone();
    let k = 4usize;
    let weather = FaultConfig {
        seed: 7,
        transient_rate: 0.0,
        corrupt_rate: 0.0,
        stuck_rate: 0.34,
        slow_rate: 0.0,
        slow_multiplier: 1.0,
    };
    let sessions: Vec<Session> =
        (0..k).map(|id| Session::new(id, Box::new(NoPrefetch), shared.clone())).collect();
    let report = MultiSessionExecutor::new(batched_chaos_config(
        &bed,
        Schedule::RoundRobin,
        FaultPlan::injecting(weather),
    ))
    .run(&ctx, sessions);
    assert!(report.sessions.iter().all(|s| s.queries == shared.len()), "a waiter stalled");
    let per_session: Vec<u64> = report
        .sessions
        .iter()
        .map(|s| s.faults.as_ref().expect("fault injection was enabled").failed_queries)
        .collect();
    assert!(per_session[0] > 0, "a 34% stuck device failed no queries");
    assert!(
        per_session.iter().all(|&f| f == per_session[0]),
        "identical waiters must fail identically: {per_session:?}"
    );
    // Retries are per-waiter: every session walked its own retry ladder
    // against the shared stuck pages, so the fleet total is K times a
    // single session's, never one ladder amortized across the batch.
    let solo = MultiSessionExecutor::new(batched_chaos_config(
        &bed,
        Schedule::RoundRobin,
        FaultPlan::injecting(weather),
    ))
    .run(&ctx, vec![Session::new(0, Box::new(NoPrefetch), shared.clone())]);
    let solo_failed =
        solo.sessions[0].faults.as_ref().expect("fault injection was enabled").failed_queries;
    assert_eq!(per_session[0], solo_failed, "fan-out changed which queries fail");
    let session_retries: u64 = report
        .sessions
        .iter()
        .map(|s| s.faults.as_ref().expect("fault injection was enabled").retries)
        .sum();
    let solo_retries =
        solo.sessions[0].faults.as_ref().expect("fault injection was enabled").retries;
    assert_eq!(
        session_retries,
        solo_retries * k as u64,
        "per-waiter retry ladders must not be amortized across the batch"
    );
}

#[test]
fn stuck_heavy_weather_degrades_instead_of_hanging() {
    let (bed, streams) = bed_and_streams(2, chaos_matrix_seed());
    let ctx = bed.ctx_rtree();
    // A device where a third of all pages never read back: most queries
    // fail, the breaker should open, and the run must still terminate.
    let config = FaultConfig {
        seed: 7,
        transient_rate: 0.2,
        corrupt_rate: 0.0,
        stuck_rate: 0.34,
        slow_rate: 0.0,
        slow_multiplier: 1.0,
    };
    let report = MultiSessionExecutor::new(chaos_config(
        &bed,
        Schedule::WorkStealing { workers: 2 },
        FaultPlan::injecting(config),
    ))
    .run(&ctx, scout_sessions(&streams));
    assert!(report.sessions.iter().all(|s| s.queries == 8), "a stuck page stalled a session");
    let faults = report.faults.expect("fault injection was enabled");
    assert!(faults.failed_queries > 0, "a 34% stuck device produced no failed queries");
    assert!(faults.injected_stuck > 0);
    assert_eq!(faults.corruption_served, 0);
    // Degradation is visible in the render, not just the counters.
    let rendered = report.render();
    assert!(rendered.contains("failed queries"), "{rendered}");
}
