//! Acceptance tests of batched I/O submission: cross-session read
//! coalescing, determinism of the batched schedule at every width, and
//! pages-hit parity with the unbatched engine under the eviction-free
//! guard (DESIGN.md §5/§12).

use scout::prelude::*;
use scout_synth::{generate_sequences, SequenceParams};

/// A small neuron bed with K guided sequences, one per session.
fn bed_and_streams(k: usize) -> (TestBed, Vec<Vec<scout::geometry::QueryRegion>>) {
    let dataset = scout_synth::generate_neurons(
        &scout_synth::NeuronParams { neuron_count: 8, fiber_steps: 220, ..Default::default() },
        11,
    );
    let bed = TestBed::with_page_capacity(dataset, 32);
    let params = SequenceParams { length: 8, ..SequenceParams::sensitivity_default() };
    let sequences = generate_sequences(&bed.dataset, &params, k, 23);
    let regions = region_lists(&sequences);
    (bed, regions)
}

fn scout_sessions(streams: &[Vec<scout::geometry::QueryRegion>]) -> Vec<Session> {
    streams
        .iter()
        .enumerate()
        .map(|(id, regions)| {
            Session::new(id, Box::new(Scout::with_seed(0xBEEF + id as u64)), regions.clone())
        })
        .collect()
}

/// Eviction-free config (ample windows + a cache holding the whole
/// dataset), the precondition for order-independent pages-hit totals.
fn ample_config(bed: &TestBed, schedule: Schedule, batched: bool) -> MultiSessionConfig {
    MultiSessionConfig {
        exec: ExecutorConfig {
            window_ratio: 8.0,
            cache_pages: bed.rtree.layout().page_count(),
            ..ExecutorConfig::default()
        },
        shards: 8,
        schedule,
        batch: BatchPlan { enabled: batched },
    }
}

#[test]
fn disabled_batching_is_the_default_and_reports_no_batch_block() {
    let (bed, streams) = bed_and_streams(3);
    let ctx = bed.ctx_rtree();
    let config = MultiSessionConfig::default();
    assert!(!config.batch.enabled, "batching must be opt-in");
    let report = MultiSessionExecutor::new(ample_config(&bed, Schedule::RoundRobin, false))
        .run(&ctx, scout_sessions(&streams));
    assert!(report.batch.is_none(), "batch-off runs must not attach a batch report");
}

#[test]
fn batched_off_render_is_byte_identical_to_the_default_config() {
    // `BatchPlan { enabled: false }` must select the exact pre-batching
    // code path — same code, same bytes at every width.
    let (bed, streams) = bed_and_streams(4);
    let ctx = bed.ctx_rtree();
    for schedule in [
        Schedule::RoundRobin,
        Schedule::WorkStealing { workers: 1 },
        Schedule::WorkStealing { workers: 4 },
    ] {
        let mut default_config = ample_config(&bed, schedule, false);
        default_config.batch = BatchPlan::default();
        let baseline =
            MultiSessionExecutor::new(default_config).run(&ctx, scout_sessions(&streams)).render();
        let off = MultiSessionExecutor::new(ample_config(&bed, schedule, false))
            .run(&ctx, scout_sessions(&streams))
            .render();
        assert_eq!(off, baseline, "{schedule:?}");
    }
}

#[test]
fn batched_width1_reruns_are_byte_identical() {
    let (bed, streams) = bed_and_streams(5);
    let ctx = bed.ctx_rtree();
    for schedule in [Schedule::RoundRobin, Schedule::WorkStealing { workers: 1 }] {
        let engine = MultiSessionExecutor::new(ample_config(&bed, schedule, true));
        let a = engine.run(&ctx, scout_sessions(&streams));
        let b = engine.run(&ctx, scout_sessions(&streams));
        assert_eq!(a.render(), b.render(), "{schedule:?}: batched rerun diverged");
        assert_eq!(a.disk_busy_us.to_bits(), b.disk_busy_us.to_bits(), "{schedule:?}");
        let (ra, rb) = (a.batch.expect("batch report"), b.batch.expect("batch report"));
        assert_eq!(
            (ra.batches, ra.staged, ra.unique_pages, ra.coalesced, ra.failed_reads),
            (rb.batches, rb.staged, rb.unique_pages, rb.coalesced, rb.failed_reads),
            "{schedule:?}: batch counters diverged"
        );
    }
}

#[test]
fn batched_round_robin_matches_width1_work_stealing_byte_for_byte() {
    // The batched width-1 oracle: round-robin and a one-worker crew run
    // the exact same in-order batched loop.
    let (bed, streams) = bed_and_streams(5);
    let ctx = bed.ctx_rtree();
    let rr = MultiSessionExecutor::new(ample_config(&bed, Schedule::RoundRobin, true))
        .run(&ctx, scout_sessions(&streams));
    let ws =
        MultiSessionExecutor::new(ample_config(&bed, Schedule::WorkStealing { workers: 1 }, true))
            .run(&ctx, scout_sessions(&streams));
    assert_eq!(rr.render(), ws.render(), "batched width-1 M:N diverged from batched round-robin");
    assert_eq!(rr.disk_busy_us.to_bits(), ws.disk_busy_us.to_bits());
}

#[test]
fn batched_pages_hit_matches_the_unbatched_oracle_at_every_width() {
    // Under the eviction-free guard, coalescing and elevator reordering
    // change *when* pages are read, never *whether* a result page was in
    // the shared cache — totals and per-session hit accounting must be
    // exactly the unbatched engine's (DESIGN.md §12). And every batched
    // width replays the batched width-1 run byte for byte.
    let (bed, streams) = bed_and_streams(8);
    let ctx = bed.ctx_rtree();
    let oracle = MultiSessionExecutor::new(ample_config(&bed, Schedule::RoundRobin, false))
        .run(&ctx, scout_sessions(&streams));
    assert_eq!(oracle.cache.evictions, 0, "precondition violated: oracle run evicted");
    let width_one = MultiSessionExecutor::new(ample_config(&bed, Schedule::RoundRobin, true))
        .run(&ctx, scout_sessions(&streams));

    let mut schedules = vec![Schedule::RoundRobin];
    schedules.extend([1usize, 2, 4].map(|workers| Schedule::WorkStealing { workers }));
    for schedule in schedules {
        let batched = MultiSessionExecutor::new(ample_config(&bed, schedule, true))
            .run(&ctx, scout_sessions(&streams));
        assert_eq!(batched.cache.evictions, 0, "precondition violated: {schedule:?} evicted");
        assert_eq!(batched.render(), width_one.render(), "{schedule:?}");
        let busy = |r: &MultiSessionReport| r.disk_busy_us.to_bits();
        assert_eq!(busy(&batched), busy(&width_one), "{schedule:?}");
        assert_eq!(batched.total_pages(), oracle.total_pages(), "{schedule:?}");
        assert_eq!(
            batched.total_pages_hit(),
            oracle.total_pages_hit(),
            "{schedule:?}: batched pages-hit drifted from the unbatched oracle"
        );
        assert_eq!(batched.cache.hits, oracle.cache.hits, "{schedule:?}: cache hits drifted");
        // Coalesced waiters are booked as coalesced hits, not misses: the
        // unbatched engine's duplicate misses split into unique misses +
        // coalesced hits, and total accesses stay identical.
        assert_eq!(
            batched.cache.accesses(),
            oracle.cache.accesses(),
            "{schedule:?}: access accounting drifted"
        );
        assert_eq!(
            batched.cache.misses + batched.cache.coalesced_hits,
            oracle.cache.misses,
            "{schedule:?}: unique-miss + coalesced accounting drifted"
        );
        for (a, b) in oracle.sessions.iter().zip(&batched.sessions) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.pages_hit, b.pages_hit,
                "session {} hit accounting diverged under {schedule:?}",
                a.id
            );
            assert_eq!(a.queries, b.queries, "session {} query count", a.id);
        }
    }
}

#[test]
fn identical_streams_coalesce_into_single_flight_reads() {
    // K sessions replaying the *same* stream with no prefetching: serve
    // never populates the cache (§7.1), so every result page is demanded
    // by all K sessions each round. The demand lane must read each page
    // once and fan it out — K−1 coalesced waiters per staged page — and
    // the cache must book those waiters as coalesced hits.
    let (bed, streams) = bed_and_streams(1);
    let ctx = bed.ctx_rtree();
    let shared = streams[0].clone();
    let k = 6usize;
    let sessions: Vec<Session> =
        (0..k).map(|id| Session::new(id, Box::new(NoPrefetch), shared.clone())).collect();
    let report = MultiSessionExecutor::new(ample_config(&bed, Schedule::RoundRobin, true))
        .run(&ctx, sessions);
    let batch = report.batch.expect("batch report");
    assert!(batch.batches > 0, "no batches were submitted");
    assert!(batch.unique_pages > 0, "no pages were staged");
    assert_eq!(
        batch.staged,
        batch.unique_pages + batch.coalesced,
        "every staged request is either a unique read or a coalesced waiter"
    );
    assert_eq!(
        batch.coalesced,
        batch.unique_pages * (k as u64 - 1),
        "identical streams must coalesce K-1 waiters behind every unique read"
    );
    assert_eq!(
        report.cache.coalesced_hits, batch.coalesced,
        "cache coalesced-hit accounting must match the demand lane"
    );
    assert_eq!(batch.failed_reads, 0, "no faults were injected");
    // All K sessions see identical per-session accounting.
    for s in &report.sessions {
        assert_eq!(s.pages_total, report.sessions[0].pages_total);
        assert_eq!(s.pages_hit, report.sessions[0].pages_hit);
    }
}
