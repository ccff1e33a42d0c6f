//! Acceptance tests of the flight-recorder telemetry layer: the disarmed
//! byte-identity contract (telemetry `None` must be invisible
//! everywhere), armed event-stream determinism at every width, a flight
//! log that holds one window event for every query the report counts, and
//! the budget cut those events record.

mod common;

use common::{bed_and_streams, field, fnv1a, one_window_per_query, scout_sessions, WORKLOAD_SEED};
use scout::prelude::*;
use scout_storage::BatchPlan;

fn config(schedule: Schedule, batched: bool, armed: bool) -> MultiSessionConfig {
    MultiSessionConfig {
        exec: ExecutorConfig {
            window_ratio: 2.0,
            cache_pages: 512,
            telemetry: armed.then(TelemetryPlan::default),
            ..ExecutorConfig::default()
        },
        shards: 8,
        schedule,
        batch: BatchPlan { enabled: batched },
    }
}

fn run(
    bed: &TestBed,
    streams: &[Vec<scout::geometry::QueryRegion>],
    schedule: Schedule,
    batched: bool,
    armed: bool,
) -> MultiSessionReport {
    MultiSessionExecutor::new(config(schedule, batched, armed))
        .run(&bed.ctx_rtree(), scout_sessions(streams))
}

#[test]
fn disarmed_run_is_byte_identical_and_attaches_nothing() {
    let (bed, streams) = bed_and_streams(4, WORKLOAD_SEED);
    let a = run(&bed, &streams, Schedule::RoundRobin, false, false);
    let b = run(&bed, &streams, Schedule::RoundRobin, false, false);
    assert!(a.telemetry.is_none(), "disarmed runs must not attach a TelemetryReport");
    assert_eq!(a.render(), b.render(), "disarmed reruns diverged");
}

#[test]
fn armed_run_renders_byte_identically_to_disarmed() {
    let (bed, streams) = bed_and_streams(4, WORKLOAD_SEED);
    let disarmed = run(&bed, &streams, Schedule::RoundRobin, false, false).render();
    for schedule in [Schedule::RoundRobin, Schedule::WorkStealing { workers: 1 }] {
        let armed = run(&bed, &streams, schedule, false, true);
        assert!(armed.telemetry.is_some(), "armed runs must attach a TelemetryReport");
        assert_eq!(
            armed.render(),
            disarmed,
            "telemetry must never change a report render ({schedule:?})"
        );
    }
}

#[test]
fn armed_width1_event_streams_are_byte_identical_across_reruns() {
    let (bed, streams) = bed_and_streams(4, WORKLOAD_SEED);
    for (schedule, batched) in [
        (Schedule::RoundRobin, false),
        (Schedule::WorkStealing { workers: 1 }, false),
        (Schedule::RoundRobin, true),
    ] {
        let a = run(&bed, &streams, schedule, batched, true);
        let b = run(&bed, &streams, schedule, batched, true);
        let ja = a.telemetry.as_ref().expect("armed").to_jsonl();
        let jb = b.telemetry.as_ref().expect("armed").to_jsonl();
        assert!(!ja.is_empty(), "armed run recorded no events ({schedule:?})");
        assert_eq!(ja, jb, "armed W1 event stream diverged ({schedule:?}, batched={batched})");
    }
    // And the W1 determinism ladder extends to events: width-1 work
    // stealing exports the same timeline as round-robin.
    let rr = run(&bed, &streams, Schedule::RoundRobin, false, true);
    let ws1 = run(&bed, &streams, Schedule::WorkStealing { workers: 1 }, false, true);
    assert_eq!(
        rr.telemetry.as_ref().expect("armed").to_jsonl(),
        ws1.telemetry.as_ref().expect("armed").to_jsonl(),
        "width-1 work stealing must export round-robin's exact timeline"
    );
}

#[test]
fn armed_width1_flight_log_replays_its_pinned_digest() {
    // The armed width-1 timeline's exact bytes, unbatched and batched:
    // every event, its simulated timestamp and its order.
    let (bed, streams) = bed_and_streams(4, WORKLOAD_SEED);
    for (batched, pinned) in [(false, 0xe7dc_a23d_7d61_eade), (true, 0x2f41_b540_168a_d5c3)] {
        for schedule in [Schedule::RoundRobin, Schedule::WorkStealing { workers: 2 }] {
            let report = run(&bed, &streams, schedule, batched, true);
            let jsonl = report.telemetry.as_ref().expect("armed").to_jsonl();
            let digest = fnv1a(jsonl.bytes());
            assert_eq!(digest, pinned, "{schedule:?}, batched = {batched}: {digest:#x}");
        }
    }
}

#[test]
fn flight_log_sees_every_query_at_every_width() {
    // Every event is recorded on the fleet's calling thread, in the step
    // that decided it, stamped with the clock that step left, so widths 2
    // and 4 export width 1's JSONL: one `window` line per query.
    let (bed, streams) = bed_and_streams(6, WORKLOAD_SEED);
    let mut width_one = None;
    for workers in [1usize, 2, 4] {
        let report = run(&bed, &streams, Schedule::WorkStealing { workers }, false, true);
        let telem = report.telemetry.as_ref().expect("armed");
        assert_eq!(telem.dropped_events(), 0, "the ring wrapped, so the log is partial");
        let jsonl = telem.to_jsonl();
        let expected = width_one.get_or_insert_with(|| jsonl.clone());
        assert_eq!(&jsonl, expected, "width {workers} exported another timeline");
        one_window_per_query(&jsonl, &report, &format!("width {workers}"));
    }
}

#[test]
fn window_events_record_the_budget_cut() {
    // An ample window (a large ratio over an eviction-free cache) reads
    // every plan to its end; a zero window prefetches nothing, so the
    // budget cuts every plan that asks for a page.
    let (bed, streams) = bed_and_streams(4, WORKLOAD_SEED);
    let run_at = |window_ratio: f64| {
        let mut config = config(Schedule::RoundRobin, false, true);
        config.exec.window_ratio = window_ratio;
        config.exec.cache_pages = bed.rtree.layout().page_count();
        let report =
            MultiSessionExecutor::new(config).run(&bed.ctx_rtree(), scout_sessions(&streams));
        let jsonl = report.telemetry.as_ref().expect("armed").to_jsonl();
        let at = format!("window_ratio {window_ratio}");
        let cuts: Vec<(u64, u64)> = one_window_per_query(&jsonl, &report, &at)
            .iter()
            .map(|line| (field(line, "requests"), field(line, "unserved")))
            .collect();
        assert!(cuts.iter().all(|&(requests, unserved)| unserved <= requests), "{at}: {cuts:?}");
        (report.cache.insertions, cuts)
    };
    let (inserted, cuts) = run_at(1e6);
    assert!(inserted > 0, "an ample window prefetched nothing");
    assert!(cuts.iter().any(|&(requests, _)| requests > 0), "no plan asked for anything");
    assert!(cuts.iter().all(|&(_, unserved)| unserved == 0), "an ample window cut: {cuts:?}");
    let (inserted, cuts) = run_at(0.0);
    assert_eq!(inserted, 0, "a zero window prefetched");
    assert!(
        cuts.iter().any(|&(requests, unserved)| requests > 0 && unserved > 0),
        "a zero window cut no plan: {cuts:?}"
    );
}
