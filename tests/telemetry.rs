//! Acceptance tests of the flight-recorder telemetry layer (ISSUE 10):
//! the disarmed byte-identity contract (telemetry `None` must be
//! invisible everywhere), armed width-1 event-stream determinism, the
//! histogram-vs-exact-percentile tolerance, and registry/report counter
//! consistency.

use scout::prelude::*;
use scout::telemetry::LogHistogram;
use scout_storage::BatchPlan;
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

/// K sessions, each with its own seeded SCOUT instance.
fn scout_sessions(streams: &[Vec<scout::geometry::QueryRegion>]) -> Vec<Session> {
    streams
        .iter()
        .enumerate()
        .map(|(id, regions)| {
            Session::new(id, Box::new(Scout::with_seed(0xBEEF + id as u64)), regions.clone())
        })
        .collect()
}

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
    let (bed, streams) = bed_and_streams(4);
    let a = run(&bed, &streams, Schedule::RoundRobin, false, false);
    let b = run(&bed, &streams, Schedule::RoundRobin, false, false);
    assert!(a.telemetry.is_none(), "disarmed runs must not attach a TelemetryReport");
    assert_eq!(a.render(), b.render(), "disarmed reruns diverged");
}

#[test]
fn armed_run_renders_byte_identically_to_disarmed() {
    let (bed, streams) = bed_and_streams(4);
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
    let (bed, streams) = bed_and_streams(4);
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
fn registry_counters_match_report_totals_at_every_width() {
    let (bed, streams) = bed_and_streams(6);
    for workers in [1usize, 2, 4] {
        let report = run(&bed, &streams, Schedule::WorkStealing { workers }, false, true);
        let telem = report.telemetry.as_ref().expect("armed");
        let queries: usize = report.sessions.iter().map(|s| s.queries).sum();
        assert_eq!(telem.counter(CounterId::QueriesServed), queries as u64, "w={workers}");
        assert_eq!(telem.counter(CounterId::PagesRequested), report.total_pages(), "w={workers}");
        assert_eq!(telem.counter(CounterId::PagesHit), report.total_pages_hit(), "w={workers}");
        assert_eq!(telem.counter(CounterId::WindowsOpened), queries as u64, "w={workers}");
        let sched = report.scheduler.as_ref().expect("work stealing");
        assert_eq!(telem.counter(CounterId::SessionsStolen), sched.steals, "w={workers}");
        assert_eq!(telem.counter(CounterId::SessionsParked), sched.parks, "w={workers}");
        assert_eq!(telem.counter(CounterId::EventsDropped), telem.dropped_events());
        // The registry's bounded-histogram view of the residual tail must
        // sit within one log bucket of the exact sort-based percentiles.
        let exact = report.residual;
        let view = telem.residual_percentiles();
        for (e, v) in [(exact.p50, view.p50), (exact.p95, view.p95), (exact.p99, view.p99)] {
            let bucket = LogHistogram::bucket_index(e);
            let lower = if bucket == 0 { 0.0 } else { LogHistogram::bucket_upper_us(bucket - 1) };
            assert!(
                v >= lower && v <= LogHistogram::bucket_upper_us(bucket),
                "histogram percentile {v} outside the exact value's bucket [{lower}, {}] \
                 (exact {e}, w={workers})",
                LogHistogram::bucket_upper_us(bucket)
            );
        }
    }
}

#[test]
fn histogram_percentiles_track_the_exact_oracle_across_widths() {
    // Direct histogram-vs-oracle check at fleet widths 1/2/4: whatever
    // the interleaving, the merged histogram is a pure function of the
    // recorded multiset, so every percentile lands in the same bucket the
    // exact nearest-rank value occupies.
    let (bed, streams) = bed_and_streams(4);
    for workers in [1usize, 2, 4] {
        let report = run(&bed, &streams, Schedule::WorkStealing { workers }, false, true);
        let telem = report.telemetry.as_ref().expect("armed");
        // The exact oracle: the report's own sort-based percentiles over
        // the identical residual multiset the histogram recorded.
        let exact = report.residual;
        for (p, v) in [(50.0, exact.p50), (95.0, exact.p95), (99.0, exact.p99)] {
            let h = telem.percentile(HistogramId::ResidualUs, p);
            let bucket = LogHistogram::bucket_index(v);
            let upper = LogHistogram::bucket_upper_us(bucket);
            let lower = if bucket == 0 { 0.0 } else { LogHistogram::bucket_upper_us(bucket - 1) };
            assert!(
                h >= lower && h <= upper,
                "p{p} histogram {h} vs exact {v} (bucket [{lower}, {upper}], w={workers})"
            );
        }
    }
}
