//! Acceptance tests of the flight-recorder telemetry layer: the disarmed
//! byte-identity contract (telemetry `None` must be invisible
//! everywhere), armed event-stream determinism at every width, and a
//! flight log that accounts for every query the report counts.

use scout::prelude::*;
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

/// FNV-1a over `bytes`: a digest that pins an export's exact bytes.
fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes
        .into_iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

#[test]
fn armed_width1_flight_log_replays_its_pinned_digest() {
    // The armed width-1 timeline's exact bytes, unbatched and batched:
    // every event, its simulated timestamp and its order.
    let (bed, streams) = bed_and_streams(4);
    for (batched, pinned) in [(false, 0x00a0_3c3d_a125_94fb), (true, 0xd77d_90ba_ff7c_e54e)] {
        for schedule in [Schedule::RoundRobin, Schedule::WorkStealing { workers: 2 }] {
            let report = run(&bed, &streams, schedule, batched, true);
            let jsonl = report.telemetry.as_ref().expect("armed").to_jsonl();
            let digest = fnv1a(jsonl.bytes());
            assert_eq!(digest, pinned, "{schedule:?}, batched = {batched}: {digest:#x}");
        }
    }
}

/// The integer value of `"key": <n>` in one JSONL line.
fn field(line: &str, key: &str) -> u64 {
    let tag = format!("\"{key}\": ");
    let rest = &line[line.find(&tag).unwrap_or_else(|| panic!("no {key} in {line}")) + tag.len()..];
    let digits = rest.find(|c: char| !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..digits].parse().unwrap_or_else(|_| panic!("{key} is not an integer in {line}"))
}

#[test]
fn flight_log_sees_every_query_at_every_width() {
    // Every event is stamped with the clock its shared step read on the
    // fleet's calling thread, so widths 2 and 4 export width 1's JSONL.
    let (bed, streams) = bed_and_streams(6);
    let mut width_one = None;
    for workers in [1usize, 2, 4] {
        let report = run(&bed, &streams, Schedule::WorkStealing { workers }, false, true);
        let telem = report.telemetry.as_ref().expect("armed");
        assert_eq!(telem.dropped_events(), 0, "the ring wrapped, so the log is partial");
        let jsonl = telem.to_jsonl();
        let expected = width_one.get_or_insert_with(|| jsonl.clone());
        assert_eq!(&jsonl, expected, "width {workers} exported another timeline");
        let served: Vec<&str> =
            jsonl.lines().filter(|l| l.contains("\"type\": \"query_served\"")).collect();
        let queries: usize = report.sessions.iter().map(|s| s.queries).sum();
        assert_eq!(served.len(), queries, "one query_served line per query (w={workers})");
        let pages: u64 = served.iter().map(|l| field(l, "pages")).sum();
        let hits: u64 = served.iter().map(|l| field(l, "hits")).sum();
        assert_eq!(pages, report.total_pages(), "w={workers}");
        assert_eq!(hits, report.total_pages_hit(), "w={workers}");
        let opened = jsonl.lines().filter(|l| l.contains("\"type\": \"window_opened\"")).count();
        assert_eq!(opened, queries, "one window_opened line per query (w={workers})");
    }
}
