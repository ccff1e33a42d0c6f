//! The flight recorder: a bounded per-session ring of typed,
//! clock-stamped events with a deterministic JSONL export.
//!
//! Each session (and the batch engine) owns one [`FlightRecorder`]. Recording writes a preallocated
//! ring slot — no allocation, no locking — and when the ring is full the
//! oldest event is overwritten and counted as dropped. At teardown the
//! per-stream rings merge into a [`FlightLog`] ordered by
//! `(timestamp, stream, seq)`, which is a total order because `seq` is
//! monotonic per stream; with simulated timestamps the export is
//! byte-identical across reruns.

/// Which physical lane a batch submission used.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lane {
    /// Demand (serve-blocking) reads.
    Demand,
    /// Prefetch-window reads.
    Window,
}

impl Lane {
    fn tag(&self) -> &'static str {
        match self {
            Lane::Demand => "demand",
            Lane::Window => "window",
        }
    }
}

/// One typed engine event. Variants mirror the engine's observable
/// transitions; every payload field is a small integer so an event is
/// `Copy` and a ring slot stays fixed-size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Event {
    /// A query's serve phase completed.
    QueryServed {
        /// Sequence position of the query within its session.
        query: u32,
        /// Result pages the serve touched.
        pages: u32,
        /// Of those, pages already cached.
        hits: u32,
        /// Whether the serve surfaced an unrecoverable I/O error.
        failed: bool,
    },
    /// A prefetch window opened after a serve.
    WindowOpened {
        /// Think-time budget granted to the window, µs.
        budget_us: f64,
    },
    /// The circuit breaker shed a prefetch window.
    WindowShed {
        /// Breaker trips observed by this session so far.
        trips: u32,
    },
    /// A prefetch window closed.
    WindowClosed {
        /// Pages prefetched within budget.
        prefetched: u32,
        /// Overhead pages read for gap traversal.
        gaps: u32,
    },
    /// The session migrated: its previous step ran on another worker.
    SessionStolen {
        /// Worker that took it.
        worker: u32,
    },
    /// The session parked at a phase boundary.
    SessionParked {
        /// Worker that parked it.
        worker: u32,
    },
    /// Demand reads climbed the retry ladder during a serve.
    RetryLadder {
        /// Retry attempts beyond first tries.
        attempts: u32,
        /// Reads that eventually succeeded.
        recovered: u32,
    },
    /// A physical I/O batch was submitted.
    BatchSubmitted {
        /// Which lane the batch drained.
        lane: Lane,
        /// Pages in the batch.
        pages: u32,
        /// Duplicate requests coalesced into already-queued slots.
        coalesced: u32,
    },
}

impl Event {
    /// The event's stable snake_case type tag.
    pub(crate) fn tag(&self) -> &'static str {
        match self {
            Event::QueryServed { .. } => "query_served",
            Event::WindowOpened { .. } => "window_opened",
            Event::WindowShed { .. } => "window_shed",
            Event::WindowClosed { .. } => "window_closed",
            Event::SessionStolen { .. } => "session_stolen",
            Event::SessionParked { .. } => "session_parked",
            Event::RetryLadder { .. } => "retry_ladder",
            Event::BatchSubmitted { .. } => "batch_submitted",
        }
    }

    fn payload_json(&self, out: &mut String) {
        use std::fmt::Write;
        match *self {
            Event::QueryServed { query, pages, hits, failed } => {
                let _ = write!(
                    out,
                    ", \"query\": {query}, \"pages\": {pages}, \"hits\": {hits}, \
                     \"failed\": {failed}"
                );
            }
            Event::WindowOpened { budget_us } => {
                let _ = write!(out, ", \"budget_us\": {budget_us:.3}");
            }
            Event::WindowShed { trips } => {
                let _ = write!(out, ", \"trips\": {trips}");
            }
            Event::WindowClosed { prefetched, gaps } => {
                let _ = write!(out, ", \"prefetched\": {prefetched}, \"gaps\": {gaps}");
            }
            Event::SessionStolen { worker } | Event::SessionParked { worker } => {
                let _ = write!(out, ", \"worker\": {worker}");
            }
            Event::RetryLadder { attempts, recovered } => {
                let _ = write!(out, ", \"attempts\": {attempts}, \"recovered\": {recovered}");
            }
            Event::BatchSubmitted { lane, pages, coalesced } => {
                let _ = write!(
                    out,
                    ", \"lane\": \"{}\", \"pages\": {pages}, \"coalesced\": {coalesced}",
                    lane.tag()
                );
            }
        }
    }
}

/// An [`Event`] stamped with its simulated time and per-stream sequence
/// number.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedEvent {
    /// Simulated µs when the event was recorded.
    pub(crate) t_us: f64,
    /// Stream (session id; reserved high values for engine streams).
    pub(crate) stream: u32,
    /// Monotonic per-stream sequence number, counted from 0 across the
    /// stream's lifetime — dropped events leave gaps at the front, never
    /// in the middle.
    pub(crate) seq: u64,
    /// The event itself.
    pub(crate) event: Event,
}

impl TimedEvent {
    /// One deterministic JSON line (no trailing newline).
    pub(crate) fn to_json(self) -> String {
        let mut out = String::with_capacity(96);
        use std::fmt::Write;
        let _ = write!(
            out,
            "{{\"t_us\": {:.3}, \"stream\": {}, \"seq\": {}, \"type\": \"{}\"",
            self.t_us,
            self.stream,
            self.seq,
            self.event.tag()
        );
        self.event.payload_json(&mut out);
        out.push('}');
        out
    }
}

/// Stream id of the batch-engine recorder (not a session).
pub const ENGINE_STREAM: u32 = u32::MAX - 1;

/// A bounded ring of [`TimedEvent`]s for one stream. Records are
/// allocation-free after construction: the ring `Vec` is filled once and
/// then slots are overwritten in place, oldest first.
#[derive(Debug)]
pub struct FlightRecorder {
    stream: u32,
    ring: Vec<TimedEvent>,
    head: usize,
    seq: u64,
    dropped: u64,
}

impl FlightRecorder {
    /// A recorder for `stream` retaining at most `capacity` events.
    pub fn with_capacity(stream: u32, capacity: usize) -> FlightRecorder {
        assert!(capacity >= 1, "FlightRecorder capacity must be >= 1");
        FlightRecorder { stream, ring: Vec::with_capacity(capacity), head: 0, seq: 0, dropped: 0 }
    }

    /// Records one event at simulated time `t_us`. O(1), allocation-free
    /// once the ring has filled.
    pub fn record(&mut self, t_us: f64, event: Event) {
        let timed = TimedEvent { t_us, stream: self.stream, seq: self.seq, event };
        self.seq += 1;
        if self.ring.len() < self.ring.capacity() {
            self.ring.push(timed);
        } else {
            self.ring[self.head] = timed;
            self.head = (self.head + 1) % self.ring.len();
            self.dropped += 1;
        }
    }

    /// Events overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Copies out the retained events oldest-first and clears the ring
    /// (sequence numbering continues where it left off).
    pub(crate) fn drain(&mut self) -> Vec<TimedEvent> {
        let mut out = Vec::with_capacity(self.ring.len());
        out.extend_from_slice(&self.ring[self.head..]);
        out.extend_from_slice(&self.ring[..self.head]);
        self.ring.clear();
        self.head = 0;
        out
    }
}

/// The merged flight log of a run: every stream's retained events in one
/// totally-ordered timeline.
#[derive(Debug, Clone, Default)]
pub struct FlightLog {
    events: Vec<TimedEvent>,
    dropped: u64,
}

impl FlightLog {
    /// Absorbs a recorder's retained events and drop count.
    pub fn absorb(&mut self, recorder: &mut FlightRecorder) {
        self.dropped += recorder.dropped();
        self.events.extend(recorder.drain());
    }

    /// Sorts the merged timeline by `(t_us, stream, seq)` — a total order
    /// because `seq` is unique per stream. Call once after all absorbs.
    pub fn seal(&mut self) {
        self.events.sort_by(|a, b| {
            a.t_us.total_cmp(&b.t_us).then(a.stream.cmp(&b.stream)).then(a.seq.cmp(&b.seq))
        });
    }

    /// The merged (sealed) timeline.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Total events overwritten across all absorbed streams.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Deterministic JSONL export: one event per line, trailing newline
    /// after each. Byte-identical across reruns whenever timestamps come
    /// from the simulated clock.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96);
        for event in &self.events {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_retains_newest_and_counts_drops() {
        let mut rec = FlightRecorder::with_capacity(3, 2);
        for i in 0..5u32 {
            rec.record(i as f64, Event::SessionParked { worker: i });
        }
        assert_eq!(rec.ring.len(), 2);
        assert_eq!(rec.dropped(), 3);
        assert_eq!(rec.seq, 5);
        let events = rec.drain();
        assert_eq!(events.len(), 2);
        // Oldest-first, newest retained: workers 3 and 4, seq 3 and 4.
        assert!(matches!(events[0].event, Event::SessionParked { worker: 3 }));
        assert!(matches!(events[1].event, Event::SessionParked { worker: 4 }));
        assert_eq!(events[0].seq, 3);
        assert_eq!(events[1].seq, 4);
        assert!(rec.ring.is_empty());
        // Sequence numbering continues after a drain.
        rec.record(9.0, Event::SessionParked { worker: 9 });
        assert_eq!(rec.drain()[0].seq, 5);
    }

    #[test]
    fn merge_orders_by_time_then_stream_then_seq() {
        let mut a = FlightRecorder::with_capacity(1, 8);
        let mut b = FlightRecorder::with_capacity(0, 8);
        let parked = Event::SessionParked { worker: 0 };
        a.record(5.0, parked);
        a.record(5.0, parked);
        b.record(5.0, parked);
        b.record(2.0, parked);
        let mut log = FlightLog::default();
        log.absorb(&mut a);
        log.absorb(&mut b);
        log.seal();
        let order: Vec<(f64, u32, u64)> =
            log.events().iter().map(|e| (e.t_us, e.stream, e.seq)).collect();
        assert_eq!(order, vec![(2.0, 0, 1), (5.0, 0, 0), (5.0, 1, 0), (5.0, 1, 1)]);
    }

    #[test]
    fn jsonl_is_deterministic_and_tagged() {
        let mut rec = FlightRecorder::with_capacity(7, 8);
        rec.record(1.5, Event::QueryServed { query: 0, pages: 12, hits: 9, failed: false });
        rec.record(2.25, Event::WindowOpened { budget_us: 800.0 });
        rec.record(3.0, Event::BatchSubmitted { lane: Lane::Window, pages: 64, coalesced: 3 });
        let mut log = FlightLog::default();
        log.absorb(&mut rec);
        log.seal();
        let jsonl = log.to_jsonl();
        assert_eq!(
            jsonl,
            "{\"t_us\": 1.500, \"stream\": 7, \"seq\": 0, \"type\": \"query_served\", \
             \"query\": 0, \"pages\": 12, \"hits\": 9, \"failed\": false}\n\
             {\"t_us\": 2.250, \"stream\": 7, \"seq\": 1, \"type\": \"window_opened\", \
             \"budget_us\": 800.000}\n\
             {\"t_us\": 3.000, \"stream\": 7, \"seq\": 2, \"type\": \"batch_submitted\", \
             \"lane\": \"window\", \"pages\": 64, \"coalesced\": 3}\n"
        );
        // Rebuilding the identical stream reproduces the bytes exactly.
        let mut rec2 = FlightRecorder::with_capacity(7, 8);
        rec2.record(1.5, Event::QueryServed { query: 0, pages: 12, hits: 9, failed: false });
        rec2.record(2.25, Event::WindowOpened { budget_us: 800.0 });
        rec2.record(3.0, Event::BatchSubmitted { lane: Lane::Window, pages: 64, coalesced: 3 });
        let mut log2 = FlightLog::default();
        log2.absorb(&mut rec2);
        log2.seal();
        assert_eq!(log2.to_jsonl(), jsonl);
    }

    #[test]
    fn every_event_variant_serializes() {
        let variants = [
            Event::QueryServed { query: 1, pages: 2, hits: 1, failed: true },
            Event::WindowOpened { budget_us: 1.0 },
            Event::WindowShed { trips: 2 },
            Event::WindowClosed { prefetched: 5, gaps: 1 },
            Event::SessionStolen { worker: 3 },
            Event::SessionParked { worker: 0 },
            Event::RetryLadder { attempts: 2, recovered: 1 },
            Event::BatchSubmitted { lane: Lane::Demand, pages: 8, coalesced: 0 },
        ];
        for (i, event) in variants.into_iter().enumerate() {
            let line = TimedEvent { t_us: i as f64, stream: 0, seq: i as u64, event }.to_json();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(&format!("\"type\": \"{}\"", event.tag())), "{line}");
        }
    }
}
