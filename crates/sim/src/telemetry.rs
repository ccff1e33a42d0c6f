//! Sim-side telemetry glue (DESIGN.md §13).
//!
//! The `scout-telemetry` crate provides the mechanisms — the shared
//! [`MetricsRegistry`] of span histograms, the bounded [`FlightRecorder`]
//! rings, the [`SpanTimer`](scout_telemetry::SpanTimer) scoped timers.
//! This module owns the *policy*: what each session records and when
//! (`SessionTelemetry`), and the view the run hands back
//! ([`TelemetryReport`]). Counts stay in the engine's reports; the
//! registry holds wall-clock measurements only.
//!
//! Arming is strictly opt-in: `ExecutorConfig.telemetry` is `None` by
//! default, in which case none of these types is ever constructed and
//! every engine path is byte-identical to an untelemetered run — the same
//! contract `FaultPlan` and `BatchPlan` honor.

use crate::executor::QueryTrace;
use scout_storage::FaultReport;
use scout_telemetry::{
    Event, FlightLog, FlightRecorder, HistogramId, MetricsRegistry, SpanTimer, TimedEvent,
};
use std::sync::Arc;

/// Events retained per ring (each session's and the batch engine's);
/// older events are overwritten, and counted as dropped, beyond this.
pub(crate) const RING_CAPACITY: usize = 1024;

/// One session's telemetry arm: the fleet's shared span registry plus a
/// private event ring (stream = session id). Sessions record into it at
/// the same timeline points at every width, stamped with the clock their
/// shared serve or window step read, so the event stream is a pure
/// function of the workload.
pub(crate) struct SessionTelemetry {
    registry: Arc<MetricsRegistry>,
    pub(crate) recorder: FlightRecorder,
    /// `(retries, recovered)` totals at the last query boundary; the
    /// per-query delta becomes a [`Event::RetryLadder`] step.
    retry_mark: (u64, u64),
}

impl SessionTelemetry {
    pub(crate) fn new(registry: Arc<MetricsRegistry>, stream: u32) -> SessionTelemetry {
        SessionTelemetry {
            registry,
            recorder: FlightRecorder::with_capacity(stream, RING_CAPACITY),
            retry_mark: (0, 0),
        }
    }

    /// Starts a wall-clock span into histogram `id`.
    pub(crate) fn span(&self, id: HistogramId) -> SpanTimer<'_> {
        SpanTimer::start(self.registry.histogram(id))
    }

    /// The serve phase of query `query` completed with trace `q`.
    pub(crate) fn note_query_served(&mut self, t_us: f64, query: u32, q: &QueryTrace) {
        self.recorder.record(
            t_us,
            Event::QueryServed {
                query,
                pages: q.pages_total as u32,
                hits: q.pages_hit as u32,
                failed: q.outcome.is_failed(),
            },
        );
    }

    /// Folds the session disk's retry counters since the last call into a
    /// [`Event::RetryLadder`] step (no event when nothing retried).
    /// `faults` is the disk's running report; `None` (injection disabled)
    /// is a no-op.
    pub(crate) fn note_retries(&mut self, t_us: f64, faults: Option<FaultReport>) {
        let Some(report) = faults else { return };
        let attempts = report.retries - self.retry_mark.0;
        let recovered = report.recovered - self.retry_mark.1;
        self.retry_mark = (report.retries, report.recovered);
        if attempts > 0 {
            self.recorder.record(
                t_us,
                Event::RetryLadder { attempts: attempts as u32, recovered: recovered as u32 },
            );
        }
    }

    /// A prefetch window opened with the given budget.
    pub(crate) fn note_window_opened(&mut self, t_us: f64, budget_us: f64) {
        self.recorder.record(t_us, Event::WindowOpened { budget_us });
    }

    /// The circuit breaker shed this query's prefetch window.
    pub(crate) fn note_window_shed(&mut self, t_us: f64, trips: u64) {
        self.recorder.record(t_us, Event::WindowShed { trips: trips as u32 });
    }

    /// A prefetch window ran (or staged) to completion.
    pub(crate) fn note_window_closed(&mut self, t_us: f64, prefetched: usize, gaps: usize) {
        self.recorder
            .record(t_us, Event::WindowClosed { prefetched: prefetched as u32, gaps: gaps as u32 });
    }
}

/// The telemetry view of one armed run, attached to
/// [`MultiSessionReport`](crate::MultiSessionReport) and never rendered —
/// disarmed runs stay byte-identical.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The run's span registry, shared by every session.
    pub(crate) registry: Arc<MetricsRegistry>,
    /// The merged, sealed flight log across all streams.
    pub(crate) flight: FlightLog,
}

impl TelemetryReport {
    /// A span histogram's nearest-rank percentile (bucket upper edge),
    /// wall-clock µs.
    pub fn percentile(&self, id: HistogramId, p: f64) -> f64 {
        self.registry.histogram(id).percentile(p)
    }

    /// The merged event timeline, ordered by `(t_us, stream, seq)`.
    pub fn events(&self) -> &[TimedEvent] {
        self.flight.events()
    }

    /// Events lost to ring wrap-around across all streams.
    pub fn dropped_events(&self) -> u64 {
        self.flight.dropped()
    }

    /// The deterministic JSONL export of the merged timeline.
    pub fn to_jsonl(&self) -> String {
        self.flight.to_jsonl()
    }
}
