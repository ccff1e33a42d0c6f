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

use scout_storage::DiskModel;
use scout_telemetry::{
    Event, FlightLog, FlightRecorder, HistogramId, MetricsRegistry, SpanTimer, TimedEvent,
};
use std::sync::Arc;

/// Events retained per ring (each session's and the batch engine's);
/// older events are overwritten, and counted as dropped, beyond this.
pub(crate) const RING_CAPACITY: usize = 1024;

/// One session's telemetry arm: the fleet's shared span registry plus a
/// private event ring (stream = session id). A session records into it
/// only in its shared serve and window steps, on the fleet's calling
/// thread, stamped with the clock that step left, so the event stream is
/// a pure function of the workload at every width.
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

    /// Folds the session disk's retry counters since the last call into a
    /// [`Event::RetryLadder`] step, stamped with the disk's clock (no
    /// event when nothing retried, or while injection is disabled).
    pub(crate) fn note_retries(&mut self, disk: &DiskModel) {
        let Some(report) = disk.fault_report() else { return };
        let attempts = report.retries - self.retry_mark.0;
        let recovered = report.recovered - self.retry_mark.1;
        self.retry_mark = (report.retries, report.recovered);
        if attempts > 0 {
            self.recorder.record(
                now_us(disk),
                Event::RetryLadder { attempts: attempts as u32, recovered: recovered as u32 },
            );
        }
    }

    /// Query `query`'s prefetch window closed, stamped with the disk's
    /// clock: the budget it opened with, the plan's `requests`, the
    /// `unserved` ones the budget cut, and whether the breaker `shed` it.
    pub(crate) fn note_window(
        &mut self,
        disk: &DiskModel,
        query: usize,
        budget_us: f64,
        requests: usize,
        unserved: usize,
        shed: bool,
    ) {
        self.recorder.record(
            now_us(disk),
            Event::Window {
                query: query as u32,
                budget_us,
                requests: requests as u32,
                unserved: unserved as u32,
                shed,
            },
        );
    }
}

/// The simulated now an event is stamped with: the shared clock when
/// `disk` has one (every multi-session run), 0 otherwise.
pub(crate) fn now_us(disk: &DiskModel) -> f64 {
    disk.clock().map_or(0.0, |c| c.now_us())
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
