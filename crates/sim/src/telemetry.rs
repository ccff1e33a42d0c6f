//! Sim-side telemetry glue (DESIGN.md §13).
//!
//! The `scout-telemetry` crate provides the mechanisms — the shared
//! [`MetricsRegistry`], the bounded [`FlightRecorder`] rings, the
//! [`SpanTimer`](scout_telemetry::SpanTimer) scoped timers. This module
//! owns the *policy*: how a multi-session run arms them
//! (`FleetTelemetry`), what each session records and when
//! (`SessionTelemetry`), and the registry-backed view the run hands
//! back ([`TelemetryReport`]).
//!
//! Arming is strictly opt-in: `ExecutorConfig.telemetry` is `None` by
//! default, in which case none of these types is ever constructed and
//! every engine path is byte-identical to an untelemetered run — the same
//! contract `FaultPlan` and `BatchPlan` honor.

use crate::executor::QueryTrace;
use crate::report::LatencyPercentiles;
use scout_storage::FaultReport;
use scout_telemetry::{
    CounterId, Event, FlightLog, FlightRecorder, HistogramId, MetricsRegistry, TelemetryPlan,
    TimedEvent,
};
use std::sync::Arc;

/// One armed fleet run's telemetry root: the validated plan plus the
/// registry every session (and the batch engine) records into.
pub(crate) struct FleetTelemetry {
    pub(crate) plan: TelemetryPlan,
    pub(crate) registry: Arc<MetricsRegistry>,
}

impl FleetTelemetry {
    pub(crate) fn new(plan: TelemetryPlan) -> FleetTelemetry {
        // The plan was validated with the rest of the ExecutorConfig; this
        // is the backstop for direct construction.
        if let Err(e) = plan.validate() {
            panic!("invalid TelemetryPlan: {e}");
        }
        FleetTelemetry { plan, registry: Arc::new(MetricsRegistry::new()) }
    }
}

/// One session's telemetry arm: the shared registry plus a private event
/// ring (stream = session id). Sessions record into it at the same
/// timeline points in every schedule, so the W1 event stream is a pure
/// function of the workload.
pub(crate) struct SessionTelemetry {
    pub(crate) registry: Arc<MetricsRegistry>,
    pub(crate) recorder: FlightRecorder,
    pub(crate) spans: bool,
    /// `(retries, recovered)` totals at the last query boundary; the
    /// per-query delta becomes a [`Event::RetryLadder`] step.
    retry_mark: (u64, u64),
}

impl SessionTelemetry {
    pub(crate) fn new(
        plan: TelemetryPlan,
        registry: Arc<MetricsRegistry>,
        stream: u32,
    ) -> SessionTelemetry {
        SessionTelemetry {
            registry,
            recorder: FlightRecorder::with_capacity(stream, plan.ring_capacity),
            spans: plan.spans,
            retry_mark: (0, 0),
        }
    }

    /// The serve phase of query `query` completed with trace `q`.
    pub(crate) fn note_query_served(&mut self, t_us: f64, query: u32, q: &QueryTrace) {
        let failed = q.outcome.is_failed();
        self.registry.incr(CounterId::QueriesServed);
        if failed {
            self.registry.incr(CounterId::QueriesFailed);
        }
        self.registry.add(CounterId::PagesRequested, q.pages_total as u64);
        self.registry.add(CounterId::PagesHit, q.pages_hit as u64);
        self.registry.add(CounterId::PagesMissed, (q.pages_total - q.pages_hit) as u64);
        self.registry.record(HistogramId::ResidualUs, q.residual_us);
        self.registry.record(HistogramId::GraphBuildUs, q.graph_build_us);
        self.registry.record(HistogramId::PredictionUs, q.prediction_us);
        self.recorder.record(
            t_us,
            Event::QueryServed {
                query,
                pages: q.pages_total as u32,
                hits: q.pages_hit as u32,
                failed,
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
        self.registry.incr(CounterId::WindowsOpened);
        self.registry.record(HistogramId::WindowBudgetUs, budget_us);
        self.recorder.record(t_us, Event::WindowOpened { budget_us });
    }

    /// The circuit breaker shed this query's prefetch window.
    pub(crate) fn note_window_shed(&mut self, t_us: f64, trips: u64) {
        self.registry.incr(CounterId::WindowsShed);
        self.recorder.record(t_us, Event::WindowShed { trips: trips as u32 });
    }

    /// A prefetch window ran (or staged) to completion.
    pub(crate) fn note_window_closed(&mut self, t_us: f64, prefetched: usize, gaps: usize) {
        self.registry.add(CounterId::PrefetchPages, prefetched as u64);
        self.registry.add(CounterId::GapPages, gaps as u64);
        self.recorder
            .record(t_us, Event::WindowClosed { prefetched: prefetched as u32, gaps: gaps as u32 });
    }

    /// The session migrated onto `worker` (event only; the
    /// counter mirrors the scheduler report at teardown so the two can
    /// never drift apart).
    pub(crate) fn note_stolen(&mut self, t_us: f64, worker: u32) {
        self.recorder.record(t_us, Event::SessionStolen { worker });
    }

    /// The session parked at a phase boundary on `worker` (event only,
    /// like [`SessionTelemetry::note_stolen`]).
    pub(crate) fn note_parked(&mut self, t_us: f64, worker: u32) {
        self.recorder.record(t_us, Event::SessionParked { worker });
    }
}

/// The telemetry view of one armed run, attached to
/// [`MultiSessionReport`](crate::MultiSessionReport) and never rendered —
/// disarmed runs stay byte-identical.
#[derive(Debug, Clone)]
pub struct TelemetryReport {
    /// The run's metrics registry, shared by every session and worker.
    pub registry: Arc<MetricsRegistry>,
    /// The merged, sealed flight log across all streams.
    pub flight: FlightLog,
}

impl TelemetryReport {
    /// A counter's value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.registry.counter(id)
    }

    /// A histogram's nearest-rank percentile (bucket upper edge), µs.
    pub fn percentile(&self, id: HistogramId, p: f64) -> f64 {
        self.registry.histogram(id).percentile(p)
    }

    /// The fleet-wide residual-latency percentile triple as seen by the
    /// bounded histogram — the registry-backed view of the report's exact
    /// `residual` field, within one bucket of it by construction.
    pub fn residual_percentiles(&self) -> LatencyPercentiles {
        let h = self.registry.histogram(HistogramId::ResidualUs);
        LatencyPercentiles {
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
        }
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
