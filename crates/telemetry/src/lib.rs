//! # scout-telemetry
//!
//! The engine's observability layer (DESIGN.md §13): a [`MetricsRegistry`]
//! of fixed-size log-bucketed wall-clock span histograms (bounded memory,
//! lock-free record, one registry shared by a fleet's sessions and
//! workers), [`SpanTimer`] scoped timers feeding it, and a per-session
//! [`FlightRecorder`] — a bounded ring of typed, simulated-clock-stamped
//! events with a deterministic JSONL export.
//!
//! The registry holds measurements only. Model outputs (counts, hit
//! rates, simulated latencies) live in the engine's reports and, per
//! event, in the flight log.
//!
//! Everything is `std`-only and allocation-free on the record path: a
//! span record is two relaxed `fetch_add`s, and an event record writes
//! one preallocated ring slot. Arming is explicit — an engine run with
//! [`TelemetryPlan`] unset constructs none of this and stays
//! byte-identical to an untelemetered run.

#![forbid(unsafe_code)]

mod metrics;
mod recorder;
mod span;

pub use metrics::{HistogramId, LogHistogram, MetricsRegistry};
pub use recorder::{Event, FlightLog, FlightRecorder, Lane, TimedEvent, ENGINE_STREAM};
pub use span::SpanTimer;

/// Arms a run's telemetry. Carried as `Option<TelemetryPlan>` on the
/// executor configuration: `None` (the default) constructs nothing, and
/// `Some(TelemetryPlan::default())` records spans and the flight log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TelemetryPlan;
