//! # scout-telemetry
//!
//! The engine's observability layer (DESIGN.md §13): a [`MetricsRegistry`]
//! of atomic counters, gauges and fixed-size log-bucketed latency
//! histograms (bounded memory, lock-free record, mergeable across
//! sessions and workers), a per-session [`FlightRecorder`] — a bounded
//! ring of typed, simulated-clock-stamped events with a deterministic
//! JSONL export — and [`SpanTimer`] scoped wall-clock timers feeding the
//! histogram registry.
//!
//! Everything is `std`-only and allocation-free on the record path: a
//! counter bump is one `fetch_add`, a histogram record is two, and an
//! event record writes one preallocated ring slot. Arming is explicit —
//! an engine run with [`TelemetryPlan`] unset constructs none of this and
//! stays byte-identical to an untelemetered run.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod recorder;
pub mod span;

pub use metrics::{
    CounterId, GaugeId, HistogramId, LogHistogram, MetricsRegistry, COUNTER_COUNT, GAUGE_COUNT,
    HISTOGRAM_COUNT,
};
pub use recorder::{Event, FlightLog, FlightRecorder, Lane, TimedEvent};
pub use span::SpanTimer;

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// How a run records telemetry. Carried as `Option<TelemetryPlan>` on the
/// executor configuration: `None` (the default) constructs nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryPlan {
    /// Events retained per session ring; older events are overwritten
    /// (and counted as dropped) beyond this.
    pub ring_capacity: usize,
    /// Whether wall-clock span timers run. Span histograms are
    /// host-dependent by nature; disabling them keeps an armed run's
    /// recorded state fully simulated.
    pub spans: bool,
}

impl Default for TelemetryPlan {
    fn default() -> TelemetryPlan {
        TelemetryPlan { ring_capacity: 1024, spans: true }
    }
}

impl TelemetryPlan {
    /// A plan recording events only (no wall-clock span timers), which
    /// keeps every recorded quantity deterministic.
    pub fn events_only() -> TelemetryPlan {
        TelemetryPlan { spans: false, ..TelemetryPlan::default() }
    }

    /// Checks the plan is usable: at least one ring slot.
    pub fn validate(&self) -> Result<(), String> {
        if self.ring_capacity == 0 {
            return Err("TelemetryPlan.ring_capacity must be >= 1: a zero-slot ring cannot \
                 retain any event"
                .to_string());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Process-global warning hook
// ---------------------------------------------------------------------------

/// Warning code: `SCOUT_THREADS` was set but not a positive integer.
pub const WARN_INVALID_SCOUT_THREADS: u32 = 1;

static WARNING_COUNT: AtomicU64 = AtomicU64::new(0);
static WARNING_SINK: Mutex<Option<FlightRecorder>> = Mutex::new(None);

/// Warnings emitted by this process so far (counted whether or not a sink
/// is armed).
pub fn warning_count() -> u64 {
    WARNING_COUNT.load(Ordering::Relaxed)
}

/// Arms the process-global warning sink: subsequent [`emit_warning`]
/// calls record a [`Event::Warning`] into a bounded ring instead of
/// writing to stderr. Idempotent; the existing ring (and its events) are
/// kept when already armed.
pub fn arm_warning_sink(capacity: usize) {
    let mut sink = WARNING_SINK.lock().unwrap_or_else(|e| e.into_inner());
    if sink.is_none() {
        *sink = Some(FlightRecorder::with_capacity(recorder::WARNING_STREAM, capacity.max(1)));
    }
}

/// Drains (copies out and clears) the armed sink's retained warning
/// events, oldest first. Empty when the sink was never armed.
pub fn drain_warnings() -> Vec<TimedEvent> {
    let mut sink = WARNING_SINK.lock().unwrap_or_else(|e| e.into_inner());
    match sink.as_mut() {
        Some(ring) => ring.drain(),
        None => Vec::new(),
    }
}

/// Emits an engine warning: always counts it, and either records it into
/// the armed sink or — the disarmed fallback — prints `warning: {message}`
/// to stderr exactly like the historical ad-hoc `eprintln!` paths did.
pub fn emit_warning(code: u32, message: &str) {
    WARNING_COUNT.fetch_add(1, Ordering::Relaxed);
    let mut sink = WARNING_SINK.lock().unwrap_or_else(|e| e.into_inner());
    match sink.as_mut() {
        Some(ring) => ring.record(0.0, Event::Warning { code }),
        None => eprintln!("warning: {message}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_defaults_and_validation() {
        let plan = TelemetryPlan::default();
        assert_eq!(plan.ring_capacity, 1024);
        assert!(plan.spans);
        assert!(plan.validate().is_ok());
        assert!(!TelemetryPlan::events_only().spans);
        let bad = TelemetryPlan { ring_capacity: 0, ..Default::default() };
        assert!(bad.validate().unwrap_err().contains("ring_capacity"));
    }

    #[test]
    fn warning_sink_counts_and_records() {
        // The counter and sink are process-global; other tests may emit
        // too, so assert on deltas and membership, not absolutes.
        let before = warning_count();
        arm_warning_sink(8);
        emit_warning(WARN_INVALID_SCOUT_THREADS, "test warning (sink armed, not stderr)");
        assert!(warning_count() > before);
        let drained = drain_warnings();
        assert!(drained
            .iter()
            .any(|e| matches!(e.event, Event::Warning { code: WARN_INVALID_SCOUT_THREADS })));
        // Drained means drained.
        assert!(!drain_warnings()
            .iter()
            .any(|e| matches!(e.event, Event::Warning { code: WARN_INVALID_SCOUT_THREADS })));
    }
}
