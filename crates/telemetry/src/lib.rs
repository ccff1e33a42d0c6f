//! # scout-telemetry
//!
//! The engine's observability layer (DESIGN.md §13): a [`MetricsRegistry`]
//! of atomic counters, gauges and fixed-size log-bucketed latency
//! histograms (bounded memory, lock-free record, one registry shared by a
//! fleet's sessions and workers), a per-session [`FlightRecorder`] — a bounded
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
}
