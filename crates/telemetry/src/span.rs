//! Scoped wall-clock span timers feeding the histogram registry.

use crate::metrics::LogHistogram;
use std::time::Instant;

/// A scoped timer: created at the top of a hot phase, records the phase's
/// elapsed wall-clock µs into a [`LogHistogram`] when dropped. Costs one
/// `Instant::now()` on entry and one on exit plus two relaxed atomic adds
/// — no allocation, no locking — so it is safe to arm on per-query paths.
///
/// Span durations are host wall-clock and therefore *not* deterministic;
/// runs that need fully reproducible telemetry disable spans via
/// `TelemetryPlan { spans: false, ..Default::default() }`.
pub struct SpanTimer<'a> {
    sink: &'a LogHistogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts timing into `sink`.
    #[inline]
    pub(crate) fn start(sink: &'a LogHistogram) -> SpanTimer<'a> {
        SpanTimer { sink, start: Instant::now() }
    }

    /// Starts timing only when `enabled` — the armed-with-spans gate.
    #[inline]
    pub fn start_if(enabled: bool, sink: &'a LogHistogram) -> Option<SpanTimer<'a>> {
        enabled.then(|| SpanTimer::start(sink))
    }
}

impl Drop for SpanTimer<'_> {
    #[inline]
    fn drop(&mut self) {
        self.sink.record(self.start.elapsed().as_secs_f64() * 1e6);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_on_drop() {
        let h = LogHistogram::new();
        {
            let _span = SpanTimer::start(&h);
        }
        assert_eq!(h.count(), 1);
        assert!(SpanTimer::start_if(false, &h).is_none());
        assert_eq!(h.count(), 1);
        {
            let _span = SpanTimer::start_if(true, &h);
        }
        assert_eq!(h.count(), 2);
    }
}
