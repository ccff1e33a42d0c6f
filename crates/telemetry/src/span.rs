//! Scoped wall-clock span timers feeding the histogram registry.

use crate::metrics::LogHistogram;
use std::time::Instant;

/// A scoped timer: created at the top of a hot phase, records the phase's
/// elapsed wall-clock µs into a [`LogHistogram`] when dropped. Costs one
/// `Instant::now()` on entry and one on exit plus two relaxed atomic adds
/// — no allocation, no locking — so it is safe to arm on per-query paths.
///
/// Span durations are host wall-clock and therefore *not* deterministic:
/// they are measurements, never model outputs.
pub struct SpanTimer<'a> {
    sink: &'a LogHistogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts timing into `sink`.
    #[inline]
    pub fn start(sink: &'a LogHistogram) -> SpanTimer<'a> {
        SpanTimer { sink, start: Instant::now() }
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
    }
}
