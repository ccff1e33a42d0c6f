//! The metrics registry: enum-keyed, fixed-size log-bucketed histograms
//! of wall-clock span durations.
//!
//! Memory is bounded and fixed at construction — a fixed bucket array per
//! histogram — so a registry costs a few kilobytes regardless of how many
//! samples it absorbs.
//! Recording is lock-free (`fetch_add` with relaxed ordering), so one
//! registry behind an `Arc` serves a whole fleet's sessions and workers
//! without a shared lock on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Wall-clock span histograms, all in µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Wall-clock span: one serve sub-phase.
    SpanServeUs,
    /// Wall-clock span: one window sub-phase.
    SpanWindowUs,
    /// Wall-clock span: one batch submission.
    SpanBatchSubmitUs,
    /// Wall-clock span: one phase edge of the round loop.
    SpanPhaseFlipUs,
}

/// Number of [`HistogramId`] variants.
pub(crate) const HISTOGRAM_COUNT: usize = 4;

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power-of-two octave (4 ⇒ ≤ 25 % relative bucket
/// width above the linear range).
const SUB: u64 = 4;
/// log2 of [`SUB`].
const SUB_BITS: u32 = 2;
/// Octaves above the exact linear range `[0, SUB)`. The top finite bucket
/// ends just below `SUB << (OCTAVES + SUB_BITS - 1)` ≈ 2^43 µs ≈ 101 days;
/// anything larger lands in the overflow bucket.
const OCTAVES: usize = 40;
/// Total buckets: `SUB` exact small-value buckets, `OCTAVES × SUB`
/// log-linear buckets, one overflow bucket.
const BUCKETS: usize = SUB as usize + OCTAVES * SUB as usize + 1;

/// A fixed-size log-bucketed histogram of non-negative µs samples.
///
/// Values in `[0, SUB)` get exact unit buckets; above that, each
/// power-of-two octave splits into `SUB` linear sub-buckets, so the
/// relative bucket width never exceeds `1/SUB` (25 %). Recording is two
/// relaxed `fetch_add`s; memory is `BUCKETS + 1` atomics (~1.3 KiB) no
/// matter how many samples arrive. Percentile queries walk the bucket
/// array with the same nearest-rank definition as the exact
/// `percentiles()` oracle and return the matched bucket's upper edge —
/// within one bucket of the exact sample by construction.
pub struct LogHistogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> LogHistogram {
        LogHistogram::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count())
            .field("p50", &self.percentile(50.0))
            .field("p99", &self.percentile(99.0))
            .finish()
    }
}

impl LogHistogram {
    /// An empty histogram.
    #[allow(clippy::declare_interior_mutable_const)] // per-element array init
    pub(crate) fn new() -> LogHistogram {
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LogHistogram { buckets: [ZERO; BUCKETS], count: AtomicU64::new(0) }
    }

    /// The bucket index a µs value lands in (negatives clamp to 0; huge
    /// values clamp to the overflow bucket).
    pub(crate) fn bucket_index(us: f64) -> usize {
        let v = if us > 0.0 { us as u64 } else { 0 };
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let sub = ((v >> (exp - SUB_BITS)) - SUB) as usize;
        let octave = (exp - SUB_BITS) as usize;
        (SUB as usize + octave * SUB as usize + sub).min(BUCKETS - 1)
    }

    /// The inclusive upper edge of bucket `index` in µs — the value
    /// percentile queries report for samples in that bucket.
    pub(crate) fn bucket_upper_us(index: usize) -> f64 {
        if index < SUB as usize {
            return index as f64;
        }
        let rel = index - SUB as usize;
        let octave = (rel / SUB as usize) as u32;
        let sub = (rel % SUB as usize) as u64;
        (((SUB + sub + 1) << octave) - 1) as f64
    }

    /// Records one sample. Lock-free, allocation-free.
    #[inline]
    pub(crate) fn record(&self, us: f64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// The nearest-rank `p`-th percentile (bucket upper edge), 0 when
    /// empty. Matches the rank definition of the exact sort-based oracle:
    /// `rank = ceil(p/100 · n)` clamped to `[1, n]`.
    pub fn percentile(&self, p: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_upper_us(i);
            }
        }
        Self::bucket_upper_us(BUCKETS - 1)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One run's span histograms, shareable across sessions and workers
/// behind an `Arc`. All operations are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    histograms: [LogHistogram; HISTOGRAM_COUNT],
}

impl MetricsRegistry {
    /// A zeroed registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Direct access to one histogram (for span timers and percentile
    /// queries).
    pub fn histogram(&self, id: HistogramId) -> &LogHistogram {
        &self.histograms[id as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_exact_below_sub() {
        for v in 0..SUB {
            assert_eq!(LogHistogram::bucket_index(v as f64), v as usize);
        }
        let mut last = 0usize;
        for v in 0..100_000u64 {
            let b = LogHistogram::bucket_index(v as f64);
            assert!(b >= last, "bucket index must be monotonic at {v}");
            last = b;
        }
        // Negatives clamp to bucket 0; huge values clamp to the overflow
        // bucket instead of indexing out of bounds.
        assert_eq!(LogHistogram::bucket_index(-3.0), 0);
        assert_eq!(LogHistogram::bucket_index(f64::MAX), BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_edge_lands_in_its_own_bucket() {
        for b in 0..BUCKETS - 1 {
            let upper = LogHistogram::bucket_upper_us(b);
            assert_eq!(LogHistogram::bucket_index(upper), b, "upper edge of bucket {b}");
        }
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        // Above the linear range every bucket's width is at most 1/SUB of
        // its lower edge — the histogram's accuracy contract.
        for b in SUB as usize..BUCKETS - 1 {
            let lo = LogHistogram::bucket_upper_us(b - 1) + 1.0;
            let hi = LogHistogram::bucket_upper_us(b);
            assert!(hi - lo + 1.0 <= lo / SUB as f64 + 1.0, "bucket {b}: [{lo}, {hi}]");
        }
    }

    #[test]
    fn percentile_matches_nearest_rank_within_one_bucket() {
        let h = LogHistogram::new();
        let mut samples: Vec<f64> = (1..=1000).map(|i| (i * i) as f64 / 10.0).collect();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_by(f64::total_cmp);
        for p in [50.0, 95.0, 99.0] {
            let rank = ((p / 100.0 * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1];
            let approx = h.percentile(p);
            let db = LogHistogram::bucket_index(exact) as i64
                - LogHistogram::bucket_index(approx) as i64;
            assert!(db.abs() <= 1, "p{p}: exact {exact} vs approx {approx} ({db} buckets)");
        }
    }

    #[test]
    fn empty_and_single_sample_percentiles() {
        let h = LogHistogram::new();
        assert_eq!(h.percentile(99.0), 0.0);
        h.record(7.0);
        // 7 µs lands in the bucket [6, 7]; the reported upper edge is 7.
        assert_eq!(h.percentile(50.0), 7.0);
        assert_eq!(h.count(), 1);
    }
}
