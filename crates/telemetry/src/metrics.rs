//! The metrics registry: enum-keyed atomic counters and gauges plus
//! fixed-size log-bucketed latency histograms.
//!
//! Memory is bounded and fixed at construction — one `AtomicU64` per
//! counter/gauge and a fixed bucket array per histogram — so a registry
//! costs a few kilobytes regardless of how many samples it absorbs.
//! Recording is lock-free (`fetch_add` with relaxed ordering), so one
//! registry behind an `Arc` serves a whole fleet's sessions and workers
//! without a shared lock on the hot path.

use std::sync::atomic::{AtomicU64, Ordering};

// ---------------------------------------------------------------------------
// Keys
// ---------------------------------------------------------------------------

/// Monotonic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum CounterId {
    /// Queries whose serve phase completed (served or failed).
    QueriesServed,
    /// Queries that surfaced an unrecoverable I/O error.
    QueriesFailed,
    /// Result pages requested.
    PagesRequested,
    /// Result pages served from the cache.
    PagesHit,
    /// Result pages read from the simulated disk.
    PagesMissed,
    /// Prefetch windows opened after a serve.
    WindowsOpened,
    /// Prefetch windows shed by the circuit breaker.
    WindowsShed,
    /// Pages prefetched (staged or read) during windows.
    PrefetchPages,
    /// Overhead pages read for gap traversal.
    GapPages,
    /// Session migrations: steps run by another worker than the session's
    /// previous step.
    SessionsStolen,
    /// Sessions parked at a phase boundary.
    SessionsParked,
    /// Demand-read retry attempts beyond the first.
    RetryAttempts,
    /// Circuit-breaker open transitions.
    BreakerTrips,
    /// Physical I/O batches submitted.
    BatchesSubmitted,
    /// Pages submitted across all batches.
    BatchPagesSubmitted,
    /// Duplicate page requests coalesced into an in-flight batch slot.
    PagesCoalesced,
    /// Flight-recorder events overwritten by ring wrap-around.
    EventsDropped,
}

/// Number of [`CounterId`] variants.
pub const COUNTER_COUNT: usize = 17;

impl CounterId {
    /// Every counter, in declaration order (export order).
    pub const ALL: [CounterId; COUNTER_COUNT] = [
        CounterId::QueriesServed,
        CounterId::QueriesFailed,
        CounterId::PagesRequested,
        CounterId::PagesHit,
        CounterId::PagesMissed,
        CounterId::WindowsOpened,
        CounterId::WindowsShed,
        CounterId::PrefetchPages,
        CounterId::GapPages,
        CounterId::SessionsStolen,
        CounterId::SessionsParked,
        CounterId::RetryAttempts,
        CounterId::BreakerTrips,
        CounterId::BatchesSubmitted,
        CounterId::BatchPagesSubmitted,
        CounterId::PagesCoalesced,
        CounterId::EventsDropped,
    ];

    /// The counter's stable export name (snake_case).
    pub fn name(&self) -> &'static str {
        match self {
            CounterId::QueriesServed => "queries_served",
            CounterId::QueriesFailed => "queries_failed",
            CounterId::PagesRequested => "pages_requested",
            CounterId::PagesHit => "pages_hit",
            CounterId::PagesMissed => "pages_missed",
            CounterId::WindowsOpened => "windows_opened",
            CounterId::WindowsShed => "windows_shed",
            CounterId::PrefetchPages => "prefetch_pages",
            CounterId::GapPages => "gap_pages",
            CounterId::SessionsStolen => "sessions_stolen",
            CounterId::SessionsParked => "sessions_parked",
            CounterId::RetryAttempts => "retry_attempts",
            CounterId::BreakerTrips => "breaker_trips",
            CounterId::BatchesSubmitted => "batches_submitted",
            CounterId::BatchPagesSubmitted => "batch_pages_submitted",
            CounterId::PagesCoalesced => "pages_coalesced",
            CounterId::EventsDropped => "events_dropped",
        }
    }
}

/// High-water level gauges: raising keeps the maximum — the only
/// combination that is order-independent for level samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum GaugeId {
    /// Worker crew width of the run.
    WorkerCrew,
}

/// Number of [`GaugeId`] variants.
pub const GAUGE_COUNT: usize = 1;

impl GaugeId {
    /// Every gauge, in declaration order.
    pub const ALL: [GaugeId; GAUGE_COUNT] = [GaugeId::WorkerCrew];

    /// The gauge's stable export name.
    pub fn name(&self) -> &'static str {
        match self {
            GaugeId::WorkerCrew => "worker_crew",
        }
    }
}

/// Log-bucketed latency histograms, all in µs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum HistogramId {
    /// Residual (user-visible) latency per query — simulated.
    ResidualUs,
    /// Graph-build CPU per query — simulated.
    GraphBuildUs,
    /// Prediction CPU per query — simulated.
    PredictionUs,
    /// Prefetch-window budget per opened window — simulated.
    WindowBudgetUs,
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
pub const HISTOGRAM_COUNT: usize = 8;

impl HistogramId {
    /// Every histogram, in declaration order.
    pub const ALL: [HistogramId; HISTOGRAM_COUNT] = [
        HistogramId::ResidualUs,
        HistogramId::GraphBuildUs,
        HistogramId::PredictionUs,
        HistogramId::WindowBudgetUs,
        HistogramId::SpanServeUs,
        HistogramId::SpanWindowUs,
        HistogramId::SpanBatchSubmitUs,
        HistogramId::SpanPhaseFlipUs,
    ];

    /// The histogram's stable export name.
    pub fn name(&self) -> &'static str {
        match self {
            HistogramId::ResidualUs => "residual_us",
            HistogramId::GraphBuildUs => "graph_build_us",
            HistogramId::PredictionUs => "prediction_us",
            HistogramId::WindowBudgetUs => "window_budget_us",
            HistogramId::SpanServeUs => "span_serve_us",
            HistogramId::SpanWindowUs => "span_window_us",
            HistogramId::SpanBatchSubmitUs => "span_batch_submit_us",
            HistogramId::SpanPhaseFlipUs => "span_phase_flip_us",
        }
    }
}

// ---------------------------------------------------------------------------
// Log-bucketed histogram
// ---------------------------------------------------------------------------

/// Linear sub-buckets per power-of-two octave (4 ⇒ ≤ 25 % relative bucket
/// width above the linear range).
const SUB: u64 = 4;
/// log2 of [`SUB`].
const SUB_BITS: u32 = 2;
/// Octaves above the exact linear range `[0, SUB)`. The top finite bucket
/// ends just below `SUB << (OCTAVES + SUB_BITS - 1)` ≈ 2^43 µs ≈ 101 days
/// of simulated latency; anything larger lands in the overflow bucket.
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
    pub fn new() -> LogHistogram {
        const ZERO: AtomicU64 = AtomicU64::new(0);
        LogHistogram { buckets: [ZERO; BUCKETS], count: AtomicU64::new(0) }
    }

    /// The bucket index a µs value lands in (negatives clamp to 0; huge
    /// values clamp to the overflow bucket). Exposed so accuracy tests can
    /// assert the "within one bucket" contract directly.
    pub fn bucket_index(us: f64) -> usize {
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
    pub fn bucket_upper_us(index: usize) -> f64 {
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
    pub fn record(&self, us: f64) {
        self.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
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

/// One run's metrics: every counter, gauge and histogram, shareable across
/// sessions and workers behind an `Arc`. All operations are lock-free.
pub struct MetricsRegistry {
    counters: [AtomicU64; COUNTER_COUNT],
    gauges: [AtomicU64; GAUGE_COUNT],
    histograms: [LogHistogram; HISTOGRAM_COUNT],
}

impl Default for MetricsRegistry {
    fn default() -> MetricsRegistry {
        MetricsRegistry::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut s = f.debug_struct("MetricsRegistry");
        for id in CounterId::ALL {
            let v = self.counter(id);
            if v > 0 {
                s.field(id.name(), &v);
            }
        }
        s.finish()
    }
}

impl MetricsRegistry {
    /// A zeroed registry.
    #[allow(clippy::declare_interior_mutable_const)] // per-element array init
    pub fn new() -> MetricsRegistry {
        const ZERO: AtomicU64 = AtomicU64::new(0);
        MetricsRegistry {
            counters: [ZERO; COUNTER_COUNT],
            gauges: [ZERO; GAUGE_COUNT],
            histograms: std::array::from_fn(|_| LogHistogram::new()),
        }
    }

    /// Adds `n` to a counter.
    #[inline]
    pub fn add(&self, id: CounterId, n: u64) {
        if n > 0 {
            self.counters[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments a counter by one.
    #[inline]
    pub fn incr(&self, id: CounterId) {
        self.counters[id as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// A counter's current value.
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id as usize].load(Ordering::Relaxed)
    }

    /// Raises a gauge to at least `level` (high-water semantics: the only
    /// order-independent combination under concurrent writers).
    #[inline]
    pub fn gauge_raise(&self, id: GaugeId, level: u64) {
        self.gauges[id as usize].fetch_max(level, Ordering::Relaxed);
    }

    /// A gauge's current level.
    pub fn gauge(&self, id: GaugeId) -> u64 {
        self.gauges[id as usize].load(Ordering::Relaxed)
    }

    /// Records a µs sample into a histogram.
    #[inline]
    pub fn record(&self, id: HistogramId, us: f64) {
        self.histograms[id as usize].record(us);
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

    #[test]
    fn registry_counters_and_gauges() {
        let r = MetricsRegistry::new();
        r.incr(CounterId::QueriesServed);
        r.add(CounterId::PagesHit, 41);
        r.add(CounterId::PagesHit, 0); // no-op
        r.gauge_raise(GaugeId::WorkerCrew, 4);
        r.gauge_raise(GaugeId::WorkerCrew, 2); // max semantics
        r.record(HistogramId::ResidualUs, 123.0);
        assert_eq!(r.counter(CounterId::QueriesServed), 1);
        assert_eq!(r.counter(CounterId::PagesHit), 41);
        assert_eq!(r.gauge(GaugeId::WorkerCrew), 4);
        assert_eq!(r.histogram(HistogramId::ResidualUs).count(), 1);
    }

    #[test]
    fn every_key_has_a_distinct_name() {
        let mut names: Vec<&str> = CounterId::ALL.iter().map(|c| c.name()).collect();
        names.extend(GaugeId::ALL.iter().map(|g| g.name()));
        names.extend(HistogramId::ALL.iter().map(|h| h.name()));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}
