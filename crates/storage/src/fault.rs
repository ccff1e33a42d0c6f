//! Deterministic fault injection for the simulated I/O path.
//!
//! The engine's next growth steps (a file-backed page store, a networked
//! server) need an error model *before* they exist: every caller of the
//! disk must already know what a transient read error, a straggler, a
//! stuck page or a corrupt read looks like, and every report must already
//! account for retries, backoff and degradation. This module supplies
//! that model for the simulated [`DiskModel`](crate::DiskModel):
//!
//! * [`FaultConfig`] — a seeded schedule of fault *rates* per category.
//! * [`FaultInjector`] — draws a deterministic verdict for every read
//!   attempt from a counter-free hash of `(seed, session salt, page,
//!   query epoch, attempt)`. Because the key never involves wall time or
//!   global call order, the schedule is reproducible at any scheduler
//!   width: the same session issuing the same attempt for the same query
//!   always sees the same fault, regardless of thread interleaving.
//!   It also carries the rest of the degradation ladder: the per-query
//!   fault mark, the circuit breaker and every ladder counter.
//! * [`RetryPolicy`] — bounded attempts against a per-query deadline
//!   budget, with exponential backoff (200 µs, ×2 per retry, up to 25 %
//!   deterministic jitter), all costed in *simulated* microseconds.
//! * `CircuitBreaker` — an EWMA fault-rate breaker (α 0.3) over per-query
//!   fault deltas that disables prefetching for 8 queries once a smoothed
//!   half of read attempts fault, then half-opens to re-probe.
//! * [`FaultReport`] — the counters every layer above surfaces.
//!
//! ## Fault taxonomy
//!
//! | fault       | keyed by                 | device time      | recoverable |
//! |-------------|--------------------------|------------------|-------------|
//! | transient   | seed+salt+page+epoch+attempt | full read latency | retry     |
//! | corrupt     | seed+salt+page+epoch+attempt | full read latency | retry (checksum catches it) |
//! | slow        | seed+salt+page+epoch+attempt | latency × multiplier | n/a (succeeds) |
//! | stuck       | seed+page (device property)  | full read latency | never     |
//!
//! Corruption is *checksum-detectable*: the verified read path
//! ([`DiskModel::try_read_page`](crate::DiskModel::try_read_page)) always
//! detects it and reports an error, so a corrupt page can reach a caller
//! only through the unverified [`DiskModel::read_page`](crate::DiskModel::read_page)
//! on a fault-enabled disk — which the injector counts as
//! `corruption_served`. The engine never takes that path; CI pins the
//! counter at zero.

use crate::page::PageId;

/// A typed I/O failure surfaced by the fallible read path. All variants
/// are plain data (`Copy`) so failed queries can carry their cause in a
/// trace row without allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IoError {
    /// The read failed this attempt but may succeed on retry.
    Transient {
        /// Page being read.
        page: PageId,
    },
    /// The read completed but its checksum did not verify.
    Corrupted {
        /// Page being read.
        page: PageId,
    },
    /// The page is unreadable no matter how often it is retried (a bad
    /// sector: a pure function of the fault seed and the page id).
    Stuck {
        /// Page being read.
        page: PageId,
    },
    /// The retry loop ran out of its per-query deadline budget before the
    /// read succeeded.
    DeadlineExceeded {
        /// Page being read.
        page: PageId,
    },
    /// Every allowed attempt failed.
    AttemptsExhausted {
        /// Page being read.
        page: PageId,
        /// Attempts made (the policy's `max_attempts`).
        attempts: u32,
    },
}

impl IoError {
    /// True when retrying the same read can never succeed.
    pub(crate) fn is_permanent(&self) -> bool {
        matches!(self, IoError::Stuck { .. })
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            IoError::Transient { page } => write!(f, "transient read error on page {}", page.0),
            IoError::Corrupted { page } => write!(f, "checksum mismatch on page {}", page.0),
            IoError::Stuck { page } => write!(f, "stuck (unreadable) page {}", page.0),
            IoError::DeadlineExceeded { page } => {
                write!(f, "retry deadline exceeded reading page {}", page.0)
            }
            IoError::AttemptsExhausted { page, attempts } => {
                write!(f, "page {} still failing after {} attempts", page.0, attempts)
            }
        }
    }
}

impl std::error::Error for IoError {}

/// A failed read attempt: the simulated time the device was busy failing
/// plus the typed cause. Failure is not free — the caller charges
/// `latency_us` to the user-visible residual exactly like a successful
/// read's latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailedRead {
    /// Simulated µs the device spent before the attempt failed.
    pub latency_us: f64,
    /// Why it failed.
    pub error: IoError,
}

/// A seeded schedule of fault rates. All rates are per-read-attempt
/// probabilities in `[0, 1]`; the schedule they induce is a pure function
/// of `(seed, session salt, page, query epoch, attempt)` — see the module
/// docs for why that key makes runs reproducible at any width.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of the fault schedule. Two runs with the same seed (and the
    /// same query streams) inject identical faults.
    pub seed: u64,
    /// Probability a read attempt fails transiently.
    pub transient_rate: f64,
    /// Probability a read attempt returns checksum-detectable corruption.
    pub corrupt_rate: f64,
    /// Fraction of the page-id space that is permanently unreadable.
    pub stuck_rate: f64,
    /// Probability a read succeeds but straggles.
    pub slow_rate: f64,
    /// Latency multiplier of a straggling read (≥ 1).
    pub slow_multiplier: f64,
}

impl Default for FaultConfig {
    /// A mild chaos profile: 2 % transient, 0.5 % corrupt, no stuck
    /// pages, 1 % stragglers at 8× latency.
    fn default() -> Self {
        FaultConfig {
            seed: 0xC0FFEE,
            transient_rate: 0.02,
            corrupt_rate: 0.005,
            stuck_rate: 0.0,
            slow_rate: 0.01,
            slow_multiplier: 8.0,
        }
    }
}

impl FaultConfig {
    /// A schedule that injects nothing (useful to prove the fallible path
    /// is byte-identical to the infallible one).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_rate: 0.0,
            corrupt_rate: 0.0,
            stuck_rate: 0.0,
            slow_rate: 0.0,
            slow_multiplier: 1.0,
        }
    }

    /// Checks every rate is a probability and the straggler multiplier is
    /// at least 1. Returns a descriptive error otherwise.
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("transient_rate", self.transient_rate),
            ("corrupt_rate", self.corrupt_rate),
            ("stuck_rate", self.stuck_rate),
            ("slow_rate", self.slow_rate),
        ] {
            if !(rate.is_finite() && (0.0..=1.0).contains(&rate)) {
                return Err(format!(
                    "FaultConfig.{name} must be a probability in [0, 1], got {rate}"
                ));
            }
        }
        if !(self.slow_multiplier.is_finite() && self.slow_multiplier >= 1.0) {
            return Err(format!(
                "FaultConfig.slow_multiplier must be a finite factor >= 1, got {}",
                self.slow_multiplier
            ));
        }
        Ok(())
    }
}

/// What the injector decided for one read attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    Clean,
    Slow,
    Transient,
    Corrupt,
    Stuck,
}

/// SplitMix64: a tiny, well-mixed hash finalizer. Used to turn a fault
/// key into an independent uniform draw without any stored RNG state —
/// statelessness is what makes the schedule interleaving-independent.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A uniform draw in `[0, 1)` from a chain of key words.
fn draw(words: &[u64]) -> f64 {
    let mut h = 0x5CA1_AB1E_u64;
    for &w in words {
        h = splitmix64(h ^ w);
    }
    // 53 mantissa bits -> uniform in [0, 1).
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Backoff before the first retry, µs.
const BACKOFF_BASE_US: f64 = 200.0;
/// Factor the backoff grows by after each failed retry.
const BACKOFF_MULTIPLIER: f64 = 2.0;
/// Jitter fraction: each backoff is scaled by a deterministic factor in
/// `[1, 1 + BACKOFF_JITTER]`.
const BACKOFF_JITTER: f64 = 0.25;

/// Breaker EWMA smoothing factor (weight of the newest query).
const BREAKER_ALPHA: f64 = 0.3;
/// Fault-per-attempt EWMA above which the breaker opens.
const BREAKER_TRIP_THRESHOLD: f64 = 0.5;
/// Queries an open breaker keeps prefetching disabled before a half-open
/// probe.
const BREAKER_COOLDOWN_QUERIES: u32 = 8;

/// Per-category stream tags so the categories draw independently.
const STREAM_TRANSIENT: u64 = 1;
const STREAM_CORRUPT: u64 = 2;
const STREAM_SLOW: u64 = 3;
const STREAM_JITTER: u64 = 4;

/// The seeded fault source a [`DiskModel`](crate::DiskModel) carries when
/// chaos is enabled, and the degradation ladder's state: the breaker, the
/// query's fault mark and every counter. See the module docs for the
/// determinism contract.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    config: FaultConfig,
    /// Per-session decorrelation: sibling sessions sharing one seed see
    /// different (but each deterministic) fault streams.
    salt: u64,
    /// Current query ordinal; part of every draw key so re-reading a page
    /// in a later query re-rolls its faults.
    epoch: u64,
    report: FaultReport,
    /// Sheds prefetch windows under sustained faults.
    breaker: CircuitBreaker,
    /// `(faults injected, reads attempted)` at the start of the current
    /// query; the end-of-query delta feeds the breaker.
    mark: (u64, u64),
}

impl FaultInjector {
    /// An injector for `config`, decorrelated by `salt` (sessions pass
    /// their id). Panics on an invalid config — the executor validates
    /// configs at the boundary, so reaching here with a bad one is a bug.
    pub(crate) fn new(config: FaultConfig, salt: u64) -> FaultInjector {
        if let Err(e) = config.validate() {
            panic!("invalid FaultConfig: {e}");
        }
        FaultInjector {
            config,
            salt,
            epoch: 0,
            report: FaultReport::default(),
            breaker: CircuitBreaker::default(),
            mark: (0, 0),
        }
    }

    /// The schedule this injector draws from.
    pub(crate) fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Sets the query ordinal that keys subsequent draws.
    pub(crate) fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Opens query `epoch`: keys its draws and marks the breaker's
    /// baseline.
    pub(crate) fn begin_query(&mut self, epoch: u64) {
        self.epoch = epoch;
        self.mark = (self.report.injected(), self.report.reads_attempted);
    }

    /// Whether this query's prefetch window may run. A failed query is
    /// counted and passes (its window is already a no-op and must not
    /// burn breaker cooldown); otherwise an open breaker sheds the window.
    pub(crate) fn allow_prefetch(&mut self, query_failed: bool) -> bool {
        if query_failed {
            self.report.failed_queries += 1;
            return true;
        }
        let allow = self.breaker.allow_prefetch();
        if !allow {
            self.report.degraded_windows += 1;
        }
        allow
    }

    /// Feeds the query's fault window (serve + prefetch) to the breaker.
    pub(crate) fn end_query(&mut self) {
        let faults = self.report.injected() - self.mark.0;
        let attempts = self.report.reads_attempted - self.mark.1;
        if self.breaker.observe(faults, attempts) {
            self.report.breaker_trips += 1;
        }
    }

    /// Counters accumulated so far.
    pub(crate) fn report(&self) -> &FaultReport {
        &self.report
    }

    /// Mutable counter access for the read path.
    pub(crate) fn report_mut(&mut self) -> &mut FaultReport {
        &mut self.report
    }

    /// Whether `page` is permanently unreadable under this seed. A device
    /// property: independent of session salt, epoch and attempt.
    pub(crate) fn is_stuck(&self, page: PageId) -> bool {
        self.config.stuck_rate > 0.0
            && draw(&[self.config.seed, page.0 as u64]) < self.config.stuck_rate
    }

    /// Whether this attempt's read would return corrupt data (before
    /// checksum verification). Pure — the tripwire in the unverified read
    /// path uses it without disturbing the schedule.
    fn is_corrupt(&self, page: PageId, attempt: u32) -> bool {
        self.config.corrupt_rate > 0.0
            && self.category_draw(STREAM_CORRUPT, page, attempt) < self.config.corrupt_rate
    }

    fn category_draw(&self, stream: u64, page: PageId, attempt: u32) -> f64 {
        draw(&[self.config.seed, self.salt, stream, page.0 as u64, self.epoch, attempt as u64])
    }

    /// The verdict for one read attempt, with counters updated. Stuck
    /// dominates (the sector is gone), then transient, corruption, and
    /// stragglers.
    fn decide(&mut self, page: PageId, attempt: u32) -> FaultDecision {
        if self.is_stuck(page) {
            self.report.injected_stuck += 1;
            return FaultDecision::Stuck;
        }
        if self.config.transient_rate > 0.0
            && self.category_draw(STREAM_TRANSIENT, page, attempt) < self.config.transient_rate
        {
            self.report.injected_transient += 1;
            return FaultDecision::Transient;
        }
        if self.is_corrupt(page, attempt) {
            self.report.injected_corrupt += 1;
            return FaultDecision::Corrupt;
        }
        if self.config.slow_rate > 0.0
            && self.category_draw(STREAM_SLOW, page, attempt) < self.config.slow_rate
        {
            self.report.injected_slow += 1;
            return FaultDecision::Slow;
        }
        FaultDecision::Clean
    }

    /// Deterministic backoff jitter draw in `[0, 1)` for a retry of
    /// `page` after `attempt`.
    fn jitter_draw(&self, page: PageId, attempt: u32) -> f64 {
        self.category_draw(STREAM_JITTER, page, attempt)
    }
}

/// Bounded-retry policy for *demand* reads (prefetch reads never retry:
/// prefetching is optional work, so a failed speculative read is simply
/// dropped). All costs are simulated µs; the backoff between attempts is
/// fixed (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per read, including the first (≥ 1).
    pub max_attempts: u32,
    /// Per-query budget of *retry overhead* (failed-attempt latency plus
    /// backoff), µs. When spent, further failures surface immediately as
    /// [`IoError::DeadlineExceeded`].
    pub deadline_us: f64,
}

impl Default for RetryPolicy {
    /// Up to 4 attempts, 50 ms of retry overhead per query.
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, deadline_us: 50_000.0 }
    }
}

impl RetryPolicy {
    /// Checks the policy is executable. Returns a descriptive error
    /// otherwise.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err(
                "RetryPolicy.max_attempts must be >= 1 (the first read is an attempt)".to_string()
            );
        }
        if !(self.deadline_us.is_finite() && self.deadline_us >= 0.0) {
            return Err(format!(
                "RetryPolicy.deadline_us must be non-negative and finite, got {}",
                self.deadline_us
            ));
        }
        Ok(())
    }
}

/// The backoff charged before retrying `page` after failed `attempt`,
/// with deterministic jitter drawn from the injector's schedule.
pub(crate) fn backoff_us(injector: &FaultInjector, page: PageId, attempt: u32) -> f64 {
    let exp = BACKOFF_BASE_US * BACKOFF_MULTIPLIER.powi(attempt.saturating_sub(1) as i32);
    exp * (1.0 + BACKOFF_JITTER * injector.jitter_draw(page, attempt))
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: prefetching allowed.
    #[default]
    Closed,
    /// Tripped: prefetching disabled for `remaining` more queries.
    Open { remaining: u32 },
    /// Cooldown elapsed: one probe window allowed; its fault rate decides
    /// between closing and re-opening.
    HalfOpen,
}

/// Per-session circuit breaker over the fault rate of recent queries —
/// the degradation ladder's middle rung: prefetching (optional work) is
/// shut off under sustained faults so the window stops hammering a sick
/// device, while demand reads keep retrying.
///
/// Deterministic: state is a pure function of the `observe`/`allow_prefetch`
/// call sequence, which is itself deterministic per session.
#[derive(Debug, Clone, Copy, Default)]
struct CircuitBreaker {
    fault_ewma: f64,
    state: BreakerState,
}

impl CircuitBreaker {
    /// Feeds one query's fault window: `faults` injected across `attempts`
    /// read attempts, returning true when the breaker tripped. Windows with
    /// no attempts contribute nothing: an empty window is no evidence
    /// either way.
    fn observe(&mut self, faults: u64, attempts: u64) -> bool {
        if attempts == 0 {
            return false;
        }
        let rate = (faults as f64 / attempts as f64).min(1.0);
        self.fault_ewma += BREAKER_ALPHA * (rate - self.fault_ewma);
        let trip = match self.state {
            BreakerState::Closed => self.fault_ewma > BREAKER_TRIP_THRESHOLD,
            // The probe window's own (unsmoothed) rate decides: a
            // still-sick device re-opens immediately instead of waiting
            // for the EWMA to climb back.
            BreakerState::HalfOpen => rate > BREAKER_TRIP_THRESHOLD,
            BreakerState::Open { .. } => return false,
        };
        self.state = if trip {
            BreakerState::Open { remaining: BREAKER_COOLDOWN_QUERIES }
        } else {
            BreakerState::Closed
        };
        trip
    }

    /// Asks once per query whether the prefetch window may run. Open
    /// breakers burn one cooldown query per call and half-open when the
    /// cooldown elapses (that call runs the probe window).
    fn allow_prefetch(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open { remaining } => {
                if remaining <= 1 {
                    self.state = BreakerState::HalfOpen;
                } else {
                    self.state = BreakerState::Open { remaining: remaining - 1 };
                }
                false
            }
        }
    }
}

/// Everything the fault layer counted, surfaced per session and
/// fleet-aggregated in the multi-session report. Plain data; merging is
/// field-wise addition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultReport {
    /// Transient read errors injected.
    pub(crate) injected_transient: u64,
    /// Corrupt reads injected (all detected by checksum on the verified
    /// path).
    pub(crate) injected_corrupt: u64,
    /// Read attempts that hit a stuck page.
    pub injected_stuck: u64,
    /// Straggling (slow but successful) reads injected.
    pub injected_slow: u64,
    /// Read attempts issued on the verified path (success or failure).
    pub reads_attempted: u64,
    /// Retries performed by the demand-read retry loop.
    pub retries: u64,
    /// Demand reads that succeeded after at least one failed attempt.
    pub recovered: u64,
    /// Demand reads abandoned because the per-query deadline budget ran
    /// out.
    pub(crate) timed_out: u64,
    /// Demand reads abandoned after every allowed attempt failed.
    pub(crate) exhausted: u64,
    /// Corrupt reads served unverified. The engine's serve path always
    /// verifies, so CI pins this at zero; a nonzero value means some code
    /// path read a fault-enabled disk without checksumming.
    pub corruption_served: u64,
    /// Simulated µs spent sleeping in retry backoff (user-visible wait,
    /// not device time).
    pub(crate) backoff_us: f64,
    /// Prefetch reads dropped on fault (prefetching never retries).
    pub dropped_prefetch: u64,
    /// Queries that failed: an unrecoverable demand read surfaced to the
    /// user.
    pub failed_queries: u64,
    /// Prefetch windows skipped because the circuit breaker was open.
    pub degraded_windows: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
}

impl FaultReport {
    /// Total faults injected across categories.
    pub fn injected(&self) -> u64 {
        self.injected_transient + self.injected_corrupt + self.injected_stuck + self.injected_slow
    }

    /// Field-wise accumulation.
    pub fn merge(&mut self, other: &FaultReport) {
        self.injected_transient += other.injected_transient;
        self.injected_corrupt += other.injected_corrupt;
        self.injected_stuck += other.injected_stuck;
        self.injected_slow += other.injected_slow;
        self.reads_attempted += other.reads_attempted;
        self.retries += other.retries;
        self.recovered += other.recovered;
        self.timed_out += other.timed_out;
        self.exhausted += other.exhausted;
        self.corruption_served += other.corruption_served;
        self.backoff_us += other.backoff_us;
        self.dropped_prefetch += other.dropped_prefetch;
        self.failed_queries += other.failed_queries;
        self.degraded_windows += other.degraded_windows;
        self.breaker_trips += other.breaker_trips;
    }

    /// One-line human summary (used by the multi-session report when
    /// faults were enabled).
    pub fn summary(&self) -> String {
        format!(
            "faults: {} injected ({} transient, {} corrupt, {} stuck, {} slow) over {} attempts; \
             {} retries, {} recovered, {} timed out, {} exhausted; \
             {} prefetch dropped, {} windows degraded, {} breaker trips, \
             {} failed queries, corruption served {}",
            self.injected(),
            self.injected_transient,
            self.injected_corrupt,
            self.injected_stuck,
            self.injected_slow,
            self.reads_attempted,
            self.retries,
            self.recovered,
            self.timed_out,
            self.exhausted,
            self.dropped_prefetch,
            self.degraded_windows,
            self.breaker_trips,
            self.failed_queries,
            self.corruption_served,
        )
    }
}

/// The complete fault-handling plan an executor carries: whether to
/// inject (and from which schedule) and how demand reads retry.
/// `inject: None` — the default — makes every fallible path collapse to
/// the infallible one, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// The fault schedule; `None` disables injection entirely.
    pub inject: Option<FaultConfig>,
    /// Demand-read retry policy (unused without injection).
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// A plan injecting `config` with the default retry policy.
    pub fn injecting(config: FaultConfig) -> FaultPlan {
        FaultPlan { inject: Some(config), retry: RetryPolicy::default() }
    }

    /// Validates the schedule (when present) and the retry policy.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(config) = &self.inject {
            config.validate()?;
        }
        self.retry.validate()
    }
}

pub(crate) use FaultDecision as Decision;

/// Read-path glue: how [`DiskModel`](crate::DiskModel) consults the
/// injector. Lives here so the whole fault story is one module; the disk
/// only forwards.
impl FaultInjector {
    /// Verdict + counter update for a verified read attempt.
    pub(crate) fn on_attempt(&mut self, page: PageId, attempt: u32) -> Decision {
        self.report.reads_attempted += 1;
        self.decide(page, attempt)
    }

    /// Tripwire for the unverified read path: counts a would-be corrupt
    /// read as served.
    pub(crate) fn on_unverified_read(&mut self, page: PageId) {
        if self.is_stuck(page) || self.is_corrupt(page, 1) {
            self.report.corruption_served += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_deterministic_and_decorrelated() {
        let a = FaultInjector::new(FaultConfig::default(), 1);
        let b = FaultInjector::new(FaultConfig::default(), 1);
        let c = FaultInjector::new(FaultConfig::default(), 2);
        let p = PageId(77);
        assert_eq!(
            a.category_draw(STREAM_TRANSIENT, p, 1),
            b.category_draw(STREAM_TRANSIENT, p, 1)
        );
        assert_ne!(
            a.category_draw(STREAM_TRANSIENT, p, 1),
            c.category_draw(STREAM_TRANSIENT, p, 1)
        );
        // Streams are independent keys.
        assert_ne!(a.category_draw(STREAM_TRANSIENT, p, 1), a.category_draw(STREAM_CORRUPT, p, 1));
        // Attempts re-roll.
        assert_ne!(
            a.category_draw(STREAM_TRANSIENT, p, 1),
            a.category_draw(STREAM_TRANSIENT, p, 2)
        );
    }

    #[test]
    fn rates_are_roughly_honored() {
        let mut inj = FaultInjector::new(
            FaultConfig {
                transient_rate: 0.25,
                corrupt_rate: 0.0,
                stuck_rate: 0.0,
                slow_rate: 0.0,
                ..FaultConfig::default()
            },
            0,
        );
        let n = 10_000;
        let mut faults = 0;
        for i in 0..n {
            if inj.decide(PageId(i), 1) != FaultDecision::Clean {
                faults += 1;
            }
        }
        let rate = faults as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "observed transient rate {rate}");
    }

    #[test]
    fn stuck_pages_are_a_device_property() {
        let cfg = FaultConfig { stuck_rate: 0.1, ..FaultConfig::none(9) };
        let a = FaultInjector::new(cfg, 1);
        let b = FaultInjector::new(cfg, 42); // different session salt
        let stuck: Vec<u32> = (0..2_000).filter(|&i| a.is_stuck(PageId(i))).collect();
        assert!(!stuck.is_empty(), "10 % of 2000 pages should include some stuck ones");
        for &p in &stuck {
            assert!(b.is_stuck(PageId(p)), "stuck set must not depend on session salt");
        }
    }

    #[test]
    fn epoch_rerolls_faults() {
        let mut inj =
            FaultInjector::new(FaultConfig { transient_rate: 0.5, ..FaultConfig::none(3) }, 0);
        let verdicts_epoch0: Vec<bool> =
            (0..64).map(|i| inj.decide(PageId(i), 1) != FaultDecision::Clean).collect();
        inj.set_epoch(1);
        let verdicts_epoch1: Vec<bool> =
            (0..64).map(|i| inj.decide(PageId(i), 1) != FaultDecision::Clean).collect();
        assert_ne!(verdicts_epoch0, verdicts_epoch1, "epochs must re-roll the schedule");
    }

    #[test]
    fn invalid_configs_are_descriptive() {
        let bad = FaultConfig { transient_rate: 1.5, ..FaultConfig::default() };
        assert!(bad.validate().unwrap_err().contains("transient_rate"));
        let bad = FaultConfig { slow_multiplier: 0.5, ..FaultConfig::default() };
        assert!(bad.validate().unwrap_err().contains("slow_multiplier"));
        let bad = RetryPolicy { max_attempts: 0, ..RetryPolicy::default() };
        assert!(bad.validate().unwrap_err().contains("max_attempts"));
        let bad = RetryPolicy { deadline_us: f64::NAN, ..RetryPolicy::default() };
        assert!(bad.validate().unwrap_err().contains("deadline_us"));
        assert!(FaultPlan::default().validate().is_ok());
        assert!(FaultPlan::injecting(FaultConfig::default()).validate().is_ok());
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let inj = FaultInjector::new(FaultConfig::default(), 0);
        let p = PageId(5);
        let b1 = backoff_us(&inj, p, 1);
        let b2 = backoff_us(&inj, p, 2);
        let b3 = backoff_us(&inj, p, 3);
        // Base 200 doubling: nominal 200/400/800, jitter at most +25 %.
        assert!((200.0..200.0 * 1.25).contains(&b1), "b1 {b1}");
        assert!((400.0..400.0 * 1.25).contains(&b2), "b2 {b2}");
        assert!((800.0..800.0 * 1.25).contains(&b3), "b3 {b3}");
        // Deterministic.
        assert_eq!(b1, backoff_us(&inj, p, 1));
    }

    /// True while the breaker is open (prefetching disabled, cooling down).
    fn is_open(b: &CircuitBreaker) -> bool {
        matches!(b.state, BreakerState::Open { .. })
    }

    #[test]
    fn breaker_trips_cools_down_and_reprobes() {
        let mut b = CircuitBreaker::default();
        assert!(b.allow_prefetch());
        // Sustained faults trip it: the EWMA (α 0.3) of a 0.8 fault rate
        // passes the 0.5 threshold on the third query.
        assert!(!b.observe(8, 10));
        assert!(!b.observe(8, 10));
        assert!(b.observe(8, 10), "ewma {}", b.fault_ewma);
        assert!(is_open(&b));
        // An open breaker learns nothing until it half-opens.
        assert!(!b.observe(10, 10));
        // Cooldown: 8 queries without prefetching...
        for _ in 0..BREAKER_COOLDOWN_QUERIES {
            assert!(!b.allow_prefetch());
        }
        // ...then the half-open probe runs.
        assert!(b.allow_prefetch());
        // A clean probe closes it again, whatever the EWMA still says.
        assert!(!b.observe(0, 10));
        assert!(!is_open(&b));
        assert!(b.allow_prefetch());
        // A sick device re-trips it, and a sick probe re-trips it at once.
        assert!((0..10).any(|_| b.observe(9, 10)));
        for _ in 0..BREAKER_COOLDOWN_QUERIES {
            b.allow_prefetch();
        }
        assert!(b.observe(10, 10), "failed probe re-opens");
        assert!(is_open(&b));
    }

    #[test]
    fn breaker_ignores_empty_windows() {
        let mut b = CircuitBreaker::default();
        for _ in 0..100 {
            assert!(!b.observe(0, 0));
        }
        assert_eq!(b.fault_ewma, 0.0);
        assert!(!is_open(&b));
    }

    #[test]
    fn report_merge_and_summary() {
        let mut a = FaultReport {
            injected_transient: 2,
            retries: 3,
            backoff_us: 10.0,
            ..Default::default()
        };
        let b = FaultReport {
            injected_corrupt: 1,
            recovered: 2,
            breaker_trips: 1,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.injected(), 3);
        assert_eq!(a.retries, 3);
        assert_eq!(a.recovered, 2);
        assert_eq!(a.breaker_trips, 1);
        let s = a.summary();
        assert!(s.contains("3 injected"), "{s}");
        assert!(s.contains("corruption served 0"), "{s}");
    }

    #[test]
    fn io_error_display_and_helpers() {
        let e = IoError::Stuck { page: PageId(4) };
        assert!(e.is_permanent());
        assert!(e.to_string().contains("page 4"));
        let e = IoError::AttemptsExhausted { page: PageId(9), attempts: 4 };
        assert!(!e.is_permanent());
        assert!(e.to_string().contains("4 attempts"));
    }
}
