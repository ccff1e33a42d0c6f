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
//! * [`RetryPolicy`] — bounded attempts with exponential backoff and
//!   deterministic jitter, all costed in *simulated* microseconds against
//!   a per-query deadline budget.
//! * [`CircuitBreaker`] — an EWMA fault-rate breaker over per-query
//!   fault deltas that disables prefetching under sustained faults and
//!   half-opens to re-probe.
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
    /// The page the failing read addressed.
    pub fn page(&self) -> PageId {
        match *self {
            IoError::Transient { page }
            | IoError::Corrupted { page }
            | IoError::Stuck { page }
            | IoError::DeadlineExceeded { page }
            | IoError::AttemptsExhausted { page, .. } => page,
        }
    }

    /// True when retrying the same read can never succeed.
    pub fn is_permanent(&self) -> bool {
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
    pub fn validate(&self) -> Result<(), String> {
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

/// Per-category stream tags so the categories draw independently.
const STREAM_TRANSIENT: u64 = 1;
const STREAM_CORRUPT: u64 = 2;
const STREAM_SLOW: u64 = 3;
const STREAM_JITTER: u64 = 4;

/// The seeded fault source a [`DiskModel`](crate::DiskModel) carries when
/// chaos is enabled. See the module docs for the determinism contract.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    config: FaultConfig,
    /// Per-session decorrelation: sibling sessions sharing one seed see
    /// different (but each deterministic) fault streams.
    salt: u64,
    /// Current query ordinal; part of every draw key so re-reading a page
    /// in a later query re-rolls its faults.
    epoch: u64,
    report: FaultReport,
}

impl FaultInjector {
    /// An injector for `config`, decorrelated by `salt` (sessions pass
    /// their id). Panics on an invalid config — the executor validates
    /// configs at the boundary, so reaching here with a bad one is a bug.
    pub fn new(config: FaultConfig, salt: u64) -> FaultInjector {
        if let Err(e) = config.validate() {
            panic!("invalid FaultConfig: {e}");
        }
        FaultInjector { config, salt, epoch: 0, report: FaultReport::default() }
    }

    /// The schedule this injector draws from.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Sets the query ordinal that keys subsequent draws.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Counters accumulated so far.
    pub fn report(&self) -> &FaultReport {
        &self.report
    }

    /// Mutable counter access for the read path.
    pub(crate) fn report_mut(&mut self) -> &mut FaultReport {
        &mut self.report
    }

    /// Whether `page` is permanently unreadable under this seed. A device
    /// property: independent of session salt, epoch and attempt.
    pub fn is_stuck(&self, page: PageId) -> bool {
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
/// dropped). All costs are simulated µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Attempts per read, including the first (≥ 1).
    pub max_attempts: u32,
    /// Backoff before the first retry, µs.
    pub backoff_base_us: f64,
    /// Multiplier applied to the backoff after each failed retry (≥ 1).
    pub backoff_multiplier: f64,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a
    /// deterministic factor in `[1, 1 + jitter]`.
    pub jitter: f64,
    /// Per-query budget of *retry overhead* (failed-attempt latency plus
    /// backoff), µs. When spent, further failures surface immediately as
    /// [`IoError::DeadlineExceeded`].
    pub deadline_us: f64,
}

impl Default for RetryPolicy {
    /// Up to 4 attempts, 200 µs base backoff doubling each retry with up
    /// to 25 % jitter, 50 ms of retry overhead per query.
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_base_us: 200.0,
            backoff_multiplier: 2.0,
            jitter: 0.25,
            deadline_us: 50_000.0,
        }
    }
}

impl RetryPolicy {
    /// Checks the policy is executable. Returns a descriptive error
    /// otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if self.max_attempts == 0 {
            return Err(
                "RetryPolicy.max_attempts must be >= 1 (the first read is an attempt)".to_string()
            );
        }
        if !(self.backoff_base_us.is_finite() && self.backoff_base_us >= 0.0) {
            return Err(format!(
                "RetryPolicy.backoff_base_us must be non-negative and finite, got {}",
                self.backoff_base_us
            ));
        }
        if !(self.backoff_multiplier.is_finite() && self.backoff_multiplier >= 1.0) {
            return Err(format!(
                "RetryPolicy.backoff_multiplier must be a finite factor >= 1, got {}",
                self.backoff_multiplier
            ));
        }
        if !(self.jitter.is_finite() && (0.0..=1.0).contains(&self.jitter)) {
            return Err(format!(
                "RetryPolicy.jitter must be a fraction in [0, 1], got {}",
                self.jitter
            ));
        }
        if !(self.deadline_us.is_finite() && self.deadline_us >= 0.0) {
            return Err(format!(
                "RetryPolicy.deadline_us must be non-negative and finite, got {}",
                self.deadline_us
            ));
        }
        Ok(())
    }

    /// The backoff charged before retrying `page` after failed `attempt`,
    /// with deterministic jitter drawn from the injector's schedule.
    pub(crate) fn backoff_us(&self, injector: &FaultInjector, page: PageId, attempt: u32) -> f64 {
        let exp =
            self.backoff_base_us * self.backoff_multiplier.powi(attempt.saturating_sub(1) as i32);
        exp * (1.0 + self.jitter * injector.jitter_draw(page, attempt))
    }
}

/// Breaker thresholds: when the per-query EWMA of fault-per-attempt rates
/// crosses `trip_threshold`, prefetching is disabled for
/// `cooldown_queries` queries, then re-probed (half-open).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerPolicy {
    /// EWMA smoothing factor in `(0, 1]` (weight of the newest window).
    pub alpha: f64,
    /// Fault-per-attempt EWMA above which the breaker opens.
    pub trip_threshold: f64,
    /// Queries to keep prefetching disabled before a half-open probe.
    pub cooldown_queries: u32,
}

impl Default for BreakerPolicy {
    /// Trips when a smoothed half of read attempts fault; probes again
    /// after 8 queries.
    fn default() -> Self {
        BreakerPolicy { alpha: 0.3, trip_threshold: 0.5, cooldown_queries: 8 }
    }
}

impl BreakerPolicy {
    /// Checks the thresholds are meaningful. Returns a descriptive error
    /// otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.alpha.is_finite() && self.alpha > 0.0 && self.alpha <= 1.0) {
            return Err(format!("BreakerPolicy.alpha must be in (0, 1], got {}", self.alpha));
        }
        if !(self.trip_threshold.is_finite() && self.trip_threshold > 0.0) {
            return Err(format!(
                "BreakerPolicy.trip_threshold must be a positive finite rate, got {}",
                self.trip_threshold
            ));
        }
        if self.cooldown_queries == 0 {
            return Err("BreakerPolicy.cooldown_queries must be >= 1 (an open breaker must stay \
                 open for at least one query)"
                .to_string());
        }
        Ok(())
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BreakerState {
    /// Healthy: prefetching allowed.
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
#[derive(Debug, Clone, Copy)]
pub struct CircuitBreaker {
    policy: BreakerPolicy,
    fault_ewma: f64,
    state: BreakerState,
    trips: u64,
}

impl CircuitBreaker {
    /// A closed (healthy) breaker. Panics on an invalid policy — configs
    /// are validated at the executor boundary.
    pub fn new(policy: BreakerPolicy) -> CircuitBreaker {
        if let Err(e) = policy.validate() {
            panic!("invalid BreakerPolicy: {e}");
        }
        CircuitBreaker { policy, fault_ewma: 0.0, state: BreakerState::Closed, trips: 0 }
    }

    /// Feeds one query's fault window: `faults` injected across `attempts`
    /// read attempts. Windows with no attempts contribute nothing: an
    /// empty window is no evidence either way.
    pub fn observe(&mut self, faults: u64, attempts: u64) {
        if attempts == 0 {
            return;
        }
        let rate = (faults as f64 / attempts as f64).min(1.0);
        self.fault_ewma += self.policy.alpha * (rate - self.fault_ewma);
        match self.state {
            BreakerState::Closed => {
                if self.fault_ewma > self.policy.trip_threshold {
                    self.trip();
                }
            }
            BreakerState::HalfOpen => {
                // The probe window's own (unsmoothed) rate decides: a
                // still-sick device re-opens immediately instead of
                // waiting for the EWMA to climb back.
                if rate > self.policy.trip_threshold {
                    self.trip();
                } else {
                    self.state = BreakerState::Closed;
                }
            }
            BreakerState::Open { .. } => {}
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open { remaining: self.policy.cooldown_queries };
        self.trips += 1;
    }

    /// Asks once per query whether the prefetch window may run. Open
    /// breakers burn one cooldown query per call and half-open when the
    /// cooldown elapses (that call runs the probe window).
    pub fn allow_prefetch(&mut self) -> bool {
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

    /// Smoothed fault-per-attempt rate.
    pub fn fault_ewma(&self) -> f64 {
        self.fault_ewma
    }

    /// Times the breaker has tripped (closed/half-open → open).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// True while prefetching is disabled (open, cooling down).
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }
}

/// Everything the fault layer counted, surfaced per session and
/// fleet-aggregated in the multi-session report. Plain data; merging is
/// field-wise addition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultReport {
    /// Transient read errors injected.
    pub injected_transient: u64,
    /// Corrupt reads injected (all detected by checksum on the verified
    /// path).
    pub injected_corrupt: u64,
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
    pub timed_out: u64,
    /// Demand reads abandoned after every allowed attempt failed.
    pub exhausted: u64,
    /// Corrupt reads served unverified. The engine's serve path always
    /// verifies, so CI pins this at zero; a nonzero value means some code
    /// path read a fault-enabled disk without checksumming.
    pub corruption_served: u64,
    /// Simulated µs spent sleeping in retry backoff (user-visible wait,
    /// not device time).
    pub backoff_us: f64,
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
/// inject (and from which schedule), how demand reads retry, and when the
/// breaker sheds prefetching. `inject: None` — the default — makes every
/// fallible path collapse to the infallible one, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// The fault schedule; `None` disables injection entirely.
    pub inject: Option<FaultConfig>,
    /// Demand-read retry policy (unused without injection).
    pub retry: RetryPolicy,
    /// Prefetch circuit-breaker thresholds (unused without injection).
    pub breaker: BreakerPolicy,
}

impl FaultPlan {
    /// A plan injecting `config` with default retry/breaker policies.
    pub fn injecting(config: FaultConfig) -> FaultPlan {
        FaultPlan { inject: Some(config), ..FaultPlan::default() }
    }

    /// Validates the schedule (when present) and both policies.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(config) = &self.inject {
            config.validate()?;
        }
        self.retry.validate()?;
        self.breaker.validate()?;
        Ok(())
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
        let bad = RetryPolicy { backoff_multiplier: 0.0, ..RetryPolicy::default() };
        assert!(bad.validate().unwrap_err().contains("backoff_multiplier"));
        let bad = BreakerPolicy { alpha: 0.0, ..BreakerPolicy::default() };
        assert!(bad.validate().unwrap_err().contains("alpha"));
        let bad = BreakerPolicy { cooldown_queries: 0, ..BreakerPolicy::default() };
        assert!(bad.validate().unwrap_err().contains("cooldown_queries"));
        assert!(FaultPlan::default().validate().is_ok());
        assert!(FaultPlan::injecting(FaultConfig::default()).validate().is_ok());
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let inj = FaultInjector::new(FaultConfig::default(), 0);
        let policy = RetryPolicy::default();
        let p = PageId(5);
        let b1 = policy.backoff_us(&inj, p, 1);
        let b2 = policy.backoff_us(&inj, p, 2);
        let b3 = policy.backoff_us(&inj, p, 3);
        // Base 200 doubling: nominal 200/400/800, jitter at most +25 %.
        assert!((200.0..200.0 * 1.25).contains(&b1), "b1 {b1}");
        assert!((400.0..400.0 * 1.25).contains(&b2), "b2 {b2}");
        assert!((800.0..800.0 * 1.25).contains(&b3), "b3 {b3}");
        // Deterministic.
        assert_eq!(b1, policy.backoff_us(&inj, p, 1));
    }

    #[test]
    fn breaker_trips_cools_down_and_reprobes() {
        let policy = BreakerPolicy { alpha: 0.5, trip_threshold: 0.4, cooldown_queries: 3 };
        let mut b = CircuitBreaker::new(policy);
        assert!(b.allow_prefetch());
        // Sustained faults trip it.
        b.observe(8, 10);
        b.observe(8, 10);
        assert!(b.is_open(), "ewma {}", b.fault_ewma());
        assert_eq!(b.trips(), 1);
        // Cooldown: 3 queries without prefetching...
        assert!(!b.allow_prefetch());
        assert!(!b.allow_prefetch());
        assert!(!b.allow_prefetch());
        // ...then the half-open probe runs.
        assert!(b.allow_prefetch());
        // A clean probe closes it again.
        b.observe(0, 10);
        assert!(!b.is_open());
        assert!(b.allow_prefetch());
        // A sick probe re-trips immediately.
        b.observe(9, 10);
        b.observe(9, 10);
        assert!(b.is_open());
        for _ in 0..3 {
            b.allow_prefetch();
        }
        b.observe(10, 10); // probe fails
        assert!(b.is_open());
        assert!(b.trips() >= 3);
    }

    #[test]
    fn breaker_ignores_empty_windows() {
        let mut b = CircuitBreaker::new(BreakerPolicy::default());
        for _ in 0..100 {
            b.observe(0, 0);
        }
        assert_eq!(b.fault_ewma(), 0.0);
        assert!(!b.is_open());
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
        assert_eq!(e.page(), PageId(4));
        assert!(e.to_string().contains("page 4"));
        let e = IoError::AttemptsExhausted { page: PageId(9), attempts: 4 };
        assert!(!e.is_permanent());
        assert!(e.to_string().contains("4 attempts"));
    }
}
