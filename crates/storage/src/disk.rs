//! The simulated disk.
//!
//! The paper's testbed is a 1 TB stripe of four SAS disks (§7.1). We do not
//! have that hardware — and a reproduction must not depend on it — so all
//! I/O cost is charged against a calibrated latency model on a simulated
//! clock. The evaluation metrics (cache-hit rate, speedup, time breakdown)
//! are ratios of simulated times, so the *shape* of every result is
//! preserved regardless of host hardware. See DESIGN.md §2.

use crate::fault::{
    backoff_us, Decision, FailedRead, FaultConfig, FaultInjector, FaultReport, IoError, RetryPolicy,
};
use crate::page::PageId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Latency parameters of the simulated disk.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiskProfile {
    /// Cost of a random 4 KB page read, in simulated microseconds.
    ///
    /// Default 2 000 µs ≈ one seek + rotational delay on a 2012-era
    /// 10k-RPM SAS stripe serving 4 KB pages.
    pub random_read_us: f64,
    /// Cost of reading the physically next page without seeking.
    ///
    /// Default 400 µs: index-driven retrieval interleaves directory and
    /// data accesses, so even physically adjacent leaf pages rarely stream
    /// at the raw platter rate; this models the short-seek/settle cost
    /// observed for near-sequential 4 KB reads on a 2012 SAS stripe.
    pub sequential_read_us: f64,
}

impl Default for DiskProfile {
    fn default() -> Self {
        DiskProfile { random_read_us: 2_000.0, sequential_read_us: 400.0 }
    }
}

impl DiskProfile {
    /// Checks the profile is physically meaningful: both latencies must be
    /// positive finite numbers. Returns a descriptive error otherwise.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.random_read_us.is_finite() && self.random_read_us > 0.0) {
            return Err(format!(
                "DiskProfile.random_read_us must be a positive finite latency, got {}",
                self.random_read_us
            ));
        }
        if !(self.sequential_read_us.is_finite() && self.sequential_read_us > 0.0) {
            return Err(format!(
                "DiskProfile.sequential_read_us must be a positive finite latency, got {}",
                self.sequential_read_us
            ));
        }
        Ok(())
    }
}

/// A simulated disk: charges per-page read latencies and tracks the head
/// position to grant the sequential discount.
///
/// In the multi-session engine every session clones one prototype disk:
/// the clone carries its own head position (each session's
/// access pattern earns its own sequential discounts), while an optional
/// [`SharedClock`] — shared across clones through an `Arc` — accumulates
/// the *total* busy time of the underlying device, so the aggregate report
/// can show the contention K sessions put on one disk instead of silently
/// pretending each had private hardware.
#[derive(Debug, Clone)]
pub struct DiskModel {
    profile: DiskProfile,
    last_page: Option<PageId>,
    clock: Option<SharedClock>,
    /// Chaos source; `None` (the default) keeps every read infallible and
    /// the fallible entry points byte-identical to the plain ones.
    faults: Option<FaultInjector>,
}

impl DiskModel {
    /// Disk with the given latency profile.
    ///
    /// Panics with a descriptive message when the profile is invalid
    /// (non-positive or non-finite latencies).
    pub fn new(profile: DiskProfile) -> DiskModel {
        if let Err(e) = profile.validate() {
            panic!("invalid DiskProfile: {e}");
        }
        DiskModel { profile, last_page: None, clock: None, faults: None }
    }

    /// Disk charging every read against a shared clock (multi-session
    /// contention accounting). Clones share the clock.
    pub fn with_clock(profile: DiskProfile, clock: SharedClock) -> DiskModel {
        let mut d = DiskModel::new(profile);
        d.clock = Some(clock);
        d
    }

    /// The shared clock, when one is attached.
    pub fn clock(&self) -> Option<&SharedClock> {
        self.clock.as_ref()
    }

    /// Arms fault injection on this disk: subsequent verified reads draw
    /// from `config`'s seeded schedule, decorrelated by `salt` (sessions
    /// pass their id so siblings sharing one seed see distinct streams).
    /// Clones made *after* this call carry the injector (and their own
    /// counters); `reset` keeps it armed but zeroes its counters.
    pub fn enable_faults(&mut self, config: FaultConfig, salt: u64) {
        self.faults = Some(FaultInjector::new(config, salt));
    }

    /// Sets the query ordinal keying subsequent fault draws (the batch
    /// disks' round). No-op without an injector.
    pub(crate) fn set_fault_epoch(&mut self, epoch: u64) {
        if let Some(inj) = &mut self.faults {
            inj.set_epoch(epoch);
        }
    }

    /// Opens query `epoch` on the degradation ladder: its ordinal keys the
    /// fault draws, and the fault counters so far become the baseline
    /// [`DiskModel::end_query`] measures the query against. No-op without
    /// an injector, like the other two ladder calls, so fault-free paths
    /// pay one branch each.
    pub fn begin_query(&mut self, epoch: u64) {
        if let Some(inj) = &mut self.faults {
            inj.begin_query(epoch);
        }
    }

    /// Asks once per query, after its serve, whether its prefetch window
    /// may run. A failed query is counted and passes (its window is
    /// already a no-op); otherwise an open circuit breaker sheds the
    /// window and counts it degraded. Always true without an injector.
    pub fn allow_prefetch(&mut self, query_failed: bool) -> bool {
        match &mut self.faults {
            Some(inj) => inj.allow_prefetch(query_failed),
            None => true,
        }
    }

    /// Closes the query opened by [`DiskModel::begin_query`]: its faults
    /// per read attempt (serve and prefetch) feed the circuit breaker.
    pub fn end_query(&mut self) {
        if let Some(inj) = &mut self.faults {
            inj.end_query();
        }
    }

    /// Every fault-layer counter so far, the ladder's included; `None`
    /// when faults are disabled.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.faults.as_ref().map(|inj| *inj.report())
    }

    /// Counts a prefetch read dropped on fault (the executor's graceful
    /// degradation for optional work).
    pub fn note_dropped_prefetch(&mut self) {
        if let Some(inj) = &mut self.faults {
            inj.report_mut().dropped_prefetch += 1;
        }
    }

    /// The latency a [`DiskModel::read_page`] of `page` *would* cost right
    /// now, without moving the head, counting the read or advancing any
    /// clock. The executor uses this to decide whether a prefetch read
    /// fits the remaining window before committing it.
    pub fn peek_read_us(&self, page: PageId) -> f64 {
        if self.is_sequential(page) {
            self.profile.sequential_read_us
        } else {
            self.profile.random_read_us
        }
    }

    /// Whether reading `page` next would earn the sequential discount:
    /// it physically follows the page under the head.
    fn is_sequential(&self, page: PageId) -> bool {
        matches!(self.last_page, Some(last) if page.0 == last.0.wrapping_add(1))
    }

    /// Reads one page, returning its simulated latency in µs.
    ///
    /// A read of the page physically following the previous read costs the
    /// sequential rate; anything else costs a full random read.
    ///
    /// This is the *unverified* path: on a fault-enabled disk it performs
    /// no checksum verification and never fails, so a scheduled corrupt
    /// (or stuck) read flows straight to the caller — counted as
    /// `corruption_served` in the [`FaultReport`]. The engine serves only
    /// through [`DiskModel::try_read_page`] /
    /// [`DiskModel::read_page_retrying`]; CI pins the counter at zero to
    /// prove no code path regresses to this one under chaos.
    pub fn read_page(&mut self, page: PageId) -> f64 {
        if let Some(inj) = &mut self.faults {
            inj.on_unverified_read(page);
        }
        self.read_page_raw(page)
    }

    /// The latency/head/clock bookkeeping of a successful read.
    fn read_page_raw(&mut self, page: PageId) -> f64 {
        let us = self.peek_read_us(page);
        self.last_page = Some(page);
        if let Some(clock) = &self.clock {
            clock.advance(us);
        }
        us
    }

    /// Reads one page with checksum verification against the armed fault
    /// schedule. Without an injector this is exactly [`DiskModel::read_page`]
    /// (same latency, same side effects — the zero-fault byte-identity
    /// contract).
    ///
    /// `attempt` keys the fault draw: the demand-read retry loop passes
    /// 1, 2, …; prefetch reads pass 0 (they never retry). A failed
    /// attempt charges its latency to the shared clock (the device was
    /// busy failing) but does not move the head — the retry re-issues the
    /// whole read.
    pub fn try_read_page(&mut self, page: PageId, attempt: u32) -> Result<f64, FailedRead> {
        let Some(inj) = &mut self.faults else {
            return Ok(self.read_page_raw(page));
        };
        match inj.on_attempt(page, attempt) {
            Decision::Clean => Ok(self.read_page_raw(page)),
            Decision::Slow => {
                // The read succeeds but straggles: the nominal latency is
                // charged by the raw read, the spike on top here.
                let mult = inj.config().slow_multiplier;
                let base = self.read_page_raw(page);
                let extra = base * (mult - 1.0);
                if let Some(clock) = &self.clock {
                    clock.advance(extra);
                }
                Ok(base + extra)
            }
            decision => {
                let us = self.peek_read_us(page);
                if let Some(clock) = &self.clock {
                    clock.advance(us);
                }
                let error = match decision {
                    Decision::Transient => IoError::Transient { page },
                    Decision::Corrupt => IoError::Corrupted { page },
                    _ => IoError::Stuck { page },
                };
                Err(FailedRead { latency_us: us, error })
            }
        }
    }

    /// Reads one demand page under `policy`: verified attempts with
    /// exponential, jittered backoff between retries, all costed in
    /// simulated µs. `deadline_us` is the query's remaining retry-overhead
    /// budget (failed-attempt latency + backoff); it is decremented in
    /// place so one budget spans all of a query's reads.
    ///
    /// Returns the total user-visible latency on success (attempts plus
    /// backoff), or the accumulated latency and final cause on failure.
    /// Backoff advances no shared clock — the device is idle while the
    /// reader waits — but counts against the deadline and the caller's
    /// residual time. Without an injector this is exactly one infallible
    /// [`DiskModel::read_page`].
    pub fn read_page_retrying(
        &mut self,
        page: PageId,
        policy: &RetryPolicy,
        deadline_us: &mut f64,
    ) -> Result<f64, FailedRead> {
        // Attempt 1 here; everything after a failed first attempt is the
        // continuation the batched waiters also run, so the ladder
        // (backoff, deadline, exhaustion, counters) exists once.
        self.try_read_page(page, 1)
            .or_else(|first| self.resume_read_retrying(page, first, policy, deadline_us))
    }

    /// Continues a demand read whose *first* attempt already failed: the
    /// retry ladder from "attempt 1 failed" on. [`DiskModel::read_page_retrying`]
    /// enters it with its own attempt 1; a coalesced batch read enters it
    /// per waiter — the batch disk made attempt 1 and fanned `first` out,
    /// and each waiter then retries on its *own* disk (own salt, own
    /// epoch, own breaker accounting), so retry schedules stay
    /// per-session. Only that attempt-1 fault draw differs between the
    /// two entries; the terminal error taxonomy (permanent / exhausted /
    /// deadline) and all counters are this one loop's.
    ///
    /// Each failed attempt charges its latency against the deadline, then
    /// backs off (exponential, jittered) before the next of attempts
    /// `2..=max_attempts`.
    pub fn resume_read_retrying(
        &mut self,
        page: PageId,
        first: FailedRead,
        policy: &RetryPolicy,
        deadline_us: &mut f64,
    ) -> Result<f64, FailedRead> {
        let mut total = 0.0;
        let mut failed = first;
        let mut attempt = 1;
        loop {
            total += failed.latency_us;
            *deadline_us -= failed.latency_us;
            let inj = match &mut self.faults {
                Some(inj) if !failed.error.is_permanent() => inj,
                // Retrying a stuck page is wasted deadline (and a
                // fault-free disk has no ladder to climb).
                _ => return Err(FailedRead { latency_us: total, error: failed.error }),
            };
            if attempt >= policy.max_attempts {
                inj.report_mut().exhausted += 1;
                return Err(FailedRead {
                    latency_us: total,
                    error: IoError::AttemptsExhausted { page, attempts: attempt },
                });
            }
            let backoff = backoff_us(inj, page, attempt);
            if *deadline_us <= 0.0 || backoff > *deadline_us {
                inj.report_mut().timed_out += 1;
                return Err(FailedRead {
                    latency_us: total,
                    error: IoError::DeadlineExceeded { page },
                });
            }
            total += backoff;
            *deadline_us -= backoff;
            let report = inj.report_mut();
            report.retries += 1;
            report.backoff_us += backoff;
            attempt += 1;
            match self.try_read_page(page, attempt) {
                Ok(us) => {
                    if let Some(inj) = &mut self.faults {
                        inj.report_mut().recovered += 1;
                    }
                    return Ok(total + us);
                }
                Err(next) => failed = next,
            }
        }
    }

    /// Forgets the head position and the fault counters. The engine builds
    /// a fresh disk per sequence instead (§7.1 "After executing each
    /// sequence of queries, we clear the prefetch cache, the operating
    /// system cache and the disk buffers").
    #[cfg(test)]
    fn reset(&mut self) {
        self.last_page = None;
        if let Some(inj) = &mut self.faults {
            // The schedule stays armed (it is a device property), but its
            // counters measure one sequence.
            *inj.report_mut() = FaultReport::default();
        }
    }
}

impl Default for DiskModel {
    fn default() -> Self {
        DiskModel::new(DiskProfile::default())
    }
}

/// A simulated clock shared between sessions: an atomic accumulator of
/// microseconds, cheap to clone (clones observe and advance the same time).
///
/// The value is stored as `f64` bits in an `AtomicU64` and advanced with a
/// compare-exchange loop. The multi-session engine advances it from its
/// calling thread only, in session order, but the sessions holding clones
/// cross threads between those advances (DESIGN.md §10), so the clock is
/// `Sync` and an `advance` from any thread is never lost.
#[derive(Debug, Clone, Default)]
pub struct SharedClock {
    bits: Arc<AtomicU64>,
}

impl SharedClock {
    /// Clock at time zero.
    pub fn new() -> SharedClock {
        SharedClock::default()
    }

    /// Current simulated time in µs.
    pub fn now_us(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Acquire))
    }

    /// Atomically advances the clock, returning the time after the advance.
    pub(crate) fn advance(&self, us: f64) -> f64 {
        debug_assert!(us >= 0.0, "cannot advance clock by negative time: {us}");
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + us).to_bits();
            match self.bits.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Relaxed) {
                Ok(_) => return f64::from_bits(next),
                Err(seen) => cur = seen,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_then_sequential() {
        let mut d = DiskModel::default();
        let t1 = d.read_page(PageId(10));
        let t2 = d.read_page(PageId(11));
        let t3 = d.read_page(PageId(13)); // skips one -> random
        assert_eq!(t1, d.profile.random_read_us);
        assert_eq!(t2, d.profile.sequential_read_us);
        assert_eq!(t3, d.profile.random_read_us);
    }

    #[test]
    fn rereading_same_page_is_random() {
        let mut d = DiskModel::default();
        d.read_page(PageId(5));
        assert_eq!(d.read_page(PageId(5)), d.profile.random_read_us);
    }

    #[test]
    fn reset_clears_state() {
        let mut d = DiskModel::default();
        d.read_page(PageId(1));
        assert_eq!(d.read_page(PageId(2)), d.profile.sequential_read_us);
        d.reset();
        // After reset the next read is random even if "sequential" by id.
        assert_eq!(d.read_page(PageId(3)), d.profile.random_read_us);
    }

    #[test]
    fn peek_matches_read_without_side_effects() {
        let clock = SharedClock::new();
        let mut d = DiskModel::with_clock(DiskProfile::default(), clock.clone());
        d.read_page(PageId(10));
        let busy = clock.now_us();
        // Peeking the sequential successor predicts the discount but
        // moves nothing.
        assert_eq!(d.peek_read_us(PageId(11)), d.profile.sequential_read_us);
        assert_eq!(d.peek_read_us(PageId(13)), d.profile.random_read_us);
        assert_eq!(clock.now_us(), busy);
        // The committed read then costs exactly what the peek promised.
        let peek = d.peek_read_us(PageId(11));
        assert_eq!(d.read_page(PageId(11)), peek);
    }

    #[test]
    #[should_panic(expected = "random_read_us must be a positive finite latency")]
    fn zero_random_latency_rejected() {
        let _ = DiskModel::new(DiskProfile { random_read_us: 0.0, ..DiskProfile::default() });
    }

    #[test]
    #[should_panic(expected = "sequential_read_us must be a positive finite latency")]
    fn negative_sequential_latency_rejected() {
        let _ = DiskModel::new(DiskProfile { sequential_read_us: -1.0, ..DiskProfile::default() });
    }

    #[test]
    fn non_finite_latency_rejected() {
        let p = DiskProfile { random_read_us: f64::NAN, ..DiskProfile::default() };
        assert!(p.validate().is_err());
        let p = DiskProfile { sequential_read_us: f64::INFINITY, ..DiskProfile::default() };
        assert!(p.validate().is_err());
        assert!(DiskProfile::default().validate().is_ok());
    }

    #[test]
    fn cloned_disks_share_the_clock_but_not_the_head() {
        let clock = SharedClock::new();
        let mut a = DiskModel::with_clock(DiskProfile::default(), clock.clone());
        let mut b = a.clone();
        assert_eq!(a.read_page(PageId(10)), a.profile.random_read_us);
        // b's head is fresh: random, not sequential.
        assert_eq!(b.read_page(PageId(11)), b.profile.random_read_us);
        // Both reads landed on the one shared clock.
        let expect = 2.0 * a.profile.random_read_us;
        assert!((clock.now_us() - expect).abs() < 1e-9);
    }

    #[test]
    fn shared_clock_never_loses_time_under_contention() {
        let clock = SharedClock::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let clock = clock.clone();
                s.spawn(move || {
                    for _ in 0..1_000 {
                        clock.advance(1.0);
                    }
                });
            }
        });
        assert!((clock.now_us() - 8_000.0).abs() < 1e-6);
    }

    #[test]
    fn faultless_fallible_reads_are_byte_identical_to_plain_reads() {
        let mut plain = DiskModel::default();
        let mut fallible = DiskModel::default();
        let mut deadline = RetryPolicy::default().deadline_us;
        for p in [10u32, 11, 13, 13, 14] {
            let a = plain.read_page(PageId(p));
            let b = fallible
                .read_page_retrying(PageId(p), &RetryPolicy::default(), &mut deadline)
                .expect("no injector, no failure");
            assert_eq!(a, b);
        }
        assert_eq!(fallible.fault_report(), None);
        assert_eq!(deadline, RetryPolicy::default().deadline_us, "no retry overhead spent");
    }

    #[test]
    fn zero_rate_injector_never_fails_and_matches_plain_latencies() {
        let mut d = DiskModel::default();
        d.enable_faults(FaultConfig::none(7), 0);
        let mut plain = DiskModel::default();
        for p in [5u32, 6, 9] {
            let t = d.try_read_page(PageId(p), 1).expect("zero rates cannot fault");
            assert_eq!(t, plain.read_page(PageId(p)));
        }
        let report = d.fault_report().expect("armed injector reports");
        assert_eq!(report.injected(), 0);
        assert_eq!(report.reads_attempted, 3);
    }

    #[test]
    fn failed_attempts_charge_the_clock_but_not_the_head() {
        // transient_rate 1.0: every attempt fails.
        let cfg = FaultConfig { transient_rate: 1.0, ..FaultConfig::none(1) };
        let clock = SharedClock::new();
        let mut d = DiskModel::with_clock(DiskProfile::default(), clock.clone());
        d.enable_faults(cfg, 0);
        let failed = d.try_read_page(PageId(10), 1).expect_err("must fail");
        assert_eq!(failed.error, IoError::Transient { page: PageId(10) });
        assert_eq!(failed.latency_us, d.profile.random_read_us);
        assert_eq!(clock.now_us(), d.profile.random_read_us, "device was busy failing");
        // A failed read is not a completed read: the head did not move,
        // so the next successful read elsewhere is random.
        assert_eq!(d.peek_read_us(PageId(11)), d.profile.random_read_us);
    }

    #[test]
    fn retrying_failed_attempts_charge_the_clock_but_never_move_the_head() {
        // The retry-loop variant of the pinned try_read_page contract
        // (shared by the batch path): a read that fails every attempt
        // charges the device for each attempt yet leaves the head where
        // it was, so the next successful read still pays a full seek.
        let cfg = FaultConfig { transient_rate: 1.0, ..FaultConfig::none(1) };
        let clock = SharedClock::new();
        let mut d = DiskModel::with_clock(DiskProfile::default(), clock.clone());
        d.enable_faults(cfg, 0);
        d.read_page(PageId(9)); // park the head at page 9
        let busy = clock.now_us();
        let policy = RetryPolicy::default();
        let mut deadline = f64::INFINITY;
        let failed = d.read_page_retrying(PageId(10), &policy, &mut deadline).expect_err("fails");
        assert_eq!(
            failed.error,
            IoError::AttemptsExhausted { page: PageId(10), attempts: policy.max_attempts }
        );
        // Every failed attempt was device time; backoff was not. With the
        // head parked on page 9, each attempt at page 10 peeks (and
        // charges) the sequential rate — and keeps doing so, because no
        // failed attempt ever moves the head.
        let attempts_us = policy.max_attempts as f64 * d.profile.sequential_read_us;
        assert_eq!(clock.now_us() - busy, attempts_us, "device busy failing, idle backing off");
        assert!(failed.latency_us > attempts_us, "user-visible latency includes backoff");
        // The head never moved off page 9: its successor still peeks
        // sequential, and the failing page itself still peeks random.
        assert_eq!(d.peek_read_us(PageId(10)), d.profile.sequential_read_us);
        assert_eq!(d.peek_read_us(PageId(11)), d.profile.random_read_us);
    }

    #[test]
    fn resume_matches_the_retry_loop_after_a_foreign_first_failure() {
        // Oracle: the full retry loop on one disk. Subject: attempt 1
        // taken separately (the "batch" read), then resume_read_retrying
        // for attempts 2..=max on an identically-seeded disk. Totals,
        // outcomes, deadlines and counters must all agree.
        let policy = RetryPolicy::default();
        for seed in [3u64, 11, 29, 47] {
            let cfg = FaultConfig { transient_rate: 0.6, ..FaultConfig::none(seed) };
            for p in 0..32u32 {
                let page = PageId(p);
                let mut oracle = DiskModel::default();
                oracle.enable_faults(cfg, 0);
                let mut oracle_deadline = policy.deadline_us;
                let want = oracle.read_page_retrying(page, &policy, &mut oracle_deadline);

                let mut d = DiskModel::default();
                d.enable_faults(cfg, 0);
                let mut deadline = policy.deadline_us;
                let got = match d.try_read_page(page, 1) {
                    Ok(us) => Ok(us),
                    Err(first) => d.resume_read_retrying(page, first, &policy, &mut deadline),
                };
                assert_eq!(got, want, "seed {seed} page {p}");
                if want.is_err() {
                    assert_eq!(deadline, oracle_deadline, "seed {seed} page {p}");
                    assert_eq!(d.fault_report(), oracle.fault_report(), "seed {seed} page {p}");
                }
            }
        }
    }

    #[test]
    fn resume_surfaces_permanent_and_faultless_failures_as_is() {
        let policy = RetryPolicy::default();
        // A stuck first attempt is never retried: latency passes through.
        let mut d = DiskModel::default();
        d.enable_faults(FaultConfig::none(1), 0);
        let first = FailedRead { latency_us: 50.0, error: IoError::Stuck { page: PageId(7) } };
        let mut deadline = policy.deadline_us;
        let failed = d.resume_read_retrying(PageId(7), first, &policy, &mut deadline).unwrap_err();
        assert_eq!(failed.error, IoError::Stuck { page: PageId(7) });
        assert_eq!(failed.latency_us, 50.0);
        assert_eq!(deadline, policy.deadline_us - 50.0);
        assert_eq!(d.fault_report().unwrap().retries, 0);
        // A disk without an injector cannot retry (nothing to draw
        // backoff jitter from): the first failure is final.
        let mut plain = DiskModel::default();
        let first = FailedRead { latency_us: 9.0, error: IoError::Transient { page: PageId(1) } };
        let mut deadline = policy.deadline_us;
        let failed =
            plain.resume_read_retrying(PageId(1), first, &policy, &mut deadline).unwrap_err();
        assert_eq!(failed.error, IoError::Transient { page: PageId(1) });
    }

    #[test]
    fn retry_loop_recovers_and_accounts_backoff() {
        // 50 % transient: with 4 attempts most reads recover eventually.
        let cfg = FaultConfig { transient_rate: 0.5, ..FaultConfig::none(11) };
        let mut d = DiskModel::default();
        d.enable_faults(cfg, 0);
        let policy = RetryPolicy::default();
        let mut deadline = f64::INFINITY;
        for p in 0..200u32 {
            d.set_fault_epoch(p as u64); // fresh draws per "query"
            let _ = d.read_page_retrying(PageId(p), &policy, &mut deadline);
        }
        let report = d.fault_report().unwrap();
        assert!(report.injected_transient > 0, "50 % rate must inject");
        assert!(report.recovered > 0, "retries must recover some reads");
        assert!(report.retries >= report.recovered);
        assert!(report.backoff_us > 0.0);
    }

    #[test]
    fn stuck_pages_fail_without_retry_and_deadline_bounds_overhead() {
        let cfg = FaultConfig { stuck_rate: 1.0, ..FaultConfig::none(2) };
        let mut d = DiskModel::default();
        d.enable_faults(cfg, 0);
        let policy = RetryPolicy::default();
        let mut deadline = policy.deadline_us;
        let failed = d.read_page_retrying(PageId(3), &policy, &mut deadline).expect_err("stuck");
        assert_eq!(failed.error, IoError::Stuck { page: PageId(3) });
        // One attempt only: stuck is permanent.
        assert_eq!(d.fault_report().unwrap().reads_attempted, 1);
        assert_eq!(d.fault_report().unwrap().retries, 0);

        // All-transient with a zero deadline: the first retry is refused.
        let cfg = FaultConfig { transient_rate: 1.0, ..FaultConfig::none(2) };
        let mut d = DiskModel::default();
        d.enable_faults(cfg, 0);
        let mut deadline = 0.0;
        let failed = d.read_page_retrying(PageId(3), &policy, &mut deadline).expect_err("deadline");
        assert_eq!(failed.error, IoError::DeadlineExceeded { page: PageId(3) });
        assert_eq!(d.fault_report().unwrap().timed_out, 1);

        // Ample deadline but every attempt fails: exhausted.
        let mut d = DiskModel::default();
        d.enable_faults(cfg, 0);
        let mut deadline = f64::INFINITY;
        let failed = d.read_page_retrying(PageId(3), &policy, &mut deadline).expect_err("exhaust");
        assert_eq!(
            failed.error,
            IoError::AttemptsExhausted { page: PageId(3), attempts: policy.max_attempts }
        );
        assert_eq!(d.fault_report().unwrap().exhausted, 1);
        assert_eq!(d.fault_report().unwrap().reads_attempted, policy.max_attempts as u64);
    }

    #[test]
    fn slow_reads_succeed_with_multiplied_latency() {
        let cfg = FaultConfig { slow_rate: 1.0, slow_multiplier: 8.0, ..FaultConfig::none(5) };
        let clock = SharedClock::new();
        let mut d = DiskModel::with_clock(DiskProfile::default(), clock.clone());
        d.enable_faults(cfg, 0);
        let t = d.try_read_page(PageId(20), 1).expect("slow reads succeed");
        assert_eq!(t, 8.0 * d.profile.random_read_us);
        assert!((clock.now_us() - t).abs() < 1e-9, "full straggle charged to the device");
        // A slow read is still a completed read: the head moved to page 20.
        assert_eq!(d.peek_read_us(PageId(21)), d.profile.sequential_read_us);
        assert_eq!(d.fault_report().unwrap().injected_slow, 1);
    }

    #[test]
    fn unverified_reads_on_a_corrupt_schedule_trip_the_tripwire() {
        let cfg = FaultConfig { corrupt_rate: 1.0, ..FaultConfig::none(6) };
        let mut d = DiskModel::default();
        d.enable_faults(cfg, 0);
        d.read_page(PageId(1)); // the bypass path
        assert_eq!(d.fault_report().unwrap().corruption_served, 1);
        // The verified path detects the same corruption instead.
        let failed = d.try_read_page(PageId(2), 1).expect_err("checksum catches it");
        assert_eq!(failed.error, IoError::Corrupted { page: PageId(2) });
        assert_eq!(d.fault_report().unwrap().corruption_served, 1, "tripwire untouched");
        assert_eq!(d.fault_report().unwrap().injected_corrupt, 1);
    }

    #[test]
    fn same_seed_same_schedule_across_clones_and_reruns() {
        let cfg = FaultConfig { transient_rate: 0.3, slow_rate: 0.2, ..FaultConfig::default() };
        let run = || {
            let mut d = DiskModel::default();
            d.enable_faults(cfg, 3);
            let mut verdicts = Vec::new();
            for epoch in 0..4u64 {
                d.set_fault_epoch(epoch);
                for p in 0..32u32 {
                    verdicts.push(d.try_read_page(PageId(p), 1).is_ok());
                }
            }
            (verdicts, d.fault_report().unwrap())
        };
        let (v1, r1) = run();
        let (v2, r2) = run();
        assert_eq!(v1, v2, "same seed, same salt, same schedule");
        assert_eq!(r1, r2);
    }

    #[test]
    fn the_degradation_ladder_counts_itself() {
        // Twenty queries on an all-transient disk: every fourth misses the
        // cache and its demand read fails the query; the rest are served
        // from cache and try one (dropped) prefetch read when allowed.
        let ladder = |d: &mut DiskModel| {
            let policy = RetryPolicy::default();
            let (mut failed, mut shed) = (0, 0);
            for q in 0..20u32 {
                d.begin_query(q as u64);
                let mut deadline = policy.deadline_us;
                let query_failed =
                    q % 4 == 0 && d.read_page_retrying(PageId(q), &policy, &mut deadline).is_err();
                failed += query_failed as u64;
                if d.allow_prefetch(query_failed) {
                    let _ = d.try_read_page(PageId(100 + q), 0);
                } else {
                    shed += 1;
                }
                d.end_query();
            }
            (failed, shed)
        };
        let mut d = DiskModel::default();
        d.enable_faults(FaultConfig { transient_rate: 1.0, ..FaultConfig::none(8) }, 0);
        let (failed, shed) = ladder(&mut d);
        let report = d.fault_report().expect("armed disk reports");
        assert_eq!((failed, report.failed_queries), (5, 5));
        assert!(shed > 0, "an all-transient disk must open the breaker");
        assert_eq!(report.degraded_windows, shed);
        assert!(report.breaker_trips >= 1);

        // Disarmed, nothing fails, nothing is shed, nothing is counted.
        let mut plain = DiskModel::default();
        assert_eq!(ladder(&mut plain), (0, 0));
        assert_eq!(plain.fault_report(), None);
    }

    #[test]
    fn disk_reset_zeroes_fault_counters_but_keeps_the_schedule() {
        let cfg = FaultConfig { transient_rate: 1.0, ..FaultConfig::none(4) };
        let mut d = DiskModel::default();
        d.enable_faults(cfg, 0);
        let _ = d.try_read_page(PageId(1), 1);
        assert!(d.fault_report().unwrap().injected_transient > 0);
        d.reset();
        assert_eq!(d.fault_report(), Some(FaultReport::default()), "still armed, counters zeroed");
        assert!(d.try_read_page(PageId(1), 1).is_err(), "schedule still armed");
    }
}
