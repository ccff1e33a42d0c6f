//! Batched I/O submission (ISSUE 9).
//!
//! The multi-session engine originally issued every page read
//! one-at-a-time per session: concurrent sessions following the same
//! structure re-read the same hot pages in the same phase, and the disk
//! head thrashed across interleaved per-session request streams. The
//! [`IoBatcher`] collects the page requests of one scheduler phase,
//! single-flights duplicates across sessions (one physical read fans its
//! result — or its `IoError` — out to every waiter), and submits them to
//! its [`DiskModel`] in seek-aware elevator order (ascending page ids, so
//! physically adjacent pages earn the sequential discount).
//!
//! Ownership model: the batcher owns its own [`DiskModel`] (sharing the
//! fleet's [`SharedClock`](crate::SharedClock)), so physical batch reads
//! charge the device like any other read while per-session disks stay
//! free for retry continuations. All buffers are recycled across phases
//! (`begin_phase` keeps capacity), so a warmed batcher runs the
//! stage → submit → fan-out loop without allocating — pinned by
//! `tests/zero_alloc.rs`.

use crate::disk::DiskModel;
use crate::fault::FailedRead;
use crate::page::{IdMap, PageId};
use std::collections::hash_map::Entry;

/// Batched-I/O configuration of a fleet run. Disabled by default: the
/// engine then takes the exact pre-batching code path, byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchPlan {
    /// Route demand and prefetch reads through the phase batcher.
    pub enabled: bool,
}

impl BatchPlan {
    /// A plan with batching on.
    pub fn enabled() -> BatchPlan {
        BatchPlan { enabled: true }
    }
}

/// Counters of one batcher (or, merged, of a whole run's batchers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BatchReport {
    /// Batches submitted to the disk.
    pub batches: u64,
    /// Stage requests received (every waiter counts).
    pub staged: u64,
    /// Distinct pages physically read.
    pub unique_pages: u64,
    /// Stage requests absorbed by an already-pending page (single-flight
    /// duplicates: `staged - unique_pages` for the demand lane).
    pub coalesced: u64,
    /// Physical batch reads that returned an error (each fans one
    /// [`IoError`](crate::IoError) out to every waiter of that page).
    pub failed_reads: u64,
}

impl BatchReport {
    /// Accumulates another report into this one.
    pub fn merge(&mut self, other: &BatchReport) {
        self.batches += other.batches;
        self.staged += other.staged;
        self.unique_pages += other.unique_pages;
        self.coalesced += other.coalesced;
        self.failed_reads += other.failed_reads;
    }
}

/// Collects the page requests of one scheduler phase and submits them as
/// one seek-aware batch. Two lanes exist per fleet — demand (coalescing,
/// every waiter records its slot) and prefetch window (duplicates skipped
/// like the unbatched `contains` check) — each lane is one `IoBatcher`.
#[derive(Debug)]
pub struct IoBatcher {
    disk: DiskModel,
    /// Staged page → its slot; `clear` keeps the table's capacity.
    index: IdMap<PageId, u32>,
    pages: Vec<PageId>,
    outcomes: Vec<Result<f64, FailedRead>>,
    order: Vec<u32>,
    report: BatchReport,
}

impl IoBatcher {
    /// A batcher submitting through `disk` (attach the fleet clock and
    /// fault schedule to the disk before handing it over).
    pub fn new(disk: DiskModel) -> IoBatcher {
        IoBatcher {
            disk,
            index: IdMap::default(),
            pages: Vec::new(),
            outcomes: Vec::new(),
            order: Vec::new(),
            report: BatchReport::default(),
        }
    }

    /// Stages a demand read, coalescing with an already-pending request
    /// for the same page. Returns `(slot, coalesced)`: the caller records
    /// the slot to collect its outcome after submission; `coalesced` is
    /// true when another waiter already owns the physical read.
    pub fn stage(&mut self, page: PageId) -> (u32, bool) {
        self.report.staged += 1;
        let slot = self.pages.len() as u32;
        match self.index.entry(page) {
            Entry::Occupied(staged) => {
                self.report.coalesced += 1;
                (*staged.get(), true)
            }
            Entry::Vacant(fresh) => {
                fresh.insert(slot);
                self.pages.push(page);
                self.report.unique_pages += 1;
                (slot, false)
            }
        }
    }

    /// Stages a prefetch-window read. Returns false when the page is
    /// already staged this phase — the duplicate is skipped entirely,
    /// mirroring the unbatched executor's cache-`contains` skip (the first
    /// stager's insert would have made the page visible to later windows).
    ///
    /// `_owner` and `_gap` are unused — no session is credited with a
    /// window read — and stay because the call is public surface: the
    /// repo's benchmark adapter passes them (ROADMAP item 1(b)).
    pub fn try_stage(&mut self, page: PageId, _owner: u32, _gap: bool) -> bool {
        let Entry::Vacant(fresh) = self.index.entry(page) else {
            return false;
        };
        fresh.insert(self.pages.len() as u32);
        self.report.staged += 1;
        self.report.unique_pages += 1;
        self.pages.push(page);
        true
    }

    /// True when `page` is staged in the current phase.
    pub fn contains(&self, page: PageId) -> bool {
        self.index.contains_key(&page)
    }

    /// Staged unique pages in the current phase.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The page behind a slot.
    pub fn page_at(&self, slot: u32) -> PageId {
        self.pages[slot as usize]
    }

    /// The submitted outcome of a slot. Panics before `submit`.
    pub fn outcome_at(&self, slot: u32) -> Result<f64, FailedRead> {
        self.outcomes[slot as usize]
    }

    /// Submits the staged pages to the disk in elevator order (ascending
    /// page id — consecutive ids earn the sequential discount) and
    /// records one outcome per unique page, filed under its staging slot.
    /// Each page goes through [`DiskModel::try_read_page`]: successes move
    /// the head and advance the clock like any read, failures charge
    /// their latency but leave the head in place. `attempt` keys the fault
    /// draws (1 for demand first attempts, 0 for never-retried prefetch
    /// reads); `epoch` is the fleet round ordinal, so a fault schedule is
    /// a pure function of (config, page, round, attempt) — independent of
    /// staging order and fleet width. Returns the batch's device time
    /// (failed attempts included).
    pub fn submit(&mut self, attempt: u32, epoch: u64) -> f64 {
        self.order.clear();
        self.order.extend(0..self.pages.len() as u32);
        self.order.sort_unstable_by_key(|&i| self.pages[i as usize].0);
        self.disk.set_fault_epoch(epoch);
        self.outcomes.clear();
        self.outcomes.resize(self.pages.len(), Ok(0.0));
        let mut us = 0.0;
        for &slot in &self.order {
            let outcome = self.disk.try_read_page(self.pages[slot as usize], attempt);
            us += match &outcome {
                Ok(read_us) => *read_us,
                Err(failed) => failed.latency_us,
            };
            self.outcomes[slot as usize] = outcome;
        }
        self.report.batches += 1;
        self.report.failed_reads += self.outcomes.iter().filter(|o| o.is_err()).count() as u64;
        us
    }

    /// Copies the outcomes of a waiter's recorded slots (with their
    /// pages) into `out`, clearing it first. One failed physical read
    /// fans its `IoError` out to every waiter that recorded its slot.
    pub fn copy_outcomes(&self, slots: &[u32], out: &mut Vec<(PageId, Result<f64, FailedRead>)>) {
        out.clear();
        for &slot in slots {
            out.push((self.pages[slot as usize], self.outcomes[slot as usize]));
        }
    }

    /// Forgets the staged phase, keeping every buffer's capacity.
    pub fn begin_phase(&mut self) {
        self.index.clear();
        self.pages.clear();
        self.outcomes.clear();
        self.order.clear();
    }

    /// The batcher's disk (fault reports, dropped-prefetch accounting).
    pub fn disk(&self) -> &DiskModel {
        &self.disk
    }

    /// Mutable access to the batcher's disk.
    pub fn disk_mut(&mut self) -> &mut DiskModel {
        &mut self.disk
    }

    /// Counters so far.
    pub fn report(&self) -> &BatchReport {
        &self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{DiskProfile, SharedClock};
    use crate::fault::{FaultConfig, IoError};

    fn batcher() -> IoBatcher {
        IoBatcher::new(DiskModel::default())
    }

    #[test]
    fn duplicates_single_flight_to_one_physical_read() {
        let mut b = batcher();
        let (s0, c0) = b.stage(PageId(7));
        let (s1, c1) = b.stage(PageId(7));
        let (s2, c2) = b.stage(PageId(9));
        assert_eq!((s0, c0), (0, false));
        assert_eq!((s1, c1), (0, true), "second waiter coalesces onto the first");
        assert_eq!((s2, c2), (1, false));
        assert_eq!(b.len(), 2, "two unique pages, three stage requests");
        // Pages 7 and 9: two physical reads, each a seek.
        assert_eq!(b.submit(1, 0), 2.0 * DiskProfile::default().random_read_us);
        let r = b.report();
        assert_eq!((r.staged, r.unique_pages, r.coalesced), (3, 2, 1));
    }

    #[test]
    fn elevator_order_earns_the_sequential_discount() {
        // Pages staged descending still read ascending: 5 random + rest
        // sequential, and total batch time reflects the discount.
        let mut b = batcher();
        for p in (10u32..15).rev() {
            b.stage(PageId(p));
        }
        let us = b.submit(1, 0);
        let profile = DiskProfile::default();
        // One seek for the whole ascending run.
        assert_eq!(us, profile.random_read_us + 4.0 * profile.sequential_read_us);
        // Every slot's outcome carries its own latency.
        for slot in 0..5 {
            assert!(b.outcome_at(slot).is_ok());
        }
    }

    #[test]
    fn batch_reads_charge_the_shared_clock() {
        let clock = SharedClock::new();
        let mut b = IoBatcher::new(DiskModel::with_clock(DiskProfile::default(), clock.clone()));
        b.stage(PageId(1));
        b.stage(PageId(2));
        let us = b.submit(1, 0);
        assert!((clock.now_us() - us).abs() < 1e-9);
    }

    #[test]
    fn submit_costs_the_elevator_order_and_reports_per_slot() {
        let clock = SharedClock::new();
        let mut b = IoBatcher::new(DiskModel::with_clock(DiskProfile::default(), clock.clone()));
        // Staged out of order; submit reads 10, 11, 12, 30, 31.
        for p in [30, 10, 31, 11, 12] {
            b.stage(PageId(p));
        }
        let total = b.submit(1, 0);
        let profile = DiskProfile::default();
        // Two ascending runs, two seeks.
        let expect = 2.0 * profile.random_read_us + 3.0 * profile.sequential_read_us;
        assert_eq!(total, expect);
        assert!((clock.now_us() - expect).abs() < 1e-9);
        // Outcomes line up with staging order, not read order.
        assert_eq!(b.outcome_at(0).unwrap(), profile.random_read_us); // 30: new run
        assert_eq!(b.outcome_at(1).unwrap(), profile.random_read_us); // 10: first read
        assert_eq!(b.outcome_at(2).unwrap(), profile.sequential_read_us); // 31 follows 30
        assert_eq!(b.outcome_at(3).unwrap(), profile.sequential_read_us); // 11 follows 10
        assert_eq!(b.outcome_at(4).unwrap(), profile.sequential_read_us); // 12 follows 11
    }

    #[test]
    fn submit_failures_charge_time_but_keep_the_run_going() {
        // Page `stuck` fails mid-run, charging latency without moving the
        // head, so the page after it pays a random read, exactly like
        // back-to-back try_read_page.
        let faulty = || {
            let mut d = DiskModel::default();
            d.enable_faults(FaultConfig { stuck_rate: 0.8, ..FaultConfig::none(17) }, 0);
            d
        };
        let mut oracle = faulty();
        let stuck = (1u32..64)
            .find(|&p| oracle.try_read_page(PageId(p), 1).is_err())
            .expect("80 % stuck rate must hit one of 63 pages");

        let mut b = IoBatcher::new(faulty());
        let mut expect = faulty();
        let pages: Vec<PageId> = (0..=stuck + 1).map(PageId).collect();
        for &page in &pages {
            b.stage(page);
        }
        let total = b.submit(1, 0);
        let mut expect_total = 0.0;
        for (slot, &page) in pages.iter().enumerate() {
            let one = expect.try_read_page(page, 1);
            expect_total += match &one {
                Ok(us) => *us,
                Err(f) => f.latency_us,
            };
            assert_eq!(b.outcome_at(slot as u32), one, "batch read of page {} diverged", page.0);
        }
        assert_eq!(total, expect_total);
        // Both heads rest on the same page.
        let next = PageId(stuck + 2);
        assert_eq!(b.disk().peek_read_us(next), expect.peek_read_us(next));
    }

    #[test]
    fn one_failed_read_fans_one_error_per_waiter() {
        let cfg = FaultConfig { transient_rate: 1.0, ..FaultConfig::none(3) };
        let mut disk = DiskModel::default();
        disk.enable_faults(cfg, u64::MAX);
        let mut b = IoBatcher::new(disk);
        let mut slots = Vec::new();
        for _ in 0..3 {
            slots.push(b.stage(PageId(42)).0);
        }
        b.submit(1, 0);
        assert_eq!(b.report().failed_reads, 1, "one physical read failed");
        let mut out = Vec::new();
        b.copy_outcomes(&slots, &mut out);
        assert_eq!(out.len(), 3, "every waiter sees the outcome");
        for (page, outcome) in out {
            assert_eq!(page, PageId(42));
            let failed = outcome.expect_err("fanned-out failure");
            assert_eq!(failed.error, IoError::Transient { page: PageId(42) });
        }
        // The device attempted the page once, not once per waiter.
        assert_eq!(b.disk().fault_report().unwrap().reads_attempted, 1);
    }

    #[test]
    fn window_lane_skips_duplicates_entirely() {
        let mut b = batcher();
        assert!(b.try_stage(PageId(4), 0, false));
        assert!(!b.try_stage(PageId(4), 1, true), "second stager skips like a cache hit");
        assert!(b.try_stage(PageId(5), 1, true));
        assert_eq!(b.len(), 2, "the duplicate took no slot");
        assert_eq!((b.page_at(0), b.page_at(1)), (PageId(4), PageId(5)));
        assert_eq!(b.report().coalesced, 0, "window lane never coalesces");
    }

    #[test]
    fn begin_phase_recycles_buffers_and_schedule_keys_on_round() {
        let cfg = FaultConfig { transient_rate: 0.5, ..FaultConfig::none(9) };
        let mut disk = DiskModel::default();
        disk.enable_faults(cfg, u64::MAX);
        let mut b = IoBatcher::new(disk);
        let verdict = |b: &mut IoBatcher, round: u64| {
            b.begin_phase();
            b.stage(PageId(8));
            b.submit(1, round);
            b.outcome_at(0).is_ok()
        };
        let rounds: Vec<bool> = (0..64).map(|r| verdict(&mut b, r)).collect();
        let rerun: Vec<bool> = (0..64).map(|r| verdict(&mut b, r)).collect();
        assert_eq!(rounds, rerun, "fault schedule is a pure function of the round");
        assert!(rounds.iter().any(|ok| *ok) && rounds.iter().any(|ok| !ok));
        assert!(!b.contains(PageId(99)));
    }
}
