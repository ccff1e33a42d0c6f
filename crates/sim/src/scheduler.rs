//! The round engine: one round body, the inline driver, and the M:N
//! work-stealing session scheduler.
//!
//! Every multi-session run is the same bulk-synchronous round (every
//! session's *serve* sub-phase, a phase edge, every session's *window*
//! sub-phase, a phase edge — the structure DESIGN.md §5's determinism
//! ladder rests on). `RoundBody` owns what those steps and edges *do*,
//! including how I/O is submitted; a driver only decides *who runs a
//! step*. `run_inline` is one thread running them in order — round-robin
//! and width-1 work stealing. One OS thread per session would be the
//! other obvious driver — fine for tens of clients, hopeless for tens of
//! thousands — so the [`SessionScheduler`] instead multiplexes all K
//! sessions over a fixed crew of W workers:
//!
//! * Each worker owns **two run queues per phase parity** — fixed-capacity
//!   Chase–Lev deques (`StealQueue`) holding session indices. The owner
//!   pushes and pops at the bottom (the LIFO end, so a session a worker
//!   just served tends to run its window on the same warm core); thieves
//!   steal from the top (FIFO) with a CAS.
//! * A session is a **resumable state machine**: its serve sub-phase
//!   leaves the prefetch window open, so a worker can *park* it at the
//!   phase boundary (push its index into the next-parity queue) and pick
//!   up another. Finished sessions are retired instead of spinning no-op
//!   rounds.
//! * Phase edges are a W-wide rendezvous on a mutex/condvar gate — the
//!   last arriving worker flips the phase (running the round body's edge
//!   while every sibling is parked), and at round boundaries runs
//!   **admission control**: a bounded backlog (shed policy) drained
//!   round-robin across tenants (fairness), gated on
//!   [`ThrashMonitor`] signals from the
//!   shared cache (delay policy).
//! * The crew itself is an epoch/condvar dispatch (`pool::Crew`); the
//!   scheduler **blocks** on it — a fleet drain job parks at the phase
//!   gate, so running a fleet's parts one after another would deadlock.
//!
//! ## Determinism contract (DESIGN.md §10)
//!
//! Width 1 *is* the inline driver: the exact round-robin serve/window
//! order, plus parking and admission accounting. With the default
//! unlimited admission its reports are **byte-identical** to
//! [`Schedule::RoundRobin`](crate::Schedule) — even under eviction
//! pressure — by construction: it is the same loop. At width > 1 the
//! eviction-free totals contract applies: per-round cache membership is
//! order-independent, so pages-hit totals (and, with per-session disks,
//! every per-session quantity) match the inline driver at every width.
//!
//! ## Panics
//!
//! A panicking session step aborts the fleet: the payload is recorded,
//! every worker drains its remaining items as no-ops, the gate releases
//! all waiters, and the payload is re-raised on the caller. The crew
//! survives and the scheduler stays usable.

use crate::batch::BatchCtl;
use crate::context::SimContext;
use crate::executor::ExecutorConfig;
use crate::pool::{lock_unpoisoned, Crew};
use crate::session::Session;
use crate::telemetry::FleetTelemetry;
use scout_storage::{ShardedCache, ThrashMonitor};
use scout_telemetry::{HistogramId, SpanTimer};
use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicIsize, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock, PoisonError};

// ---------------------------------------------------------------------------
// Admission control configuration
// ---------------------------------------------------------------------------

/// Admission/backpressure policy of the M:N scheduler. Ignored by the
/// round-robin schedule.
///
/// Sessions wait in a per-tenant backlog and are admitted round-robin
/// across tenants at round boundaries, up to `max_resident` concurrently
/// resident sessions. The backlog itself is bounded: anything beyond
/// `backlog_limit` after the initial admission is **shed** (reported, never
/// run). While the shared cache looks thrashed — hit-ratio EWMA below
/// `hit_floor` *and* eviction-per-insert EWMA above `eviction_ceiling` —
/// admission is **delayed**; delay yields only while admitted work exists,
/// so a thrashed cache degrades throughput but never live-locks the fleet.
///
/// The default is fully open (admit everything immediately), which is what
/// preserves the width-1 byte-identity contract with round-robin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmissionControl {
    /// Maximum sessions resident (admitted, not yet finished) at once.
    pub max_resident: usize,
    /// Maximum sessions waiting in the backlog; the excess is shed.
    pub backlog_limit: usize,
    /// Smoothing factor of the thrash EWMAs, in `(0, 1]`.
    pub ewma_alpha: f64,
    /// Hit-ratio EWMA below this counts toward "thrashing".
    pub hit_floor: f64,
    /// Eviction-per-insert EWMA above this counts toward "thrashing".
    pub eviction_ceiling: f64,
}

impl AdmissionControl {
    /// No limits, no thrash gating: every session is admitted up front.
    pub fn unlimited() -> AdmissionControl {
        AdmissionControl {
            max_resident: usize::MAX,
            backlog_limit: usize::MAX,
            ewma_alpha: 0.25,
            hit_floor: 0.0,
            eviction_ceiling: f64::INFINITY,
        }
    }

    /// At most `max_resident` sessions in flight; unbounded backlog.
    pub fn bounded(max_resident: usize) -> AdmissionControl {
        AdmissionControl { max_resident, ..AdmissionControl::unlimited() }
    }

    /// Enables thrash-driven delay with the given thresholds.
    pub fn with_thrash_policy(mut self, hit_floor: f64, eviction_ceiling: f64) -> AdmissionControl {
        self.hit_floor = hit_floor;
        self.eviction_ceiling = eviction_ceiling;
        self
    }

    /// Bounds the backlog; sessions beyond `max_resident + backlog_limit`
    /// are shed at fleet start.
    pub fn with_backlog_limit(mut self, backlog_limit: usize) -> AdmissionControl {
        self.backlog_limit = backlog_limit;
        self
    }

    fn assert_valid(&self) {
        assert!(self.max_resident >= 1, "admission control: max_resident must be >= 1");
        assert!(
            self.ewma_alpha > 0.0 && self.ewma_alpha <= 1.0,
            "admission control: ewma_alpha must be in (0, 1]"
        );
    }
}

impl Default for AdmissionControl {
    fn default() -> AdmissionControl {
        AdmissionControl::unlimited()
    }
}

// ---------------------------------------------------------------------------
// Scheduler counters
// ---------------------------------------------------------------------------

/// What the M:N scheduler did during one fleet run. Carried on
/// [`MultiSessionReport`](crate::MultiSessionReport) (not rendered into
/// the base report, which stays byte-comparable with round-robin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerReport {
    /// Crew width the fleet ran at.
    pub workers: usize,
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
    /// Sessions taken from another worker's queue.
    pub steals: u64,
    /// Sessions parked at a phase boundary (pushed for the next phase).
    pub parks: u64,
    /// Sessions admitted out of the backlog.
    pub admitted: u64,
    /// Sessions retired (stream finished).
    pub retired: u64,
    /// Sessions shed by the backlog bound (reported, never run).
    pub shed: u64,
    /// Round boundaries where thrash signals delayed all admission.
    pub delayed_rounds: u64,
}

impl SchedulerReport {
    /// One-line human summary for logs and benches.
    pub fn summary(&self) -> String {
        format!(
            "scheduler: {} workers, {} rounds, {} steals, {} parks, \
             {} admitted, {} retired, {} shed, {} delayed rounds",
            self.workers,
            self.rounds,
            self.steals,
            self.parks,
            self.admitted,
            self.retired,
            self.shed,
            self.delayed_rounds
        )
    }
}

#[derive(Default)]
struct FleetStats {
    rounds: AtomicU64,
    steals: AtomicU64,
    parks: AtomicU64,
    admitted: AtomicU64,
    retired: AtomicU64,
    delayed_rounds: AtomicU64,
}

impl FleetStats {
    fn snapshot(&self, workers: usize, shed: u64) -> SchedulerReport {
        SchedulerReport {
            workers,
            rounds: self.rounds.load(Ordering::Relaxed),
            steals: self.steals.load(Ordering::Relaxed),
            parks: self.parks.load(Ordering::Relaxed),
            admitted: self.admitted.load(Ordering::Relaxed),
            retired: self.retired.load(Ordering::Relaxed),
            shed,
            delayed_rounds: self.delayed_rounds.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Fixed-capacity Chase–Lev work-stealing deque
// ---------------------------------------------------------------------------

/// Result of a steal attempt.
enum Steal {
    /// Got an item.
    Taken(usize),
    /// Queue observed empty.
    Empty,
    /// Lost a race; the queue may still hold items.
    Retry,
}

/// A fixed-capacity Chase–Lev deque over session indices. The owner pushes
/// and pops at the bottom (LIFO); thieves take from the top (FIFO) with a
/// CAS. `std`-only — a `Box<[AtomicUsize]>` ring plus two atomic cursors.
///
/// Capacity is fixed at construction and must exceed the maximum number of
/// simultaneously queued items (the fleet sizes every queue to
/// `sessions + 1`), so the ring never wraps onto a live slot and the
/// dynamic algorithm's grow path is unnecessary. Owner operations take
/// `&self` but must only ever be called from the owning worker; the fleet
/// upholds this by construction (worker *w* touches `deques[w]`'s owner
/// end only).
struct StealQueue {
    buf: Box<[AtomicUsize]>,
    mask: isize,
    /// Next slot thieves take from (grows monotonically).
    top: AtomicIsize,
    /// Next slot the owner pushes to (grows monotonically).
    bottom: AtomicIsize,
}

impl StealQueue {
    fn with_capacity(cap: usize) -> StealQueue {
        let cap = cap.max(2).next_power_of_two();
        StealQueue {
            buf: std::iter::repeat_with(|| AtomicUsize::new(0)).take(cap).collect(),
            mask: cap as isize - 1,
            top: AtomicIsize::new(0),
            bottom: AtomicIsize::new(0),
        }
    }

    fn slot(&self, i: isize) -> &AtomicUsize {
        &self.buf[(i & self.mask) as usize]
    }

    /// Owner-only: push at the bottom.
    fn push(&self, item: usize) {
        let b = self.bottom.load(Ordering::Relaxed);
        let t = self.top.load(Ordering::Acquire);
        debug_assert!(b - t < self.buf.len() as isize, "StealQueue over capacity");
        self.slot(b).store(item, Ordering::Relaxed);
        // Release-publish the slot write together with the new bottom:
        // a thief acquiring `bottom` sees the item (and everything the
        // owner wrote before parking the session it indexes).
        self.bottom.store(b + 1, Ordering::Release);
    }

    /// Owner-only: pop at the bottom (LIFO).
    fn pop(&self) -> Option<usize> {
        let b = self.bottom.load(Ordering::Relaxed) - 1;
        self.bottom.store(b, Ordering::Relaxed);
        // The SeqCst fence orders the bottom decrement against thieves'
        // top reads — the classic Chase–Lev race on the last item.
        fence(Ordering::SeqCst);
        let t = self.top.load(Ordering::Relaxed);
        if t > b {
            self.bottom.store(b + 1, Ordering::Relaxed);
            return None;
        }
        let item = self.slot(b).load(Ordering::Relaxed);
        if t == b {
            // Single item left: race the thieves for it.
            let won =
                self.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_ok();
            self.bottom.store(b + 1, Ordering::Relaxed);
            return won.then_some(item);
        }
        Some(item)
    }

    /// Thief: take from the top (FIFO).
    fn steal(&self) -> Steal {
        let t = self.top.load(Ordering::Acquire);
        fence(Ordering::SeqCst);
        let b = self.bottom.load(Ordering::Acquire);
        if t >= b {
            return Steal::Empty;
        }
        let item = self.slot(t).load(Ordering::Relaxed);
        if self.top.compare_exchange(t, t + 1, Ordering::SeqCst, Ordering::Relaxed).is_err() {
            return Steal::Retry;
        }
        Steal::Taken(item)
    }
}

// ---------------------------------------------------------------------------
// Session slots
// ---------------------------------------------------------------------------

/// One session in the fleet's slot table. At any instant at most one
/// worker holds a given index (it lives in exactly one queue, or in one
/// worker's hands); the `owned` flag turns any violation of that invariant
/// into a panic instead of undefined behavior.
struct SessionSlot {
    cell: UnsafeCell<Session>,
    owned: AtomicBool,
}

// SAFETY: access to `cell` is serialized by the index-exclusivity
// invariant above. Hand-off between workers synchronizes through the
// queues (release push / acquire steal and pop) and the phase-gate mutex,
// with the `owned` acquire-swap / release-store as a second fence.
unsafe impl Sync for SessionSlot {}

impl SessionSlot {
    fn new(session: Session) -> SessionSlot {
        SessionSlot { cell: UnsafeCell::new(session), owned: AtomicBool::new(false) }
    }

    fn into_session(self) -> Session {
        self.cell.into_inner()
    }
}

// ---------------------------------------------------------------------------
// Per-tenant admission backlog
// ---------------------------------------------------------------------------

struct AdmissionQueue {
    /// Per-tenant FIFOs of slot indices, ordered by tenant id.
    queues: Vec<VecDeque<usize>>,
    /// Round-robin cursor over tenants.
    cursor: usize,
    /// Total sessions still queued.
    backlog: usize,
    monitor: ThrashMonitor,
}

impl AdmissionQueue {
    fn new(sessions: &[Session], control: &AdmissionControl) -> AdmissionQueue {
        let mut tenants: Vec<usize> = sessions.iter().map(Session::tenant).collect();
        tenants.sort_unstable();
        tenants.dedup();
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); tenants.len().max(1)];
        for (idx, session) in sessions.iter().enumerate() {
            // Invariant, not an error path: `tenants` was just built as the
            // sorted dedup of these same sessions' tenant ids, so the
            // search cannot miss.
            let dense = tenants.binary_search(&session.tenant()).expect("tenant mapped");
            queues[dense].push_back(idx);
        }
        AdmissionQueue {
            queues,
            cursor: 0,
            backlog: sessions.len(),
            monitor: ThrashMonitor::new(control.ewma_alpha),
        }
    }

    /// Next session to admit, round-robin across tenants (fairness: a
    /// tenant with many queued sessions cannot starve one with few).
    fn take_fair(&mut self) -> Option<usize> {
        if self.backlog == 0 {
            return None;
        }
        loop {
            let t = self.cursor;
            self.cursor = (self.cursor + 1) % self.queues.len();
            if let Some(idx) = self.queues[t].pop_front() {
                self.backlog -= 1;
                return Some(idx);
            }
        }
    }

    /// Sheds queued sessions down to `limit`, trimming from the back of
    /// the longest tenant queue first (ties to the lowest tenant), so one
    /// flooding tenant pays before the others. Returns the shed indices.
    fn shed_over(&mut self, limit: usize) -> Vec<usize> {
        let mut shed = Vec::new();
        while self.backlog > limit {
            // Invariants, not error paths: `queues` is constructed with at
            // least one tenant FIFO, and `backlog > limit >= 0` means some
            // FIFO is non-empty, so the longest one cannot be empty.
            let (t, _) = self
                .queues
                .iter()
                .enumerate()
                .max_by_key(|(i, q)| (q.len(), std::cmp::Reverse(*i)))
                .expect("non-empty tenant list");
            let idx = self.queues[t].pop_back().expect("longest queue non-empty");
            self.backlog -= 1;
            shed.push(idx);
        }
        shed
    }

    /// True when thrash signals say the cache cannot absorb more load.
    /// Never delays when nothing is resident (`starving`): backpressure
    /// must not become a live-lock.
    fn delay_admission(
        &mut self,
        cache: &ShardedCache,
        control: &AdmissionControl,
        starving: bool,
    ) -> bool {
        self.monitor.observe(&cache.stats());
        !starving && self.monitor.is_thrashing(control.hit_floor, control.eviction_ceiling)
    }
}

// ---------------------------------------------------------------------------
// The fleet: one M:N run's shared state
// ---------------------------------------------------------------------------

struct Gate {
    /// Phase counter; even epochs serve, odd epochs run windows.
    epoch: u64,
    /// Workers arrived at the current phase edge.
    arrived: usize,
    /// Terminal: no more phases (all work done, or the fleet aborted).
    done: bool,
}

struct FleetShared<'a, 'w> {
    /// What a step and a phase edge *do*; the crew only decides who runs
    /// them.
    body: &'a RoundBody<'a, 'w>,
    /// Fleet telemetry; `None` records nothing. The scheduler itself only
    /// uses it for the phase-flip span — steal/park events are recorded
    /// through the sessions' own rings.
    telem: Option<&'a FleetTelemetry>,
    control: AdmissionControl,
    width: usize,
    slots: Vec<SessionSlot>,
    /// Per-worker run queues, indexed by phase parity (`epoch & 1`).
    /// Pushes always target the *next* parity, so a queue is never pushed
    /// and stolen from concurrently.
    deques: Vec<[StealQueue; 2]>,
    /// Unprocessed items of the current phase (claimed or still queued).
    phase_items: AtomicUsize,
    /// Items already parked for the next phase.
    next_items: AtomicUsize,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    abort: AtomicBool,
    failure: Mutex<Option<Box<dyn Any + Send>>>,
    admission: Mutex<AdmissionQueue>,
    stats: FleetStats,
}

impl FleetShared<'_, '_> {
    fn resident(&self) -> usize {
        (self.stats.admitted.load(Ordering::Relaxed) - self.stats.retired.load(Ordering::Relaxed))
            as usize
    }

    /// Records the first failure and releases everyone: workers spinning
    /// for work observe `abort`, workers parked at the gate observe
    /// `done`.
    fn fail(&self, payload: Box<dyn Any + Send>) {
        lock_unpoisoned(&self.failure).get_or_insert(payload);
        self.abort.store(true, Ordering::SeqCst);
        let mut g = lock_unpoisoned(&self.gate);
        g.done = true;
        self.gate_cv.notify_all();
    }

    /// Worker `w`'s drain loop; every worker (the caller is worker 0)
    /// runs this until the gate reports the fleet done.
    fn drain(&self, w: usize) {
        let outcome = catch_unwind(AssertUnwindSafe(|| self.drain_inner(w)));
        if let Err(payload) = outcome {
            // A panic outside a session step (a scheduler bug) must still
            // release the fleet, not hang the sibling workers.
            self.fail(payload);
        }
    }

    fn drain_inner(&self, w: usize) {
        let mut epoch = 0u64;
        loop {
            while let Some((idx, stolen)) = self.find_work(w, epoch) {
                self.step(w, idx, stolen, epoch);
            }
            match self.arrive(w, epoch) {
                Some(next) => epoch = next,
                None => return,
            }
        }
    }

    /// Pops the worker's own queue (LIFO), then tries to steal (FIFO)
    /// from siblings. Returns the claimed index plus whether it was
    /// stolen, or `None` when the phase has no more work for this worker
    /// — every remaining item is in some other worker's hands.
    fn find_work(&self, w: usize, epoch: u64) -> Option<(usize, bool)> {
        let parity = (epoch & 1) as usize;
        if let Some(idx) = self.deques[w][parity].pop() {
            return Some((idx, false));
        }
        loop {
            if self.abort.load(Ordering::Relaxed) || self.phase_items.load(Ordering::Acquire) == 0 {
                return None;
            }
            let mut contended = false;
            for off in 1..self.width {
                match self.deques[(w + off) % self.width][parity].steal() {
                    Steal::Taken(idx) => {
                        self.stats.steals.fetch_add(1, Ordering::Relaxed);
                        return Some((idx, true));
                    }
                    Steal::Retry => contended = true,
                    Steal::Empty => {}
                }
            }
            if !contended {
                // Nothing visible anywhere; outstanding items are being
                // executed right now. Head to the gate and wait there
                // instead of burning the core.
                return None;
            }
            std::hint::spin_loop();
        }
    }

    /// Runs one session sub-phase and re-queues, retires or aborts.
    fn step(&self, w: usize, idx: usize, stolen: bool, epoch: u64) {
        if self.abort.load(Ordering::Relaxed) {
            // Aborting: drain the item without touching the session.
            self.phase_items.fetch_sub(1, Ordering::Release);
            return;
        }
        let slot = &self.slots[idx];
        let aliased = slot.owned.swap(true, Ordering::Acquire);
        assert!(!aliased, "session slot {idx} owned twice — scheduler invariant broken");
        // SAFETY: the acquire-swap above (plus the queue/gate hand-off
        // synchronization) guarantees this worker is the only one holding
        // index `idx`, so the exclusive borrow is unique.
        let session = unsafe { &mut *slot.cell.get() };
        if stolen {
            // Recorded here — not in `find_work` — because this is where
            // the exclusive session borrow exists (no-op when disarmed).
            session.note_stolen(w as u32);
        }
        // `Ok(true)` = the session has more to do and parks for the next
        // phase; `Ok(false)` = it retires (from a serve only when it has
        // fewer queries than the fleet has rounds).
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if epoch.is_multiple_of(2) {
                self.body.serve(session)
            } else {
                self.body.window(session, idx)
            }
        }));
        if matches!(outcome, Ok(true)) {
            // Park event before the ownership release: once `owned` drops
            // and the index is pushed, a sibling may claim the session.
            session.note_parked(w as u32);
        }
        slot.owned.store(false, Ordering::Release);
        match outcome {
            Ok(true) => {
                self.deques[w][((epoch + 1) & 1) as usize].push(idx);
                self.next_items.fetch_add(1, Ordering::Relaxed);
                self.stats.parks.fetch_add(1, Ordering::Relaxed);
            }
            Ok(false) => {
                self.stats.retired.fetch_add(1, Ordering::Relaxed);
            }
            Err(payload) => self.fail(payload),
        }
        self.phase_items.fetch_sub(1, Ordering::Release);
    }

    /// The W-wide phase rendezvous. The last worker to arrive flips the
    /// phase (running admission at round boundaries) and wakes the rest.
    /// Returns the next epoch, or `None` when the fleet is done.
    fn arrive(&self, w: usize, epoch: u64) -> Option<u64> {
        let mut g = lock_unpoisoned(&self.gate);
        if g.done {
            return None;
        }
        g.arrived += 1;
        if g.arrived < self.width {
            while g.epoch == epoch && !g.done {
                g = self.gate_cv.wait(g).unwrap_or_else(PoisonError::into_inner);
            }
            return if g.done { None } else { Some(g.epoch) };
        }
        // Everyone is here; this worker flips the phase. All pushes for
        // the next parity happened before their workers arrived, so
        // `next_items` is final.
        g.arrived = 0;
        let next = epoch + 1;
        let mut items = self.next_items.swap(0, Ordering::AcqRel);
        // The flip's critical section — batch submits plus admission, run
        // while every sibling is parked — is one of the profiled hot
        // phases (no-op when telemetry is disarmed or spans are off).
        let _flip_span = self.telem.and_then(|t| {
            SpanTimer::start_if(t.plan.spans, t.registry.histogram(HistogramId::SpanPhaseFlipUs))
        });
        if self.abort.load(Ordering::Relaxed) {
            g.done = true;
        } else {
            // The flip is where the round body's phase edges run: after
            // the serves on entering a window phase (sessions consume the
            // demand outcomes next), after the windows on entering a serve
            // phase (the next round serves against the published
            // membership). Both run while every other worker is parked at
            // the gate, keyed by the round ordinal `epoch / 2`.
            if next.is_multiple_of(2) {
                self.body.close_window(epoch / 2);
            } else {
                self.body.close_serve(epoch / 2);
            }
            if next.is_multiple_of(2) {
                // Entering a serve phase = starting a round.
                items += self.admit(w, (next & 1) as usize, items == 0);
                if items > 0 {
                    self.stats.rounds.fetch_add(1, Ordering::Relaxed);
                }
            }
            if items == 0 {
                g.done = true;
            } else {
                self.phase_items.store(items, Ordering::Release);
            }
        }
        drop(_flip_span);
        g.epoch = next;
        let done = g.done;
        self.gate_cv.notify_all();
        drop(g);
        // Pipelined tail: the window edge's deferred half needs neither
        // the cache nor any session, so it runs *after* the gate released
        // — overlapped with the serve phase the sibling workers are
        // already executing. The next flip's window lock (or fleet
        // teardown) is the drain point.
        if next.is_multiple_of(2) && !self.abort.load(Ordering::Relaxed) {
            self.body.after_close_window();
        }
        if done {
            None
        } else {
            Some(next)
        }
    }

    /// Round-boundary admission, run by the flipping worker while every
    /// other worker is parked at the gate (hence effectively serial).
    /// Admitted sessions go into the flipper's own serve queue; thieves
    /// spread them. `starving` (no survivors from the previous round)
    /// overrides the thrash delay so backpressure cannot live-lock.
    fn admit(&self, w: usize, parity: usize, starving: bool) -> usize {
        let mut q = lock_unpoisoned(&self.admission);
        if q.backlog == 0 {
            return 0;
        }
        if q.delay_admission(self.body.cache, &self.control, starving) {
            self.stats.delayed_rounds.fetch_add(1, Ordering::Relaxed);
            return 0;
        }
        let mut admitted = 0usize;
        while self.resident() + admitted < self.control.max_resident {
            let Some(idx) = q.take_fair() else { break };
            self.deques[w][parity].push(idx);
            admitted += 1;
        }
        self.stats.admitted.fetch_add(admitted as u64, Ordering::Relaxed);
        admitted
    }
}

// ---------------------------------------------------------------------------
// The long-lived scheduler (crew owner)
// ---------------------------------------------------------------------------

/// Outcome of one fleet run, consumed by the multi-session engine's
/// report assembly.
pub(crate) struct FleetOutcome {
    /// The sessions, in their original order.
    pub(crate) sessions: Vec<Session>,
    /// `shed[i]` marks `sessions[i]` as shed by admission control.
    pub(crate) shed: Vec<bool>,
    pub(crate) report: SchedulerReport,
}

/// The long-lived M:N scheduler: a lazily-grown crew of worker threads
/// (parked between fleets) plus the dispatch lock that serializes fleet
/// runs. One process-wide instance ([`SessionScheduler::global`]) backs
/// [`Schedule::WorkStealing`](crate::Schedule); independent instances are
/// only interesting for tests.
#[derive(Debug)]
pub struct SessionScheduler {
    crew: Crew,
    /// Serializes fleets. This **blocks**: a fleet drain parks at phase
    /// gates, so running its parts sequentially would deadlock.
    dispatch: Mutex<()>,
}

impl Default for SessionScheduler {
    fn default() -> SessionScheduler {
        SessionScheduler::new()
    }
}

impl SessionScheduler {
    /// A scheduler with no workers yet; the crew grows to each fleet's
    /// requested width on demand.
    pub fn new() -> SessionScheduler {
        SessionScheduler { crew: Crew::new("scout-sched"), dispatch: Mutex::new(()) }
    }

    /// The process-wide scheduler used by
    /// [`Schedule::WorkStealing`](crate::Schedule).
    pub fn global() -> &'static SessionScheduler {
        static GLOBAL: OnceLock<SessionScheduler> = OnceLock::new();
        GLOBAL.get_or_init(SessionScheduler::new)
    }

    /// Runs a complete multi-session fleet. `workers` is clamped to at
    /// least 1; width 1 (asked for, or all the crew could spawn) is
    /// [`run_inline`], width > 1 dispatches the work-stealing crew.
    pub(crate) fn run_fleet(
        &self,
        body: &RoundBody<'_, '_>,
        sessions: Vec<Session>,
        workers: usize,
        control: AdmissionControl,
        telemetry: Option<&FleetTelemetry>,
    ) -> FleetOutcome {
        control.assert_valid();
        if sessions.is_empty() {
            let report = SchedulerReport { workers: workers.max(1), ..Default::default() };
            return FleetOutcome { sessions, shed: Vec::new(), report };
        }
        if workers <= 1 {
            return run_inline(body, sessions, control);
        }
        // Hold the crew for the whole fleet; concurrent fleets queue here.
        // A previous fleet's panic unwound through this guard; the lock
        // protects nothing but the crew's exclusivity, so poison is moot.
        let fleet_guard = lock_unpoisoned(&self.dispatch);
        let extra = self.crew.ensure(workers - 1);
        if extra == 0 {
            drop(fleet_guard);
            return run_inline(body, sessions, control);
        }
        let width = extra + 1;
        let n = sessions.len();

        let mut queue = AdmissionQueue::new(&sessions, &control);
        let fleet = FleetShared {
            body,
            telem: telemetry,
            control,
            width,
            slots: sessions.into_iter().map(SessionSlot::new).collect(),
            deques: (0..width)
                .map(|_| [StealQueue::with_capacity(n + 1), StealQueue::with_capacity(n + 1)])
                .collect(),
            phase_items: AtomicUsize::new(0),
            next_items: AtomicUsize::new(0),
            gate: Mutex::new(Gate { epoch: 0, arrived: 0, done: false }),
            gate_cv: Condvar::new(),
            abort: AtomicBool::new(false),
            failure: Mutex::new(None),
            admission: Mutex::new(AdmissionQueue::new(&[], &control)), // replaced below
            stats: FleetStats::default(),
        };
        // Initial admission: the monitor is cold (never thrashing), so
        // this fills up to `max_resident` into worker 0's serve queue.
        let mut seeded = 0usize;
        while seeded < control.max_resident {
            let Some(idx) = queue.take_fair() else { break };
            fleet.deques[0][0].push(idx);
            seeded += 1;
        }
        fleet.stats.admitted.store(seeded as u64, Ordering::Relaxed);
        // The ready queue is bounded: whatever exceeds the backlog limit
        // after initial admission is shed up front.
        let mut shed = vec![false; n];
        for idx in queue.shed_over(control.backlog_limit) {
            shed[idx] = true;
        }
        let shed_count = shed.iter().filter(|&&s| s).count() as u64;
        *lock_unpoisoned(&fleet.admission) = queue;
        fleet.phase_items.store(seeded, Ordering::Release);
        fleet.stats.rounds.store(1, Ordering::Relaxed);

        // Workers 1..=extra drain via the parked crew, the caller drains
        // as worker 0. `drain` catches everything itself; the dispatch
        // joins even if a panic escapes it.
        let drain = |w: usize| fleet.drain(w);
        self.crew.dispatch(extra, &drain, || drain(0));

        let FleetShared { slots, stats, failure, .. } = fleet;
        if let Some(payload) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
            resume_unwind(payload);
        }
        FleetOutcome {
            sessions: slots.into_iter().map(SessionSlot::into_session).collect(),
            report: stats.snapshot(width, shed_count),
            shed,
        }
    }
}

// ---------------------------------------------------------------------------
// The round: one body, and the inline driver
// ---------------------------------------------------------------------------

/// What one bulk-synchronous round *does*, and the only place that knows
/// how I/O is submitted: immediately (`batch: None` — each read hits the
/// session's own disk as it is issued, and the phase edges are empty) or
/// phase-scoped (staged into the [`BatchCtl`] lanes and submitted at the
/// edges, DESIGN.md §12). The two drivers — [`run_inline`] and the
/// work-stealing crew — decide only *who runs a step*; both call exactly
/// these five methods, in the same order per round.
pub(crate) struct RoundBody<'a, 'w> {
    pub(crate) ctx: &'a SimContext<'w>,
    pub(crate) exec: &'a ExecutorConfig,
    pub(crate) cache: &'a ShardedCache,
    pub(crate) batch: Option<&'a BatchCtl>,
}

impl RoundBody<'_, '_> {
    /// One session's serve sub-phase. False = its stream was exhausted
    /// and the call did nothing.
    fn serve(&self, session: &mut Session) -> bool {
        match self.batch {
            None => session.serve_observe(self.ctx, &mut &*self.cache, self.exec),
            Some(b) => session.serve_stage(self.ctx, &mut &*self.cache, self.exec, &b.demand),
        }
    }

    /// One session's window sub-phase (`idx` = its slot, the window
    /// lane's ledger key). False = the session is done and retires.
    fn window(&self, session: &mut Session, idx: usize) -> bool {
        match self.batch {
            None => session.finish_window(self.ctx, &mut &*self.cache, self.exec),
            Some(b) => {
                session.serve_complete(self.ctx, self.exec, &b.demand);
                session.window_stage(self.ctx, &self.cache, &b.window, idx as u32);
            }
        }
        !session.is_done()
    }

    /// Phase edge after every serve of `round`: the staged demand reads
    /// hit the disk.
    fn close_serve(&self, round: u64) {
        if let Some(b) = self.batch {
            b.submit_demand(round);
        }
    }

    /// Phase edge after every window of `round`: the staged prefetch
    /// reads hit the disk and publish into the cache. Must complete
    /// before any serve of the next round starts.
    fn close_window(&self, round: u64) {
        if let Some(b) = self.batch {
            b.submit_window(self.cache, round);
        }
    }

    /// The deferred half of the window edge (ledgers, buffer recycling):
    /// touches neither the cache nor any session, so it may overlap the
    /// next round's serves.
    fn after_close_window(&self) {
        if let Some(b) = self.batch {
            b.finish_window();
        }
    }
}

/// The inline driver: one thread runs every step, in order — serve every
/// resident session in admission order, the serve edge, every window, the
/// window edge — plus parking, retirement and admission accounting. Fully
/// deterministic, including under eviction pressure, which makes it the
/// oracle the property suites pin the work-stealing widths against. It
/// *is* width-1 work stealing, and [`Schedule::RoundRobin`](crate::Schedule)
/// is this loop with [`AdmissionControl::unlimited`] and the report
/// dropped.
pub(crate) fn run_inline(
    body: &RoundBody<'_, '_>,
    mut sessions: Vec<Session>,
    control: AdmissionControl,
) -> FleetOutcome {
    let n = sessions.len();
    let mut queue = AdmissionQueue::new(&sessions, &control);
    let mut report = SchedulerReport { workers: 1, ..Default::default() };
    let mut active: Vec<usize> = Vec::new();
    let mut resident = 0usize;
    while resident < control.max_resident {
        let Some(idx) = queue.take_fair() else { break };
        active.push(idx);
        resident += 1;
        report.admitted += 1;
    }
    let mut shed = vec![false; n];
    for idx in queue.shed_over(control.backlog_limit) {
        shed[idx] = true;
        report.shed += 1;
    }
    // Exhausted sessions leave `active`: the round loop only visits
    // sessions with work left instead of spinning no-op steps on short
    // streams — not O(K × max_rounds) for skewed fleets.
    while !active.is_empty() {
        let round = report.rounds;
        report.rounds += 1;
        let mut served = 0u64;
        for &i in &active {
            served += u64::from(body.serve(&mut sessions[i]));
        }
        body.close_serve(round);
        let before = active.len();
        active.retain(|&i| body.window(&mut sessions[i], i));
        body.close_window(round);
        body.after_close_window();
        let finished = before - active.len();
        resident -= finished;
        report.retired += finished as u64;
        // Park accounting matches the W>1 fleet: one park per successful
        // serve (window boundary) + one per session surviving the round.
        report.parks += served + active.len() as u64;
        if queue.backlog > 0 {
            if queue.delay_admission(body.cache, &control, resident == 0) {
                report.delayed_rounds += 1;
            } else {
                while resident < control.max_resident {
                    let Some(idx) = queue.take_fair() else { break };
                    active.push(idx);
                    resident += 1;
                    report.admitted += 1;
                }
            }
        }
    }
    FleetOutcome { sessions, shed, report }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn steal_queue_owner_is_lifo_thief_is_fifo() {
        let q = StealQueue::with_capacity(8);
        q.push(1);
        q.push(2);
        q.push(3);
        assert!(matches!(q.steal(), Steal::Taken(1)));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert!(matches!(q.steal(), Steal::Empty));
        // Reusable after emptying (the ring wraps across phases).
        for i in 0..20 {
            q.push(i);
            assert_eq!(q.pop(), Some(i));
        }
    }

    #[test]
    fn steal_queue_stress_delivers_every_item_once() {
        // One owner pushing + popping, three thieves stealing: every item
        // must be seen exactly once across all consumers.
        const ITEMS: usize = 20_000;
        const THIEVES: usize = 3;
        let q = StealQueue::with_capacity(ITEMS + 1);
        let seen: Vec<AtomicU32> = (0..ITEMS).map(|_| AtomicU32::new(0)).collect();
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..THIEVES {
                scope.spawn(|| loop {
                    match q.steal() {
                        Steal::Taken(i) => {
                            seen[i].fetch_add(1, Ordering::Relaxed);
                        }
                        Steal::Empty if stop.load(Ordering::Acquire) => return,
                        _ => std::hint::spin_loop(),
                    }
                });
            }
            for i in 0..ITEMS {
                q.push(i);
                if i % 3 == 0 {
                    if let Some(j) = q.pop() {
                        seen[j].fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            while let Some(j) = q.pop() {
                seen[j].fetch_add(1, Ordering::Relaxed);
            }
            stop.store(true, Ordering::Release);
        });
        for (i, s) in seen.iter().enumerate() {
            assert_eq!(s.load(Ordering::Relaxed), 1, "item {i}");
        }
    }

    #[test]
    fn admission_queue_is_tenant_fair() {
        use crate::prefetcher::NoPrefetch;
        // Tenant 0 floods (4 sessions), tenant 7 has 2: take order must
        // alternate tenants while both are non-empty.
        let sessions: Vec<Session> = (0..6)
            .map(|i| {
                Session::new(i, Box::new(NoPrefetch), Vec::new()).with_tenant(if i < 4 {
                    0
                } else {
                    7
                })
            })
            .collect();
        let control = AdmissionControl::unlimited();
        let mut q = AdmissionQueue::new(&sessions, &control);
        let order: Vec<usize> = std::iter::from_fn(|| q.take_fair()).collect();
        assert_eq!(order, vec![0, 4, 1, 5, 2, 3]);
    }

    #[test]
    fn admission_queue_sheds_from_the_flooding_tenant() {
        use crate::prefetcher::NoPrefetch;
        let sessions: Vec<Session> = (0..5)
            .map(|i| {
                Session::new(i, Box::new(NoPrefetch), Vec::new()).with_tenant(if i < 4 {
                    0
                } else {
                    1
                })
            })
            .collect();
        let control = AdmissionControl::unlimited();
        let mut q = AdmissionQueue::new(&sessions, &control);
        // Trim 5 -> 2: all three sheds must come off tenant 0's tail.
        let shed = q.shed_over(2);
        assert_eq!(shed, vec![3, 2, 1]);
        assert_eq!(q.backlog, 2);
        assert_eq!(q.take_fair(), Some(0));
        assert_eq!(q.take_fair(), Some(4));
    }

    #[test]
    #[should_panic(expected = "max_resident")]
    fn zero_max_resident_rejected() {
        AdmissionControl::bounded(0).assert_valid();
    }
}
