//! The round engine: one round body and the one loop that drives it, at
//! every width.
//!
//! Every multi-session run is the same bulk-synchronous round (every
//! session's *serve* sub-phase, a phase edge, every session's *window*
//! sub-phase, a phase edge — the structure DESIGN.md §5's determinism
//! ladder rests on). `RoundBody` owns what those steps and edges *do*,
//! including how I/O is submitted; `run_fleet` owns everything else,
//! once, on the calling thread: the active list (an ordered `Vec` of
//! slot indices that starts as every session in slot order and only
//! shrinks), the round counter, the edge calls, retirement and the
//! counters of [`SchedulerReport`]. Every session is admitted up front:
//! there is no admission control (DESIGN.md §10 says why).
//!
//! One OS thread per session would be the obvious way to go wide — fine
//! for tens of clients, hopeless for tens of thousands — so width > 1
//! parallelises nothing but the two per-session sweeps inside that loop.
//! A phase is "run the step on every entry of the active list": every
//! participating thread (the caller plus helper threads scoped to the
//! phase: spawned at its start, joined at its end) claims the next
//! *position* with one `fetch_add` on a shared cursor, takes that session
//! out of its `Mutex` slot with `try_lock` — a held lock means two threads
//! claimed one session, and panics — runs the step and stores its verdict
//! at the claimed position. A session is a **resumable state machine** (its
//! serve leaves the prefetch window open), so "parking" one at a phase
//! edge is simply not calling it; finished sessions are retired instead
//! of spinning no-op rounds. Width 1, and any phase with a single step,
//! is the same claim loop on the caller alone: no thread is spawned, and
//! the caller steps through an exclusive handle on the fleet's cache that
//! reaches each shard with `Mutex::get_mut` instead of its lock. A phase
//! shared with helpers hands every thread the locking `&ShardedCache`.
//!
//! ## Determinism contract (DESIGN.md §10)
//!
//! Width 1 visits sessions in active-list order — the exact round-robin
//! serve/window order — so its reports are **byte-identical** to
//! [`Schedule::RoundRobin`](crate::Schedule), even under eviction
//! pressure, by construction: it is the same call. At width > 1 only the
//! interleaving *inside* a phase is free; the active list, and so every
//! retirement, round and park count, stays the width-1 one whenever the
//! cache is not evicting. There the eviction-free totals contract
//! applies: per-round cache membership is order-independent, so
//! pages-hit totals (and, with per-session disks, every per-session
//! quantity) match width 1.
//!
//! ## Panics
//!
//! A panicking session step raises a flag every claim checks, so the
//! phase's remaining positions are not started; `Fleet::run_phase` joins
//! every helper and re-raises the first payload (the caller's own first)
//! on the caller, and no later phase runs. No thread, lock or pointer
//! outlives the phase that made it, so there is nothing left to clean up.
//!
//! ## Thread count
//!
//! [`default_parallelism`] resolves the width
//! [`Schedule::WorkStealing { workers: 0 }`](crate::Schedule) runs at: the
//! `SCOUT_THREADS` environment variable when set (`1` keeps every phase on
//! the calling thread — the CI equivalence job; a set-but-invalid value
//! warns and pins 1 too), otherwise `std::thread::available_parallelism`.

use crate::batch::BatchCtl;
use crate::context::SimContext;
use crate::executor::ExecutorConfig;
use crate::session::Session;
use crate::telemetry::FleetTelemetry;
use scout_storage::{CacheStats, PageCache, PageId, ShardedCache};
use scout_telemetry::{HistogramId, SpanTimer};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks `m`, recovering the guard when a previous holder panicked.
///
/// Every critical section in this crate's batch lanes leaves its state
/// consistent at each point it could unwind (single-field writes, counter
/// updates completed before any call that can panic), so a poisoned mutex
/// only records *that* a sibling died, not a broken invariant. Recovering
/// instead of unwrapping keeps one session's panic from cascading into a
/// second panic on every later lock — the containment contract the
/// scheduler tests (`panicking_session_does_not_deadlock_the_fleet`)
/// pin down.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The width a work-stealing fleet defaults to: `SCOUT_THREADS`
/// when set to a positive integer, otherwise the machine's available
/// parallelism. A `SCOUT_THREADS` that is set but not a positive integer
/// (`0`, empty, non-numeric) pins serial with a warning — a botched pin
/// must never silently re-enable full parallelism. Cached — the
/// environment is read once per process.
pub fn default_parallelism() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| resolve_parallelism(std::env::var("SCOUT_THREADS").ok().as_deref()))
}

fn resolve_parallelism(pin: Option<&str>) -> usize {
    match pin {
        Some(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n,
            _ => {
                eprintln!(
                    "warning: SCOUT_THREADS={v:?} is not a positive integer; \
                     pinning serial (SCOUT_THREADS=1)"
                );
                1
            }
        },
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

// ---------------------------------------------------------------------------
// Scheduler counters
// ---------------------------------------------------------------------------

/// What the scheduler did during one fleet run. Carried on
/// [`MultiSessionReport`](crate::MultiSessionReport) (not rendered into
/// the base report, which stays byte-comparable with round-robin).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerReport {
    /// The width asked for, at least 1: the caller plus the helper
    /// threads each phase may spawn.
    pub workers: usize,
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
    /// Migrations: steps run by another thread than the one that ran the
    /// same session's previous step (a session starts as the caller's).
    /// Threads claim positions from one cursor, so there is no home queue
    /// to steal from; 0 at width 1, about half of all steps at width 2. A
    /// per-layer count (`sim.sched.steals_wmax`), not an end-to-end metric.
    pub steals: u64,
    /// Sessions parked at a phase boundary: steps that left their session
    /// with more to do.
    pub parks: u64,
}

impl SchedulerReport {
    /// One-line human summary for logs and benches.
    pub fn summary(&self) -> String {
        format!(
            "scheduler: {} workers, {} rounds, {} steals, {} parks",
            self.workers, self.rounds, self.steals, self.parks
        )
    }
}

// ---------------------------------------------------------------------------
// The round: one body
// ---------------------------------------------------------------------------

/// How a thread running a phase's steps reaches the fleet's cache. A phase
/// the caller runs alone gets `Exclusive`: it holds the cache as `&mut`,
/// so every probe, promotion and insert goes through `Mutex::get_mut` and
/// takes no shard lock. When helpers share the phase, every thread gets
/// `Shared`, which locks the page's shard. Both run the same shard
/// operations in the same order, so the variant changes no outcome.
pub(crate) enum CacheHandle<'c> {
    Exclusive(&'c mut ShardedCache),
    Shared(&'c ShardedCache),
}

impl CacheHandle<'_> {
    /// The cache behind either handle, for the whole-cache calls, which
    /// go to the `&self` inherent methods whichever handle a thread holds
    /// (as both `PageCache` impls of `ShardedCache` send them).
    fn whole(&self) -> &ShardedCache {
        match self {
            CacheHandle::Exclusive(c) => c,
            CacheHandle::Shared(c) => c,
        }
    }
}

impl PageCache for CacheHandle<'_> {
    fn access(&mut self, page: PageId) -> bool {
        match self {
            CacheHandle::Exclusive(c) => PageCache::access(&mut **c, page),
            CacheHandle::Shared(c) => PageCache::access(c, page),
        }
    }

    fn insert(&mut self, page: PageId) -> Option<PageId> {
        match self {
            CacheHandle::Exclusive(c) => PageCache::insert(&mut **c, page),
            CacheHandle::Shared(c) => PageCache::insert(c, page),
        }
    }

    fn contains(&mut self, page: PageId) -> bool {
        match self {
            CacheHandle::Exclusive(c) => PageCache::contains(&mut **c, page),
            CacheHandle::Shared(c) => PageCache::contains(c, page),
        }
    }

    fn len(&self) -> usize {
        self.whole().len()
    }

    fn capacity(&self) -> usize {
        self.whole().capacity()
    }

    fn clear(&mut self) {
        self.whole().clear()
    }

    fn stats(&self) -> CacheStats {
        self.whole().stats()
    }

    fn reset_stats(&mut self) {
        self.whole().reset_stats()
    }

    fn note_coalesced_hits(&mut self, n: u64) {
        self.whole().note_coalesced_hits(n)
    }
}

/// What one bulk-synchronous round *does*, and the only place that knows
/// how I/O is submitted: immediately (`batch: None` — each read hits the
/// session's own disk as it is issued, and the phase edges are empty) or
/// phase-scoped (staged into the [`BatchCtl`] lanes and submitted at the
/// edges, DESIGN.md §12). [`run_fleet`] decides only *who runs a step*,
/// and with which cache handle; it calls exactly these four methods, in
/// the same order per round, at every width.
pub(crate) struct RoundBody<'a, 'w> {
    pub(crate) ctx: &'a SimContext<'w>,
    pub(crate) exec: &'a ExecutorConfig,
    pub(crate) batch: Option<&'a BatchCtl>,
}

impl RoundBody<'_, '_> {
    /// One session's serve sub-phase, through the stepping thread's
    /// `cache` handle. False = its stream was exhausted and the call did
    /// nothing.
    fn serve(&self, session: &mut Session, cache: &mut CacheHandle<'_>) -> bool {
        match self.batch {
            None => session.serve_observe(self.ctx, cache, self.exec),
            Some(b) => session.serve_stage(self.ctx, cache, self.exec, &b.demand),
        }
    }

    /// One session's window sub-phase (`idx` = its slot, the window
    /// lane's ledger key). False = the session is done and retires.
    fn window(&self, session: &mut Session, idx: usize, cache: &mut CacheHandle<'_>) -> bool {
        match self.batch {
            None => session.finish_window(self.ctx, cache, self.exec),
            Some(b) => {
                session.serve_complete(self.ctx, self.exec, &b.demand);
                session.window_stage(self.ctx, cache, &b.window, idx as u32);
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
    /// reads hit the disk, publish into the cache and are credited to
    /// their owners' ledgers. Must complete before any serve of the next
    /// round starts. No step is in flight, so the edge owns the cache.
    fn close_window(&self, cache: &mut ShardedCache, round: u64) {
        if let Some(b) = self.batch {
            b.submit_window(cache, round);
        }
    }
}

// ---------------------------------------------------------------------------
// One phase: a claim cursor over the active list
// ---------------------------------------------------------------------------

/// One session in the fleet's slot table, behind the `Mutex` whose
/// `try_lock` is the double-claim guard.
struct Slot {
    session: Session,
    /// The thread (0 = the caller) that ran this session's previous step;
    /// a session starts as the caller's.
    last_worker: u32,
}

/// Outcome of one phase.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct PhaseTally {
    /// Steps that returned true.
    more: u64,
    /// Steps run by another thread than the session's previous step.
    migrations: u64,
}

/// What a phase needs besides the active list and the step.
struct Fleet {
    /// Helpers a phase may spawn besides the caller (fleet width − 1).
    helpers: usize,
    slots: Vec<Mutex<Slot>>,
    /// `more[k]` = the verdict of the step at position `k` of the active
    /// list in the phase that ran last.
    more: Vec<AtomicBool>,
}

impl Fleet {
    fn new(helpers: usize, sessions: Vec<Session>) -> Fleet {
        Fleet {
            helpers,
            more: std::iter::repeat_with(|| AtomicBool::new(false)).take(sessions.len()).collect(),
            slots: sessions
                .into_iter()
                .map(|session| Mutex::new(Slot { session, last_worker: 0 }))
                .collect(),
        }
    }

    /// Runs `step(session, idx, cache)` once for every `idx` in `active`,
    /// on the caller plus `min(helpers, active.len() − 1)` scoped threads,
    /// and stores its return in `more[position]`. Threads claim positions
    /// from one cursor; nothing else in the scheduler is concurrent. A
    /// caller running the phase alone steps through the exclusive handle
    /// on `cache`; otherwise every thread gets the shared, locking one.
    fn run_phase(
        &self,
        active: &[usize],
        cache: &mut ShardedCache,
        step: &(dyn Fn(&mut Session, usize, &mut CacheHandle<'_>) -> bool + Sync),
    ) -> PhaseTally {
        // Park and migration events are a wide fleet's: width 1 keeps the
        // round-robin timeline byte for byte (DESIGN.md §13).
        let events = self.helpers > 0;
        // Every atomic below is `Relaxed`: none publishes other data. A
        // session travels between threads under its slot's `Mutex`, and
        // the verdicts and tallies are read after every helper is joined
        // (the join orders them).
        let cursor = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let (more, migrations) = (AtomicU64::new(0), AtomicU64::new(0));
        let claim_all = |w: usize, mut cache: CacheHandle<'_>| {
            let mut tally = PhaseTally::default();
            while !failed.load(Ordering::Relaxed) {
                let k = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&idx) = active.get(k) else { break };
                let Ok(mut slot) = self.slots[idx].try_lock() else {
                    panic!("session slot {idx} owned twice — scheduler invariant broken");
                };
                let Slot { session, last_worker } = &mut *slot;
                if *last_worker != w as u32 {
                    *last_worker = w as u32;
                    tally.migrations += 1;
                    if events {
                        session.note_stolen(w as u32);
                    }
                }
                // True = the session has more to do and parks until the
                // next phase; false = it is exhausted (from a window: it
                // retires).
                let verdict = step(session, idx, &mut cache);
                if verdict {
                    tally.more += 1;
                    if events {
                        session.note_parked(w as u32);
                    }
                }
                self.more[k].store(verdict, Ordering::Relaxed);
            }
            more.fetch_add(tally.more, Ordering::Relaxed);
            migrations.fetch_add(tally.migrations, Ordering::Relaxed);
        };
        // A panic (a step's, or the double-claim guard's) stops the other
        // threads' claims and becomes the thread's result.
        let claim = |w: usize, cache: CacheHandle<'_>| {
            catch_unwind(AssertUnwindSafe(|| claim_all(w, cache)))
                .inspect_err(|_| failed.store(true, Ordering::Relaxed))
        };
        let extra = self.helpers.min(active.len().saturating_sub(1));
        let outcome = if extra == 0 {
            // The caller alone: no other thread can reach the cache, so
            // the phase owns it and takes no shard lock.
            claim(0, CacheHandle::Exclusive(cache))
        } else {
            let shared: &ShardedCache = cache;
            // A spawn the OS refuses is skipped: the cursor hands that
            // thread's positions to whoever is running. Every helper is
            // joined before the first payload (the caller's own first) is
            // re-raised, so one panic leaves the phase, never two. The
            // scope would join on its own; keeping the payloads fixes
            // *which* one leaves, which `thread::scope` does not document.
            std::thread::scope(|scope| {
                let spawn = |w| {
                    let name = format!("scout-sched-{w}");
                    std::thread::Builder::new()
                        .name(name)
                        .spawn_scoped(scope, move || claim(w, CacheHandle::Shared(shared)))
                };
                let helpers: Vec<_> = (1..=extra).filter_map(|w| spawn(w).ok()).collect();
                let mut first = claim(0, CacheHandle::Shared(shared));
                for helper in helpers {
                    first = first.and(helper.join().and_then(|claimed| claimed));
                }
                first
            })
        };
        if let Err(payload) = outcome {
            resume_unwind(payload);
        }
        PhaseTally {
            more: more.load(Ordering::Relaxed),
            migrations: migrations.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// The round loop
// ---------------------------------------------------------------------------

/// Runs a complete multi-session fleet: the one round loop (module
/// docs), on the caller, its two sweeps shared by `workers` threads —
/// clamped to at least 1. Returns the sessions in their original order
/// and the run's counters. Width 1 is the oracle the property suites pin
/// the wider runs against, and [`Schedule::RoundRobin`](crate::Schedule)
/// is this call at width 1 with the report dropped. Fleets share
/// nothing: concurrent calls overlap. `cache` is the fleet's: each phase
/// hands every stepping thread a handle on it, and the edges, which run
/// while no step is in flight, use it directly.
pub(crate) fn run_fleet(
    body: &RoundBody<'_, '_>,
    cache: &mut ShardedCache,
    sessions: Vec<Session>,
    workers: usize,
    telemetry: Option<&FleetTelemetry>,
) -> (Vec<Session>, SchedulerReport) {
    let helpers = workers.saturating_sub(1);
    // The unfinished sessions' slot indices, in slot order. Exhausted
    // sessions leave it, so a skewed fleet is not O(K × max_rounds)
    // no-op steps.
    let mut active: Vec<usize> = (0..sessions.len()).collect();
    let fleet = Fleet::new(helpers, sessions);
    let mut report = SchedulerReport { workers: helpers + 1, ..Default::default() };
    // The edges — batch submits, run while no step is in flight — are
    // one of the profiled hot phases (no-op when telemetry is disarmed
    // or spans are off).
    let edge_span = || {
        telemetry.and_then(|t| {
            SpanTimer::start_if(t.plan.spans, t.registry.histogram(HistogramId::SpanPhaseFlipUs))
        })
    };
    while !active.is_empty() {
        let round = report.rounds;
        report.rounds += 1;
        let serves = fleet.run_phase(&active, cache, &|session, _, c| body.serve(session, c));
        {
            // Sessions consume the demand outcomes in their windows.
            let _span = edge_span();
            body.close_serve(round);
        }
        let windows =
            fleet.run_phase(&active, cache, &|session, idx, c| body.window(session, idx, c));
        let _span = edge_span();
        // The next round serves against the published membership.
        body.close_window(cache, round);
        let mut verdicts = fleet.more.iter();
        active.retain(|_| verdicts.next().is_some_and(|more| more.load(Ordering::Relaxed)));
        // One park per successful serve (the window boundary) plus
        // one per session surviving the round.
        report.parks += serves.more + windows.more;
        report.steals += serves.migrations + windows.migrations;
    }
    let sessions = fleet
        .slots
        .into_iter()
        .map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner).session)
        .collect();
    (sessions, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// A fleet of `n` idle sessions, `helpers` threads wide besides the caller.
    fn idle_fleet(helpers: usize, n: usize) -> Fleet {
        use crate::prefetcher::NoPrefetch;
        let sessions = (0..n).map(|i| Session::new(i, Box::new(NoPrefetch), Vec::new()));
        Fleet::new(helpers, sessions.collect())
    }

    #[test]
    fn phase_steps_every_position_exactly_once() {
        // Four threads on one cursor. The active list is the slot table
        // reversed, so a verdict filed under the slot index instead of
        // the claimed position cannot pass.
        const POSITIONS: usize = 20_000;
        let fleet = idle_fleet(3, POSITIONS);
        let mut cache = ShardedCache::new(64, 4);
        let active: Vec<usize> = (0..POSITIONS).rev().collect();
        let calls: Vec<AtomicU32> = (0..POSITIONS).map(|_| AtomicU32::new(0)).collect();
        let exclusive = |c: &CacheHandle<'_>| matches!(c, CacheHandle::Exclusive(_));
        let tally = fleet.run_phase(&active, &mut cache, &|_, idx, c| {
            // Helpers share the phase, so every thread locks.
            assert!(!exclusive(c), "a shared phase handed out the exclusive handle");
            calls[idx].fetch_add(1, Ordering::Relaxed);
            idx % 3 == 0
        });
        for (k, &idx) in active.iter().enumerate() {
            assert_eq!(calls[idx].load(Ordering::Relaxed), 1, "slot {idx}");
            assert_eq!(fleet.more[k].load(Ordering::Relaxed), idx % 3 == 0, "position {k}");
        }
        assert_eq!(tally.more, active.iter().filter(|&&idx| idx % 3 == 0).count() as u64);
        // A session starts as the caller's, so the caller alone migrates
        // nothing, and a one-step phase is the caller alone — both own the
        // cache.
        let narrow = idle_fleet(0, 9);
        let tally = narrow.run_phase(&[8, 0, 3], &mut cache, &|_, idx, c| {
            assert!(exclusive(c), "the caller alone got the locking handle");
            idx != 0
        });
        assert_eq!(tally, PhaseTally { more: 2, migrations: 0 });
        assert_eq!(fleet.run_phase(&[7], &mut cache, &|_, _, c| exclusive(c)).more, 1);
    }

    #[test]
    fn held_slot_panics_on_the_caller_and_the_crew_survives() {
        let fleet = idle_fleet(2, 64);
        let mut cache = ShardedCache::new(64, 4);
        let active: Vec<usize> = (0..64).collect();
        let held = fleet.slots[40].lock().unwrap();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            fleet.run_phase(&active, &mut cache, &|_, _, _| true)
        }));
        let payload = caught.expect_err("a doubly-owned slot must abort the phase");
        let message = payload.downcast_ref::<String>().expect("formatted panic message");
        assert!(message.contains("slot 40 owned twice"), "{message}");
        drop(held);
        // Same fleet and cache: the next phase runs every position.
        let tally = fleet.run_phase(&active, &mut cache, &|_, _, _| true);
        assert_eq!(tally.more, 64);
    }

    #[test]
    fn panicking_threads_raise_one_payload_the_callers_first() {
        // A four-thread phase in which every helper step panics and, unless
        // `spare_caller`, the caller's too. The barrier holds each thread
        // inside its first step until all four are there, so the `failed`
        // flag stops none of them early: three or four panics, every time.
        let fleet = idle_fleet(3, 64);
        let mut cache = ShardedCache::new(64, 4);
        let active: Vec<usize> = (0..64).collect();
        let name = || std::thread::current().name().unwrap_or("?").to_owned();
        let mut run = |spare_caller: bool| {
            let all_in = std::sync::Barrier::new(4);
            let caller_in = AtomicBool::new(false);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                fleet.run_phase(&active, &mut cache, &|_, idx, _| {
                    let helper = name().starts_with("scout-sched-");
                    if helper || !caller_in.swap(true, Ordering::Relaxed) {
                        all_in.wait();
                    }
                    if helper || !spare_caller {
                        panic!("step {idx} on {}", name());
                    }
                    true
                })
            }));
            let payload = caught.expect_err("a panicking step must fail the phase");
            // What is left of the failed phase is the poison on the slots
            // whose steps died; a fleet never reruns them, this test does.
            fleet.slots.iter().for_each(Mutex::clear_poison);
            *payload.downcast::<String>().expect("a step's own formatted payload")
        };
        // One payload comes out, a step's own: a helper's when only
        // helpers died, the caller's whenever the caller died too.
        let message = run(true);
        assert!(message.starts_with("step ") && message.contains("scout-sched-"), "{message}");
        let message = run(false);
        assert!(message.starts_with("step ") && !message.contains("scout-sched-"), "{message}");
        // The same fleet then runs all 64 cleanly.
        assert_eq!(fleet.run_phase(&active, &mut cache, &|_, idx, _| idx % 2 == 0).more, 32);
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }

    #[test]
    fn default_parallelism_reads_the_environment_once() {
        // Hot-path dispatch must never touch the env: the first call pins
        // the value for the process, later env changes are invisible.
        let first = default_parallelism();
        std::env::set_var("SCOUT_THREADS", "9731");
        assert_eq!(default_parallelism(), first);
        std::env::remove_var("SCOUT_THREADS");
        assert_eq!(default_parallelism(), first);
    }

    #[test]
    fn bad_thread_pins_degrade_to_serial() {
        assert_eq!(resolve_parallelism(Some("4")), 4);
        assert_eq!(resolve_parallelism(Some(" 2 ")), 2);
        // A set-but-broken pin must mean serial, never full parallelism.
        assert_eq!(resolve_parallelism(Some("0")), 1);
        assert_eq!(resolve_parallelism(Some("")), 1);
        assert_eq!(resolve_parallelism(Some("two")), 1);
        assert!(resolve_parallelism(None) >= 1);
    }
}
