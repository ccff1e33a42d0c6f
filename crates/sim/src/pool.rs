//! The scheduler's crew of parked worker threads.
//!
//! The round loop (`scheduler.rs`) runs each phase of a fleet wider than
//! 1 — two per round — as one job on W threads. `std::thread::scope`
//! would be the obvious std-only primitive, but it spawns (and therefore
//! heap-allocates) worker threads on every call: a spawn per phase.
//! Instead a `Crew` keeps its workers parked (until it is dropped; the
//! global scheduler's crew lives for the process) and hands them one job
//! at a time through a mutex/condvar pair: dispatching a job performs no
//! allocation at all, and a job for zero workers is a plain call.
//!
//! ## Panics
//!
//! A panic anywhere in a job — on the caller's side or a worker's — is
//! caught, the dispatch still joins every worker (the closure lives on the
//! caller's stack, so unwinding past the join would leave workers
//! dereferencing a dead frame), and the payload is then re-raised on the
//! caller. Workers survive job panics; the crew remains usable.
//!
//! ## Thread count
//!
//! [`default_parallelism`] resolves the width
//! [`Schedule::WorkStealing { workers: 0 }`](crate::Schedule) runs at: the
//! `SCOUT_THREADS` environment variable when set (`1` keeps every phase on
//! the calling thread — the CI equivalence job; a set-but-invalid value
//! warns and pins 1 too), otherwise `std::thread::available_parallelism`.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Locks `m`, recovering the guard when a previous holder panicked.
///
/// Every critical section in this crate's crew machinery leaves its state
/// consistent at each point it could unwind (single-field writes, counter
/// updates completed before any call that can panic), so a poisoned mutex
/// only records *that* a sibling died, not a broken invariant. Recovering
/// instead of unwrapping keeps one session's panic from cascading into a
/// second panic on every later dispatch — the containment contract the
/// scheduler tests (`panicking_session_does_not_deadlock_the_fleet`)
/// pin down.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A job handed to the workers: a type-erased `Fn(part)` living on the
/// dispatching caller's stack. The raw pointer is only dereferenced
/// between job publication and the final `remaining == 0` handshake, both
/// of which happen inside [`Crew::dispatch`] while that call is still on
/// the stack, so the pointee outlives every use.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

impl Job {
    /// Erases the borrow lifetime of `f` so workers can hold it. The
    /// caller must keep `f` alive until every participating worker has
    /// finished its part (the `remaining == 0` join handshake).
    fn erase<'f>(f: &'f (dyn Fn(usize) + Sync)) -> Job {
        Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + 'f),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f)
        })
    }
}

// SAFETY: the pointee is `Sync` (asserted by the constructor's bound) and
// the dispatch protocol bounds its lifetime as described above.
unsafe impl Send for Job {}

struct PoolState {
    /// Monotone job counter; a worker runs a job exactly once by
    /// remembering the last epoch it served.
    epoch: u64,
    /// The published job, `None` between dispatches.
    job: Option<Job>,
    /// Worker ids `1..=active` participate in the current epoch.
    active: usize,
    /// Participating workers that have not finished their part yet.
    remaining: usize,
    /// First panic payload caught on a worker this epoch; the dispatcher
    /// re-raises it after the join.
    panic: Option<Box<dyn Any + Send>>,
    /// Set by `Drop`; workers exit their loop when they observe it.
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers sleep here for the next epoch.
    work_cv: Condvar,
    /// The dispatcher sleeps here for `remaining == 0`.
    done_cv: Condvar,
}

/// A lazily grown crew of parked worker threads and the one dispatch
/// handshake that hands them a job: the mechanism under the session
/// scheduler (`scheduler.rs`), which dispatches once per phase and
/// serializes wide fleets with a lock held across their dispatches; the
/// crew itself assumes one dispatcher at a time.
pub(crate) struct Crew {
    /// Leaked to `'static` so an exiting worker never dangles (a few
    /// hundred bytes per crew for the life of the process).
    shared: &'static PoolShared,
    /// Workers spawned so far (lazily grown, never shrunk).
    spawned: Mutex<usize>,
    /// Thread-name prefix; worker `id` is named `{name}-{id}`.
    name: &'static str,
}

impl std::fmt::Debug for Crew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Crew")
            .field("name", &self.name)
            .field("spawned", &*lock_unpoisoned(&self.spawned))
            .finish()
    }
}

impl Crew {
    /// A crew with no workers yet.
    pub(crate) fn new(name: &'static str) -> Crew {
        let shared = Box::leak(Box::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                active: 0,
                remaining: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        }));
        Crew { shared, spawned: Mutex::new(0), name }
    }

    /// Grows the crew toward `wanted` workers and returns how many of
    /// them exist (`<= wanted`). A failed spawn stops the growth instead
    /// of panicking: resource exhaustion degrades the caller's width.
    pub(crate) fn ensure(&self, wanted: usize) -> usize {
        let mut spawned = lock_unpoisoned(&self.spawned);
        while *spawned < wanted {
            let id = *spawned + 1; // worker ids are 1-based; 0 is the caller
            let shared = self.shared;
            let builder = std::thread::Builder::new().name(format!("{}-{id}", self.name));
            if builder.spawn(move || worker_loop(shared, id)).is_err() {
                break;
            }
            *spawned += 1;
        }
        (*spawned).min(wanted)
    }

    /// Runs `f(1) … f(workers)` on the crew and `caller()` on this thread,
    /// returning when all of them have finished. `workers` must not exceed
    /// what [`Crew::ensure`] reported, and dispatches must not overlap
    /// (the owner serializes them with its dispatch lock).
    ///
    /// A panic on either side is caught, the join still completes —
    /// unwinding past it would destroy `f`'s stack frame while workers
    /// still dereference the type-erased pointer — and the payload (the
    /// caller's first) is re-raised afterwards. Workers survive job
    /// panics; the crew remains usable. Performs no heap allocation.
    pub(crate) fn dispatch(
        &self,
        workers: usize,
        f: &(dyn Fn(usize) + Sync),
        caller: impl FnOnce(),
    ) {
        if workers == 0 {
            // Nobody to wake: the job is the caller's part.
            return caller();
        }
        // Erase the borrow lifetime for the workers; the join handshake
        // below keeps the pointee alive across every dereference (see
        // `Job`).
        let job = Job::erase(f);
        {
            let mut state = lock_unpoisoned(&self.shared.state);
            state.job = Some(job);
            state.active = workers;
            state.remaining = workers;
            state.epoch += 1;
            self.shared.work_cv.notify_all();
        }
        let caller = catch_unwind(AssertUnwindSafe(caller));
        let mut state = lock_unpoisoned(&self.shared.state);
        while state.remaining > 0 {
            state = self.shared.done_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        state.job = None;
        let worker_panic = state.panic.take();
        drop(state);
        if let Err(payload) = caller {
            resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            resume_unwind(payload);
        }
    }
}

impl Drop for Crew {
    /// Signals the workers to exit. `Drop` takes `&mut self`, so no
    /// dispatch can be in flight: parked workers wake, observe
    /// `shutdown`, and return. Only the `PoolShared` allocation itself
    /// is leaked (so a worker mid-wakeup never dangles); a process-global
    /// owner is never dropped and its workers live for the process.
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.shared.state);
        state.shutdown = true;
        self.shared.work_cv.notify_all();
    }
}

fn worker_loop(shared: &'static PoolShared, id: usize) {
    let mut last_epoch = 0u64;
    loop {
        let job = {
            let mut state = lock_unpoisoned(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != last_epoch {
                    last_epoch = state.epoch;
                    if id <= state.active {
                        break state.job.expect("job published with epoch");
                    }
                    // Not participating this epoch; keep waiting.
                }
                state = shared.work_cv.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        // SAFETY: the dispatcher keeps the closure alive until
        // `remaining` drops to zero, which happens strictly after this
        // call returns. Panics are caught so `remaining` is decremented
        // unconditionally — a dying worker would otherwise leave the
        // dispatcher (and every later dispatch) waiting forever. The
        // payload is handed to the dispatcher, which re-raises it.
        let outcome = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(id) }));
        let mut state = lock_unpoisoned(&shared.state);
        if let Err(payload) = outcome {
            state.panic.get_or_insert(payload);
        }
        state.remaining -= 1;
        if state.remaining == 0 {
            shared.done_cv.notify_one();
        }
    }
}

/// The crew width a work-stealing fleet defaults to: `SCOUT_THREADS`
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
                // Routed through the telemetry warning hook: counted
                // always, recorded as an event when a sink is armed, and
                // — the disarmed default — printed to stderr with the
                // exact bytes the historical `eprintln!` produced.
                scout_telemetry::emit_warning(
                    scout_telemetry::WARN_INVALID_SCOUT_THREADS,
                    &format!(
                        "SCOUT_THREADS={v:?} is not a positive integer; \
                         pinning serial (SCOUT_THREADS=1)"
                    ),
                );
                1
            }
        },
        None => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Runs `f(0)` on the caller and `f(1) … f(workers)` on the crew — the
    /// shape the scheduler dispatches a phase in.
    fn run(crew: &Crew, workers: usize, f: &(dyn Fn(usize) + Sync)) {
        assert_eq!(crew.ensure(workers), workers);
        crew.dispatch(workers, f, || f(0));
    }

    #[test]
    fn runs_every_part_exactly_once() {
        let crew = Crew::new("test-crew");
        // Widths in no order: a crew grown to 3 also serves 0 and 2, the
        // surplus workers sitting the epoch out.
        for workers in [1usize, 3, 2, 0, 3] {
            let hits: Vec<AtomicUsize> = (0..=workers).map(|_| AtomicUsize::new(0)).collect();
            run(&crew, workers, &|p| {
                hits[p].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "workers={workers}");
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        // Width 0 never spawns: the dispatch is the caller's closure.
        let crew = Crew::new("test-crew");
        let sum = AtomicUsize::new(0);
        run(&crew, 0, &|p| {
            sum.fetch_add(p + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1);
        assert_eq!(*crew.spawned.lock().unwrap(), 0);
    }

    #[test]
    fn sequential_runs_reuse_workers() {
        let crew = Crew::new("test-crew");
        // Warm up, then check no new workers appear across further runs.
        run(&crew, 2, &|_| {});
        assert_eq!(*crew.spawned.lock().unwrap(), 2);
        for _ in 0..50 {
            run(&crew, 2, &|_| {});
        }
        assert_eq!(*crew.spawned.lock().unwrap(), 2);
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
        // A set-but-broken pin must mean serial, never full parallelism —
        // and each botched pin must land in the telemetry warning counter.
        let before = scout_telemetry::warning_count();
        assert_eq!(resolve_parallelism(Some("0")), 1);
        assert_eq!(resolve_parallelism(Some("")), 1);
        assert_eq!(resolve_parallelism(Some("two")), 1);
        assert_eq!(scout_telemetry::warning_count() - before, 3);
        assert!(resolve_parallelism(None) >= 1);
    }

    #[test]
    fn caller_panic_joins_workers_and_propagates() {
        let crew = Crew::new("test-crew");
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run(&crew, 2, &|p| {
                if p == 0 {
                    panic!("caller part");
                }
            });
        }));
        assert!(caught.is_err());
        // The crew must stay usable after the re-raise.
        let hits = AtomicUsize::new(0);
        run(&crew, 2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn worker_panic_propagates_without_deadlock() {
        let crew = Crew::new("test-crew");
        run(&crew, 2, &|_| {}); // warm the crew
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            // A worker panic must surface on the caller, not hang the join.
            run(&crew, 2, &|p| {
                if p == 2 {
                    panic!("worker part");
                }
            });
        }));
        assert!(caught.is_err());
        // The worker survived and later dispatches still run every part.
        let hits = AtomicUsize::new(0);
        for _ in 0..10 {
            run(&crew, 2, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(hits.load(Ordering::Relaxed), 30);
    }

    #[test]
    fn dropping_a_pool_shuts_workers_down() {
        let crew = Crew::new("test-crew");
        run(&crew, 2, &|_| {}); // spawn the workers
        drop(crew); // must not hang; workers observe shutdown and exit
    }
}
