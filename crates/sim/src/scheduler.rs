//! The round engine: one round body and the one loop that drives it, at
//! every width.
//!
//! Every multi-session run is the same bulk-synchronous round (every
//! session's *serve* sub-phase, a phase edge, every session's *window*
//! sub-phase, a phase edge — the structure DESIGN.md §5's determinism
//! ladder rests on). `RoundBody` owns what those steps and edges *do*,
//! including how I/O is submitted; `run_fleet` owns everything else,
//! once, on the calling thread: the active sessions (slot order, a list
//! that only shrinks), the round counter, the edge calls, retirement and
//! the counters of [`SchedulerReport`]. Every session is admitted up
//! front: there is no admission control (DESIGN.md §10 says why).
//!
//! ## Parallel where pure, serial where shared
//!
//! A serve is three pieces. The range query (`Session::begin_serve`) and
//! the prediction (`Session::observe`) read nothing but their own session
//! and the read-only context; the demand reads between them touch the
//! shared cache, the disk clock and the batch lanes. So the serves of a
//! round run block by block, `BLOCK` active sessions at a time, in three
//! passes: the *begin* pass, the caller's *serve* pass in slot order, and
//! (unbatched) the *observe* pass. A pure pass splits its block into at
//! most `width` contiguous chunks: the caller runs the first, helper
//! threads scoped to the pass run the rest. Every window and both edges
//! run on the caller in slot order. Width thus decides only which thread
//! computes a pure result, never the order of a shared operation, so
//! every width replays width 1 byte for byte — under eviction, faults
//! and batching alike — and nothing shared needs a lock. Width 1, and a
//! pass over a single session, runs on the caller alone and starts no
//! thread.
//!
//! ## Panics
//!
//! A pure pass joins every helper, then re-raises the first panic payload
//! — the caller's own first — on the caller, which unwinds out of
//! `run_fleet`. No thread or borrow outlives the pass that made it, so
//! there is nothing left to clean up.
//!
//! ## Thread count
//!
//! [`default_parallelism`] resolves the width
//! [`Schedule::WorkStealing { workers: 0 }`](crate::Schedule) runs at:
//! `std::thread::available_parallelism`.

use crate::batch::BatchCtl;
use crate::context::SimContext;
use crate::executor::{ExecutorConfig, QueryTrace};
use crate::session::Session;
use scout_index::QueryResult;
use scout_storage::ShardedCache;
use scout_telemetry::{HistogramId, MetricsRegistry, SpanTimer};
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};

/// Active sessions per block: the passes of a serve alternate block by
/// block, so the fleet holds this many query results in flight, not one
/// per session.
const BLOCK: usize = 256;

/// The width a work-stealing fleet defaults to: the machine's available
/// parallelism (1 when it cannot be determined).
pub(crate) fn default_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
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
    /// threads each pure pass may spawn.
    pub workers: usize,
    /// Bulk-synchronous rounds executed.
    pub rounds: u64,
    /// Pure steps (range queries and predictions) a helper thread ran
    /// instead of the caller: 0 at width 1, about half of them at width 2.
    /// A per-layer count (`sim.sched.steals_wmax`), not an end-to-end
    /// metric.
    pub steals: u64,
    /// Sessions parked at a phase boundary: steps that left their session
    /// with more to do.
    pub parks: u64,
}

// ---------------------------------------------------------------------------
// The round: one body
// ---------------------------------------------------------------------------

/// What one bulk-synchronous round *does*, and the only place that knows
/// how I/O is submitted: immediately (`batch: None` — each read hits the
/// session's own disk as it is issued, and the phase edges are empty) or
/// phase-scoped (staged into the [`BatchCtl`] lanes and submitted at the
/// edges, DESIGN.md §12). Every method runs on the caller; [`run_fleet`]
/// calls them in the same order per round at every width.
pub(crate) struct RoundBody<'a, 'w> {
    pub(crate) ctx: &'a SimContext<'w>,
    pub(crate) exec: &'a ExecutorConfig,
    pub(crate) batch: Option<&'a mut BatchCtl>,
}

/// One block position's query between the passes of a serve, in the
/// fleet's pool (reused across blocks and rounds, so a result's buffers
/// keep their capacity).
#[derive(Default)]
struct Step {
    result: QueryResult,
    /// The begun query's trace; `None` when the stream was exhausted.
    q: Option<QueryTrace>,
    /// The clock the serve read, stamped on the observe's events.
    t_us: f64,
}

impl RoundBody<'_, '_> {
    /// One session's shared serve step of the query its begin pass
    /// opened in `step`. False = its stream was exhausted and the call
    /// did nothing.
    fn serve(&mut self, session: &mut Session, step: &mut Step, cache: &mut ShardedCache) -> bool {
        let Step { result, q: Some(q), t_us } = step else {
            return false;
        };
        match &mut self.batch {
            None => *t_us = session.serve(result, cache, self.exec, q),
            // The query waits in the session for its demand batch, result
            // and all; the pool slot's next begin overwrites what is left.
            Some(b) => {
                session.serve_stage(cache, &mut b.demand, std::mem::take(result), std::mem::take(q))
            }
        }
        true
    }

    /// One session's window sub-phase. False = the session is done and
    /// retires.
    fn window(&mut self, session: &mut Session, cache: &mut ShardedCache) -> bool {
        match &mut self.batch {
            None => session.finish_window(self.ctx, cache, self.exec),
            Some(b) => {
                session.serve_complete(self.ctx, self.exec, &b.demand);
                session.window_stage(self.ctx, cache, &mut b.window);
            }
        }
        !session.is_done()
    }

    /// Phase edge after every serve of `round`: the staged demand reads
    /// hit the disk.
    fn close_serve(&mut self, round: u64) {
        if let Some(b) = &mut self.batch {
            b.submit_demand(round);
        }
    }

    /// Phase edge after every window of `round`: the staged prefetch
    /// reads hit the disk and publish into the cache. Must complete before
    /// any serve of the next round starts.
    fn close_window(&mut self, cache: &ShardedCache, round: u64) {
        if let Some(b) = &mut self.batch {
            b.submit_window(cache, round);
        }
    }
}

// ---------------------------------------------------------------------------
// A pure pass: contiguous chunks over scoped threads
// ---------------------------------------------------------------------------

/// The position ranges a pure pass over `len` positions hands out at
/// `width`: at most `min(width, len)` of them, non-empty, contiguous and
/// in order, covering `0..len`, their lengths at most one apart. The
/// first is the caller's.
fn chunk_ranges(len: usize, width: usize) -> impl Iterator<Item = Range<usize>> {
    let n = width.clamp(1, len.max(1));
    let (base, extra) = (len / n, len % n);
    let ranges = (0..n).scan(0, move |start, i| {
        let range = *start..*start + base + usize::from(i < extra);
        *start = range.end;
        Some(range)
    });
    ranges.filter(|range| !range.is_empty())
}

/// Runs `step` on every position of `a` and `b` (zipped), the chunks of
/// [`chunk_ranges`] spread over the caller and one scoped helper thread
/// each. Returns how many positions the helpers ran. Every helper is
/// joined before the first panic payload (the caller's own first) is
/// re-raised, so one panic leaves the pass, never two. The scope would
/// join on its own; keeping the payloads fixes *which* one leaves, which
/// `thread::scope` does not document.
fn pure_pass<A: Send, B: Send>(
    width: usize,
    a: &mut [A],
    b: &mut [B],
    step: &(dyn Fn(&mut A, &mut B) + Sync),
) -> u64 {
    debug_assert_eq!(a.len(), b.len());
    let run = |a: &mut [A], b: &mut [B]| a.iter_mut().zip(b).for_each(|(x, y)| step(x, y));
    let mut ranges = chunk_ranges(a.len(), width);
    let own = ranges.next().unwrap_or_default();
    let (own_a, mut rest_a) = a.split_at_mut(own.end);
    let (own_b, mut rest_b) = b.split_at_mut(own.end);
    if rest_a.is_empty() {
        run(own_a, own_b);
        return 0;
    }
    let helped = rest_a.len() as u64;
    let outcome = std::thread::scope(|scope| {
        let helpers: Vec<_> = ranges
            .enumerate()
            .map(|(w, range)| {
                let (chunk_a, tail_a) = std::mem::take(&mut rest_a).split_at_mut(range.len());
                let (chunk_b, tail_b) = std::mem::take(&mut rest_b).split_at_mut(range.len());
                (rest_a, rest_b) = (tail_a, tail_b);
                std::thread::Builder::new()
                    .name(format!("scout-sched-{}", w + 1))
                    .spawn_scoped(scope, move || run(chunk_a, chunk_b))
                    .expect("the OS refused a pure-pass helper thread")
            })
            .collect();
        let mut first = catch_unwind(AssertUnwindSafe(|| run(own_a, own_b)));
        for helper in helpers {
            first = first.and(helper.join());
        }
        first
    });
    if let Err(payload) = outcome {
        resume_unwind(payload);
    }
    helped
}

// ---------------------------------------------------------------------------
// The round loop
// ---------------------------------------------------------------------------

/// Runs a complete multi-session fleet: the one round loop (module
/// docs), on the caller, its pure passes shared by `workers` threads —
/// clamped to at least 1. Returns the sessions in their original order
/// and the run's counters. [`Schedule::RoundRobin`](crate::Schedule) is
/// this call at width 1 with the report dropped, and every width is
/// byte-identical to it. Fleets share nothing: concurrent calls overlap.
/// `cache` is the fleet's; only the caller touches it.
pub(crate) fn run_fleet(
    body: &mut RoundBody<'_, '_>,
    cache: &mut ShardedCache,
    sessions: Vec<Session>,
    workers: usize,
    spans: Option<&MetricsRegistry>,
) -> (Vec<Session>, SchedulerReport) {
    let width = workers.max(1);
    let mut report = SchedulerReport { workers: width, ..Default::default() };
    // The unfinished sessions with their slot indices, in slot order.
    // Exhausted sessions leave it, so a skewed fleet is not
    // O(K × max_rounds) no-op steps.
    let mut active: Vec<(usize, Session)> = sessions.into_iter().enumerate().collect();
    let mut retired = Vec::with_capacity(active.len());
    let mut pool: Vec<Step> =
        std::iter::repeat_with(Step::default).take(active.len().min(BLOCK)).collect();
    let (ctx, exec) = (body.ctx, body.exec);
    let begin = |(_, session): &mut (usize, Session), step: &mut Step| {
        step.q = session.begin_serve(ctx, exec, &mut step.result);
    };
    let observe = |(_, session): &mut (usize, Session), step: &mut Step| {
        if let Some(q) = step.q.take() {
            session.observe(ctx, &step.result, exec, q, step.t_us);
        }
    };
    // The edges — batch submits — are one of the profiled hot phases
    // (no-op when telemetry is disarmed).
    let edge_span = || spans.map(|r| SpanTimer::start(r.histogram(HistogramId::SpanPhaseFlipUs)));
    while !active.is_empty() {
        let round = report.rounds;
        report.rounds += 1;
        for block in active.chunks_mut(BLOCK) {
            let steps = &mut pool[..block.len()];
            report.steals += pure_pass(width, block, steps, &begin);
            for ((_, session), step) in block.iter_mut().zip(steps.iter_mut()) {
                // One park per successful serve (the window boundary).
                report.parks += u64::from(body.serve(session, step, cache));
            }
            if body.batch.is_none() {
                report.steals += pure_pass(width, block, steps, &observe);
            }
        }
        {
            // Sessions consume the demand outcomes in their windows.
            let _span = edge_span();
            body.close_serve(round);
        }
        for (_, session) in &mut active {
            // One park per session surviving the round.
            report.parks += u64::from(body.window(session, cache));
        }
        let _span = edge_span();
        // The next round serves against the published membership.
        body.close_window(cache, round);
        retired.extend(active.extract_if(.., |(_, session)| session.is_done()));
    }
    retired.sort_unstable_by_key(|&(idx, _)| idx);
    (retired.into_iter().map(|(_, session)| session).collect(), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    #[test]
    fn chunk_ranges_cover_every_position_in_order() {
        // Pure arithmetic: no thread starts here, whatever the width.
        for len in [0usize, 1, 2, 3, 7, 255, 256, 1_000] {
            for width in [1usize, 2, 3, 4, 8, 300, usize::MAX] {
                let ranges: Vec<Range<usize>> = chunk_ranges(len, width).collect();
                let at = format!("len {len}, width {width}: {ranges:?}");
                assert_eq!(ranges.len(), width.min(len), "{at}");
                assert!(ranges.iter().all(|r| !r.is_empty()), "{at}");
                let mut next = 0;
                for range in &ranges {
                    assert_eq!(range.start, next, "{at}");
                    next = range.end;
                }
                assert_eq!(next, len, "{at}");
                let lens = ranges.iter().map(Range::len);
                let (lo, hi) = (lens.clone().min(), lens.max());
                assert!(hi.zip(lo).is_none_or(|(hi, lo)| hi - lo <= 1), "{at}");
            }
        }
    }

    /// What one position's step saw: how often it ran, its verdict, and
    /// the thread that ran it.
    type Visit = (u32, bool, Option<ThreadId>);

    #[test]
    fn phase_steps_every_position_exactly_once() {
        // Four threads over 20 000 positions. The positions hold the slot
        // table reversed, so a verdict filed under the slot index instead
        // of the position cannot pass.
        const POSITIONS: usize = 20_000;
        let mut slots: Vec<usize> = (0..POSITIONS).rev().collect();
        let mut visits: Vec<Visit> = vec![(0, false, None); POSITIONS];
        let step = |idx: &mut usize, (calls, more, on): &mut Visit| {
            *calls += 1;
            *more = idx.is_multiple_of(3);
            *on = Some(std::thread::current().id());
        };
        let helped = pure_pass(4, &mut slots, &mut visits, &step);
        let caller = Some(std::thread::current().id());
        for (k, (&idx, visit)) in slots.iter().zip(&visits).enumerate() {
            assert_eq!(visit.0, 1, "slot {idx} at position {k}");
            assert_eq!(visit.1, idx.is_multiple_of(3), "position {k}");
            // The caller runs the first quarter, a helper each other one.
            assert_eq!(visit.2 == caller, k < POSITIONS / 4, "position {k}");
        }
        // What helpers ran is what the pass reports (`steals`).
        assert_eq!(helped, 15_000);
        // Width 1, and a pass over at most one position, run on the
        // caller alone.
        for (width, len) in [(1, 9), (4, 1), (4, 0)] {
            let mut slots: Vec<usize> = (0..len).collect();
            let mut visits: Vec<Visit> = vec![(0, false, None); len];
            assert_eq!(pure_pass(width, &mut slots, &mut visits, &step), 0, "width {width}");
            assert!(visits.iter().all(|v| v.0 == 1 && v.2 == caller), "width {width}");
        }
    }

    #[test]
    fn panicking_threads_raise_one_payload_the_callers_first() {
        // A four-thread pass in which every helper step panics and, unless
        // `spare_caller`, the caller's too. The barrier holds each thread
        // inside its first step until all four are there, so three or four
        // threads panic, every time.
        let mut slots: Vec<usize> = (0..64).collect();
        let mut verdicts = vec![false; 64];
        let name = || std::thread::current().name().unwrap_or("?").to_owned();
        let mut run = |spare_caller: bool| {
            let all_in = std::sync::Barrier::new(4);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                pure_pass(4, &mut slots, &mut verdicts, &|idx: &mut usize, _: &mut bool| {
                    // Position 0 is the caller's first step.
                    let helper = name().starts_with("scout-sched-");
                    if helper || *idx == 0 {
                        all_in.wait();
                    }
                    if helper || !spare_caller {
                        panic!("step {idx} on {}", name());
                    }
                })
            }));
            let payload = caught.expect_err("a panicking step must fail the pass");
            *payload.downcast::<String>().expect("a step's own formatted payload")
        };
        // One payload comes out, a step's own: a helper's when only
        // helpers died, the caller's whenever the caller died too.
        let message = run(true);
        assert!(message.starts_with("step ") && message.contains("scout-sched-"), "{message}");
        let message = run(false);
        assert!(message.starts_with("step ") && !message.contains("scout-sched-"), "{message}");
        // The same positions then run cleanly, all 64.
        pure_pass(4, &mut slots, &mut verdicts, &|idx: &mut usize, more: &mut bool| {
            *more = idx.is_multiple_of(2);
        });
        assert_eq!(verdicts.iter().filter(|&&more| more).count(), 32);
    }

    #[test]
    fn default_parallelism_is_positive() {
        assert!(default_parallelism() >= 1);
    }
}
