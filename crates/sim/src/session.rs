//! One client's seat at the simulator, and the query timeline it steps.
//!
//! A [`Session`] is one client's half of the simulation — everything one user
//! carries: their prefetcher (prediction history), their query stream and
//! cursor, their disk handle (own head position, optionally a clock shared
//! with every other session) and their accumulated trace. The world half —
//! dataset, index, cache — stays in [`SimContext`] and the
//! [`PageCache`] passed to each step.
//!
//! A query executes in two sub-phases, mirroring the Figure-2 timeline:
//! [`Session::serve_observe`] (serve the result, digest it, open the
//! window) and [`Session::finish_window`] (run the prefetch plan until the
//! window closes). [`Session::step`] runs both back-to-back for the
//! single-session case, and [`run_sequence`](crate::run_sequence) is one
//! session stepped to its end over a fresh cache. These steps are the
//! timeline itself; no other module keeps a copy of it.
//!
//! The multi-session engine takes the serve apart (DESIGN.md §10): the
//! range query (`begin_serve`) and the prediction (`observe`) touch only
//! the session and the read-only context, so any thread may run them; the
//! demand reads between them (`serve`, or the batched `serve_stage`) and
//! the windows touch the shared cache, disk clock and batch lanes, and run
//! on the engine's calling thread in session order.

use crate::context::SimContext;
use crate::executor::{ExecutorConfig, QueryTrace, SequenceTrace, ServeOutcome};
use crate::prefetcher::{PrefetchRequest, Prefetcher};
use crate::scratch::QueryScratch;
use crate::telemetry::SessionTelemetry;
use scout_geometry::QueryRegion;
use scout_index::QueryResult;
use scout_storage::{
    DiskModel, FailedRead, FaultReport, IoBatcher, IoStats, PageCache, PageId, ShardedCache,
    SharedClock,
};
use scout_telemetry::{HistogramId, MetricsRegistry};
use std::cell::Cell;
use std::ops::DerefMut;
use std::sync::Arc;

// The buffers a step fills and forgets — `serve_observe`'s query result,
// the batched serve's fan-in of demand outcomes, the page list a window
// resolves a `Region` request into, and the query scratch arena a
// prefetcher's digest fills (DESIGN.md §6) — belong to the thread, not to
// the session: a fleet is thousands of sessions, and only the stepping
// thread needs them. (The engine's own serves keep their results in a
// block-sized pool, in `scheduler.rs`.) A step takes the buffer out and
// puts it back when done. Under `QueryScratch`'s contract — capacity
// carries over, contents never do — a step that panics, or one that runs
// inside another on the same thread, costs the thread its warmed
// capacity and nothing else.
thread_local! {
    static SERVE_RESULT: Cell<QueryResult> =
        const { Cell::new(QueryResult { pages: Vec::new(), objects: Vec::new() }) };
    static FAN_IN: Cell<Vec<(PageId, Result<f64, FailedRead>)>> = const { Cell::new(Vec::new()) };
    static WINDOW_PAGES: Cell<Vec<PageId>> = const { Cell::new(Vec::new()) };
    static SCRATCH: Cell<QueryScratch> = const { Cell::new(QueryScratch::new()) };
}

/// One client: a prefetcher, a query stream, a disk handle and a trace.
///
/// `P` is how the session holds its prefetcher: owned (`Box`, what every
/// public constructor builds) or borrowed from a caller that keeps it
/// across sequences (`&mut dyn Prefetcher`, in `run_sequence`).
pub struct Session<P = Box<dyn Prefetcher>> {
    id: usize,
    /// Tenant (organization/user group) this session bills to: a report
    /// label only — latency is reported per tenant, and the label never
    /// changes the order sessions run in.
    tenant: usize,
    prefetcher: P,
    regions: Vec<QueryRegion>,
    next: usize,
    disk: DiskModel,
    trace: SequenceTrace,
    open: Option<OpenWindow>,
    /// Batched mode only: the query parked between `serve_stage` and
    /// `serve_complete` while its demand batch is in flight.
    pending: Option<PendingServe>,
    /// Batched mode only: demand-lane slots this session recorded in the
    /// current phase (recycled across rounds).
    staged_slots: Vec<u32>,
    /// Flight-recorder arm (DESIGN.md §13); `None` (the default) records
    /// nothing and keeps every path byte-identical to an untelemetered
    /// session.
    telem: Option<SessionTelemetry>,
}

/// A query served but its prefetch window not yet run: the partial trace
/// plus the remaining window budget. `observe` opens it, the window
/// sub-phase runs it.
///
/// Splitting the timeline here is what lets the multi-session executor
/// schedule all sessions' serve phases before any prefetch phase (see
/// DESIGN.md §5): within one round every session's query is served against
/// the cache state left by the *previous* round, independent of session
/// order.
#[derive(Debug)]
struct OpenWindow {
    q: QueryTrace,
    budget_us: f64,
}

/// A query served *into the batcher* but not yet completed: its partial
/// trace and its result (the prefetcher digests it only after the demand
/// batch resolves).
struct PendingServe {
    q: QueryTrace,
    result: QueryResult,
}

impl Session {
    /// A session for one client following `regions` with `prefetcher`.
    ///
    /// The session starts cold with a default disk; an executor calls
    /// [`Session::begin`] before the first step to install the configured
    /// disk (and, in multi-session runs, the shared clock).
    pub fn new(id: usize, prefetcher: Box<dyn Prefetcher>, regions: Vec<QueryRegion>) -> Session {
        Session::with_prefetcher(id, prefetcher, regions)
    }

    /// Assigns this session to a tenant (default 0). Builder-style so
    /// fleet constructors can chain it.
    pub fn with_tenant(mut self, tenant: usize) -> Session {
        self.tenant = tenant;
        self
    }
}

impl<'p, P: DerefMut<Target = dyn Prefetcher + 'p>> Session<P> {
    /// [`Session::new`] over any handle on the prefetcher.
    pub(crate) fn with_prefetcher(id: usize, prefetcher: P, regions: Vec<QueryRegion>) -> Self {
        Session {
            id,
            tenant: 0,
            prefetcher,
            regions,
            next: 0,
            disk: DiskModel::default(),
            trace: SequenceTrace::default(),
            open: None,
            pending: None,
            staged_slots: Vec::new(),
            telem: None,
        }
    }

    /// The session id (stable reporting key, independent of completion
    /// order in multi-worker runs).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The tenant this session bills to.
    pub(crate) fn tenant(&self) -> usize {
        self.tenant
    }

    /// True when every query has fully executed.
    pub fn is_done(&self) -> bool {
        self.next >= self.regions.len() && self.open.is_none() && self.pending.is_none()
    }

    /// Rewinds the session to a cold start: prefetcher history cleared,
    /// cursor at the first query, fresh trace, and a disk built from
    /// `config` (sharing `clock` with sibling sessions when given).
    ///
    /// The prefetcher's recycled buffers keep their capacity across
    /// `begin` calls by design.
    pub fn begin(&mut self, config: &ExecutorConfig, clock: Option<SharedClock>) {
        config.assert_valid();
        self.disk = match clock {
            Some(c) => DiskModel::with_clock(config.disk, c),
            None => DiskModel::new(config.disk),
        };
        if let Some(faults) = config.faults.inject {
            // Salt by session id: siblings sharing one fault seed see
            // distinct (but individually deterministic) fault streams.
            self.disk.enable_faults(faults, self.id as u64);
        }
        self.prefetcher.reset();
        self.trace = SequenceTrace::default();
        self.next = 0;
        self.open = None;
        self.pending = None;
        // Telemetry is armed per run (after `begin`), so a reused session
        // never records into a previous run's ring or registry.
        self.telem = None;
    }

    /// Arms flight-recorder telemetry for this run: events go into a
    /// private ring (stream = session id), spans into the fleet's shared
    /// `registry`. Called by the multi-session engine after
    /// [`Session::begin`]; disarmed sessions record nothing.
    pub(crate) fn arm_telemetry(&mut self, registry: Arc<MetricsRegistry>) {
        self.telem = Some(SessionTelemetry::new(registry, self.id as u32));
    }

    /// Detaches the telemetry arm (fleet teardown collects the ring).
    pub(crate) fn take_telemetry(&mut self) -> Option<SessionTelemetry> {
        self.telem.take()
    }

    /// The simulated now for event timestamps: the shared clock when one
    /// is attached (every multi-session run), 0 otherwise.
    fn now_us(&self) -> f64 {
        self.disk.clock().map_or(0.0, |c| c.now_us())
    }

    /// Serves the next query and lets the prefetcher digest it (timeline
    /// phases 1–2), leaving the prefetch window open. Returns false when
    /// the stream is exhausted (the call is then a no-op, so mixed-length
    /// sessions can share one round loop).
    pub fn serve_observe<C: PageCache>(
        &mut self,
        ctx: &SimContext<'_>,
        cache: &mut C,
        config: &ExecutorConfig,
    ) -> bool {
        let mut result = SERVE_RESULT.take();
        let begun = self.begin_serve(ctx, config, &mut result);
        let served = begun.is_some();
        if let Some(mut q) = begun {
            let t_us = self.serve(&result, cache, config, &mut q);
            self.observe(ctx, &result, config, q, t_us);
        }
        SERVE_RESULT.set(result);
        served
    }

    /// The serve's first, pure piece, where both serve paths — the
    /// immediate one and the batched stage/complete pair — start: the next
    /// query's range query into `result` (replacing its contents),
    /// returning the query's trace stamped with the result's size and the
    /// paper's `d`, or `None` when the stream is exhausted. Reads only the
    /// session's stream and the read-only context.
    pub(crate) fn begin_serve(
        &self,
        ctx: &SimContext<'_>,
        config: &ExecutorConfig,
        result: &mut QueryResult,
    ) -> Option<QueryTrace> {
        debug_assert!(
            self.open.is_none() && self.pending.is_none(),
            "a serve began with a query still in flight"
        );
        let region = self.regions.get(self.next)?;
        ctx.index.range_query_into(ctx.objects, region, result);
        // The paper's d: reading the whole result from disk in retrieval
        // order with a fresh head (independent of cache state). Measured on
        // a clock-less disk — it is a hypothetical, not actual device time.
        let mut fresh = DiskModel::new(config.disk);
        Some(QueryTrace {
            pages_total: result.pages.len(),
            result_objects: result.objects.len(),
            d_ref_us: result.pages.iter().map(|&p| fresh.read_page(p)).sum::<f64>(),
            ..QueryTrace::default()
        })
    }

    /// The serve's shared piece, immediate submission: the begun query's
    /// demand probes and reads through `cache` and the session's disk.
    /// Cache hits are free I/O; misses are the residual I/O the user waits
    /// for. Only *prefetched* pages live in the cache (§7.1: the 4 GB
    /// cache holds prefetched data; result pages stream to the user's
    /// analysis memory), so the hit rate measures prediction accuracy, not
    /// incidental query overlap. Demand reads go through the retrying
    /// verified path: with fault injection disabled that is bit-for-bit a
    /// plain `read_page`; with it enabled, one per-query deadline budget
    /// spans all of the query's retries. Returns the clock reading its
    /// telemetry events carry.
    pub(crate) fn serve<C: PageCache>(
        &mut self,
        result: &QueryResult,
        cache: &mut C,
        config: &ExecutorConfig,
        q: &mut QueryTrace,
    ) -> f64 {
        let _span = self.telem.as_ref().map(|t| t.span(HistogramId::SpanServeUs));
        self.disk.begin_query(self.next as u64);
        let retry = &config.faults.retry;
        let mut deadline_us = retry.deadline_us;
        for &page in &result.pages {
            if cache.access(page) {
                q.pages_hit += 1;
                self.trace.io.result_pages_cache += 1;
            } else {
                let read = self.disk.read_page_retrying(page, retry, &mut deadline_us);
                if !charge_demand(read, q, &mut self.trace.io) {
                    break;
                }
            }
        }
        self.now_us()
    }

    /// The serve's last, pure piece (phase 2 plus the window budget), the
    /// tail of every serve path: with every demand read booked, the
    /// result's processing cost lands on the response, the prefetcher
    /// digests the served result and the window opens; telemetry stamps
    /// the serve's events with `t_us`, the clock its shared piece read.
    pub(crate) fn observe(
        &mut self,
        ctx: &SimContext<'_>,
        result: &QueryResult,
        config: &ExecutorConfig,
        mut q: QueryTrace,
        t_us: f64,
    ) {
        // CPU cost of processing the result pages (charged to response).
        q.residual_us += q.pages_total as f64 * config.costs.page_process_us;
        // A failed query ends its timeline here: the user saw an error, so
        // there is no result to digest and no window to run.
        let budget_us = if q.outcome.is_failed() {
            0.0
        } else {
            // (2) Prediction, in the thread's scratch arena.
            let region = &self.regions[self.next];
            let mut scratch = SCRATCH.take();
            q.prediction = self.prefetcher.observe_with_scratch(ctx, region, result, &mut scratch);
            SCRATCH.set(scratch);
            q.graph_build_us = config.costs.graph_build_us(&q.prediction.cpu);
            q.prediction_us = config.costs.prediction_us(&q.prediction.cpu);

            // Open the prefetch window. Graph building is interleaved with
            // result retrieval (§4: "while the result is read, the graph is
            // already assembled"), so only the part exceeding the retrieval
            // time delays the window; traversal/prediction always does —
            // unless the method overlaps prediction with retrieval entirely
            // (SCOUT-OPT, §6.2).
            q.window_us = config.window_ratio * q.d_ref_us;
            let prediction_delay = if self.prefetcher.overlaps_prediction() {
                0.0
            } else {
                (q.graph_build_us - q.residual_us).max(0.0) + q.prediction_us
            };
            (q.window_us - prediction_delay).max(0.0)
        };
        if self.telem.is_some() {
            let faults = self.disk.fault_report();
            if let Some(tm) = &mut self.telem {
                tm.note_query_served(t_us, self.next as u32, &q);
                tm.note_retries(t_us, faults);
                tm.note_window_opened(t_us, budget_us);
            }
        }
        self.open = Some(OpenWindow { q, budget_us });
    }

    /// Runs the open prefetch window to completion (timeline phase 3) and
    /// commits the query's trace. No-op when no window is open.
    ///
    /// `_config` is unused — the window's budget was fixed when the serve
    /// opened it — and stays because the call is public surface: the
    /// repo's benchmark adapter passes it.
    pub fn finish_window<C: PageCache>(
        &mut self,
        ctx: &SimContext<'_>,
        cache: &mut C,
        _config: &ExecutorConfig,
    ) {
        self.close_window(|prefetcher, window, disk, stats, region_pages| {
            let mut io = ImmediateIo { cache, disk, stats };
            run_prefetch_window(ctx, prefetcher, window, &mut io, region_pages)
        });
    }

    /// The window sub-phase around `run` (which walks the plan through
    /// one submission mode): the disk's breaker gate before it, the end of
    /// the disk's query and the telemetry epilogue after it, then the
    /// query's trace is committed. No-op when no window is open.
    fn close_window(
        &mut self,
        run: impl FnOnce(
            &mut dyn Prefetcher,
            OpenWindow,
            &mut DiskModel,
            &mut IoStats,
            &mut Vec<PageId>,
        ) -> QueryTrace,
    ) {
        let Some(window) = self.open.take() else {
            return;
        };
        let allowed = self.disk.allow_prefetch(window.q.outcome.is_failed());
        let q = if allowed {
            let _span = self.telem.as_ref().map(|t| t.span(HistogramId::SpanWindowUs));
            let mut region_pages = WINDOW_PAGES.take();
            let q = run(
                &mut *self.prefetcher,
                window,
                &mut self.disk,
                &mut self.trace.io,
                &mut region_pages,
            );
            WINDOW_PAGES.set(region_pages);
            q
        } else {
            // Breaker open: prefetching (optional work) is shed for this
            // query; demand serving continues unchanged.
            window.q
        };
        self.disk.end_query();
        if self.telem.is_some() {
            let t = self.now_us();
            if let Some(tm) = &mut self.telem {
                if allowed {
                    tm.note_window_closed(t, q.prefetch_pages, q.gap_pages);
                } else {
                    let trips = self.disk.fault_report().map_or(0, |f| f.breaker_trips);
                    tm.note_window_shed(t, trips);
                }
            }
        }
        self.trace.queries.push(q);
        self.next += 1;
    }

    /// Batched timeline phase 1a, the shared piece of a begun query
    /// (`begin_serve`): classifies its result pages — cache hits count
    /// immediately; misses are staged into the fleet's demand batcher,
    /// coalescing with siblings' requests for the same page — and parks
    /// the query, result and all, until the batch resolves.
    pub(crate) fn serve_stage(
        &mut self,
        cache: &ShardedCache,
        batch: &mut IoBatcher,
        result: QueryResult,
        mut q: QueryTrace,
    ) {
        let _span = self.telem.as_ref().map(|t| t.span(HistogramId::SpanServeUs));
        self.disk.begin_query(self.next as u64);
        self.staged_slots.clear();
        let mut coalesced = 0u64;
        for &page in &result.pages {
            // Batcher first: a staged page cannot be cached (its
            // first toucher just missed it, and inserts only land at
            // phase flips), so a duplicate costs one table probe
            // instead of a cache access.
            if batch.contains(page) {
                let (slot, _) = batch.stage(page);
                coalesced += 1;
                self.staged_slots.push(slot);
            } else if cache.access(page) {
                q.pages_hit += 1;
                self.trace.io.result_pages_cache += 1;
            } else {
                // `access` above counted the unique physical miss;
                // the waiters behind it count as coalesced hits.
                let (slot, _) = batch.stage(page);
                self.staged_slots.push(slot);
            }
        }
        if coalesced > 0 {
            cache.note_coalesced_hits(coalesced);
        }
        self.pending = Some(PendingServe { q, result });
    }

    /// Batched phase 1b, after the demand batch resolved: fans this
    /// session's outcomes back in — a failed physical read is retried on
    /// the session's *own* disk (per-waiter retries, per-waiter deadline)
    /// — charges the residual, digests the result, and opens the prefetch
    /// window. No-op when nothing is pending.
    pub(crate) fn serve_complete(
        &mut self,
        ctx: &SimContext<'_>,
        config: &ExecutorConfig,
        demand: &IoBatcher,
    ) {
        let Some(PendingServe { mut q, result }) = self.pending.take() else {
            return;
        };
        let mut fetched = FAN_IN.take();
        demand.copy_outcomes(&self.staged_slots, &mut fetched);
        let retry = &config.faults.retry;
        let mut deadline_us = retry.deadline_us;
        for &(page, outcome) in &fetched {
            let served = outcome.or_else(|first| {
                self.disk.resume_read_retrying(page, first, retry, &mut deadline_us)
            });
            if !charge_demand(served, &mut q, &mut self.trace.io) {
                break;
            }
        }
        FAN_IN.set(fetched);
        let t_us = self.now_us();
        self.observe(ctx, &result, config, q, t_us);
    }

    /// Batched phase 3: stages the open window's prefetch plan into the
    /// fleet's window batcher and commits the query's trace; the physical
    /// reads (and cache inserts) land at the phase flip. No-op when no
    /// window is open.
    pub(crate) fn window_stage(
        &mut self,
        ctx: &SimContext<'_>,
        cache: &ShardedCache,
        batcher: &mut IoBatcher,
    ) {
        self.close_window(|prefetcher, window, disk, _, region_pages| {
            let mut io = StagedIo { cache, disk, batcher };
            run_prefetch_window(ctx, prefetcher, window, &mut io, region_pages)
        });
    }

    /// Executes one full query (both sub-phases). Returns false when the
    /// stream was already exhausted.
    pub fn step<C: PageCache>(
        &mut self,
        ctx: &SimContext<'_>,
        cache: &mut C,
        config: &ExecutorConfig,
    ) -> bool {
        if !self.serve_observe(ctx, cache, config) {
            return false;
        }
        self.finish_window(ctx, cache, config);
        true
    }

    /// The trace accumulated so far.
    pub fn trace(&self) -> &SequenceTrace {
        &self.trace
    }

    // Pinned like `GraphBuildCounters` (`benchmark/src/adapter.rs` line
    // 471, ROADMAP item 1(b)); always `None`.
    #[doc(hidden)]
    pub fn graph_cache_counters(&self) -> Option<crate::prefetcher::GraphBuildCounters> {
        self.prefetcher.graph_cache_counters()
    }

    /// This session's fault-layer counters, `None` while fault injection
    /// is disabled.
    pub fn fault_report(&self) -> Option<FaultReport> {
        self.disk.fault_report()
    }

    /// Consumes the session, yielding its id and trace (with the fault
    /// report stamped in when injection was enabled).
    pub(crate) fn into_trace(mut self) -> (usize, SequenceTrace) {
        self.trace.faults = self.disk.fault_report();
        (self.id, self.trace)
    }
}

/// Books one demand read's outcome: a served page adds its latency to the
/// residual; the first unrecoverable read fails the *query* (the user got
/// an error, not a page stream) instead of panicking the engine. Returns
/// false when the query just failed, so the caller skips its remaining
/// pages.
fn charge_demand(outcome: Result<f64, FailedRead>, q: &mut QueryTrace, io: &mut IoStats) -> bool {
    match outcome {
        Ok(t) => {
            q.residual_us += t;
            io.result_pages_disk += 1;
            io.residual_io_us += t;
            true
        }
        Err(failed) => {
            q.residual_us += failed.latency_us;
            io.residual_io_us += failed.latency_us;
            q.outcome = ServeOutcome::Failed(failed.error);
            false
        }
    }
}

/// How a prefetch window's reads reach the device — the one thing the two
/// submission modes of phase (3) disagree on. [`run_prefetch_window`]
/// owns the plan walk and the budget; an implementation owns the cache,
/// the disk and the bookkeeping of what a read cost.
trait WindowIo {
    /// True when `page` needs no read from this window. `&mut` to match
    /// [`PageCache::contains`], so an owned cache probes without a lock.
    fn resident(&mut self, page: PageId) -> bool;
    /// What reading `page` next would cost, committing nothing.
    fn peek_us(&self, page: PageId) -> f64;
    /// Issues the read. `Ok(t)`: the page counts as prefetched and the
    /// window spent `t`; `Err(t)`: the read failed, was dropped, and
    /// still burned `t` of the window.
    fn issue(&mut self, page: PageId, is_gap: bool) -> Result<f64, f64>;
}

/// Immediate submission: each read hits the session's disk now and a
/// success is inserted into the cache on the spot.
struct ImmediateIo<'a, C: PageCache> {
    cache: &'a mut C,
    disk: &'a mut DiskModel,
    stats: &'a mut IoStats,
}

impl<C: PageCache> WindowIo for ImmediateIo<'_, C> {
    fn resident(&mut self, page: PageId) -> bool {
        self.cache.contains(page)
    }

    fn peek_us(&self, page: PageId) -> f64 {
        self.disk.peek_read_us(page)
    }

    fn issue(&mut self, page: PageId, is_gap: bool) -> Result<f64, f64> {
        // Verified single attempt (attempt 0 = the prefetch stream):
        // prefetching is optional work, so a failed speculative read is
        // dropped — never retried — and the page falls back to on-demand
        // serving if the user actually needs it. The window still burned
        // the failed attempt's device time. A straggler can overdraw the
        // budget it was admitted under (the read was already issued when
        // it straggled); the walk then closes.
        match self.disk.try_read_page(page, 0) {
            Ok(t) => {
                self.cache.insert(page);
                self.stats.prefetch_io_us += t;
                self.stats.prefetch_pages_disk += 1;
                if is_gap {
                    self.stats.gap_pages_disk += 1;
                }
                Ok(t)
            }
            Err(failed) => {
                self.disk.note_dropped_prefetch();
                Err(failed.latency_us)
            }
        }
    }
}

/// Phase-scoped submission: reads are staged into the fleet's window-lane
/// batcher and the window spends seek *estimates* from the session's own
/// head position ([`DiskModel::peek_read_us`]); the physical cost is paid
/// once, by the elevator-ordered batch read at the phase flip. A page
/// already staged by a sibling session this phase is resident — its batch
/// insert makes it visible to every next-round serve, mirroring the
/// immediate cache-`contains` skip. Staging never fails, so the trace's
/// `prefetch_pages`/`gap_pages` count *staged* pages: a staged read that
/// fails at submission is dropped like an immediate speculative failure.
/// No session's `IoStats` are credited with the batch's reads.
struct StagedIo<'a> {
    cache: &'a ShardedCache,
    disk: &'a DiskModel,
    batcher: &'a mut IoBatcher,
}

impl WindowIo for StagedIo<'_> {
    fn resident(&mut self, page: PageId) -> bool {
        self.cache.contains(page) || self.batcher.contains(page)
    }

    fn peek_us(&self, page: PageId) -> f64 {
        self.disk.peek_read_us(page)
    }

    fn issue(&mut self, page: PageId, _is_gap: bool) -> Result<f64, f64> {
        let staged = self.batcher.try_stage(page, 0, false);
        debug_assert!(staged, "page was absent from the batcher a line ago");
        Ok(self.disk.peek_read_us(page))
    }
}

/// Phase (3): walks the prefetcher's prioritized plan, issuing reads
/// through `io` until the window budget runs out, completing the query's
/// trace. `region_pages` is where a [`PrefetchRequest::Region`] is
/// resolved to pages: caller-owned so its capacity outlives the window,
/// its contents mean nothing on entry or exit.
fn run_prefetch_window(
    ctx: &SimContext<'_>,
    prefetcher: &mut dyn Prefetcher,
    window: OpenWindow,
    io: &mut impl WindowIo,
    region_pages: &mut Vec<PageId>,
) -> QueryTrace {
    let OpenWindow { mut q, budget_us: mut budget } = window;
    if q.outcome.is_failed() {
        // The serve phase aborted the query; there is no prediction state
        // to plan from.
        return q;
    }
    let plan = prefetcher.plan(ctx);
    'window: for request in &plan.requests {
        let (pages, is_gap) = match request {
            PrefetchRequest::Region(r) => {
                ctx.index.pages_in_region_into(r.aabb(), region_pages);
                (&*region_pages, false)
            }
            PrefetchRequest::Pages(p) => (p, false),
            PrefetchRequest::GapPages(p) => (p, true),
        };
        for &page in pages {
            if io.resident(page) {
                continue;
            }
            // Cost the read before committing it: a read the window cannot
            // afford never happens, so it must not move the head, count as
            // a device read, or advance the shared clock (which would
            // inflate the multi-session disk-busy metric).
            if io.peek_us(page) > budget {
                break 'window; // the user issued the next query
            }
            match io.issue(page, is_gap) {
                Ok(t) => {
                    budget -= t;
                    q.prefetch_pages += 1;
                    if is_gap {
                        q.gap_pages += 1;
                    }
                }
                Err(t) => {
                    budget -= t;
                    if budget <= 0.0 {
                        break 'window;
                    }
                }
            }
        }
    }
    q
}

/// Sessions cross threads in the engine's pure passes. (Compile-time
/// check; holds because `Prefetcher: Send` and all other fields are owned
/// plain data.)
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prefetcher::NoPrefetch;
    use scout_geometry::{Aabb, Aspect, ObjectId, Shape, SpatialObject, StructureId, Vec3};
    use scout_index::RTree;
    use scout_storage::PrefetchCache;

    fn dataset() -> Vec<SpatialObject> {
        (0..200)
            .map(|i| {
                SpatialObject::new(
                    ObjectId(i),
                    StructureId(0),
                    Shape::Point(Vec3::new(i as f64, 0.5, 0.5)),
                )
            })
            .collect()
    }

    fn regions(n: usize) -> Vec<QueryRegion> {
        (0..n)
            .map(|i| {
                QueryRegion::new(Vec3::new(10.0 + i as f64 * 15.0, 0.5, 0.5), 1_000.0, Aspect::Cube)
            })
            .collect()
    }

    #[test]
    fn exhausted_session_steps_are_noops() {
        let objs = dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(200.0)));
        let config = ExecutorConfig::default();
        let mut session = Session::new(3, Box::new(NoPrefetch), regions(2));
        session.begin(&config, None);
        let mut cache = PrefetchCache::new(64);
        assert!(session.step(&ctx, &mut cache, &config));
        assert!(session.step(&ctx, &mut cache, &config));
        assert!(!session.step(&ctx, &mut cache, &config));
        session.finish_window(&ctx, &mut cache, &config); // no-op
        assert_eq!(session.trace().queries.len(), 2);
        assert_eq!(session.id(), 3);
    }

    #[test]
    fn begin_restarts_cold() {
        let objs = dataset();
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let ctx = SimContext::new(&objs, &tree, Aabb::new(Vec3::ZERO, Vec3::splat(200.0)));
        let config = ExecutorConfig::default();
        let mut session = Session::new(0, Box::new(NoPrefetch), regions(3));
        session.begin(&config, None);
        let mut cache = PrefetchCache::new(64);
        while session.step(&ctx, &mut cache, &config) {}
        let first = session.trace().total_response_us();
        session.begin(&config, None);
        assert_eq!(session.trace().queries.len(), 0);
        let mut cache = PrefetchCache::new(64);
        while session.step(&ctx, &mut cache, &config) {}
        assert!((session.trace().total_response_us() - first).abs() < 1e-9);
    }
}
