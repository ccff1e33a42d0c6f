//! One client's seat at the simulator.
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
//! window closes). The multi-session executor interleaves these across
//! sessions; [`Session::step`] runs both back-to-back for the
//! single-session case, and [`run_sequence`](crate::run_sequence) is one
//! session stepped to its end over a fresh cache.

use crate::context::SimContext;
use crate::executor::{
    begin_query, charge_demand, observe_and_open, run_prefetch_window, serve_demand,
    ExecutorConfig, FaultCtl, ImmediateIo, OpenWindow, QueryTrace, SequenceTrace, StagedIo,
};
use crate::prefetcher::Prefetcher;
use crate::scheduler::lock_unpoisoned;
use crate::telemetry::SessionTelemetry;
use scout_geometry::QueryRegion;
use scout_index::QueryResult;
use scout_storage::{
    DiskModel, FailedRead, FaultReport, IoBatcher, IoStats, PageCache, PageId, SharedClock,
};
use scout_telemetry::{HistogramId, MetricsRegistry};
use std::cell::Cell;
use std::ops::DerefMut;
use std::sync::{Arc, Mutex};

// The buffers a step fills and forgets — the served query's result, the
// batched serve's fan-in of demand outcomes, and the page list a window
// resolves a `Region` request into — belong to the thread, not to the
// session: a fleet is thousands of sessions stepped by a handful of
// threads, and only the stepping one needs them. (The query scratch arena
// is a fourth, in `executor.rs`.) A step takes the buffer out and puts it
// back when done. Under `QueryScratch`'s contract — capacity carries over,
// contents never do — a step that panics, or one that runs inside another
// on the same thread, costs the thread its warmed capacity and nothing
// else.
thread_local! {
    static SERVE_RESULT: Cell<QueryResult> =
        const { Cell::new(QueryResult { pages: Vec::new(), objects: Vec::new() }) };
    static FAN_IN: Cell<Vec<(PageId, Result<f64, FailedRead>)>> = const { Cell::new(Vec::new()) };
    static WINDOW_PAGES: Cell<Vec<PageId>> = const { Cell::new(Vec::new()) };
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
    /// Degradation-ladder state (circuit breaker, failed-query counters).
    /// Every touch is a no-op while the disk is fault-free.
    faultctl: FaultCtl,
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
            faultctl: FaultCtl::new(&ExecutorConfig::default()),
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
        self.faultctl = FaultCtl::new(config);
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

    /// Scheduler hook: the session migrated onto `worker`.
    pub(crate) fn note_stolen(&mut self, worker: u32) {
        let t = self.now_us();
        if let Some(tm) = &mut self.telem {
            tm.note_stolen(t, worker);
        }
    }

    /// Scheduler hook: the session parked at a phase boundary on `worker`.
    pub(crate) fn note_parked(&mut self, worker: u32) {
        let t = self.now_us();
        if let Some(tm) = &mut self.telem {
            tm.note_parked(t, worker);
        }
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
        debug_assert!(self.open.is_none(), "serve_observe called with a window still open");
        let Some(region) = self.regions.get(self.next) else {
            return false;
        };
        self.faultctl.begin_query(&mut self.disk, self.next as u64);
        let window = {
            let _span = self.telem.as_ref().map(|t| t.span(HistogramId::SpanServeUs));
            let mut result = SERVE_RESULT.take();
            let mut q = begin_query(ctx, region, config, &mut result);
            serve_demand(&result, cache, &mut self.disk, config, &mut q, &mut self.trace.io);
            let window = observe_and_open(ctx, &mut *self.prefetcher, region, &result, config, q);
            SERVE_RESULT.set(result);
            window
        };
        self.end_serve(window);
        true
    }

    /// The serve epilogue every path ends in: the fault ladder learns the
    /// outcome, telemetry records the served query and its retries, and
    /// the window is left open for the window sub-phase.
    fn end_serve(&mut self, window: OpenWindow) {
        self.faultctl.note_served(&window.q);
        if self.telem.is_some() {
            let t = self.now_us();
            let faults = self.disk.fault_report();
            if let Some(tm) = &mut self.telem {
                tm.note_query_served(t, self.next as u32, &window.q);
                tm.note_retries(t, faults);
                tm.note_window_opened(t, window.budget_us);
            }
        }
        self.open = Some(window);
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
    /// one submission mode): the breaker gate before it, the breaker
    /// update and the telemetry epilogue after it, then the query's trace
    /// is committed. No-op when no window is open.
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
        let allowed = self.faultctl.allow_window(&self.disk, &window.q);
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
        self.faultctl.end_query(&self.disk);
        if self.telem.is_some() {
            let t = self.now_us();
            let trips = self.faultctl.breaker_trips();
            if let Some(tm) = &mut self.telem {
                if allowed {
                    tm.note_window_closed(t, q.prefetch_pages, q.gap_pages);
                } else {
                    tm.note_window_shed(t, trips);
                }
            }
        }
        self.trace.queries.push(q);
        self.next += 1;
    }

    /// Batched timeline phase 1a: classifies the next query's result
    /// pages — cache hits count immediately; misses are staged into the
    /// fleet's demand batcher, coalescing with siblings' requests for the
    /// same page — and parks the query until the batch resolves. Returns
    /// false when the stream is exhausted (the call is then a no-op).
    pub(crate) fn serve_stage<C: PageCache>(
        &mut self,
        ctx: &SimContext<'_>,
        cache: &mut C,
        config: &ExecutorConfig,
        demand: &Mutex<IoBatcher>,
    ) -> bool {
        debug_assert!(
            self.open.is_none() && self.pending.is_none(),
            "serve_stage called with a query still in flight"
        );
        let Some(region) = self.regions.get(self.next) else {
            return false;
        };
        let _span = self.telem.as_ref().map(|t| t.span(HistogramId::SpanServeUs));
        self.faultctl.begin_query(&mut self.disk, self.next as u64);
        // The result waits in `pending` for the demand batch to resolve, so
        // this path owns it outright.
        let mut result = QueryResult::default();
        let mut q = begin_query(ctx, region, config, &mut result);
        self.staged_slots.clear();
        let mut coalesced = 0u64;
        {
            let mut batch = lock_unpoisoned(demand);
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
        }
        if coalesced > 0 {
            cache.note_coalesced_hits(coalesced);
        }
        self.pending = Some(PendingServe { q, result });
        true
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
        demand: &Mutex<IoBatcher>,
    ) {
        let Some(PendingServe { mut q, result }) = self.pending.take() else {
            return;
        };
        let mut fetched = FAN_IN.take();
        lock_unpoisoned(demand).copy_outcomes(&self.staged_slots, &mut fetched);
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
        let region = &self.regions[self.next];
        let window = observe_and_open(ctx, &mut *self.prefetcher, region, &result, config, q);
        self.end_serve(window);
    }

    /// Batched phase 3: stages the open window's prefetch plan into the
    /// fleet's window batcher and commits the query's trace; the physical
    /// reads (and cache inserts) land at the phase flip. No-op when no
    /// window is open.
    pub(crate) fn window_stage<C: PageCache>(
        &mut self,
        ctx: &SimContext<'_>,
        cache: &mut C,
        window_lane: &Mutex<IoBatcher>,
        owner: u32,
    ) {
        self.close_window(|prefetcher, window, disk, _, region_pages| {
            let mut batcher = lock_unpoisoned(window_lane);
            let mut io = StagedIo { cache, disk, batcher: &mut batcher, owner };
            run_prefetch_window(ctx, prefetcher, window, &mut io, region_pages)
        });
    }

    /// Credits this session's share of the resolved window batches
    /// (called once at fleet teardown from the per-owner ledgers).
    pub(crate) fn absorb_window_io(&mut self, io_us: f64, pages: u64, gaps: u64) {
        self.trace.io.prefetch_io_us += io_us;
        self.trace.io.prefetch_pages_disk += pages;
        self.trace.io.gap_pages_disk += gaps;
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
        self.faultctl.report(&self.disk)
    }

    /// Consumes the session, yielding its id and trace (with the fault
    /// report stamped in when injection was enabled).
    pub(crate) fn into_trace(mut self) -> (usize, SequenceTrace) {
        self.trace.faults = self.faultctl.report(&self.disk);
        (self.id, self.trace)
    }
}

/// Sessions migrate between the crew's worker threads. (Compile-time
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
