//! Fleet-level batched-I/O control (DESIGN.md §12).
//!
//! One [`BatchCtl`] per batched fleet run holds the two phase batchers —
//! the coalescing *demand* lane and the single-owner *window* lane — plus
//! the per-session window ledgers. Each lane owns its own
//! [`DiskModel`](scout_storage::DiskModel) sharing the fleet's
//! [`SharedClock`], so physical batch reads charge the device like any
//! other read while per-session disks stay free for retry continuations.
//!
//! The round loop drives the round as: every session `serve_stage`s →
//! **demand submit** at the serve edge → every session `serve_complete`s
//! and `window_stage`s → **window submit** (cache publication, ledger
//! accounting and buffer recycling) at the window edge.

use crate::executor::ExecutorConfig;
use crate::scheduler::lock_unpoisoned;
use crate::session::Session;
use crate::telemetry::RING_CAPACITY;
use scout_storage::{
    BatchReport, DiskModel, FaultReport, IoBatcher, PageCache, ShardedCache, SharedClock,
};
use scout_telemetry::{
    Event, FlightRecorder, HistogramId, Lane, MetricsRegistry, SpanTimer, ENGINE_STREAM,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Fault-injection salt of the demand-lane batch disk. Session disks are
/// salted by session id; the reserved top values cannot collide with a
/// real fleet. Stuck pages are salt-*independent* (a device property), so
/// a page that is stuck for the batch disk is stuck for every session's
/// retry continuation too — no lane can "un-stick" another's page.
const DEMAND_SALT: u64 = u64::MAX;
/// Fault-injection salt of the window-lane batch disk.
const WINDOW_SALT: u64 = u64::MAX - 1;

/// One session's share of the window batches resolved so far: actual
/// successful prefetch reads, credited into the session's `IoStats` at
/// fleet teardown.
#[derive(Debug, Clone, Copy, Default)]
struct WindowLedger {
    io_us: f64,
    pages: u64,
    gaps: u64,
}

/// The batch engine's telemetry arm: submit events go into one shared
/// ring (stream = [`ENGINE_STREAM`]) and submit spans into the fleet
/// registry. `None` — the default — records nothing.
struct BatchTelemetry {
    registry: Arc<MetricsRegistry>,
    recorder: Mutex<FlightRecorder>,
    /// Demand-lane coalesced total at the last submit; the per-batch
    /// delta rides on each [`Event::BatchSubmitted`].
    demand_coalesced: AtomicU64,
}

/// The batched-I/O state of one fleet run.
pub(crate) struct BatchCtl {
    /// Demand lane: coalescing, every waiter records its slot.
    pub(crate) demand: Mutex<IoBatcher>,
    /// Window lane: single-owner, duplicates skipped at staging.
    pub(crate) window: Mutex<IoBatcher>,
    ledgers: Mutex<Vec<WindowLedger>>,
    telem: Option<BatchTelemetry>,
}

impl BatchCtl {
    /// Batch lanes for a fleet of `sessions` sessions, charging `clock`.
    pub(crate) fn new(
        config: &ExecutorConfig,
        clock: &SharedClock,
        sessions: usize,
        registry: Option<&Arc<MetricsRegistry>>,
    ) -> BatchCtl {
        let lane = |salt: u64| {
            let mut disk = DiskModel::with_clock(config.disk, clock.clone());
            if let Some(faults) = config.faults.inject {
                disk.enable_faults(faults, salt);
            }
            IoBatcher::new(disk)
        };
        BatchCtl {
            demand: Mutex::new(lane(DEMAND_SALT)),
            window: Mutex::new(lane(WINDOW_SALT)),
            ledgers: Mutex::new(vec![WindowLedger::default(); sessions]),
            telem: registry.map(|registry| BatchTelemetry {
                registry: Arc::clone(registry),
                recorder: Mutex::new(FlightRecorder::with_capacity(ENGINE_STREAM, RING_CAPACITY)),
                demand_coalesced: AtomicU64::new(0),
            }),
        }
    }

    /// Times one batch submission (`None` when telemetry is disarmed).
    fn submit_span(&self) -> Option<SpanTimer<'_>> {
        let t = self.telem.as_ref()?;
        Some(SpanTimer::start(t.registry.histogram(HistogramId::SpanBatchSubmitUs)))
    }

    /// Submits the round's demand batch: first attempts for every staged
    /// page, elevator order, fault epoch = the round ordinal (so the
    /// schedule is a pure function of (config, page, round, attempt),
    /// independent of staging order and crew width).
    pub(crate) fn submit_demand(&self, round: u64) {
        let mut lane = lock_unpoisoned(&self.demand);
        if !lane.is_empty() {
            let _span = self.submit_span();
            let pages = lane.len() as u32;
            lane.submit(1, round);
            if let Some(t) = &self.telem {
                let total = lane.report().coalesced;
                let coalesced = total - t.demand_coalesced.swap(total, Ordering::Relaxed);
                let now = lane.disk().clock().map_or(0.0, |c| c.now_us());
                lock_unpoisoned(&t.recorder).record(
                    now,
                    Event::BatchSubmitted {
                        lane: Lane::Demand,
                        pages,
                        coalesced: coalesced as u32,
                    },
                );
            }
        }
    }

    /// Submits the round's window batch, publishes every successful page
    /// into the shared cache and settles the batch: per-owner ledger
    /// accounting, dropped-prefetch notes for failed speculative reads,
    /// buffer recycling. Must complete before the next serve phase begins
    /// — round *i + 1* serves against the membership round *i*'s windows
    /// left — so the round loop calls this between the two. Also recycles
    /// the demand lane (its outcomes were consumed during the phase that
    /// just ended). No step is in flight at an edge, so it publishes
    /// through the owned cache, taking no shard lock.
    pub(crate) fn submit_window(&self, cache: &mut ShardedCache, round: u64) {
        lock_unpoisoned(&self.demand).begin_phase();
        let mut lane = lock_unpoisoned(&self.window);
        if lane.is_empty() {
            return;
        }
        let _span = self.submit_span();
        let pages = lane.len() as u32;
        lane.submit(0, round);
        let mut ledgers = lock_unpoisoned(&self.ledgers);
        for slot in 0..lane.len() as u32 {
            let (owner, gap) = lane.owner_at(slot);
            match lane.outcome_at(slot) {
                Ok(t) => {
                    PageCache::insert(cache, lane.page_at(slot));
                    let ledger = &mut ledgers[owner as usize];
                    ledger.io_us += t;
                    ledger.pages += 1;
                    if gap {
                        ledger.gaps += 1;
                    }
                }
                Err(_) => lane.disk_mut().note_dropped_prefetch(),
            }
        }
        if let Some(t) = &self.telem {
            // The window lane skips duplicates at staging, so nothing
            // coalesces here by construction.
            let now = lane.disk().clock().map_or(0.0, |c| c.now_us());
            lock_unpoisoned(&t.recorder)
                .record(now, Event::BatchSubmitted { lane: Lane::Window, pages, coalesced: 0 });
        }
        lane.begin_phase();
    }

    /// Fleet teardown: credits the window ledgers into the sessions'
    /// traces and returns the merged lane counters, the lanes' fault
    /// report (`None` when injection was disabled), and the engine's
    /// flight-recorder ring (`None` when telemetry was disarmed).
    pub(crate) fn finish(
        self,
        sessions: &mut [Session],
    ) -> (BatchReport, Option<FaultReport>, Option<FlightRecorder>) {
        let demand = self.demand.into_inner().unwrap_or_else(PoisonError::into_inner);
        let window = self.window.into_inner().unwrap_or_else(PoisonError::into_inner);
        let ledgers = self.ledgers.into_inner().unwrap_or_else(PoisonError::into_inner);
        for (session, ledger) in sessions.iter_mut().zip(ledgers) {
            session.absorb_window_io(ledger.io_us, ledger.pages, ledger.gaps);
        }
        let mut report = *demand.report();
        report.merge(window.report());
        let mut faults: Option<FaultReport> = None;
        for lane in [&demand, &window] {
            if let Some(f) = lane.disk().fault_report() {
                faults.get_or_insert_with(FaultReport::default).merge(&f);
            }
        }
        let recorder =
            self.telem.map(|t| t.recorder.into_inner().unwrap_or_else(PoisonError::into_inner));
        (report, faults, recorder)
    }
}
