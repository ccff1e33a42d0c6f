//! Fleet-level batched-I/O control (DESIGN.md §12).
//!
//! One [`BatchCtl`] per batched fleet run holds the two phase batchers —
//! the coalescing *demand* lane and the duplicate-skipping *window* lane.
//! Each lane owns its own [`DiskModel`](scout_storage::DiskModel) sharing
//! the fleet's [`SharedClock`], so physical batch reads charge the device
//! like any other read while per-session disks stay free for retry
//! continuations.
//!
//! The round loop drives the round as: every session `serve_stage`s →
//! **demand submit** at the serve edge → every session `serve_complete`s
//! and `window_stage`s → **window submit** (cache publication, dropped
//! prefetches and buffer recycling) at the window edge. The window lane
//! credits no session: its counters and faults merge into the fleet's at
//! teardown.

use crate::executor::ExecutorConfig;
use crate::telemetry::RING_CAPACITY;
use scout_storage::{BatchReport, DiskModel, FaultReport, IoBatcher, ShardedCache, SharedClock};
use scout_telemetry::{
    Event, FlightRecorder, HistogramId, Lane, MetricsRegistry, SpanTimer, ENGINE_STREAM,
};
use std::sync::Arc;

/// Fault-injection salt of the demand-lane batch disk. Session disks are
/// salted by session id; the reserved top values cannot collide with a
/// real fleet. Stuck pages are salt-*independent* (a device property), so
/// a page that is stuck for the batch disk is stuck for every session's
/// retry continuation too — no lane can "un-stick" another's page.
const DEMAND_SALT: u64 = u64::MAX;
/// Fault-injection salt of the window-lane batch disk.
const WINDOW_SALT: u64 = u64::MAX - 1;

/// The batch engine's telemetry arm: submit events go into one ring
/// (stream = [`ENGINE_STREAM`]) and submit spans into the fleet
/// registry. `None` — the default — records nothing.
struct BatchTelemetry {
    registry: Arc<MetricsRegistry>,
    recorder: FlightRecorder,
    /// Demand-lane coalesced total at the last submit; the per-batch
    /// delta rides on each [`Event::BatchSubmitted`].
    demand_coalesced: u64,
}

impl BatchTelemetry {
    /// Times one batch submission.
    fn submit_span(&self) -> SpanTimer<'_> {
        SpanTimer::start(self.registry.histogram(HistogramId::SpanBatchSubmitUs))
    }
}

/// The batched-I/O state of one fleet run. Every lane operation runs on
/// the engine's calling thread (DESIGN.md §10), so the lanes are plain
/// fields.
pub(crate) struct BatchCtl {
    /// Demand lane: coalescing, every waiter records its slot.
    pub(crate) demand: IoBatcher,
    /// Window lane: duplicates skipped at staging.
    pub(crate) window: IoBatcher,
    telem: Option<BatchTelemetry>,
}

impl BatchCtl {
    /// Batch lanes for one fleet, charging `clock`.
    pub(crate) fn new(
        config: &ExecutorConfig,
        clock: &SharedClock,
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
            demand: lane(DEMAND_SALT),
            window: lane(WINDOW_SALT),
            telem: registry.map(|registry| BatchTelemetry {
                registry: Arc::clone(registry),
                recorder: FlightRecorder::with_capacity(ENGINE_STREAM, RING_CAPACITY),
                demand_coalesced: 0,
            }),
        }
    }

    /// Submits the round's demand batch: first attempts for every staged
    /// page, elevator order, fault epoch = the round ordinal (so the
    /// schedule is a pure function of (config, page, round, attempt),
    /// independent of staging order and fleet width).
    pub(crate) fn submit_demand(&mut self, round: u64) {
        let lane = &mut self.demand;
        if lane.is_empty() {
            return;
        }
        let pages = lane.len() as u32;
        {
            let _span = self.telem.as_ref().map(BatchTelemetry::submit_span);
            lane.submit(1, round);
        }
        if let Some(t) = &mut self.telem {
            let total = lane.report().coalesced;
            let coalesced = total - std::mem::replace(&mut t.demand_coalesced, total);
            let now = lane.disk().clock().map_or(0.0, |c| c.now_us());
            let event =
                Event::BatchSubmitted { lane: Lane::Demand, pages, coalesced: coalesced as u32 };
            t.recorder.record(now, event);
        }
    }

    /// Submits the round's window batch, publishes every successful page
    /// into the shared cache and settles the batch: dropped-prefetch notes
    /// for failed speculative reads, buffer recycling. Must complete
    /// before the next serve phase begins — round *i + 1* serves against
    /// the membership round *i*'s windows left — so the round loop calls
    /// this between the two. Also recycles the demand lane (its outcomes
    /// were consumed during the phase that just ended).
    pub(crate) fn submit_window(&mut self, cache: &ShardedCache, round: u64) {
        self.demand.begin_phase();
        let lane = &mut self.window;
        if lane.is_empty() {
            return;
        }
        let span = self.telem.as_ref().map(BatchTelemetry::submit_span);
        let pages = lane.len() as u32;
        lane.submit(0, round);
        for slot in 0..lane.len() as u32 {
            if lane.outcome_at(slot).is_ok() {
                cache.insert(lane.page_at(slot));
            } else {
                lane.disk_mut().note_dropped_prefetch();
            }
        }
        lane.begin_phase();
        drop(span);
        if let Some(t) = &mut self.telem {
            // The window lane skips duplicates at staging, so nothing
            // coalesces here by construction.
            let now = lane.disk().clock().map_or(0.0, |c| c.now_us());
            t.recorder
                .record(now, Event::BatchSubmitted { lane: Lane::Window, pages, coalesced: 0 });
        }
    }

    /// Fleet teardown: returns the merged lane counters, the lanes' fault
    /// report (`None` when injection was disabled), and the engine's
    /// flight-recorder ring (`None` when telemetry was disarmed).
    pub(crate) fn finish(self) -> (BatchReport, Option<FaultReport>, Option<FlightRecorder>) {
        let BatchCtl { demand, window, telem } = self;
        let mut report = *demand.report();
        report.merge(window.report());
        let mut faults: Option<FaultReport> = None;
        for lane in [&demand, &window] {
            if let Some(f) = lane.disk().fault_report() {
                faults.get_or_insert_with(FaultReport::default).merge(&f);
            }
        }
        (report, faults, telem.map(|t| t.recorder))
    }
}
