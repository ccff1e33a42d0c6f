//! The history-based page-transition predictor.
//!
//! SCOUT predicts from the latent structure *inside* the current result and
//! is therefore blind to cross-query history: revisit loops, teleports back
//! to hotspots, and branch points whose continuation the structure alone
//! cannot disambiguate. Learned prefetchers (SeLeP, the Predictive
//! Prefetching Engine — see PAPERS.md) close that gap with page-transition
//! history. [`TransitionPredictor`] is the bounded-memory online variant of
//! that idea:
//!
//! * **Training** — the pages each query actually touched, in retrieval
//!   order, form one continuous page stream across the whole session. Every
//!   consecutive pair is a transition sample; an order-2 model additionally
//!   conditions on the page before last, which disambiguates the repeated
//!   pages revisit loops produce. Counts are frequency-decayed on every
//!   context update, so stale habits fade instead of accumulating forever.
//! * **Bounded memory** — contexts live in a fixed open-addressed table
//!   (linear probing, deterministic weakest-entry eviction within the probe
//!   window), each holding a fixed number of successor slots. All storage
//!   is allocated at construction; steady-state updates never touch the
//!   allocator.
//! * **Prediction** — a best-first expansion from the current tail context:
//!   emit the strongest successors, descend into their contexts with
//!   multiplied scores, stop at the page budget. The expansion works out of
//!   the stepping thread's [`QueryScratch`] buffers and a reusable output vector,
//!   so the extraction is allocation-free after warmup too. An order-2
//!   context that was never seen backs off to its order-1 suffix at a
//!   score penalty.
//! * **Determinism** — no randomness on any query path. The seed only
//!   perturbs the context hash, so per-session instances built
//!   from [`MarkovConfig::with_seed`] place their contexts differently
//!   under table pressure (decorrelated eviction) while any one instance
//!   remains bit-reproducible.

use scout_sim::QueryScratch;
use scout_storage::PageId;

/// Context key marking an empty table slot / an unset history register.
const NONE: u32 = u32::MAX;
/// Linear-probe window; a context lives within `PROBES` slots of its hash.
const PROBES: usize = 8;

/// Tuning knobs of the transition predictor.
#[derive(Debug, Clone, Copy)]
pub struct MarkovConfig {
    /// Model order: 1 conditions on the last page, 2 on the last two.
    /// Order 2 disambiguates the repeated pages of overlapping queries and
    /// revisit loops; order 1 halves the table pressure.
    pub(crate) order: usize,
    /// Context-table capacity in slots (rounded up to a power of two).
    /// Together with `successors` this bounds the model's memory.
    pub(crate) contexts: usize,
    /// Successor slots per context; the weakest successor is evicted when
    /// a context sees more distinct followers than slots.
    pub(crate) successors: usize,
    /// Multiplicative weight decay applied to a context's successors on
    /// each of its updates, in (0, 1]. 1 disables decay (pure counts).
    pub(crate) decay: f64,
    /// Branching factor of the best-first extraction: how many successors
    /// of each popped context are emitted/descended into.
    pub(crate) top_k: usize,
    /// Hash seed (decorrelates eviction across per-session instances).
    pub(crate) seed: u64,
}

impl Default for MarkovConfig {
    fn default() -> Self {
        MarkovConfig {
            order: 2,
            contexts: 8_192,
            successors: 4,
            decay: 0.9,
            top_k: 3,
            seed: 0x5EED,
        }
    }
}

impl MarkovConfig {
    /// The default configuration with a specific hash seed.
    pub fn with_seed(seed: u64) -> MarkovConfig {
        MarkovConfig { seed, ..MarkovConfig::default() }
    }

    /// Checks the knobs are usable: order 1 or 2, at least a probe window
    /// of contexts, at least one successor slot, decay in (0, 1], top-k of
    /// at least one.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if !(1..=2).contains(&self.order) {
            return Err(format!("MarkovConfig.order must be 1 or 2, got {}", self.order));
        }
        if self.contexts < PROBES {
            return Err(format!(
                "MarkovConfig.contexts must be >= {PROBES} (the probe window), got {}",
                self.contexts
            ));
        }
        if self.successors == 0 || self.successors > 32 {
            // The extraction's visited set is a u32 bitmask over the row.
            return Err(format!(
                "MarkovConfig.successors must be in 1..=32, got {}",
                self.successors
            ));
        }
        if !(self.decay > 0.0 && self.decay <= 1.0) {
            return Err(format!("MarkovConfig.decay must be in (0, 1], got {}", self.decay));
        }
        if self.top_k == 0 {
            return Err("MarkovConfig.top_k must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Online bounded-memory page-level Markov model (see the module docs).
#[derive(Debug, Clone)]
pub struct TransitionPredictor {
    config: MarkovConfig,
    /// Slot count minus one; slot count is a power of two.
    mask: usize,
    /// Context key per slot: `(prev, last)` pages, `prev == NONE` for
    /// order-1 contexts, `(NONE, NONE)` for empty slots.
    keys: Vec<(u32, u32)>,
    /// Flattened successor rows, `successors` entries per slot:
    /// `(page, weight)`, `page == NONE` for unused entries.
    succ: Vec<(u32, f32)>,
    /// Total successor weight per slot (eviction victim choice).
    weight: Vec<f32>,
    /// Last-update sequence number per slot (eviction tie-break).
    stamp: Vec<u64>,
    /// Update sequence counter.
    clock: u64,
    /// Occupied slots (diagnostics / memory pressure).
    used: usize,
    /// History registers: the last and second-to-last page of the stream.
    h1: u32,
    h2: u32,
    /// Transition samples recorded since the last reset.
    transitions: u64,
}

impl TransitionPredictor {
    /// A predictor with explicit configuration (validated here). All table
    /// storage is allocated now; no later call touches the allocator.
    pub(crate) fn new(config: MarkovConfig) -> TransitionPredictor {
        if let Err(e) = config.validate() {
            panic!("invalid MarkovConfig: {e}");
        }
        let slots = config.contexts.next_power_of_two();
        TransitionPredictor {
            config,
            mask: slots - 1,
            keys: vec![(NONE, NONE); slots],
            succ: vec![(NONE, 0.0); slots * config.successors],
            weight: vec![0.0; slots],
            stamp: vec![0; slots],
            clock: 0,
            used: 0,
            h1: NONE,
            h2: NONE,
            transitions: 0,
        }
    }

    /// Transition samples recorded since the last reset.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Occupied context slots.
    pub fn contexts_used(&self) -> usize {
        self.used
    }

    /// Bytes of model state (fixed at construction — the bounded-memory
    /// contract).
    pub fn memory_bytes(&self) -> usize {
        self.keys.capacity() * std::mem::size_of::<(u32, u32)>()
            + self.succ.capacity() * std::mem::size_of::<(u32, f32)>()
            + self.weight.capacity() * std::mem::size_of::<f32>()
            + self.stamp.capacity() * std::mem::size_of::<u64>()
    }

    /// Forgets all history (start of a fresh sequence). Keeps the
    /// allocated table.
    pub(crate) fn reset(&mut self) {
        self.keys.fill((NONE, NONE));
        self.succ.fill((NONE, 0.0));
        self.weight.fill(0.0);
        self.stamp.fill(0);
        self.clock = 0;
        self.used = 0;
        self.h1 = NONE;
        self.h2 = NONE;
        self.transitions = 0;
    }

    #[inline]
    fn hash(&self, prev: u32, last: u32) -> usize {
        let mut h = self.config.seed ^ (((prev as u64) << 32) | last as u64);
        h = h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 32;
        h as usize & self.mask
    }

    /// The slot of `(prev, last)` if present. Lookups may stop at the
    /// first empty slot: entries are only ever written within their probe
    /// window and never deleted individually.
    fn find(&self, prev: u32, last: u32) -> Option<usize> {
        let h = self.hash(prev, last);
        for i in 0..PROBES {
            let slot = (h + i) & self.mask;
            match self.keys[slot] {
                k if k == (prev, last) => return Some(slot),
                (NONE, NONE) => return None,
                _ => {}
            }
        }
        None
    }

    /// The slot of `(prev, last)`, claiming an empty slot or evicting the
    /// weakest entry of the probe window when the context is new.
    fn find_or_insert(&mut self, prev: u32, last: u32) -> usize {
        let h = self.hash(prev, last);
        let mut empty: Option<usize> = None;
        let mut victim = h & self.mask;
        let mut victim_key = (self.weight[victim], self.stamp[victim], victim);
        for i in 0..PROBES {
            let slot = (h + i) & self.mask;
            if self.keys[slot] == (prev, last) {
                return slot;
            }
            if self.keys[slot] == (NONE, NONE) {
                empty.get_or_insert(slot);
                continue;
            }
            // Deterministic victim: lightest total weight, then oldest
            // stamp, then lowest slot index.
            let key = (self.weight[slot], self.stamp[slot], slot);
            if key < victim_key || self.keys[victim] == (NONE, NONE) {
                victim = slot;
                victim_key = key;
            }
        }
        let slot = match empty {
            Some(s) => {
                self.used += 1;
                s
            }
            None => victim,
        };
        self.keys[slot] = (prev, last);
        self.weight[slot] = 0.0;
        let base = slot * self.config.successors;
        self.succ[base..base + self.config.successors].fill((NONE, 0.0));
        slot
    }

    /// Records one transition sample `(prev, last) → page`.
    fn record_transition(&mut self, prev: u32, last: u32, page: u32) {
        let s = self.config.successors;
        let decay = self.config.decay as f32;
        let slot = self.find_or_insert(prev, last);
        self.clock += 1;
        self.stamp[slot] = self.clock;
        let row = &mut self.succ[slot * s..slot * s + s];
        let mut hit = None;
        for (i, e) in row.iter_mut().enumerate() {
            if e.0 != NONE {
                e.1 *= decay;
            }
            if e.0 == page {
                hit = Some(i);
            }
        }
        match hit {
            Some(i) => row[i].1 += 1.0,
            None => {
                // Replace the weakest entry (unused entries weigh 0 and
                // lose ties by their lower weight; ties break on index).
                let mut weakest = 0;
                for (i, e) in row.iter().enumerate().skip(1) {
                    let w_i = if e.0 == NONE { -1.0 } else { e.1 };
                    let w_b = if row[weakest].0 == NONE { -1.0 } else { row[weakest].1 };
                    if w_i < w_b {
                        weakest = i;
                    }
                }
                row[weakest] = (page, 1.0);
            }
        }
        self.weight[slot] = row.iter().filter(|e| e.0 != NONE).map(|e| e.1).sum();
        self.transitions += 1;
    }

    /// Feeds one page of the stream: records the order-1 transition (and,
    /// for an order-2 model, the order-2 transition) from the current
    /// history registers, then shifts them.
    pub(crate) fn record_page(&mut self, page: PageId) {
        let p = page.0;
        if self.h1 != NONE {
            self.record_transition(NONE, self.h1, p);
            if self.config.order == 2 && self.h2 != NONE {
                self.record_transition(self.h2, self.h1, p);
            }
        }
        self.h2 = self.h1;
        self.h1 = p;
    }

    /// Feeds one query's touched pages, in retrieval order, into the
    /// stream. Returns the number of transition samples recorded (the
    /// caller charges them as prediction CPU).
    pub(crate) fn record_result(&mut self, pages: &[PageId]) -> u64 {
        let before = self.transitions;
        for &p in pages {
            self.record_page(p);
        }
        self.transitions - before
    }

    /// Extracts up to `budget` predicted pages, most plausible first, by
    /// best-first expansion from the current tail context (see the module
    /// docs). Works entirely out of `scratch` and `out`; allocation-free
    /// once their capacity has warmed to the workload.
    pub(crate) fn predict_into(
        &self,
        budget: usize,
        scratch: &mut QueryScratch,
        out: &mut Vec<PageId>,
    ) {
        out.clear();
        scratch.markov_frontier.clear();
        scratch.markov_emitted.clear();
        if budget == 0 || self.h1 == NONE {
            return;
        }
        let start_prev = if self.config.order == 2 { self.h2 } else { NONE };
        scratch.markov_frontier.push((1.0, start_prev, self.h1));
        // Bound the frontier so one query's expansion stays O(budget), and
        // bound the pops outright: a cyclic chain whose pages are all
        // emitted already would otherwise re-feed the frontier forever
        // (single-successor cycles keep their scores at 1).
        let frontier_cap = budget.saturating_mul(2).max(16);
        let max_pops = budget.saturating_mul(4).max(64);
        let mut pops = 0usize;

        while out.len() < budget && !scratch.markov_frontier.is_empty() && pops < max_pops {
            pops += 1;
            // Pop the highest-scored context (ties break on the smaller
            // context key — fully deterministic).
            let mut best = 0;
            for i in 1..scratch.markov_frontier.len() {
                let a = scratch.markov_frontier[i];
                let b = scratch.markov_frontier[best];
                let cmp = a.0.total_cmp(&b.0);
                if cmp == std::cmp::Ordering::Greater
                    || (cmp == std::cmp::Ordering::Equal && (a.1, a.2) < (b.1, b.2))
                {
                    best = i;
                }
            }
            let (score, prev, last) = scratch.markov_frontier.swap_remove(best);
            // Order-2 context never seen: back off to the order-1 suffix
            // at a score penalty.
            let (slot, score) = match self.find(prev, last) {
                Some(s) => (s, score),
                None if prev != NONE => match self.find(NONE, last) {
                    Some(s) => (s, score * 0.5),
                    None => continue,
                },
                None => continue,
            };
            let s = self.config.successors;
            let row = &self.succ[slot * s..slot * s + s];
            let total: f32 = self.weight[slot];
            if total <= 0.0 {
                continue;
            }
            // Visit the row's successors strongest-first (ties on the
            // smaller page id); rows are tiny, selection is cheapest.
            let mut visited = 0u32;
            for _ in 0..self.config.top_k.min(s) {
                let mut pick: Option<usize> = None;
                for (i, e) in row.iter().enumerate() {
                    if e.0 == NONE || visited & (1 << i) != 0 {
                        continue;
                    }
                    let better = match pick {
                        None => true,
                        Some(p) => e.1 > row[p].1 || (e.1 == row[p].1 && e.0 < row[p].0),
                    };
                    if better {
                        pick = Some(i);
                    }
                }
                let Some(i) = pick else { break };
                visited |= 1 << i;
                let (page, w) = row[i];
                if let Err(at) = scratch.markov_emitted.binary_search(&page) {
                    scratch.markov_emitted.insert(at, page);
                    out.push(PageId(page));
                    if out.len() >= budget {
                        return;
                    }
                }
                let child = score * (w / total).clamp(0.0, 1.0) as f64;
                if child > 1e-6 && scratch.markov_frontier.len() < frontier_cap {
                    let child_prev = if self.config.order == 2 { last } else { NONE };
                    scratch.markov_frontier.push((child, child_prev, page));
                }
            }
        }
    }
}

/// Knobs of the standalone history-only prefetcher.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MarkovPrefetcherConfig {
    /// The underlying transition model.
    pub(crate) model: MarkovConfig,
    /// Pages staged per prefetch window.
    pub(crate) page_budget: usize,
}

impl Default for MarkovPrefetcherConfig {
    fn default() -> Self {
        MarkovPrefetcherConfig { model: MarkovConfig::default(), page_budget: 192 }
    }
}

/// The pure history baseline: a `TransitionPredictor` driving the cache
/// on its own, with no structural information at all. The §2-style
/// counterpart of the extrapolation baselines — where those replay query
/// *positions*, this replays page *transitions* (the Predictive
/// Prefetching Engine / SeLeP lineage). Mainly interesting as the ablation
/// arm of the hybrid comparison: it shows what history alone buys on
/// revisit-heavy workloads and how it collapses on fresh exploration.
#[derive(Debug, Clone)]
pub struct MarkovPrefetcher {
    config: MarkovPrefetcherConfig,
    model: TransitionPredictor,
    /// Pages staged for the coming window, most plausible first.
    predicted: Vec<PageId>,
}

impl MarkovPrefetcher {
    /// A history prefetcher with explicit configuration.
    pub(crate) fn new(config: MarkovPrefetcherConfig) -> MarkovPrefetcher {
        MarkovPrefetcher {
            config,
            model: TransitionPredictor::new(config.model),
            predicted: Vec::new(),
        }
    }

    /// A history prefetcher with the default knobs.
    pub fn with_defaults() -> MarkovPrefetcher {
        MarkovPrefetcher::new(MarkovPrefetcherConfig::default())
    }
}

impl scout_sim::Prefetcher for MarkovPrefetcher {
    fn name(&self) -> String {
        format!("Markov (order {})", self.config.model.order)
    }

    fn observe_with_scratch(
        &mut self,
        _ctx: &scout_sim::SimContext<'_>,
        _region: &scout_geometry::QueryRegion,
        result: &scout_index::QueryResult,
        scratch: &mut QueryScratch,
    ) -> scout_sim::PredictionStats {
        let updates = self.model.record_result(&result.pages);
        self.model.predict_into(self.config.page_budget, scratch, &mut self.predicted);
        let work = updates + self.predicted.len() as u64;
        scout_sim::PredictionStats {
            cpu: scout_sim::CpuUnits { traversal_steps: work, ..Default::default() },
            memory_bytes: self.model.memory_bytes(),
            ..Default::default()
        }
    }

    fn plan(&mut self, _ctx: &scout_sim::SimContext<'_>) -> scout_sim::PrefetchPlan {
        if self.predicted.is_empty() {
            return scout_sim::PrefetchPlan::empty();
        }
        // Clone into the request and clear in place: `mem::take` would
        // surrender the buffer's warmed capacity and put the allocator
        // back on every subsequent extraction.
        let pages = self.predicted.clone();
        self.predicted.clear();
        scout_sim::PrefetchPlan { requests: vec![scout_sim::PrefetchRequest::Pages(pages)] }
    }

    fn reset(&mut self) {
        self.model.reset();
        self.predicted.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages(ids: &[u32]) -> Vec<PageId> {
        ids.iter().map(|&i| PageId(i)).collect()
    }

    fn predict(model: &TransitionPredictor, budget: usize) -> Vec<u32> {
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        model.predict_into(budget, &mut scratch, &mut out);
        out.into_iter().map(|p| p.0).collect()
    }

    #[test]
    fn learns_a_revisited_tour() {
        // A tour is walked once, then the user teleports back to its
        // start: the chain from the tail context replays the tour.
        let mut m = TransitionPredictor::new(MarkovConfig::default());
        m.record_result(&pages(&[3, 4, 5, 9, 10, 11]));
        m.record_result(&pages(&[3, 4]));
        // Tail is ... 3, 4 → the continuation is 5, 9, 10, 11.
        let got = predict(&m, 4);
        assert_eq!(got, vec![5, 9, 10, 11], "got {got:?}");
    }

    #[test]
    fn order2_disambiguates_shared_pages() {
        // Page 7 is followed by 8 after 1 but by 9 after 2.
        let mut m = TransitionPredictor::new(MarkovConfig { order: 2, ..Default::default() });
        for _ in 0..6 {
            m.record_result(&pages(&[1, 7, 8, 2, 7, 9]));
        }
        // Put the stream tail at ... 2, 7: order-2 predicts 9 first.
        m.record_result(&pages(&[2, 7]));
        let got = predict(&m, 1);
        assert_eq!(got, vec![9], "got {got:?}");
    }

    #[test]
    fn decay_prefers_recent_habits() {
        let mut m =
            TransitionPredictor::new(MarkovConfig { order: 1, decay: 0.5, ..Default::default() });
        // Old habit: 1 → 2, many times. New habit: 1 → 3, fewer but recent.
        for _ in 0..8 {
            m.record_result(&pages(&[1, 2]));
        }
        for _ in 0..4 {
            m.record_result(&pages(&[1, 3]));
        }
        m.record_page(PageId(1));
        let got = predict(&m, 1);
        assert_eq!(got, vec![3], "recent habit must win under decay, got {got:?}");
    }

    #[test]
    fn memory_is_bounded_and_fixed() {
        let mut m = TransitionPredictor::new(MarkovConfig {
            contexts: 64,
            successors: 2,
            ..Default::default()
        });
        let before = m.memory_bytes();
        // Stream far more distinct contexts than the table holds.
        for i in 0..10_000u32 {
            m.record_page(PageId(i % 997));
        }
        assert_eq!(m.memory_bytes(), before, "table must never grow");
        assert!(m.contexts_used() <= 64usize.next_power_of_two());
        assert!(m.transitions() > 0);
    }

    #[test]
    fn deterministic_and_seed_independent_without_pressure() {
        let run = |seed: u64| {
            let mut m = TransitionPredictor::new(MarkovConfig::with_seed(seed));
            for _ in 0..3 {
                m.record_result(&pages(&[5, 6, 7, 8, 5, 6]));
            }
            predict(&m, 6)
        };
        // Bit-reproducible per seed.
        assert_eq!(run(1), run(1));
        // Without table pressure the seed only moves slots, not content.
        assert_eq!(run(1), run(2));
    }

    #[test]
    fn empty_model_predicts_nothing() {
        let m = TransitionPredictor::new(MarkovConfig::default());
        assert!(predict(&m, 8).is_empty());
        let mut m = TransitionPredictor::new(MarkovConfig::default());
        m.record_page(PageId(1)); // a single page: no transition yet
        assert!(predict(&m, 0).is_empty());
    }

    #[test]
    fn reset_forgets_history_but_keeps_the_table() {
        let mut m = TransitionPredictor::new(MarkovConfig::default());
        m.record_result(&pages(&[1, 2, 3, 1, 2, 3]));
        assert!(!predict(&m, 2).is_empty());
        let bytes = m.memory_bytes();
        m.reset();
        assert!(predict(&m, 2).is_empty());
        assert_eq!(m.transitions(), 0);
        assert_eq!(m.memory_bytes(), bytes);
    }

    #[test]
    fn predictions_do_not_repeat_pages() {
        let mut m = TransitionPredictor::new(MarkovConfig::default());
        for _ in 0..5 {
            m.record_result(&pages(&[1, 2, 1, 2, 1, 2]));
        }
        let got = predict(&m, 8);
        let mut dedup = got.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), got.len(), "duplicate emissions in {got:?}");
    }

    #[test]
    #[should_panic(expected = "order must be 1 or 2")]
    fn bad_order_rejected() {
        let _ = TransitionPredictor::new(MarkovConfig { order: 3, ..Default::default() });
    }

    #[test]
    #[should_panic(expected = "successors must be in 1..=32")]
    fn oversized_successor_rows_rejected() {
        // The extraction's visited set is a u32 bitmask over the row.
        let _ = TransitionPredictor::new(MarkovConfig { successors: 33, ..Default::default() });
    }
}
