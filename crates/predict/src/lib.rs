//! # scout-predict
//!
//! The adaptive prediction subsystem layered on top of SCOUT: a
//! history-based page-transition predictor, the SCOUT + Markov hybrid, and
//! the online feedback loop arbitrating between them.
//!
//! SCOUT (scout-core) predicts the next query purely from the latent
//! structure inside the current result — which makes it blind to
//! *cross-query* history: revisit loops, teleports back to hotspots, and
//! branch points whose continuation the structure alone cannot
//! disambiguate. Learned prefetchers (SeLeP, arXiv:2310.14666; the
//! Predictive Prefetching Engine, arXiv:1109.6206) close exactly that gap
//! with page-transition history. This crate brings both worlds together:
//!
//! * `TransitionPredictor` — an online, bounded-memory page-level Markov
//!   model (order 1–2, frequency-decayed counts, deterministic top-k
//!   extraction through the stepping thread's `QueryScratch`), trained from the
//!   pages each query actually touched.
//! * [`MarkovPrefetcher`] — the model as a standalone history-only
//!   baseline for comparisons.
//! * [`HybridPrefetcher`] — SCOUT and the Markov model merged under a
//!   shared page budget, the window spent leader-first by recent
//!   per-source precision.
//! * `FeedbackController` — per-source hit-rate EWMAs adapting the
//!   budget split and prefetch aggressiveness across the run.
//!
//! All three prefetchers implement `scout_sim::Prefetcher`, so they drop
//! into `run_sequence`, the experiment grid, and the multi-session engine
//! (`Session` + `MultiSessionExecutor`) unchanged. Determinism and the
//! zero-allocation observe contract are documented in DESIGN.md §8.

#![forbid(unsafe_code)]

mod feedback;
mod hybrid;
mod markov;

pub use hybrid::{HybridConfig, HybridPrefetcher};
pub use markov::{MarkovConfig, MarkovPrefetcher};
