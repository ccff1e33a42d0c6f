//! # scout-baselines
//!
//! The prefetching baselines SCOUT is evaluated against (§2, §3.3):
//! trajectory extrapolation (straight line, polynomial, velocity, EWMA),
//! static methods (Hilbert-Prefetch, Layered), and — beyond the paper's
//! roster — the pure page-transition history method of the learned
//! prefetching literature ([`history`]). The no-prefetching baseline lives
//! in `scout_sim::NoPrefetch`.

#![forbid(unsafe_code)]

pub mod common;
pub mod extrapolation;
pub mod static_methods;

/// History-based prefetching (the SeLeP / Predictive-Prefetching-Engine
/// lineage): where the §2.2 extrapolation methods replay query
/// *positions*, this replays page *transitions*. Implemented in
/// `scout-predict` (it shares the model with the SCOUT hybrid) and
/// re-exported here so comparison rosters can pull every non-SCOUT method
/// from one crate.
pub mod history {
    pub use scout_predict::{MarkovConfig, MarkovPrefetcher, MarkovPrefetcherConfig};
}

pub use extrapolation::{Ewma, Polynomial, StraightLine, Velocity};
pub use history::MarkovPrefetcher;
pub use static_methods::{HilbertPrefetch, Layered};
