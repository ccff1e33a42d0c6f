//! # scout-baselines
//!
//! The prefetching baselines SCOUT is evaluated against (§2, §3.3):
//! trajectory extrapolation (straight line, polynomial, velocity, EWMA),
//! static methods (Hilbert-Prefetch, Layered). The pure page-transition
//! history method of the learned prefetching literature lives in
//! `scout_predict::MarkovPrefetcher`, and the no-prefetching baseline in
//! `scout_sim::NoPrefetch`.

#![forbid(unsafe_code)]

mod common;
mod extrapolation;
mod static_methods;

pub use extrapolation::{Ewma, Polynomial, StraightLine, Velocity};
pub use static_methods::{HilbertPrefetch, Layered};
