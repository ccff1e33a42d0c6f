//! # scout-core
//!
//! The paper's contribution: SCOUT, a structure-aware prefetcher for
//! guided spatial query sequences, plus SCOUT-OPT, its optimization for
//! indexes with ordered retrieval (§6).
//!
//! SCOUT predicts the next query location from the *content* of past
//! queries: it reduces each result to an approximate graph ([`ResultGraph`]),
//! prunes the candidate guiding structures across queries
//! ([`candidates`]), traverses to boundary exits and extrapolates them
//! linearly ([`exits`]), and prefetches incrementally at the predicted
//! locations ([`Scout`]).

#![forbid(unsafe_code)]

pub mod candidates;
mod config;
pub mod exits;
mod graph;
pub mod kmeans;
mod opt;
mod prefetcher;
pub mod reference;
pub mod scoring;

pub use config::{ScoutConfig, Strategy};
pub use graph::ResultGraph;
pub use opt::ScoutOpt;
pub use prefetcher::Scout;
