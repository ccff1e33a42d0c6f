//! # scout-core
//!
//! The paper's contribution: SCOUT, a structure-aware prefetcher for
//! guided spatial query sequences, plus SCOUT-OPT, its optimization for
//! indexes with ordered retrieval (§6).
//!
//! SCOUT predicts the next query location from the *content* of past
//! queries: it reduces each result to an approximate graph ([`graph`]),
//! prunes the candidate guiding structures across queries
//! ([`candidates`]), traverses to boundary exits and extrapolates them
//! linearly ([`exits`]), and prefetches incrementally at the predicted
//! locations ([`prefetcher`]).

#![forbid(unsafe_code)]

pub mod candidates;
pub mod config;
pub mod exits;
pub mod graph;
pub mod kmeans;
pub mod opt;
pub mod prefetcher;
pub mod reference;
pub mod scoring;

pub use config::{ScoutConfig, ScoutOptConfig, Strategy};
pub use graph::ResultGraph;
pub use opt::ScoutOpt;
pub use prefetcher::Scout;
