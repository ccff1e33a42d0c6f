//! # scout-sim
//!
//! The execution simulator for guided spatial query sequences: the
//! [`Prefetcher`] abstraction all methods implement, the Figure-2 timeline
//! executor with simulated disk and prefetch windows, the multi-session
//! engine ([`Session`] + [`MultiSessionExecutor`]) running K clients over a
//! shared sharded cache, the Figure-10 microbenchmark definitions, and
//! experiment/reporting plumbing.

#![forbid(unsafe_code)]

pub(crate) mod batch;
mod context;
mod costs;
mod executor;
mod experiment;
mod multi;
mod prefetcher;
pub mod report;
mod scheduler;
mod scratch;
mod session;
mod telemetry;
pub mod workloads;

pub use context::SimContext;
pub use costs::CpuUnits;
pub use executor::{
    run_sequence, run_sequences, ExecutorConfig, QueryTrace, SequenceTrace, ServeOutcome,
};
pub use experiment::{aggregate, evaluate, region_lists, AggregateMetrics, TestBed};
pub use multi::{
    MultiSessionConfig, MultiSessionExecutor, MultiSessionReport, Schedule, SessionReport,
};
pub use prefetcher::{NoPrefetch, PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher};
pub use scheduler::SchedulerReport;
pub use scratch::{QueryScratch, ResultFrame};
pub use session::Session;
pub use telemetry::TelemetryReport;
