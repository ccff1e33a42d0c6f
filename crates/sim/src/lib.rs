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
pub mod context;
pub mod costs;
pub mod executor;
pub mod experiment;
pub mod multi;
pub mod prefetcher;
pub mod report;
pub mod scheduler;
pub mod scratch;
pub mod session;
pub mod telemetry;
pub mod workloads;

pub use context::SimContext;
pub use costs::{CpuCostModel, CpuUnits};
pub use executor::{
    run_sequence, run_sequences, ExecutorConfig, QueryTrace, SequenceTrace, ServeOutcome,
};
pub use experiment::{aggregate, evaluate, region_lists, AggregateMetrics, TestBed};
pub use multi::{
    MultiSessionConfig, MultiSessionExecutor, MultiSessionReport, Schedule, SessionReport,
    TenantReport,
};
pub use prefetcher::{
    GraphBuildCounters, NoPrefetch, PredictionStats, PrefetchPlan, PrefetchRequest, Prefetcher,
};
pub use report::{percentiles, percentiles_mut, LatencyPercentiles};
pub use scheduler::{default_parallelism, SchedulerReport};
pub use scratch::{QueryScratch, ResultFrame};
pub use session::Session;
pub use telemetry::TelemetryReport;
pub use workloads::Microbenchmark;
