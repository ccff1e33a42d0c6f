//! # SCOUT — structure-aware prefetching for guided spatial query sequences
//!
//! A from-scratch Rust reproduction of *"SCOUT: Prefetching for Latent
//! Structure Following Queries"* (Tauheed, Heinis, Schürmann, Markram,
//! Ailamaki — PVLDB 5(11), 2012), including every substrate the paper
//! depends on: a paged storage layer with a simulated disk, STR bulk-loaded
//! R-trees, a FLAT-style neighborhood index, synthetic scientific datasets,
//! the full baseline roster, and the execution-timeline simulator that
//! reproduces the paper's evaluation.
//!
//! ## Quickstart
//!
//! ```
//! use scout::prelude::*;
//!
//! // A small brain-tissue model and a guided query sequence along one of
//! // its fibers.
//! let dataset = generate_neurons(
//!     &NeuronParams { neuron_count: 20, fiber_steps: 200, ..Default::default() },
//!     42,
//! );
//! let bed = TestBed::new(dataset);
//! let params = SequenceParams { length: 10, ..SequenceParams::sensitivity_default() };
//! let sequences = generate_sequences(&bed.dataset, &params, 2, 7);
//!
//! // Run SCOUT against the no-prefetching baseline.
//! let mut scout = Scout::with_defaults();
//! let metrics = evaluate(
//!     &bed.ctx_rtree(),
//!     &mut scout,
//!     &region_lists(&sequences),
//!     &ExecutorConfig::default(),
//! );
//! assert!(metrics.hit_rate >= 0.0 && metrics.hit_rate <= 1.0);
//! assert!(metrics.speedup >= 1.0);
//! ```
//!
//! ## Crate map
//!
//! | crate | contents |
//! |---|---|
//! | [`scout_geometry`] | vectors, boxes, shapes, intersections, grids, Hilbert curves |
//! | [`scout_storage`] | pages, simulated disk, LRU prefetch cache, I/O stats |
//! | [`scout_index`] | STR R-tree and FLAT-style neighborhood index |
//! | [`scout_synth`] | synthetic datasets + guided query sequences |
//! | [`scout_core`] | SCOUT and SCOUT-OPT |
//! | [`scout_predict`] | Markov history prefetcher, SCOUT hybrid, feedback control |
//! | [`scout_baselines`] | EWMA, straight line, polynomial, velocity, Hilbert, layered, Markov |
//! | [`scout_sim`] | prefetcher trait, Figure-2 executor, workloads, experiments |
//! | [`scout_telemetry`] | metrics registry, flight recorder, span timers |

#![forbid(unsafe_code)]

pub use scout_baselines as baselines;
pub use scout_core as core;
pub use scout_geometry as geometry;
pub use scout_index as index;
pub use scout_predict as predict;
pub use scout_sim as sim;
pub use scout_storage as storage;
pub use scout_synth as synth;
pub use scout_telemetry as telemetry;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use scout_baselines::{Ewma, HilbertPrefetch, Layered, Polynomial, StraightLine, Velocity};
    pub use scout_core::{Scout, ScoutConfig, ScoutOpt, ScoutOptConfig, Strategy};
    pub use scout_geometry::{Aabb, Aspect, QueryRegion, Shape, SpatialObject, Vec3};
    pub use scout_index::{FlatIndex, OrderedSpatialIndex, RTree, SpatialIndex};
    pub use scout_predict::{
        FeedbackConfig, FeedbackController, HybridConfig, HybridPrefetcher, MarkovConfig,
        MarkovPrefetcher, MarkovPrefetcherConfig, TransitionPredictor,
    };
    pub use scout_sim::{
        evaluate, percentiles, region_lists, run_sequence, run_sequences, ExecutorConfig,
        LatencyPercentiles, MultiSessionConfig, MultiSessionExecutor, MultiSessionReport,
        NoPrefetch, Prefetcher, Schedule, SchedulerReport, ServeOutcome, Session, SessionReport,
        SimContext, TelemetryReport, TenantReport, TestBed,
    };
    pub use scout_storage::{
        BatchPlan, BatchReport, BreakerPolicy, CacheStats, DiskProfile, FaultConfig, FaultPlan,
        FaultReport, IoError, PageCache, PrefetchCache, RetryPolicy, ShardedCache, SharedClock,
    };
    pub use scout_synth::{
        generate_arterial, generate_lung, generate_neurons, generate_roads, generate_sequence,
        generate_sequences, ArterialParams, Dataset, Domain, LungParams, NeuronParams, RoadParams,
        SequenceParams,
    };
    pub use scout_telemetry::{CounterId, GaugeId, HistogramId, TelemetryPlan};
}
