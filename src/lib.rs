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
//! Each crate is reached as `scout::<name>` or, for `scout_synth` and
//! `scout_baselines`, through the [`prelude`] only.
//!
//! | crate | facade path | contents |
//! |---|---|---|
//! | [`scout_geometry`] | `scout::geometry` | vectors, boxes, shapes, intersections, grids, 3-D Hilbert curve |
//! | [`scout_storage`] | `scout::storage` | pages, simulated disk, LRU prefetch cache, I/O stats |
//! | [`scout_index`] | `scout::index` | STR R-tree and FLAT-style neighborhood index |
//! | [`scout_synth`] | `prelude` | synthetic datasets + guided query sequences |
//! | [`scout_core`] | `scout::core` | SCOUT and SCOUT-OPT |
//! | [`scout_predict`] | `scout::predict` | Markov history prefetcher, SCOUT hybrid, feedback control |
//! | [`scout_baselines`] | `prelude` | EWMA, straight line, polynomial, velocity, Hilbert, layered |
//! | [`scout_sim`] | `scout::sim` | prefetcher trait, Figure-2 executor, workloads, experiments |
//! | [`scout_telemetry`] | `scout::telemetry` | span histograms, span timers, flight recorder |

#![forbid(unsafe_code)]

pub use scout_core as core;
pub use scout_geometry as geometry;
pub use scout_index as index;
pub use scout_predict as predict;
pub use scout_sim as sim;
pub use scout_storage as storage;
pub use scout_telemetry as telemetry;

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use scout_baselines::{Ewma, HilbertPrefetch, Layered, Polynomial, StraightLine, Velocity};
    pub use scout_core::{Scout, ScoutConfig, ScoutOpt, Strategy};
    pub use scout_geometry::{Aabb, Aspect, QueryRegion, Shape, SpatialObject, Vec3};
    pub use scout_index::{FlatIndex, RTree, SpatialIndex};
    pub use scout_predict::{HybridConfig, HybridPrefetcher, MarkovPrefetcher};
    pub use scout_sim::report::{percentiles, LatencyPercentiles};
    pub use scout_sim::{
        evaluate, region_lists, run_sequence, run_sequences, ExecutorConfig, MultiSessionConfig,
        MultiSessionExecutor, MultiSessionReport, NoPrefetch, Prefetcher, Schedule,
        SchedulerReport, ServeOutcome, Session, SessionReport, SimContext, TelemetryReport,
        TestBed,
    };
    pub use scout_storage::{
        BatchPlan, CacheStats, DiskProfile, FaultConfig, FaultPlan, FaultReport, IoError,
        PageCache, PrefetchCache, RetryPolicy, ShardedCache, SharedClock,
    };
    pub use scout_synth::{
        generate_arterial, generate_lung, generate_neurons, generate_roads, generate_sequences,
        ArterialParams, Dataset, Domain, LungParams, NeuronParams, RoadParams, SequenceParams,
    };
    pub use scout_telemetry::{HistogramId, TelemetryPlan};
}
