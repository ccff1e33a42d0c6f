//! # scout-storage
//!
//! Paged storage substrate: disk pages and layouts, a calibrated simulated
//! disk with a simulated clock, the [`PageCache`] abstraction with its two
//! implementations (single-threaded LRU [`PrefetchCache`] and sharded
//! concurrent [`ShardedCache`]), and I/O accounting.
//!
//! All I/O in the reproduction is page-granular. Simulated latencies stand
//! in for the paper's 4-disk SAS stripe (see DESIGN.md §2 for why this
//! substitution preserves the evaluation's shape).

#![forbid(unsafe_code)]

mod batch;
mod cache;
mod disk;
mod fault;
mod page;
mod page_cache;
mod sharded;
mod stats;

pub use batch::{BatchPlan, BatchReport, IoBatcher};
pub use cache::PrefetchCache;
pub use disk::{DiskModel, DiskProfile, SharedClock};
pub use fault::{
    CircuitBreaker, FailedRead, FaultConfig, FaultPlan, FaultReport, IoError, RetryPolicy,
};
pub use page::{IdSet, Page, PageId, PageLayout};
pub use page_cache::{CacheStats, PageCache};
pub use sharded::ShardedCache;
pub use stats::{hit_ratio, IoStats};
