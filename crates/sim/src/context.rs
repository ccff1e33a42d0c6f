//! What a prefetcher is allowed to see.
//!
//! The multi-session engine splits simulation state along a simple line:
//!
//! * **Shared, immutable** — the dataset, the index and the adjacency
//!   graph. This is [`SimContext`]. Every trait object in it is `Sync`, so
//!   one context is borrowed by all sessions at once (crew workers
//!   read it concurrently without locks — it never changes during a run).
//! * **Shared, mutable** — the page cache and the disk's shared clock.
//!   These live *outside* the context: the cache is passed to the executor
//!   separately (see [`PageCache`](scout_storage::PageCache)) and handles
//!   its own synchronization.
//! * **Per-session** — the prefetcher's history, the disk head, the query
//!   stream cursor and the trace. These belong to
//!   [`Session`](crate::session::Session), one per client.

use scout_geometry::{Aabb, ObjectAdjacency, SpatialObject};
use scout_index::{OrderedSpatialIndex, SpatialIndex};

/// The environment handed to prefetchers: the dataset's objects, the
/// spatial index serving queries, and — when the dataset's guiding
/// structure is explicit (§4.1) — the object adjacency graph.
///
/// Prefetchers must not look at anything else; in particular the
/// ground-truth guide graph and `StructureId`s are off limits (§7.1: SCOUT
/// "do\[es\] not exploit any application specific information").
pub struct SimContext<'a> {
    /// All dataset objects, indexed by `ObjectId`.
    pub objects: &'a [SpatialObject],
    /// The index executing range queries.
    pub index: &'a (dyn SpatialIndex + Sync),
    /// The same index when it supports ordered retrieval (FLAT class);
    /// `None` when running on a plain R-tree.
    pub ordered: Option<&'a (dyn OrderedSpatialIndex + Sync)>,
    /// Bounding box of the dataset (grids for Hilbert/Layered prefetch).
    pub bounds: Aabb,
    /// Explicit object adjacency, when the dataset provides one.
    pub adjacency: Option<&'a ObjectAdjacency>,
}

impl<'a> SimContext<'a> {
    /// Context over a plain range-query index.
    pub fn new(
        objects: &'a [SpatialObject],
        index: &'a (dyn SpatialIndex + Sync),
        bounds: Aabb,
    ) -> SimContext<'a> {
        SimContext { objects, index, ordered: None, bounds, adjacency: None }
    }

    /// Attaches an ordered index view (enables SCOUT-OPT).
    pub fn with_ordered(mut self, ordered: &'a (dyn OrderedSpatialIndex + Sync)) -> SimContext<'a> {
        self.ordered = Some(ordered);
        self
    }

    /// Attaches an explicit object adjacency graph.
    pub(crate) fn with_adjacency(mut self, adjacency: &'a ObjectAdjacency) -> SimContext<'a> {
        self.adjacency = Some(adjacency);
        self
    }
}

/// Every field is a shared reference to immutable data, so a context can be
/// handed to all session threads at once. (Compile-time check.)
const _: fn() = || {
    fn assert_sync<T: Sync>() {}
    assert_sync::<SimContext<'static>>();
};
