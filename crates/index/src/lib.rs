//! # scout-index
//!
//! Spatial indexes over paged layouts: the STR bulk-loaded R-tree the paper
//! couples with plain SCOUT, and a FLAT-style neighborhood index providing
//! the ordered page retrieval SCOUT-OPT requires (§6).

#![forbid(unsafe_code)]

mod flat;
pub mod reference;
mod rtree;
mod str_pack;
mod traits;

pub use flat::{FlatConfig, FlatIndex};
pub use rtree::{KnnScratch, RTree};
pub use str_pack::{str_pack, DEFAULT_PAGE_CAPACITY};
pub use traits::{OrderedSpatialIndex, QueryResult, SpatialIndex};
