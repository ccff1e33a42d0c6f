//! # scout-geometry
//!
//! Geometry substrate for the SCOUT reproduction: 3-D vectors, axis-aligned
//! boxes, the shape primitives spatial datasets are modeled with, exact
//! intersection predicates, query regions, uniform grids for grid hashing,
//! Hilbert space-filling curves, and the fork-join that splits the
//! workspace's parallel work across cores.
//!
//! All coordinates are `f64` micrometers, matching the units of the paper's
//! evaluation (query volumes in µm³, gap distances in µm).

#![deny(unsafe_code)] // one exception: `dispatch::prefetch_read`

mod aabb;
mod dispatch;
mod grid;
pub mod hilbert;
pub mod intersect;
mod object;
mod region;
mod shapes;
pub mod split;
mod vec3;

pub use aabb::Aabb;
pub use dispatch::prefetch_read;
pub use grid::UniformGrid;
pub use object::{ObjectAdjacency, ObjectId, SpatialObject, StructureId};
pub use region::{Aspect, QueryRegion};
pub use shapes::{Cylinder, Segment, Shape, Simplification, Simplified, Sphere, Triangle};
pub use vec3::Vec3;
