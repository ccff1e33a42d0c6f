//! # scout-geometry
//!
//! Geometry substrate for the SCOUT reproduction: 3-D vectors, axis-aligned
//! boxes, the shape primitives spatial datasets are modeled with, exact
//! intersection predicates, query regions, uniform grids for grid hashing,
//! and Hilbert space-filling curves.
//!
//! All coordinates are `f64` micrometers, matching the units of the paper's
//! evaluation (query volumes in µm³, gap distances in µm).

#![deny(unsafe_code)] // one exception: `dispatch::prefetch_read`

pub mod aabb;
pub mod dispatch;
pub mod grid;
pub mod hilbert;
pub mod intersect;
pub mod object;
pub mod region;
pub mod shapes;
pub mod vec3;

pub use aabb::Aabb;
pub use dispatch::prefetch_read;
pub use grid::{CellId, UniformGrid};
pub use object::{ObjectAdjacency, ObjectId, SpatialObject, StructureId};
pub use region::{Aspect, QueryRegion};
pub use shapes::{Cylinder, Segment, Shape, Simplification, Simplified, Sphere, Triangle};
pub use vec3::Vec3;
