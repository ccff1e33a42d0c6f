//! # scout-geometry
//!
//! Geometry substrate for the SCOUT reproduction: 3-D vectors, axis-aligned
//! boxes, the shape primitives spatial datasets are modeled with, exact
//! intersection predicates, query regions, uniform grids for grid hashing,
//! and Hilbert/Morton space-filling curves.
//!
//! All coordinates are `f64` micrometers, matching the units of the paper's
//! evaluation (query volumes in µm³, gap distances in µm).

pub mod aabb;
pub mod dispatch;
pub mod grid;
pub mod hilbert;
pub mod intersect;
pub mod morton;
pub mod object;
pub mod region;
pub mod shapes;
pub mod soa;
pub mod vec3;

pub use aabb::Aabb;
pub use dispatch::{cpu_tier, prefetch_read, CpuTier};
pub use grid::{CellId, UniformGrid};
pub use object::{ObjectAdjacency, ObjectId, SpatialObject, StructureId};
pub use region::{Aspect, QueryRegion};
pub use shapes::{Cylinder, Segment, Shape, Simplification, Simplified, Sphere, Triangle};
pub use soa::AabbSoA;
pub use vec3::Vec3;
