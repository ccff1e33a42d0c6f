//! The dataset container produced by every generator.

use crate::guide::{GuideGraph, ObjectAdjacency};
use scout_geometry::{Aabb, SpatialObject};

/// Which scientific domain a dataset models (§8.4 tests SCOUT on all four).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Brain-tissue model: somata and branching fiber cylinders (§7.1).
    Neuron,
    /// Arterial tree of smooth cylinders (pig's heart, §8.4).
    Arterial,
    /// Lung airway surface mesh of triangles (§8.4).
    LungAirway,
    /// 2-D road network of line segments embedded at z = 0 (§8.4).
    RoadNetwork,
}

impl Domain {
    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Neuron => "neuron",
            Domain::Arterial => "arterial",
            Domain::LungAirway => "lung-airway",
            Domain::RoadNetwork => "road-network",
        }
    }
}

/// A complete synthetic dataset: objects, ground truth, and (when the
/// guiding structure is explicit, §4.1) an object adjacency graph.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Domain tag.
    pub domain: Domain,
    /// All spatial objects; `objects[i].id == ObjectId(i)`.
    pub objects: Vec<SpatialObject>,
    /// Bounding box of the modeled volume.
    pub bounds: Aabb,
    /// Ground-truth structure skeletons (used only to script walks).
    pub guide: GuideGraph,
    /// Explicit object adjacency (mesh faces, road segments); `None` for
    /// datasets whose structure is implicit and must be grid-hashed.
    pub adjacency: Option<ObjectAdjacency>,
}

impl Dataset {
    /// Number of objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True when the dataset has no objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Validates internal invariants (dense ids, objects inside bounds,
    /// adjacency covering all objects).
    #[cfg(test)]
    pub(crate) fn validate(&self) -> Result<(), String> {
        for (i, o) in self.objects.iter().enumerate() {
            if o.id.index() != i {
                return Err(format!("object at position {i} has id {:?}", o.id));
            }
            if !self.bounds.expanded(1.0).intersects(&o.aabb()) {
                return Err(format!("object {i} lies outside dataset bounds"));
            }
        }
        if let Some(adj) = &self.adjacency {
            if adj.object_count() != self.objects.len() {
                return Err(format!(
                    "adjacency covers {} objects, dataset has {}",
                    adj.object_count(),
                    self.objects.len()
                ));
            }
        }
        Ok(())
    }

    /// Mean object density, objects per µm³.
    pub fn density(&self) -> f64 {
        self.objects.len() as f64 / self.bounds.volume()
    }
}
