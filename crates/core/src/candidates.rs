//! Iterative candidate pruning (§4.3).
//!
//! "SCOUT inspects the two recent query results to identify the set of
//! structures x that exit the (n−1)th query and the set of structures e
//! that enter the nth query. The intersection … is the candidate set. …
//! In case of a reset … the candidate set again contains all spatial
//! structures from the last range query result."
//!
//! Continuity between consecutive results is established two ways:
//! - **shared exit objects** — a structure that exits query *n−1* toward
//!   the user's movement does so through boundary-crossing objects, and
//!   those same objects lie inside the adjacent query *n*; a component of
//!   query *n* continues a candidate iff it contains one of the previous
//!   candidates' (forward) exit objects. Merely sharing interior objects
//!   is not enough — in dense tissue every structure in the overlap slab
//!   would "continue", and the candidate set would never shrink;
//! - **predicted-location proximity** — with gaps there are no shared
//!   objects, so a component continues a candidate iff it has an object
//!   near one of the previous query's extrapolated exit locations.

use crate::graph::ResultGraph;
use scout_geometry::{ObjectId, Vec3};
use scout_storage::IdSet;

/// Cross-query candidate state.
#[derive(Debug, Clone, Default)]
pub struct CandidateTracker {
    /// Forward exit objects of the previous query's candidate components.
    prev_exit_ids: IdSet<ObjectId>,
    /// Spare set the previous generation's buffer is recycled into, so
    /// [`CandidateTracker::commit_ids`] never builds a fresh set
    /// once both buffers have warmed to the workload.
    spare_exit_ids: IdSet<ObjectId>,
    /// Predicted next-query locations from the previous query's exits.
    prev_predictions: Vec<Vec3>,
    /// Number of resets observed (diagnostics).
    resets: usize,
}

/// Result of matching the new graph against the previous candidates.
#[derive(Debug, Clone, Copy)]
pub struct Continuation {
    /// How many components of the new graph continue previous candidates
    /// (0 ⇒ the caller must reset per §4.3); which ones is in the flag
    /// vector handed to [`CandidateTracker::continuing_components`].
    pub components: usize,
    /// Pruning work performed (vertex/prediction comparisons).
    pub steps: u64,
}

/// Sets a component's candidate flag; 1 if it was not set before, so a
/// caller summing the returns counts distinct components.
pub(crate) fn flag_component(flags: &mut [bool], comp: u32) -> usize {
    usize::from(!std::mem::replace(&mut flags[comp as usize], true))
}

impl CandidateTracker {
    /// Fresh tracker (start of a sequence).
    pub fn new() -> CandidateTracker {
        CandidateTracker::default()
    }

    /// True before any query has been committed.
    pub fn is_empty(&self) -> bool {
        self.prev_exit_ids.is_empty() && self.prev_predictions.is_empty()
    }

    /// Number of resets since the last [`CandidateTracker::clear`].
    pub fn resets(&self) -> usize {
        self.resets
    }

    /// The previous query's forward exit objects — where the candidate
    /// structures crossed into the current query.
    pub fn previous_exit_objects(&self) -> &IdSet<ObjectId> {
        &self.prev_exit_ids
    }

    /// The previous query's predicted locations (gap continuity anchors).
    pub fn previous_predictions(&self) -> &[Vec3] {
        &self.prev_predictions
    }

    /// Flags the components of `graph` that continue the previous candidate
    /// set: `flags` comes back with one entry per component (`comp_count`
    /// of them), true for the continuing ones. `centroids` are the result
    /// frame's per-vertex centroids.
    ///
    /// The previous exit objects are few (hundreds at most) and the graph
    /// carries a dense object → vertex index, so shared-exit continuity
    /// probes that index per previous exit instead of hashing every vertex
    /// id into the exit set; the charged work is still one step per vertex,
    /// the scan the cost model prices.
    pub fn continuing_components(
        &self,
        centroids: &[Vec3],
        graph: &ResultGraph,
        component_of: &[u32],
        comp_count: usize,
        tolerance: f64,
        flags: &mut Vec<bool>,
    ) -> Continuation {
        flags.clear();
        flags.resize(comp_count, false);
        let mut components = 0usize;
        let mut steps: u64 = 0;
        if self.is_empty() {
            return Continuation { components, steps };
        }
        // Shared-exit-object continuity.
        steps += graph.vertex_count() as u64;
        for &oid in &self.prev_exit_ids {
            if let Some(v) = graph.vertex_of(oid) {
                components += flag_component(flags, component_of[v as usize]);
            }
        }
        // Predicted-location proximity (gap continuity).
        if components == 0 && !self.prev_predictions.is_empty() {
            for (&comp, c) in component_of.iter().zip(centroids) {
                for p in &self.prev_predictions {
                    steps += 1;
                    if c.distance(*p) <= tolerance {
                        components += flag_component(flags, comp);
                        break;
                    }
                }
            }
        }
        Continuation { components, steps }
    }

    /// Commits this query's (forward) exit objects and predictions as the
    /// reference for the next query.
    ///
    /// Predictions are passed as a slice and copied into the tracker's own
    /// buffer, so the caller can stage them in reusable scratch and the
    /// tracker's capacity amortizes across queries.
    pub fn commit(&mut self, exit_objects: IdSet<ObjectId>, predictions: &[Vec3], was_reset: bool) {
        self.commit_ids(exit_objects, predictions, was_reset);
    }

    /// [`CandidateTracker::commit`] from an id iterator, recycling the
    /// tracker's two exit-set buffers: the outgoing generation's set
    /// becomes the next commit's target, so steady-state commits perform
    /// no set construction.
    pub fn commit_ids<I: IntoIterator<Item = ObjectId>>(
        &mut self,
        exit_objects: I,
        predictions: &[Vec3],
        was_reset: bool,
    ) {
        std::mem::swap(&mut self.prev_exit_ids, &mut self.spare_exit_ids);
        self.prev_exit_ids.clear();
        self.prev_exit_ids.extend(exit_objects);
        self.prev_predictions.clear();
        self.prev_predictions.extend_from_slice(predictions);
        if was_reset {
            self.resets += 1;
        }
    }

    /// Clears all state (sequence boundary).
    pub fn clear(&mut self) {
        self.prev_exit_ids.clear();
        self.spare_exit_ids.clear();
        self.prev_predictions.clear();
        self.resets = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{
        Aspect, QueryRegion, Segment, Shape, Simplification, SpatialObject, StructureId,
    };

    fn seg_object(id: u32, a: Vec3, b: Vec3) -> SpatialObject {
        SpatialObject::new(ObjectId(id), StructureId(0), Shape::Segment(Segment::new(a, b)))
    }

    /// Two parallel chains along x; the query sees both.
    fn fixture() -> (Vec<SpatialObject>, ResultGraph, Vec<u32>) {
        let mut objects = Vec::new();
        for i in 0..4u32 {
            objects.push(seg_object(
                i,
                Vec3::new(i as f64 * 2.0, 2.0, 5.0),
                Vec3::new((i + 1) as f64 * 2.0, 2.0, 5.0),
            ));
        }
        for i in 0..4u32 {
            objects.push(seg_object(
                4 + i,
                Vec3::new(i as f64 * 2.0, 8.0, 5.0),
                Vec3::new((i + 1) as f64 * 2.0, 8.0, 5.0),
            ));
        }
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let region = QueryRegion::new(Vec3::new(5.0, 5.0, 5.0), 1000.0, Aspect::Cube);
        let (g, _) =
            ResultGraph::grid_hash(&objects, &ids, &region, 32_768, Simplification::Segment);
        let (comp, n) = g.components();
        assert_eq!(n, 2);
        (objects, g, comp)
    }

    /// The continuing components as a sorted list.
    fn continuing(
        t: &CandidateTracker,
        objects: &[SpatialObject],
        g: &ResultGraph,
        comp: &[u32],
        tolerance: f64,
    ) -> Vec<u32> {
        let centroids: Vec<Vec3> =
            g.object_ids().iter().map(|o| objects[o.index()].centroid()).collect();
        let mut flags = Vec::new();
        let c = t.continuing_components(&centroids, g, comp, 2, tolerance, &mut flags);
        let set: Vec<u32> = (0..2).filter(|&c| flags[c as usize]).collect();
        assert_eq!(c.components, set.len());
        set
    }

    #[test]
    fn empty_tracker_continues_nothing() {
        let (objects, g, comp) = fixture();
        let t = CandidateTracker::new();
        assert!(continuing(&t, &objects, &g, &comp, 1.0).is_empty());
    }

    #[test]
    fn shared_exit_object_continuity_selects_right_component() {
        let (objects, g, comp) = fixture();
        let mut t = CandidateTracker::new();
        // Previous exit object: object 1 on the lower chain.
        let lower_comp = comp[g.vertex_of(ObjectId(1)).unwrap() as usize];
        t.commit([ObjectId(1)].into_iter().collect(), &[], false);
        assert_eq!(continuing(&t, &objects, &g, &comp, 1.0), [lower_comp]);
    }

    #[test]
    fn proximity_continuity_when_no_shared_objects() {
        let (objects, g, comp) = fixture();
        let mut t = CandidateTracker::new();
        // No shared exit ids but a prediction near the upper chain at y=8.
        t.commit(IdSet::default(), &[Vec3::new(3.0, 8.0, 5.0)], false);
        let upper_comp = comp[g.vertex_of(ObjectId(5)).unwrap() as usize];
        assert_eq!(continuing(&t, &objects, &g, &comp, 2.0), [upper_comp]);
    }

    #[test]
    fn far_prediction_matches_nothing() {
        let (objects, g, comp) = fixture();
        let mut t = CandidateTracker::new();
        t.commit(IdSet::default(), &[Vec3::new(500.0, 500.0, 500.0)], false);
        assert!(continuing(&t, &objects, &g, &comp, 2.0).is_empty());
    }

    #[test]
    fn reset_counter_and_clear() {
        let (_, _g, _comp) = fixture();
        let mut t = CandidateTracker::new();
        t.commit(IdSet::default(), &[], true);
        t.commit(IdSet::default(), &[], true);
        assert_eq!(t.resets(), 2);
        t.clear();
        assert_eq!(t.resets(), 0);
        assert!(t.is_empty());
    }
}
