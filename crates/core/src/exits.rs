//! Exit detection and linear extrapolation (§4.4).
//!
//! After candidate pruning, SCOUT traverses the graph "to find the
//! locations where the graph exits the query", then "uses the edges exiting
//! the current query and extrapolates them linearly to predict the
//! locations of the next queries". (Higher-order extrapolation "do\[es\] not
//! yield better results" — §4.4.)

use crate::graph::{ResultGraph, VertexId};
use scout_geometry::{Aabb, QueryRegion, Segment, Simplification, Simplified, SpatialObject, Vec3};
use scout_sim::ResultFrame;

/// A location where a candidate structure leaves the query region.
#[derive(Debug, Clone, Copy)]
pub struct Exit {
    /// Point on the query boundary.
    pub point: Vec3,
    /// Outward unit direction of the structure at the boundary.
    pub dir: Vec3,
    /// The boundary-crossing vertex.
    pub vertex: VertexId,
    /// Its connected component (candidate structure).
    pub component: u32,
}

/// Finds the exit of one object's simplified geometry from the region, if
/// it crosses the boundary outward.
pub(crate) fn exit_of_object(
    object: &SpatialObject,
    region: &QueryRegion,
    simplification: Simplification,
) -> Option<(Vec3, Vec3)> {
    exit_of_simplified(&object.shape.simplified(simplification), region)
}

/// [`exit_of_object`] on geometry that is already simplified — what the
/// hot path holds in its result frame.
pub(crate) fn exit_of_simplified(
    simplified: &Simplified,
    region: &QueryRegion,
) -> Option<(Vec3, Vec3)> {
    match simplified {
        Simplified::Segment(seg) => exit_of_segment(seg, region),
        Simplified::Point(_) => None, // points cannot cross
        Simplified::Box(b) => {
            // MBR-simplified objects: crossing when intersecting but not
            // contained; exit at the nearest boundary point to the
            // centroid, pointing outward.
            if !region.aabb().intersects(b) || region.aabb().contains_aabb(b) {
                return None;
            }
            let c = b.center();
            let inside = region.aabb().closest_point(c);
            let dir = (c - inside).normalized()?;
            Some((inside, dir))
        }
    }
}

/// Exit of a segment, trying both orientations so the outward direction is
/// always oriented from inside to outside.
fn exit_of_segment(seg: &Segment, region: &QueryRegion) -> Option<(Vec3, Vec3)> {
    let a_in = region.aabb().contains_point(seg.a);
    let b_in = region.aabb().contains_point(seg.b);
    match (a_in, b_in) {
        (true, true) => None,
        (true, false) => region.exit_of_segment(seg),
        (false, true) => region.exit_of_segment(&Segment::new(seg.b, seg.a)),
        (false, false) => {
            // Passes through: report the far-side exit in its own
            // orientation (rare for result objects).
            region.exit_of_segment(seg)
        }
    }
}

/// Finds all exits of the flagged components (or of every component when
/// `components_filter` is `None`), reading each vertex's centroid and
/// simplified geometry from the result `frame` the graph build gathered.
///
/// `component_of` labels the vertices `0..comp_count`. `out` receives the
/// exits (cleared first); `centroid_sum` and `component_tally` are
/// per-component accumulator scratch — on the hot path all of them come
/// from the stepping thread's [`scout_sim::QueryScratch`] arena plus the
/// prefetcher's exit buffer. Returns the number of traversal steps
/// performed — the DFS over candidate structures whose cost Figure 16
/// measures: one per examined vertex plus one per incident edge, summed
/// per component in the centroid pass.
///
/// The outward direction of each exit is smoothed: a single small object
/// (a 3 µm cylinder) carries a very noisy local direction, so the reported
/// direction blends the boundary object's own direction with the chord
/// from the component's interior centroid to the exit point — the course
/// of the structure *across* the query, which is what linear extrapolation
/// (§4.4) should continue.
// Hot-path entry point: the last three parameters are scratch buffers, not
// a bundleable configuration.
#[allow(clippy::too_many_arguments)]
pub fn find_exits_into(
    frame: &ResultFrame,
    graph: &ResultGraph,
    component_of: &[u32],
    comp_count: usize,
    region: &QueryRegion,
    components_filter: Option<&[bool]>,
    centroid_sum: &mut Vec<Vec3>,
    component_tally: &mut Vec<(u32, u32)>,
    out: &mut Vec<Exit>,
) -> u64 {
    debug_assert_eq!(frame.len(), graph.vertex_count(), "frame describes another result");
    out.clear();
    // Pass 1: per-component interior centroids, member counts and steps.
    centroid_sum.clear();
    centroid_sum.resize(comp_count, Vec3::ZERO);
    component_tally.clear();
    component_tally.resize(comp_count, (0, 0));
    for (v, (&comp, &centroid)) in component_of.iter().zip(&frame.centroids).enumerate() {
        centroid_sum[comp as usize] += centroid;
        let (members, steps) = &mut component_tally[comp as usize];
        *members += 1;
        *steps += 1 + graph.row(v as VertexId).len() as u32;
    }
    let steps = component_tally
        .iter()
        .enumerate()
        .filter(|&(comp, _)| components_filter.is_none_or(|flags| flags[comp]))
        .map(|(_, &(_, steps))| steps as u64)
        .sum();
    // Pass 2: boundary crossings.
    let bounds = region.aabb();
    for (v, simplified) in frame.simplified.iter().enumerate() {
        if surely_inside(simplified, bounds) {
            continue;
        }
        let comp = component_of[v];
        if components_filter.is_some_and(|flags| !flags[comp as usize]) {
            continue;
        }
        if let Some((point, local_dir)) = exit_of_simplified(simplified, region) {
            let members = component_tally[comp as usize].0;
            let centroid = centroid_sum[comp as usize] / members.max(1) as f64;
            let chord = (point - centroid).normalized().unwrap_or(local_dir);
            // Never let the chord flip the direction inward.
            let dir = if chord.dot(local_dir) > 0.0 {
                (local_dir * 0.4 + chord * 0.6).normalized_or_x()
            } else {
                local_dir
            };
            out.push(Exit { point, dir, vertex: v as VertexId, component: comp });
        }
    }
    steps
}

/// True for geometry that cannot cross the boundary: a point, or a segment
/// with both ends in the box — [`exit_of_simplified`]'s `None` cases it
/// can decide with six comparisons an end and no branch.
#[inline]
fn surely_inside(simplified: &Simplified, bounds: &Aabb) -> bool {
    let inside = |p: Vec3| {
        (p.x >= bounds.min.x)
            & (p.x <= bounds.max.x)
            & (p.y >= bounds.min.y)
            & (p.y <= bounds.max.y)
            & (p.z >= bounds.min.z)
            & (p.z <= bounds.max.z)
    };
    match simplified {
        Simplified::Segment(seg) => inside(seg.a) & inside(seg.b),
        Simplified::Point(_) => true,
        Simplified::Box(_) => false,
    }
}

/// Linear extrapolation of an exit: the predicted point `distance` beyond
/// the boundary along the structure's outward direction.
#[inline]
pub(crate) fn extrapolate(exit: &Exit, distance: f64) -> Vec3 {
    exit.point + exit.dir * distance
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::{Aspect, ObjectId, Shape, StructureId};

    fn region() -> QueryRegion {
        QueryRegion::new(Vec3::splat(5.0), 1000.0, Aspect::Cube) // side 10 cube at [0,10]^3
    }

    fn seg_object(id: u32, a: Vec3, b: Vec3) -> SpatialObject {
        SpatialObject::new(ObjectId(id), StructureId(0), Shape::Segment(Segment::new(a, b)))
    }

    #[test]
    fn inside_segment_has_no_exit() {
        let o = seg_object(0, Vec3::splat(4.0), Vec3::splat(6.0));
        assert!(exit_of_object(&o, &region(), Simplification::Segment).is_none());
    }

    #[test]
    fn crossing_segment_exits_outward() {
        let o = seg_object(0, Vec3::new(5.0, 5.0, 5.0), Vec3::new(15.0, 5.0, 5.0));
        let (p, d) = exit_of_object(&o, &region(), Simplification::Segment).unwrap();
        assert!((p.x - 10.0).abs() < 1e-9);
        assert!(d.x > 0.99);
    }

    #[test]
    fn reversed_segment_still_exits_outward() {
        // Geometry stored outside-to-inside: direction must still point out.
        let o = seg_object(0, Vec3::new(15.0, 5.0, 5.0), Vec3::new(5.0, 5.0, 5.0));
        let (p, d) = exit_of_object(&o, &region(), Simplification::Segment).unwrap();
        assert!((p.x - 10.0).abs() < 1e-9);
        assert!(d.x > 0.99, "direction flipped: {d:?}");
    }

    #[test]
    fn extrapolation_moves_along_direction() {
        let e = Exit {
            point: Vec3::new(10.0, 5.0, 5.0),
            dir: Vec3::new(1.0, 0.0, 0.0),
            vertex: 0,
            component: 0,
        };
        assert_eq!(extrapolate(&e, 7.0), Vec3::new(17.0, 5.0, 5.0));
    }

    /// One-shot `find_exits_into` over a freshly gathered frame.
    fn find_exits(
        objects: &[SpatialObject],
        graph: &ResultGraph,
        component_of: &[u32],
        filter: Option<&[bool]>,
    ) -> (Vec<Exit>, u64) {
        let mut frame = ResultFrame::default();
        let ids: Vec<ObjectId> =
            (0..graph.vertex_count() as VertexId).map(|v| graph.object_id(v)).collect();
        frame.gather(objects, &ids, Simplification::Segment);
        let mut exits = Vec::new();
        let comp_count = component_of.iter().max().map_or(0, |&c| c as usize + 1);
        let steps = find_exits_into(
            &frame,
            graph,
            component_of,
            comp_count,
            &region(),
            filter,
            &mut Vec::new(),
            &mut Vec::new(),
            &mut exits,
        );
        (exits, steps)
    }

    #[test]
    fn find_exits_filters_components() {
        // Two chains: one crossing the +x face, one fully inside.
        let objects = vec![
            seg_object(0, Vec3::new(8.0, 5.0, 5.0), Vec3::new(12.0, 5.0, 5.0)),
            seg_object(1, Vec3::new(4.0, 5.0, 5.0), Vec3::new(8.0, 5.0, 5.0)),
            seg_object(2, Vec3::new(2.0, 2.0, 2.0), Vec3::new(3.0, 3.0, 3.0)),
        ];
        let ids: Vec<ObjectId> = objects.iter().map(|o| o.id).collect();
        let (g, _) =
            ResultGraph::grid_hash(&objects, &ids, &region(), 32_768, Simplification::Segment);
        let (comp, n) = g.components();
        assert_eq!(n, 2);
        let (all, steps) = find_exits(&objects, &g, &comp, None);
        assert_eq!(all.len(), 1);
        assert!(steps > 0);
        // Filtering to the inside component finds nothing.
        let inside_comp = comp[g.vertex_of(ObjectId(2)).unwrap() as usize];
        let filter: Vec<bool> = (0..n as u32).map(|c| c == inside_comp).collect();
        let (none, _) = find_exits(&objects, &g, &comp, Some(&filter));
        assert!(none.is_empty());
    }
}
