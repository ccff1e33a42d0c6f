//! Synthetic road network.
//!
//! Stands in for the North-America road network of §8.4 (7.2 M 2-D line
//! segments, 531 MB): a perturbed lattice of intersections connected by
//! polyline roads, embedded at z = 0 inside a thin 3-D slab. Road segments
//! carry explicit adjacency (consecutive segments of a road, and all road
//! ends meeting at an intersection), exercising SCOUT's explicit-structure
//! path on a 2-D dataset and the mobile-navigation use case.

use crate::dataset::{Dataset, Domain};
use crate::guide::{GuideBuilder, ObjectAdjacency};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scout_geometry::{Aabb, ObjectId, Segment, Shape, SpatialObject, StructureId, Vec3};

/// Parameters of the road-network generator.
#[derive(Debug, Clone, Copy)]
pub struct RoadParams {
    /// Intersections per axis (the lattice is `grid_n × grid_n`).
    pub grid_n: usize,
    /// Lattice spacing, µm (kept in µm for unit consistency; think of it
    /// as meters at a 1:1 scale factor for the navigation use case).
    pub spacing: f64,
    /// Random displacement of each intersection as a fraction of spacing.
    pub jitter_frac: f64,
    /// Probability of keeping each lattice edge (road).
    pub keep_prob: f64,
    /// Line segments per road (roads are polylines, not straight lines).
    pub segments_per_road: usize,
    /// Lateral wiggle of interior road vertices as a fraction of spacing.
    pub wiggle_frac: f64,
    /// Height of the z slab the network is embedded in.
    pub slab_height: f64,
}

impl Default for RoadParams {
    fn default() -> Self {
        RoadParams {
            grid_n: 48,
            spacing: 30.0,
            jitter_frac: 0.25,
            keep_prob: 0.92,
            segments_per_road: 4,
            wiggle_frac: 0.08,
            slab_height: 4.0,
        }
    }
}

/// Generates a road network. Deterministic in `seed`.
pub fn generate_roads(params: &RoadParams, seed: u64) -> Dataset {
    assert!(params.grid_n >= 2);
    let mut rng = StdRng::seed_from_u64(seed);
    let n = params.grid_n;
    let side = (n - 1) as f64 * params.spacing;
    let bounds = Aabb::new(
        Vec3::new(0.0, 0.0, -params.slab_height / 2.0),
        Vec3::new(side, side, params.slab_height / 2.0),
    );

    // Jittered intersections.
    let mut guide = GuideBuilder::new();
    let mut nodes = vec![0u32; n * n];
    for gy in 0..n {
        for gx in 0..n {
            let jitter = params.spacing * params.jitter_frac;
            let p = Vec3::new(
                (gx as f64 * params.spacing + rng.random_range(-jitter..=jitter)).clamp(0.0, side),
                (gy as f64 * params.spacing + rng.random_range(-jitter..=jitter)).clamp(0.0, side),
                0.0,
            );
            nodes[gy * n + gx] = guide.add_node(p);
        }
    }

    let mut objects: Vec<SpatialObject> = Vec::new();
    let mut adjacency: Vec<Vec<ObjectId>> = Vec::new();
    // Segments incident to each intersection (for intersection adjacency).
    let mut incident: Vec<Vec<ObjectId>> = vec![Vec::new(); n * n];

    let mut road_id = 0u32;
    let mut add_road = |rng: &mut StdRng,
                        guide: &mut GuideBuilder,
                        objects: &mut Vec<SpatialObject>,
                        adjacency: &mut Vec<Vec<ObjectId>>,
                        incident: &mut Vec<Vec<ObjectId>>,
                        ia: usize,
                        ib: usize| {
        let a = guide.position(nodes[ia]);
        let b = guide.position(nodes[ib]);
        let wiggle = params.spacing * params.wiggle_frac;
        // Interior vertices with lateral wiggle.
        let mut pts = vec![a];
        let mut prev_node = nodes[ia];
        for k in 1..params.segments_per_road {
            let t = k as f64 / params.segments_per_road as f64;
            let p = (a.lerp(b, t)
                + Vec3::new(
                    rng.random_range(-wiggle..=wiggle),
                    rng.random_range(-wiggle..=wiggle),
                    0.0,
                ))
            .clamp(Vec3::new(0.0, 0.0, 0.0), Vec3::new(side, side, 0.0));
            let node = guide.add_node(p);
            guide.add_edge(prev_node, node);
            prev_node = node;
            pts.push(p);
        }
        guide.add_edge(prev_node, nodes[ib]);
        pts.push(b);

        let mut prev_seg: Option<ObjectId> = None;
        for w in pts.windows(2) {
            let oid = ObjectId(objects.len() as u32);
            objects.push(SpatialObject::new(
                oid,
                StructureId(road_id),
                Shape::Segment(Segment::new(w[0], w[1])),
            ));
            adjacency.push(Vec::new());
            if let Some(p) = prev_seg {
                adjacency[p.index()].push(oid);
                adjacency[oid.index()].push(p);
            }
            prev_seg = Some(oid);
        }
        // First/last segments touch the two intersections.
        let first = ObjectId(objects.len() as u32 - params.segments_per_road as u32);
        let last = ObjectId(objects.len() as u32 - 1);
        incident[ia].push(first);
        incident[ib].push(last);
        road_id += 1;
    };

    for gy in 0..n {
        for gx in 0..n {
            let here = gy * n + gx;
            if gx + 1 < n && rng.random::<f64>() < params.keep_prob {
                add_road(
                    &mut rng,
                    &mut guide,
                    &mut objects,
                    &mut adjacency,
                    &mut incident,
                    here,
                    here + 1,
                );
            }
            if gy + 1 < n && rng.random::<f64>() < params.keep_prob {
                add_road(
                    &mut rng,
                    &mut guide,
                    &mut objects,
                    &mut adjacency,
                    &mut incident,
                    here,
                    here + n,
                );
            }
        }
    }

    // Intersection adjacency: all segments meeting at a junction are
    // mutually connected.
    for segs in &incident {
        for i in 0..segs.len() {
            for j in (i + 1)..segs.len() {
                let (a, b) = (segs[i], segs[j]);
                if !adjacency[a.index()].contains(&b) {
                    adjacency[a.index()].push(b);
                    adjacency[b.index()].push(a);
                }
            }
        }
    }

    let adjacency = ObjectAdjacency::from_lists(&adjacency);
    let guide = guide.finish();
    Dataset { domain: Domain::RoadNetwork, objects, bounds, guide, adjacency: Some(adjacency) }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> RoadParams {
        RoadParams { grid_n: 8, ..Default::default() }
    }

    #[test]
    fn digest_is_pinned() {
        // Recorded from the generator as first written: a changed draw
        // order or growth step moves it, which two same-code runs cannot.
        let d = generate_roads(&small(), 9);
        assert_eq!((d.len(), d.digest()), (408, 0x0da4_d364_1883_bf2a));
    }

    #[test]
    fn guide_is_pinned() {
        // Recorded before the guide's adjacency moved to one CSR array:
        // node positions, edges and each row's order are unchanged.
        let g = generate_roads(&small(), 9).guide;
        assert_eq!((g.node_count(), g.edge_count(), g.digest()), (370, 408, 0x0697_e409_8a24_469a));
    }

    #[test]
    fn network_scale_and_validity() {
        let d = generate_roads(&small(), 1);
        d.validate().expect("invalid dataset");
        assert_eq!(d.domain, Domain::RoadNetwork);
        // 8x8 lattice: up to 2*8*7 = 112 roads x 4 segments.
        assert!(d.len() > 200, "len = {}", d.len());
        assert!(d.objects.iter().all(|o| matches!(o.shape, Shape::Segment(_))));
    }

    #[test]
    fn segments_are_planar() {
        let d = generate_roads(&small(), 2);
        for o in &d.objects {
            if let Shape::Segment(s) = o.shape {
                assert_eq!(s.a.z, 0.0);
                assert_eq!(s.b.z, 0.0);
            }
        }
    }

    #[test]
    fn adjacency_symmetric_and_mostly_connected() {
        let d = generate_roads(&small(), 3);
        let adj = d.adjacency.as_ref().unwrap();
        for i in 0..d.len() {
            let oid = ObjectId(i as u32);
            for &nb in adj.neighbors(oid) {
                assert!(adj.neighbors(nb).contains(&oid));
            }
        }
        // BFS: the road network should be one big component (keep_prob .92).
        let mut seen = vec![false; d.len()];
        let mut queue = std::collections::VecDeque::from([ObjectId(0)]);
        seen[0] = true;
        let mut count = 0;
        while let Some(t) = queue.pop_front() {
            count += 1;
            for &nb in adj.neighbors(t) {
                if !seen[nb.index()] {
                    seen[nb.index()] = true;
                    queue.push_back(nb);
                }
            }
        }
        assert!(count as f64 > d.len() as f64 * 0.8, "fragmented: {count}/{}", d.len());
    }

    #[test]
    fn roads_connect_their_intersections() {
        let d = generate_roads(&small(), 4);
        // Consecutive segments of the same road share an endpoint.
        let adj = d.adjacency.as_ref().unwrap();
        for i in 0..d.len() {
            let oid = ObjectId(i as u32);
            if let Shape::Segment(s) = d.objects[i].shape {
                for &nb in adj.neighbors(oid) {
                    if d.objects[nb.index()].structure == d.objects[i].structure {
                        if let Shape::Segment(t) = d.objects[nb.index()].shape {
                            let touch =
                                s.a.distance(t.b)
                                    .min(s.b.distance(t.a))
                                    .min(s.a.distance(t.a))
                                    .min(s.b.distance(t.b));
                            assert!(touch < 1e-9, "same-road neighbors don't touch");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let a = generate_roads(&small(), 9);
        let b = generate_roads(&small(), 9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.objects[5].centroid(), b.objects[5].centroid());
    }
}
