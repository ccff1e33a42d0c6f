//! Guided spatial query sequence generation.
//!
//! §7.2/§8.4: query sequences are scripted by walking the dataset's
//! structure graph — "the queries are generated by making a random walk on
//! the graph representation of the entire dataset" — and placing range
//! queries along the walked path: adjacent and slightly overlapping
//! (gap = 0) or separated by a gap distance (Figure 10's
//! visualization-with-gaps benchmarks).

use crate::dataset::Dataset;
use crate::guide::{GuideGraph, GuideNodeId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scout_geometry::{Aspect, QueryRegion, Vec3};

/// Parameters of a guided query sequence (one row of Figure 10).
#[derive(Debug, Clone, Copy)]
pub struct SequenceParams {
    /// Number of queries in the sequence.
    pub length: usize,
    /// Volume of each query, µm³.
    pub volume: f64,
    /// Query aspect ratio.
    pub aspect: Aspect,
    /// Gap distance between consecutive query boundaries, µm (0 = adjacent
    /// and slightly overlapping).
    pub gap: f64,
    /// Overlap between consecutive queries as a fraction of the query side
    /// (only used when `gap == 0`).
    pub overlap_frac: f64,
    /// Probability, per query, that the user abandons the followed
    /// structure and jumps to a different one (§4.3 reset). The default
    /// benchmarks use 0; robustness experiments raise it.
    pub reset_prob: f64,
}

impl SequenceParams {
    /// A 25-query sequence of 80 000 µm³ cubes — the §7.4 sensitivity-
    /// analysis default.
    pub fn sensitivity_default() -> SequenceParams {
        SequenceParams {
            length: 25,
            volume: 80_000.0,
            aspect: Aspect::Cube,
            gap: 0.0,
            overlap_frac: 0.1,
            reset_prob: 0.0,
        }
    }

    /// Distance between consecutive query centers along the guide path.
    pub fn center_step(&self) -> f64 {
        let side = self.volume.cbrt();
        if self.gap > 0.0 {
            side + self.gap
        } else {
            side * (1.0 - self.overlap_frac)
        }
    }

    /// Total guide-path arc length needed for the full sequence.
    pub(crate) fn required_path_len(&self) -> f64 {
        self.center_step() * (self.length.max(1) - 1) as f64 + self.volume.cbrt()
    }
}

/// A generated guided query sequence.
#[derive(Debug, Clone)]
pub struct GuidedSequence {
    /// The range queries, in issue order.
    pub regions: Vec<QueryRegion>,
}

/// Walks the guide graph from `start`: a non-backtracking random walk that
/// reverses only at dead ends, until `needed_len` of arc length (or the
/// step cap) is accumulated.
fn random_walk<R: Rng + ?Sized>(
    guide: &GuideGraph,
    rng: &mut R,
    start: GuideNodeId,
    needed_len: f64,
) -> (Vec<Vec3>, f64) {
    let mut path = vec![guide.position(start)];
    let mut len = 0.0;
    let mut prev: Option<GuideNodeId> = None;
    let mut cur = start;
    let max_steps = 500_000;
    for _ in 0..max_steps {
        if len >= needed_len {
            break;
        }
        let nbrs = guide.neighbors(cur);
        if nbrs.is_empty() {
            break;
        }
        let choices: Vec<GuideNodeId> = nbrs.iter().copied().filter(|&n| Some(n) != prev).collect();
        let next = if choices.is_empty() {
            // Dead end: the user turns around.
            nbrs[0]
        } else {
            choices[rng.random_range(0..choices.len())]
        };
        let p = guide.position(next);
        len += p.distance(*path.last().expect("path is non-empty"));
        path.push(p);
        prev = Some(cur);
        cur = next;
    }
    (path, len)
}

/// The point at arc length `s` along a polyline (clamped to its ends).
fn point_at_arc(path: &[Vec3], s: f64) -> Vec3 {
    let mut remaining = s.max(0.0);
    for w in path.windows(2) {
        let seg_len = w[0].distance(w[1]);
        if seg_len <= 0.0 {
            continue;
        }
        if remaining <= seg_len {
            return w[0].lerp(w[1], remaining / seg_len);
        }
        remaining -= seg_len;
    }
    *path.last().expect("path is non-empty")
}

/// Generates one guided query sequence by walking the dataset's structure
/// graph. Retries several walk starts and keeps the longest walk so that
/// sequences nearly always fit on a real structure.
pub fn generate_sequence(
    dataset: &Dataset,
    params: &SequenceParams,
    rng: &mut StdRng,
) -> GuidedSequence {
    assert!(params.length >= 1);
    let guide = &dataset.guide;
    assert!(guide.node_count() > 1, "dataset has no guide graph to walk");
    let needed = params.required_path_len();

    let mut best: Option<(Vec<Vec3>, f64)> = None;
    for _attempt in 0..60 {
        let start = rng.random_range(0..guide.node_count() as u32);
        let (path, len) = random_walk(guide, rng, start, needed);
        if len >= needed {
            best = Some((path, len));
            break;
        }
        if best.as_ref().is_none_or(|(_, best_len)| len > *best_len) {
            best = Some((path, len));
        }
    }
    let (path, _len) = best.expect("at least one walk attempt");

    let side = params.volume.cbrt();
    let step = params.center_step();

    if params.reset_prob <= 0.0 {
        let regions = (0..params.length)
            .map(|k| {
                let center = point_at_arc(&path, side / 2.0 + k as f64 * step);
                QueryRegion::new(center, params.volume, params.aspect)
            })
            .collect();
        return GuidedSequence { regions };
    }

    // With resets: split the sequence into runs; each reset re-walks from
    // a fresh random start (the user abandons the structure, §4.3).
    let mut regions = Vec::with_capacity(params.length);
    let mut full_path = path;
    let mut arc = side / 2.0;
    let mut k = 0usize;
    while k < params.length {
        if regions.is_empty() || rng.random::<f64>() >= params.reset_prob {
            regions.push(QueryRegion::new(
                point_at_arc(&full_path, arc),
                params.volume,
                params.aspect,
            ));
            arc += step;
            k += 1;
        } else {
            // Reset: new walk, restart the arc.
            let remaining = params.length - k;
            let needed_rest = step * remaining as f64 + side;
            let start = rng.random_range(0..guide.node_count() as u32);
            let (new_path, _) = random_walk(guide, rng, start, needed_rest);
            full_path = new_path;
            arc = side / 2.0;
        }
    }
    GuidedSequence { regions }
}

/// Generates `count` independent sequences, deterministically from `seed`.
pub fn generate_sequences(
    dataset: &Dataset,
    params: &SequenceParams,
    count: usize,
    seed: u64,
) -> Vec<GuidedSequence> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count).map(|_| generate_sequence(dataset, params, &mut rng)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::neuron::{generate_neurons, NeuronParams};

    fn dataset() -> Dataset {
        generate_neurons(
            &NeuronParams { neuron_count: 10, fiber_steps: 500, ..Default::default() },
            1,
        )
    }

    #[test]
    fn sequence_has_requested_length_and_volume() {
        let d = dataset();
        let params = SequenceParams::sensitivity_default();
        let seqs = generate_sequences(&d, &params, 3, 42);
        assert_eq!(seqs.len(), 3);
        for s in &seqs {
            assert_eq!(s.regions.len(), 25);
            for r in &s.regions {
                assert!((r.volume() - 80_000.0).abs() < 1.0);
            }
        }
    }

    #[test]
    fn adjacent_queries_overlap_without_gap() {
        let d = dataset();
        let params = SequenceParams { overlap_frac: 0.1, ..SequenceParams::sensitivity_default() };
        let seq = generate_sequences(&d, &params, 1, 7).remove(0);
        let mut overlapping = 0;
        for w in seq.regions.windows(2) {
            if w[0].aabb().intersects(w[1].aabb()) {
                overlapping += 1;
            }
        }
        // Centers are spaced 0.9 side apart along a (curving) path; the
        // vast majority of consecutive pairs must overlap.
        assert!(overlapping as f64 >= 0.7 * (seq.regions.len() - 1) as f64, "{overlapping}");
    }

    #[test]
    fn gap_sequences_separate_queries() {
        let d = dataset();
        let params = SequenceParams {
            gap: 25.0,
            volume: 30_000.0,
            length: 20,
            ..SequenceParams::sensitivity_default()
        };
        let seq = generate_sequences(&d, &params, 1, 7).remove(0);
        let mut center_dists = Vec::new();
        for w in seq.regions.windows(2) {
            center_dists.push(w[0].center().distance(w[1].center()));
        }
        let mean: f64 = center_dists.iter().sum::<f64>() / center_dists.len() as f64;
        // Centers along the arc are side+gap apart; euclidean distance can
        // be shorter on bends but should be near the arc step.
        let arc_step = params.center_step();
        assert!(mean > arc_step * 0.55, "mean center distance {mean} vs step {arc_step}");
    }

    #[test]
    fn deterministic_in_seed() {
        let d = dataset();
        let params = SequenceParams::sensitivity_default();
        let a = generate_sequences(&d, &params, 2, 5);
        let b = generate_sequences(&d, &params, 2, 5);
        assert_eq!(a[1].regions[3].center(), b[1].regions[3].center());
        let c = generate_sequences(&d, &params, 2, 6);
        assert!(a[1].regions[3].center() != c[1].regions[3].center());
    }

    #[test]
    fn centers_lie_on_walked_path() {
        let d = dataset();
        let params = SequenceParams::sensitivity_default();
        let seq = generate_sequences(&d, &params, 1, 11).remove(0);
        for r in &seq.regions {
            // Each center must be within one step of some path vertex, and
            // every path vertex is a guide node.
            let min_d = (0..d.guide.node_count() as u32)
                .map(|n| d.guide.position(n).distance(r.center()))
                .fold(f64::INFINITY, f64::min);
            assert!(min_d < 4.0, "center {min_d} µm off the path");
        }
    }

    #[test]
    fn point_at_arc_clamps() {
        let path = vec![Vec3::ZERO, Vec3::new(10.0, 0.0, 0.0)];
        assert_eq!(point_at_arc(&path, -5.0), Vec3::ZERO);
        assert_eq!(point_at_arc(&path, 5.0), Vec3::new(5.0, 0.0, 0.0));
        assert_eq!(point_at_arc(&path, 50.0), Vec3::new(10.0, 0.0, 0.0));
    }
}
