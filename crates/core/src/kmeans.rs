//! K-means clustering of exit locations (§5.2.2).
//!
//! When the candidate set is large, "their locations should be chosen so
//! that areas where many candidate structures exit the query are
//! prefetched. We use a k-means approach to find d clusters and … choose an
//! exit location at random in each cluster."

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scout_geometry::Vec3;
use std::hint::select_unpredictable;

/// Buffers of one k-means run, so clustering the exit locations of every
/// query allocates nothing once they have warmed.
#[derive(Debug, Clone, Default)]
pub(crate) struct KmeansScratch {
    /// Cluster centroids.
    pub(crate) centroids: Vec<Vec3>,
    /// Cluster index of each input point.
    pub(crate) assignment: Vec<u32>,
    /// k-means++ seeding: each point's squared distance to its nearest
    /// centroid so far.
    nearest_sq: Vec<f64>,
    /// Lloyd update: per-cluster coordinate sums.
    sums: Vec<Vec3>,
    /// Lloyd update: per-cluster member counts.
    counts: Vec<u32>,
    /// Assign step: the centroids as x, y and z lanes, [`LANES`] to a
    /// block; the last block is padded with copies of the last centroid.
    blocks: Vec<[[f64; LANES]; 3]>,
}

/// Centroids one assign-step block compares a point against.
const LANES: usize = 4;

/// `d`'s rank in `f64::total_cmp` order, as an integer (the transform
/// `total_cmp` itself compares). `i64::MAX` is the rank of the greatest
/// NaN: the running minimum of the assign step before any centroid.
#[inline]
fn total_key(d: f64) -> i64 {
    let bits = d.to_bits() as i64;
    bits ^ (((bits >> 63) as u64) >> 1) as i64
}

/// Result of clustering: centroid and member indices per cluster.
#[derive(Debug, Clone)]
pub struct Cluster {
    /// Cluster centroid.
    pub centroid: Vec3,
    /// Indices into the input point slice.
    pub members: Vec<usize>,
}

/// Lloyd's k-means with k-means++ seeding. Deterministic in `seed`.
/// Returns at most `k` non-empty clusters.
///
/// Allocating wrapper around `kmeans_into` for one-shot callers.
pub fn kmeans(points: &[Vec3], k: usize, seed: u64, iterations: usize) -> Vec<Cluster> {
    let mut scratch = KmeansScratch::default();
    kmeans_into(points, k, seed, iterations, &mut scratch);
    let mut clusters: Vec<Cluster> = scratch
        .centroids
        .iter()
        .map(|&centroid| Cluster { centroid, members: Vec::new() })
        .collect();
    for (i, &a) in scratch.assignment.iter().enumerate() {
        clusters[a as usize].members.push(i);
    }
    clusters.retain(|c| !c.members.is_empty());
    clusters
}

/// [`kmeans`] into caller-provided buffers (the hot path — the
/// prefetcher keeps them): on return `scratch.centroids` holds the
/// at most `k` centroids and `scratch.assignment[i]` the cluster of
/// `points[i]`. A centroid may end up with no member.
///
/// Every point–centroid distance is evaluated once: seeding keeps each
/// point's running minimum over the centroids chosen so far, and the
/// assignment scan keeps the first strictly smaller distance in
/// `total_cmp` order — the tie rule of `Iterator::min_by`.
///
/// The assign step computes a block of four distances from the
/// centroid lanes, in `distance_sq`'s operation order, then keeps the
/// running minimum with `select_unpredictable`: a branch here is taken at
/// random and mispredicted about as often. Blocks are taken in centroid
/// order and a padding lane repeats the last centroid, whose equal
/// distance never beats its earlier twin, so one loop serves every `k`.
pub(crate) fn kmeans_into(
    points: &[Vec3],
    k: usize,
    seed: u64,
    iterations: usize,
    scratch: &mut KmeansScratch,
) {
    let KmeansScratch { centroids, assignment, nearest_sq, sums, counts, blocks } = scratch;
    centroids.clear();
    assignment.clear();
    if points.is_empty() || k == 0 {
        return;
    }
    let k = k.min(points.len());
    let mut rng = SmallRng::seed_from_u64(seed);

    // k-means++ initialization.
    centroids.push(points[rng.random_range(0..points.len())]);
    nearest_sq.clear();
    nearest_sq.resize(points.len(), f64::INFINITY);
    while centroids.len() < k {
        let newest = centroids[centroids.len() - 1];
        for (d, p) in nearest_sq.iter_mut().zip(points) {
            *d = d.min(p.distance_sq(newest));
        }
        let total: f64 = nearest_sq.iter().sum();
        if total <= 0.0 {
            // All points coincide with existing centroids.
            break;
        }
        let mut pick = rng.random::<f64>() * total;
        let mut chosen = points.len() - 1;
        for (i, &d) in nearest_sq.iter().enumerate() {
            if pick <= d {
                chosen = i;
                break;
            }
            pick -= d;
        }
        centroids.push(points[chosen]);
    }

    assignment.resize(points.len(), 0);
    for _ in 0..iterations.max(1) {
        // Assign.
        let last = centroids[centroids.len() - 1];
        blocks.clear();
        for chunk in centroids.chunks(LANES) {
            let c: [Vec3; LANES] = std::array::from_fn(|j| chunk.get(j).copied().unwrap_or(last));
            blocks.push([c.map(|c| c.x), c.map(|c| c.y), c.map(|c| c.z)]);
        }
        let mut changed = false;
        for (slot, p) in assignment.iter_mut().zip(points) {
            let mut best = 0u32;
            let mut best_key = i64::MAX;
            for (b, [xs, ys, zs]) in blocks.iter().enumerate() {
                let mut d = [0.0; LANES];
                for j in 0..LANES {
                    let (dx, dy, dz) = (p.x - xs[j], p.y - ys[j], p.z - zs[j]);
                    d[j] = dx * dx + dy * dy + dz * dz;
                }
                for (j, &d) in d.iter().enumerate() {
                    let key = total_key(d);
                    let take = key < best_key;
                    best_key = select_unpredictable(take, key, best_key);
                    best = select_unpredictable(take, (b * LANES + j) as u32, best);
                }
            }
            changed |= *slot != best;
            *slot = best;
        }
        // Update.
        sums.clear();
        sums.resize(centroids.len(), Vec3::ZERO);
        counts.clear();
        counts.resize(centroids.len(), 0);
        for (&a, p) in assignment.iter().zip(points) {
            sums[a as usize] += *p;
            counts[a as usize] += 1;
        }
        for (c, (sum, &count)) in centroids.iter_mut().zip(sums.iter().zip(counts.iter())) {
            if count > 0 {
                *c = *sum / count as f64;
            }
        }
        if !changed {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(center: Vec3, n: usize, spread: f64, seed: u64) -> Vec<Vec3> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                center
                    + Vec3::new(
                        rng.random_range(-spread..spread),
                        rng.random_range(-spread..spread),
                        rng.random_range(-spread..spread),
                    )
            })
            .collect()
    }

    #[test]
    fn separates_two_blobs() {
        let mut pts = blob(Vec3::ZERO, 20, 1.0, 1);
        pts.extend(blob(Vec3::splat(100.0), 20, 1.0, 2));
        let clusters = kmeans(&pts, 2, 7, 20);
        assert_eq!(clusters.len(), 2);
        for c in &clusters {
            assert_eq!(c.members.len(), 20);
            // All members on the same side as the centroid.
            let near_origin = c.centroid.norm() < 50.0;
            for &m in &c.members {
                assert_eq!(pts[m].norm() < 50.0, near_origin);
            }
        }
    }

    #[test]
    fn every_point_assigned_to_nearest_centroid() {
        let pts = blob(Vec3::ZERO, 50, 20.0, 3);
        let clusters = kmeans(&pts, 4, 9, 30);
        let centroids: Vec<Vec3> = clusters.iter().map(|c| c.centroid).collect();
        for c in &clusters {
            for &m in &c.members {
                let my_d = pts[m].distance_sq(c.centroid);
                for other in &centroids {
                    assert!(my_d <= pts[m].distance_sq(*other) + 1e-9);
                }
            }
        }
    }

    #[test]
    fn k_larger_than_points() {
        let pts = vec![Vec3::ZERO, Vec3::ONE];
        let clusters = kmeans(&pts, 10, 1, 5);
        assert_eq!(clusters.len(), 2);
    }

    #[test]
    fn duplicate_points_do_not_loop_forever() {
        let pts = vec![Vec3::ONE; 8];
        let clusters = kmeans(&pts, 3, 1, 5);
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(total, 8);
    }

    #[test]
    fn empty_input() {
        assert!(kmeans(&[], 3, 1, 5).is_empty());
        assert!(kmeans(&[Vec3::ZERO], 0, 1, 5).is_empty());
    }

    #[test]
    fn deterministic_in_seed() {
        let pts = blob(Vec3::ZERO, 30, 10.0, 4);
        let a = kmeans(&pts, 3, 42, 20);
        let b = kmeans(&pts, 3, 42, 20);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.members, y.members);
        }
    }
}
