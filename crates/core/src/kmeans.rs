//! K-means clustering of exit locations (§5.2.2).
//!
//! When the candidate set is large, "their locations should be chosen so
//! that areas where many candidate structures exit the query are
//! prefetched. We use a k-means approach to find d clusters and … choose an
//! exit location at random in each cluster."

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use scout_geometry::Vec3;

/// Buffers of one k-means run, so clustering the exit locations of every
/// query allocates nothing once they have warmed.
#[derive(Debug, Clone, Default)]
pub struct KmeansScratch {
    /// Cluster centroids.
    pub centroids: Vec<Vec3>,
    /// Cluster index of each input point.
    pub assignment: Vec<u32>,
    /// k-means++ seeding: each point's squared distance to its nearest
    /// centroid so far.
    nearest_sq: Vec<f64>,
    /// Lloyd update: per-cluster coordinate sums.
    sums: Vec<Vec3>,
    /// Lloyd update: per-cluster member counts.
    counts: Vec<u32>,
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
/// Allocating wrapper around [`kmeans_into`] for one-shot callers.
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
/// assignment scan keeps the first strictly smaller distance — the tie
/// rule of `Iterator::min_by`.
pub fn kmeans_into(
    points: &[Vec3],
    k: usize,
    seed: u64,
    iterations: usize,
    scratch: &mut KmeansScratch,
) {
    let KmeansScratch { centroids, assignment, nearest_sq, sums, counts } = scratch;
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
        let mut changed = false;
        for (slot, p) in assignment.iter_mut().zip(points) {
            let mut best = 0u32;
            let mut best_sq = p.distance_sq(centroids[0]);
            for (j, c) in centroids.iter().enumerate().skip(1) {
                let d = p.distance_sq(*c);
                if d.total_cmp(&best_sq).is_lt() {
                    best = j as u32;
                    best_sq = d;
                }
            }
            if *slot != best {
                *slot = best;
                changed = true;
            }
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
