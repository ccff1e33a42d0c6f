//! Small random-sampling helpers shared by the generators.

use rand::Rng;
use scout_geometry::Vec3;

/// Standard-normal sample via Box–Muller (keeps the dependency set to
/// `rand` alone; `rand_distr` is not needed for this).
pub(crate) fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.random::<f64>();
        return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    }
}

/// Uniform point inside an axis-aligned box.
pub(crate) fn point_in_box<R: Rng + ?Sized>(rng: &mut R, min: Vec3, max: Vec3) -> Vec3 {
    Vec3::new(
        rng.random_range(min.x..=max.x),
        rng.random_range(min.y..=max.y),
        rng.random_range(min.z..=max.z),
    )
}

/// Uniform direction on the unit sphere.
pub(crate) fn unit_vector<R: Rng + ?Sized>(rng: &mut R) -> Vec3 {
    loop {
        let v = Vec3::new(
            rng.random_range(-1.0..=1.0),
            rng.random_range(-1.0..=1.0),
            rng.random_range(-1.0..=1.0),
        );
        let n = v.norm_sq();
        if n > 1e-6 && n <= 1.0 {
            return v / n.sqrt();
        }
    }
}

/// Perturbs a unit direction by a random rotation with angular magnitude
/// drawn from `N(0, sigma)`; result is renormalized.
pub(crate) fn perturb_direction<R: Rng + ?Sized>(rng: &mut R, dir: Vec3, sigma: f64) -> Vec3 {
    if sigma <= 0.0 {
        return dir;
    }
    let angle = gaussian(rng) * sigma;
    // Rotate around a random axis orthogonal to dir.
    let ortho = dir.any_orthogonal();
    let phi = rng.random_range(0.0..std::f64::consts::TAU);
    let axis_in_plane = ortho * phi.cos() + dir.cross(ortho) * phi.sin();
    let rotated = dir * angle.cos() + axis_in_plane * angle.sin();
    rotated.normalized_or_x()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(7);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| gaussian(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn unit_vectors_are_unit() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!((unit_vector(&mut rng).norm() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn perturb_preserves_norm_and_tracks_sigma() {
        let mut rng = StdRng::seed_from_u64(11);
        let dir = Vec3::new(0.0, 0.0, 1.0);
        let mut mean_dot_small = 0.0;
        let mut mean_dot_large = 0.0;
        let n = 2000;
        for _ in 0..n {
            let a = perturb_direction(&mut rng, dir, 0.05);
            let b = perturb_direction(&mut rng, dir, 0.8);
            assert!((a.norm() - 1.0).abs() < 1e-9);
            mean_dot_small += a.dot(dir);
            mean_dot_large += b.dot(dir);
        }
        mean_dot_small /= n as f64;
        mean_dot_large /= n as f64;
        assert!(mean_dot_small > 0.99, "small sigma drifted: {mean_dot_small}");
        assert!(
            mean_dot_large < mean_dot_small,
            "large sigma should bend more: {mean_dot_large} vs {mean_dot_small}"
        );
    }

    #[test]
    fn points_stay_in_box() {
        let mut rng = StdRng::seed_from_u64(5);
        let (min, max) = (Vec3::splat(-2.0), Vec3::splat(3.0));
        for _ in 0..200 {
            let p = point_in_box(&mut rng, min, max);
            assert!(p.x >= -2.0 && p.x <= 3.0);
            assert!(p.y >= -2.0 && p.y <= 3.0);
            assert!(p.z >= -2.0 && p.z <= 3.0);
        }
    }
}
