//! Order statistics and the model digest. Bench-owned on purpose: the
//! instrument must not share arithmetic with the engine it measures.

/// Nearest-rank percentile of an ascending slice (0 when empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// An ascending copy.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// Distance between the first and third quartile as a share of the
/// median — the noise gauge printed beside every best-of-passes number.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let s = sorted(values);
    let m = percentile(&s, 50.0);
    if m == 0.0 {
        return 0.0;
    }
    (percentile(&s, 75.0) - percentile(&s, 25.0)) / m
}

pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

pub fn sum(values: &[f64]) -> f64 {
    values.iter().sum()
}

/// Element-wise minimum over equally long passes: interference only ever
/// adds time to deterministic work, so the per-sample minimum is the
/// best estimate of each sample's own cost.
pub fn elementwise_min(passes: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = passes.first() else {
        return Vec::new();
    };
    let mut best = first.clone();
    for pass in &passes[1..] {
        assert_eq!(pass.len(), best.len(), "passes of deterministic work have equal length");
        for (b, &v) in best.iter_mut().zip(pass) {
            *b = b.min(v);
        }
    }
    best
}

/// FNV-1a over the exact bits of every model output. Equal digests between
/// two commits mean a change left every simulated statistic identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn elementwise_min_takes_the_fastest_sample() {
        let best = elementwise_min(&[vec![3.0, 1.0], vec![2.0, 5.0]]);
        assert_eq!(best, vec![2.0, 1.0]);
    }

    #[test]
    fn digest_depends_on_every_bit() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.f64(1.0);
        b.f64(1.0 + f64::EPSILON);
        assert_ne!(a, b);
    }
}
