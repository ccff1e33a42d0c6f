//! I/O accounting shared by the executor and the prefetchers.

/// Safe `hits / total` ratio, guarding the zero-lookup case (returns 0
/// when `total` is 0). Every report that derives a hit rate — I/O stats,
/// cache snapshots, per-query and per-session traces — goes through this
/// helper instead of hand-computing `hits / (hits + misses)`.
pub fn hit_ratio(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Running totals of page I/O, split by purpose.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct IoStats {
    /// Result pages served from the prefetch cache.
    pub result_pages_cache: u64,
    /// Result pages that had to be read from disk (residual I/O).
    pub result_pages_disk: u64,
    /// Pages read from disk during prefetch windows.
    pub prefetch_pages_disk: u64,
    /// Extra pages read for gap traversal (SCOUT-OPT overhead I/O).
    pub gap_pages_disk: u64,
    /// Simulated µs spent on residual I/O.
    pub residual_io_us: f64,
    /// Simulated µs spent reading prefetch pages.
    pub prefetch_io_us: f64,
}

impl IoStats {
    /// Fresh zeroed stats.
    pub fn new() -> IoStats {
        IoStats::default()
    }

    /// Total result pages requested so far.
    pub fn result_pages_total(&self) -> u64 {
        self.result_pages_cache + self.result_pages_disk
    }

    /// Cache-hit rate over result pages — the paper's accuracy metric
    /// (footnote 1: "Percentage of data read from the prefetch cache rather
    /// than from disk"). Returns 0 when nothing was read.
    pub fn hit_rate(&self) -> f64 {
        hit_ratio(self.result_pages_cache, self.result_pages_total())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_empty_is_zero() {
        assert_eq!(IoStats::new().hit_rate(), 0.0);
    }

    #[test]
    fn hit_ratio_guards_zero_total() {
        assert_eq!(hit_ratio(0, 0), 0.0);
        assert_eq!(hit_ratio(3, 4), 0.75);
    }

    #[test]
    fn hit_rate_fraction() {
        let s = IoStats { result_pages_cache: 3, result_pages_disk: 1, ..IoStats::default() };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }
}
