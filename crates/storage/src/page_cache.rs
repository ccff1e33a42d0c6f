//! The cache abstraction shared by every executor.
//!
//! The seed reproduction had exactly one cache — the single-threaded LRU
//! [`PrefetchCache`](crate::PrefetchCache). The multi-session engine adds a
//! second implementation, the sharded
//! [`ShardedCache`](crate::ShardedCache), and both are driven through this
//! trait so the executor's serve/prefetch loops are written once.
//!
//! Every per-page method — the residency probe included — takes
//! `&mut self`, the shape of a cache its driver holds exclusively. The
//! sharded cache additionally implements the trait for its shared
//! reference, so a borrowed `&ShardedCache` is itself a `PageCache` and
//! K sessions stepped in turn by one thread can drive one cache.

use crate::page::PageId;

/// A point-in-time snapshot of a cache's counters and occupancy.
///
/// Snapshots are plain data: they can be compared, merged or printed
/// after the cache has moved on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that found their page cached.
    pub hits: u64,
    /// Accesses that did not.
    pub misses: u64,
    /// Accesses absorbed by an already-in-flight read of the same page
    /// (batched I/O single-flight): one physical miss serving N waiters
    /// counts 1 miss plus N−1 coalesced hits. The page was not in the
    /// cache — so these are not `hits` — but only one device read was
    /// paid, so the hit ratio counts them as served-without-I/O.
    pub coalesced_hits: u64,
    /// Fresh insertions (promotions of already-cached pages excluded).
    pub insertions: u64,
    /// Pages evicted to make room.
    pub evictions: u64,
    /// Pages currently cached.
    pub len: usize,
    /// Capacity in pages.
    pub capacity: usize,
}

impl CacheStats {
    /// Total accesses recorded (`hits + coalesced_hits + misses`).
    pub fn accesses(&self) -> u64 {
        self.hits + self.coalesced_hits + self.misses
    }

    /// Fraction of accesses that cost no device read: cache hits plus
    /// coalesced waiters on another session's in-flight miss, over all
    /// accesses; 0 when none happened.
    pub fn hit_rate(&self) -> f64 {
        crate::stats::hit_ratio(self.hits + self.coalesced_hits, self.accesses())
    }
}

/// A page cache the executor can serve queries from and prefetch into.
///
/// The contract mirrors the original LRU: [`access`](PageCache::access)
/// counts a hit or a miss and promotes on hit, [`insert`](PageCache::insert)
/// adds a page evicting if necessary, and the hit, miss, insertion and
/// eviction counters only move through those two calls —
/// [`contains`](PageCache::contains) is a pure membership probe.
pub trait PageCache {
    /// Records an access; returns whether the page was cached.
    fn access(&mut self, page: PageId) -> bool;

    /// Inserts a page, returning the page evicted to make room, if any.
    fn insert(&mut self, page: PageId) -> Option<PageId>;

    /// True when the page is cached (no recency or counter effect). Takes
    /// `&mut self` like [`access`](PageCache::access).
    fn contains(&mut self, page: PageId) -> bool;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_derived_quantities() {
        let s = CacheStats { hits: 3, misses: 1, len: 8, capacity: 16, ..Default::default() };
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn coalesced_waiters_count_one_miss_and_n_minus_one_hits() {
        // The single-flight accounting contract: three sessions demand
        // the same uncached page in one phase — one physical miss, two
        // coalesced hits. With one real hit on top, 3 of 4 accesses cost
        // no device read.
        let s = CacheStats { hits: 1, misses: 1, coalesced_hits: 2, ..Default::default() };
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        // Coalesced hits alone never report a perfect ratio: the one
        // physical miss stays visible.
        let s = CacheStats { misses: 1, coalesced_hits: 2, ..Default::default() };
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn stats_empty_edge_cases() {
        let s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
    }
}
