//! The sharded prefetch cache.
//!
//! The fleet's shared cache is split into N LRU shards. A page's shard is
//! a pure function of its id (multiplicative hash), which gives two
//! structural guarantees for free: a page can never be duplicated across
//! shards, and a page can never migrate — operations on different shards
//! are completely independent.
//!
//! One thread drives the cache. The multi-session engine runs every
//! cache operation on its calling thread, in session order, and hands
//! only pure work to helper threads (DESIGN.md §10), so the shards need
//! no lock: each is a `RefCell<PrefetchCache>`, reached through one
//! accessor by the inherent `&self` operations and by both
//! [`PageCache`] impls, the owned cache's and `&ShardedCache`'s. The
//! cache is `Send`, not `Sync`.
//!
//! Each shard counts its own hits, misses, insertions and evictions;
//! an aggregate [`CacheStats`] snapshot sums the shards. The
//! price of sharding is that LRU recency is per-shard rather
//! than global — with S shards the eviction victim is the oldest page *of
//! the hashed shard*, an approximation that converges to true LRU as
//! accesses spread across shards (same trade as `DashMap`-style maps).
//! The shard count is a parameter of the model, not of its speed.

use crate::page::{PageId, FIBONACCI_MUL};
use crate::page_cache::{CacheStats, PageCache};
use crate::PrefetchCache;
use std::cell::{Cell, RefCell, RefMut};

/// A page cache of N LRU shards. The operations take `&self`, and
/// `&ShardedCache` implements [`PageCache`] as the owned cache does, so
/// several sessions on one thread can drive one instance.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<RefCell<PrefetchCache>>,
    /// log₂(shard count); the shard index is the top bits of the hash.
    shard_bits: u32,
    /// Total capacity in pages — exactly the constructor's request (the
    /// per-shard capacities sum to it).
    capacity: usize,
    /// Coalesced waiters belong to no shard, so they are counted here.
    coalesced_hits: Cell<u64>,
}

impl ShardedCache {
    /// Cache holding at most `capacity` pages split over `shards` shards.
    ///
    /// The shard count is rounded up to a power of two (and down to
    /// `capacity` when the request exceeds it, so no shard is empty); the
    /// capacity is divided evenly with the remainder spread one page each
    /// over the low shards, so the per-shard sum equals the request
    /// exactly ([`ShardedCache::capacity`] == `capacity`). Panics when
    /// `capacity` or `shards` is zero.
    pub fn new(capacity: usize, shards: usize) -> ShardedCache {
        assert!(capacity >= 1, "cache capacity must be >= 1");
        assert!(shards >= 1, "shard count must be >= 1");
        let mut shards = shards.next_power_of_two();
        // More shards than pages would force zero-capacity shards; halving
        // keeps the count a power of two (shard_of needs that) while every
        // shard holds at least one page.
        while shards > capacity {
            shards /= 2;
        }
        let base = capacity / shards;
        let remainder = capacity % shards;
        let per_shard = |i: usize| base + usize::from(i < remainder);
        debug_assert_eq!((0..shards).map(per_shard).sum::<usize>(), capacity);
        ShardedCache {
            shards: (0..shards).map(|i| RefCell::new(PrefetchCache::new(per_shard(i)))).collect(),
            shard_bits: shards.trailing_zeros(),
            capacity,
            coalesced_hits: Cell::new(0),
        }
    }

    /// Total capacity in pages — exactly what the constructor was asked
    /// for (the remainder of `capacity / shards` is spread over the low
    /// shards instead of rounding every shard up).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    #[inline]
    fn shard_of(&self, page: PageId) -> usize {
        if self.shard_bits == 0 {
            return 0;
        }
        ((page.0 as u64).wrapping_mul(FIBONACCI_MUL) >> (64 - self.shard_bits)) as usize
    }

    /// The page's shard: the one way any operation reaches it.
    #[inline]
    fn shard(&self, page: PageId) -> RefMut<'_, PrefetchCache> {
        self.shards[self.shard_of(page)].borrow_mut()
    }

    /// Records an access: a hit promotes within its shard. Returns whether
    /// the page was cached.
    pub fn access(&self, page: PageId) -> bool {
        self.shard(page).access(page)
    }

    /// Inserts a page into its shard, evicting that shard's LRU page when
    /// the shard is full. Returns the evicted page, if any.
    pub fn insert(&self, page: PageId) -> Option<PageId> {
        self.shard(page).insert(page)
    }

    /// True when the page is cached (no recency or counter effect).
    pub fn contains(&self, page: PageId) -> bool {
        self.shard(page).contains(page)
    }

    /// Records `n` accesses absorbed by an in-flight read of the same
    /// page (batched single-flight; see [`CacheStats::coalesced_hits`]).
    /// Counter-only — touches no shard.
    pub fn note_coalesced_hits(&self, n: u64) {
        self.coalesced_hits.set(self.coalesced_hits.get() + n);
    }

    /// Number of cached pages, summed over shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.borrow().len()).sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties every shard and zeroes all counters.
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.borrow_mut().clear();
        }
        self.coalesced_hits.set(0);
    }

    /// Zeroes every shard's counters while keeping the cached pages.
    pub fn reset_stats(&self) {
        for shard in &self.shards {
            shard.borrow_mut().reset_stats();
        }
        self.coalesced_hits.set(0);
    }

    /// Aggregate snapshot: the shards' counters summed.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            coalesced_hits: self.coalesced_hits.get(),
            capacity: self.capacity,
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let s = shard.borrow().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.insertions += s.insertions;
            total.evictions += s.evictions;
            total.len += s.len;
        }
        total
    }

    /// The cached pages of every shard, MRU-first (test/diagnostic helper:
    /// the cross-shard property tests assert no page appears twice).
    pub fn shard_pages(&self) -> Vec<Vec<PageId>> {
        self.shards.iter().map(|s| s.borrow().pages_mru_order()).collect()
    }
}

/// The `PageCache` surface, instantiated for the owned type and for
/// `&ShardedCache` — a shared reference is itself a cache handle. Both
/// are the inherent operations, so the two handles agree op for op.
macro_rules! delegate_page_cache {
    ($ty:ty) => {
        impl PageCache for $ty {
            fn access(&mut self, page: PageId) -> bool {
                ShardedCache::access(self, page)
            }

            fn insert(&mut self, page: PageId) -> Option<PageId> {
                ShardedCache::insert(self, page)
            }

            fn contains(&mut self, page: PageId) -> bool {
                ShardedCache::contains(self, page)
            }
        }
    };
}

delegate_page_cache!(ShardedCache);
delegate_page_cache!(&ShardedCache);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let c = ShardedCache::new(64, 3);
        assert_eq!(c.shards.len(), 4);
        assert_eq!(c.capacity(), 64); // 16 per shard × 4
        let c = ShardedCache::new(10, 4);
        assert_eq!(c.capacity(), 10); // 3+3+2+2 over 4 shards
    }

    #[test]
    fn capacity_is_exact_for_non_multiples() {
        // Regression: the constructor used to round every shard up
        // (div_ceil), silently over-provisioning by up to shards-1 pages —
        // or with flooring it would under-provision. The per-shard sum
        // must equal the request exactly for every capacity/shard combo.
        for shards in [1usize, 2, 3, 4, 7, 8, 16] {
            for capacity in [1usize, 2, 3, 5, 10, 17, 63, 64, 65, 100] {
                let c = ShardedCache::new(capacity, shards);
                assert_eq!(
                    c.capacity(),
                    capacity,
                    "capacity {capacity} over {shards} shards re-provisioned"
                );
                // The cache really holds that many pages: fill well past
                // capacity and check the resident count.
                for i in 0..(capacity as u32 * 4) {
                    c.insert(PageId(i));
                }
                assert!(c.len() <= capacity, "len {} > capacity {capacity}", c.len());
            }
        }
    }

    #[test]
    fn tiny_capacity_shrinks_shard_count() {
        // capacity < shards: the shard count halves (staying a power of
        // two) until every shard holds at least one page.
        let c = ShardedCache::new(3, 8);
        assert_eq!(c.shards.len(), 2);
        assert_eq!(c.capacity(), 3);
        let c = ShardedCache::new(1, 8);
        assert_eq!(c.shards.len(), 1);
        assert_eq!(c.capacity(), 1);
    }

    #[test]
    fn page_always_maps_to_the_same_shard() {
        let c = ShardedCache::new(256, 8);
        for i in 0..500u32 {
            assert_eq!(c.shard_of(PageId(i)), c.shard_of(PageId(i)));
            assert!(c.shard_of(PageId(i)) < 8);
        }
    }

    /// The shard's pages share the top bits of the id product; the map
    /// hash inside a shard must not, or hashbrown's 7-bit group tags
    /// (the hash's top bits) and its low-bit buckets would crowd.
    #[test]
    fn id_hash_spreads_the_pages_of_one_shard() {
        use std::hash::{BuildHasher, BuildHasherDefault};
        let c = ShardedCache::new(1 << 16, 16);
        let hashes: Vec<u64> = (0u32..)
            .map(PageId)
            .filter(|&p| c.shard_of(p) == 0)
            .take(4_096)
            .map(|p| BuildHasherDefault::<crate::page::IdHasher>::default().hash_one(p))
            .collect();
        let mut tags = [false; 128];
        let mut buckets = [0u32; 1_024];
        for h in hashes {
            tags[(h >> 57) as usize] = true;
            buckets[(h & 1_023) as usize] += 1;
        }
        let distinct = tags.iter().filter(|&&t| t).count();
        assert!(distinct >= 120, "only {distinct} of 128 group tags occur");
        let worst = *buckets.iter().max().unwrap();
        assert!(worst <= 16, "one of 1 024 buckets holds {worst} of 4 096 pages");
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let c = ShardedCache::new(4, 1);
        assert!(!c.access(PageId(1)));
        c.insert(PageId(1));
        assert!(c.access(PageId(1)));
        c.insert(PageId(1)); // promote, not a fresh insertion
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 1, 0));
        assert_eq!(s.len, 1);
    }

    #[test]
    fn evicts_within_the_page_shard() {
        let c = ShardedCache::new(8, 8); // 1 page per shard
        let mut evicted_any = false;
        for i in 0..64u32 {
            evicted_any |= c.insert(PageId(i)).is_some();
            assert!(c.len() <= c.capacity());
        }
        assert!(evicted_any, "1-page shards must evict under churn");
        let s = c.stats();
        assert_eq!(s.insertions, 64);
        assert_eq!(s.insertions - s.evictions, s.len as u64);
    }

    #[test]
    fn clear_and_reset_stats() {
        let c = ShardedCache::new(16, 4);
        c.insert(PageId(1));
        c.access(PageId(1));
        c.access(PageId(2));
        c.note_coalesced_hits(3);
        assert_eq!(c.stats().coalesced_hits, 3);
        assert_eq!(c.stats().accesses(), 5);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.contains(PageId(1)), "reset_stats must keep contents");
        c.clear();
        assert!(c.is_empty());
        assert!(!c.contains(PageId(1)));
    }

    #[test]
    fn no_page_in_two_shards() {
        let c = ShardedCache::new(128, 8);
        for i in 0..200u32 {
            c.insert(PageId(i % 97));
        }
        let mut seen = std::collections::HashSet::new();
        for pages in c.shard_pages() {
            for p in pages {
                assert!(seen.insert(p), "page {p:?} cached in two shards");
            }
        }
    }
}
