//! Property tests for the page caches: the LRU compared against a naive
//! reference implementation under arbitrary operation sequences, and the
//! sharded cache compared against the LRU.

use proptest::prelude::*;
use scout_storage::{CacheStats, PageId, PrefetchCache, ShardedCache};

/// Naive LRU used as the oracle: a vector ordered MRU-first, with the
/// counters `PrefetchCache::stats` reports.
struct OracleLru {
    cap: usize,
    pages: Vec<PageId>,
    stats: CacheStats,
}

impl OracleLru {
    fn new(cap: usize) -> Self {
        OracleLru {
            cap,
            pages: Vec::new(),
            stats: CacheStats { capacity: cap, ..CacheStats::default() },
        }
    }
    fn promote(&mut self, p: PageId) -> bool {
        match self.pages.iter().position(|&q| q == p) {
            Some(pos) => {
                let v = self.pages.remove(pos);
                self.pages.insert(0, v);
                true
            }
            None => false,
        }
    }
    fn access(&mut self, p: PageId) -> bool {
        let hit = self.promote(p);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        hit
    }
    fn insert(&mut self, p: PageId) -> Option<PageId> {
        if self.promote(p) {
            return None;
        }
        self.stats.insertions += 1;
        let evicted = if self.pages.len() >= self.cap { self.pages.pop() } else { None };
        self.stats.evictions += u64::from(evicted.is_some());
        self.pages.insert(0, p);
        evicted
    }
    fn stats(&self) -> CacheStats {
        CacheStats { len: self.pages.len(), ..self.stats }
    }
}

#[derive(Debug, Clone)]
enum Op {
    Access(PageId),
    Insert(PageId),
    Contains(PageId),
}

/// Operation streams over 64 page ids spaced `stride` apart — stride 1
/// is a narrow dense range, a larger one a wide range up to `u32::MAX`.
/// Of 100 ops, 40 access, 40 insert and 20 probe.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let ops = prop::collection::vec((0u32..100, 0u32..64), 0..400);
    (prop_oneof![Just(1u32), 2u32..=u32::MAX / 64], ops).prop_map(|(stride, ops)| {
        ops.into_iter()
            .map(|(kind, i)| {
                let page = PageId(i * stride);
                match kind {
                    0..40 => Op::Access(page),
                    40..80 => Op::Insert(page),
                    _ => Op::Contains(page),
                }
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every return value, the MRU order and the counters equal the
    /// oracle's after every operation.
    #[test]
    fn cache_matches_oracle(cap in 1usize..=64, ops in arb_ops()) {
        let mut cache = PrefetchCache::new(cap);
        let mut oracle = OracleLru::new(cap);
        for op in ops {
            match op {
                Op::Access(p) => prop_assert_eq!(cache.access(p), oracle.access(p), "access({:?})", p),
                Op::Insert(p) => prop_assert_eq!(cache.insert(p), oracle.insert(p), "insert({:?})", p),
                Op::Contains(p) => {
                    prop_assert_eq!(cache.contains(p), oracle.pages.contains(&p), "contains({:?})", p)
                }
            }
            prop_assert_eq!(cache.pages_mru_order(), oracle.pages.clone());
            prop_assert_eq!(cache.stats(), oracle.stats());
        }
    }
}

proptest! {
    /// §ISSUE 2: a sharded cache degenerated to one shard is
    /// observationally equivalent to the single-threaded LRU — same access
    /// and eviction results, same counters, same MRU order — over
    /// arbitrary operation sequences.
    #[test]
    fn one_shard_matches_single_threaded_lru(cap in 1usize..12, ops in arb_ops()) {
        let sharded = ShardedCache::new(cap, 1);
        let mut lru = PrefetchCache::new(cap);
        for op in ops {
            match op {
                Op::Access(p) => prop_assert_eq!(sharded.access(p), lru.access(p), "access({:?})", p),
                Op::Insert(p) => prop_assert_eq!(sharded.insert(p), lru.insert(p), "insert({:?})", p),
                Op::Contains(p) => prop_assert_eq!(sharded.contains(p), lru.contains(p)),
            }
            prop_assert_eq!(sharded.len(), lru.len());
        }
        prop_assert_eq!(sharded.stats(), lru.stats());
        prop_assert_eq!(sharded.shard_pages().remove(0), lru.pages_mru_order());
    }
}
