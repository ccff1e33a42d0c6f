//! Property tests for the page caches: the LRU compared against a naive
//! reference implementation under arbitrary operation sequences, the
//! sharded cache compared against the LRU, its owned (lock-free) handle
//! against its shared (locking) one, and concurrent hammering of the
//! sharded cache.

use proptest::prelude::*;
use scout_storage::{CacheStats, PageCache, PageId, PrefetchCache, ShardedCache};

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
    fn reset_stats(&mut self) {
        self.stats = CacheStats { capacity: self.cap, ..CacheStats::default() };
    }
    fn clear(&mut self) {
        self.pages.clear();
        self.reset_stats();
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
    ResetStats,
    Clear,
}

/// Operation streams over 64 page ids spaced `stride` apart — stride 1
/// is a narrow dense range, a larger one a wide range up to `u32::MAX`.
/// Of 100 ops, 40 access, 40 insert, 14 probe, 5 reset the counters and 1
/// clears.
fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    let ops = prop::collection::vec((0u32..100, 0u32..64), 0..400);
    (prop_oneof![Just(1u32), 2u32..=u32::MAX / 64], ops).prop_map(|(stride, ops)| {
        ops.into_iter()
            .map(|(kind, i)| {
                let page = PageId(i * stride);
                match kind {
                    0..40 => Op::Access(page),
                    40..80 => Op::Insert(page),
                    80..94 => Op::Contains(page),
                    94..99 => Op::ResetStats,
                    _ => Op::Clear,
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
                Op::ResetStats => {
                    cache.reset_stats();
                    oracle.reset_stats();
                }
                Op::Clear => {
                    cache.clear();
                    oracle.clear();
                }
            }
            prop_assert_eq!(cache.pages_mru_order(), oracle.pages.clone());
            prop_assert_eq!(cache.stats(), oracle.stats());
        }
    }

    /// The owned sharded cache reaches a page's shard through
    /// `Mutex::get_mut`, the shared handle `&ShardedCache` under the shard
    /// lock. Driven through `PageCache` by the same stream (the whole-cache
    /// calls through the inherent methods both reach), the two return,
    /// count and order exactly the same after every operation — so a fleet
    /// phase may take either without moving a hit, a miss or a victim.
    #[test]
    fn exclusive_handle_matches_the_locked_handle(
        shards in prop_oneof![Just(1usize), Just(2), Just(16)],
        cap in 1usize..=256,
        ops in arb_ops(),
    ) {
        let mut owned = ShardedCache::new(cap, shards);
        let twin = ShardedCache::new(cap, shards);
        let mut locked = &twin;
        for op in ops {
            match op {
                Op::Access(p) => prop_assert_eq!(
                    PageCache::access(&mut owned, p),
                    PageCache::access(&mut locked, p),
                    "access({:?})", p
                ),
                Op::Insert(p) => prop_assert_eq!(
                    PageCache::insert(&mut owned, p),
                    PageCache::insert(&mut locked, p),
                    "insert({:?})", p
                ),
                Op::Contains(p) => prop_assert_eq!(
                    PageCache::contains(&mut owned, p),
                    PageCache::contains(&mut locked, p),
                    "contains({:?})", p
                ),
                Op::ResetStats => {
                    owned.reset_stats();
                    twin.reset_stats();
                }
                Op::Clear => {
                    owned.clear();
                    twin.clear();
                }
            }
            prop_assert_eq!(owned.stats(), twin.stats());
            prop_assert_eq!(owned.shard_pages(), twin.shard_pages());
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
                Op::ResetStats => {
                    sharded.reset_stats();
                    lru.reset_stats();
                }
                Op::Clear => {
                    sharded.clear();
                    lru.clear();
                }
            }
            prop_assert_eq!(sharded.len(), lru.len());
        }
        prop_assert_eq!(sharded.stats(), lru.stats());
        prop_assert_eq!(sharded.shard_pages().remove(0), lru.pages_mru_order());
    }
}

/// Two threads released together hammer overlapping pages of one sharded
/// cache: the summed shard counters account for every access and every
/// eviction the threads saw.
#[test]
fn sharded_stats_count_what_two_threads_did() {
    use std::sync::Barrier;

    const OPS: u32 = 20_000;
    let cache = ShardedCache::new(64, 4);
    let start = Barrier::new(2);
    let per_thread: Vec<(u64, u64)> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..2u32)
            .map(|t| {
                let (cache, start) = (&cache, &start);
                scope.spawn(move || {
                    start.wait();
                    let (mut accesses, mut evictions) = (0u64, 0u64);
                    for i in 0..OPS {
                        // Both threads walk the same 256 pages at different
                        // strides, so they meet on pages and on shards.
                        let page = PageId(i * (3 + 2 * t) % 256);
                        if i % 3 == 0 {
                            evictions += u64::from(cache.insert(page).is_some());
                        } else {
                            cache.access(page);
                            accesses += 1;
                        }
                    }
                    (accesses, evictions)
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let accesses: u64 = per_thread.iter().map(|t| t.0).sum();
    let evictions: u64 = per_thread.iter().map(|t| t.1).sum();
    let s = cache.stats();
    assert!(s.hits > 0 && evictions > 0, "the threads must hit and evict: {s:?}");
    assert_eq!(s.hits + s.misses, accesses);
    assert_eq!(s.evictions, evictions);
    assert_eq!(s.insertions, evictions + s.len as u64, "every fresh insert is resident or evicted");
    assert_eq!(s.len, cache.shard_pages().iter().map(Vec::len).sum::<usize>());
}

/// §ISSUE 2: 8 threads hammering a sharded cache concurrently never lose
/// or duplicate a page across shards, and the atomic counters stay
/// consistent with the final contents.
///
/// Each thread runs a deterministic (seeded) mix of accesses and inserts
/// over a page universe several times the cache capacity, so shards evict
/// continuously while other threads probe them.
#[test]
fn concurrent_hammering_neither_loses_nor_duplicates_pages() {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    const THREADS: u64 = 8;
    const OPS_PER_THREAD: u64 = 20_000;
    const UNIVERSE: u32 = 1_024;

    let cache = ShardedCache::new(256, 8);
    let total_accesses = std::sync::atomic::AtomicU64::new(0);
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let (cache, total_accesses) = (&cache, &total_accesses);
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(0xC0FFEE ^ t);
                let mut accesses = 0u64;
                for _ in 0..OPS_PER_THREAD {
                    let page = PageId(rng.random_range(0..UNIVERSE));
                    if rng.random::<bool>() {
                        cache.access(page);
                        accesses += 1;
                    } else {
                        cache.insert(page);
                    }
                }
                total_accesses.fetch_add(accesses, std::sync::atomic::Ordering::Relaxed);
            });
        }
    });

    // No page may appear in more than one shard (shard choice is a pure
    // function of the page id, so duplication would mean a lost update
    // corrupted a shard's internal map).
    let mut seen = std::collections::HashSet::new();
    let shard_pages = cache.shard_pages();
    for pages in &shard_pages {
        for &p in pages {
            assert!(seen.insert(p), "page {p:?} present in two shards");
        }
    }

    // Nothing lost: every cached page is still found by contains(), the
    // per-shard lists sum to len(), and the conservation law
    // insertions == evictions + len holds at quiescence.
    for &p in &seen {
        assert!(cache.contains(p));
    }
    let s = cache.stats();
    assert_eq!(s.len, seen.len());
    assert_eq!(shard_pages.iter().map(Vec::len).sum::<usize>(), s.len);
    assert!(s.len <= s.capacity, "len {} exceeds capacity {}", s.len, s.capacity);
    assert_eq!(
        s.insertions,
        s.evictions + s.len as u64,
        "insertion/eviction accounting lost a page"
    );
    // Every access was counted exactly once (hit or miss, never both or
    // neither) despite 8 threads bumping the same atomics.
    assert_eq!(s.accesses(), total_accesses.load(std::sync::atomic::Ordering::Relaxed));

    // The cache remains fully functional after the storm.
    let probe = PageId(UNIVERSE + 7);
    cache.insert(probe);
    assert!(cache.contains(probe));
    assert!(cache.access(probe));
}
