//! The prefetch cache.
//!
//! §7.1: "We allow 4GB of memory to cache prefetched data." The cache holds
//! whole pages under LRU replacement; its capacity (in pages) is the
//! experiment knob behind the Figure 13d observation that "varying the
//! prefetch window has the same effect as varying the prefetch cache size".
//!
//! Implemented as a classic hash-map + intrusive doubly-linked list so that
//! lookup, touch, insert and evict are all O(1). The map is keyed through
//! [`IdHasher`](crate::IdHasher), and recency lives only in the list, so
//! nothing depends on the map's iteration order.

use crate::page::{IdMap, PageId};
use crate::page_cache::{CacheStats, PageCache};

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// An LRU page cache with hit/miss accounting.
#[derive(Debug, Clone)]
pub struct PrefetchCache {
    capacity: usize,
    map: IdMap<PageId, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
    /// Most recently used.
    head: u32,
    /// Least recently used (eviction victim).
    tail: u32,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl PrefetchCache {
    /// Cache holding at most `capacity` pages (must be ≥ 1).
    pub fn new(capacity: usize) -> PrefetchCache {
        assert!(capacity >= 1, "cache capacity must be >= 1");
        PrefetchCache {
            capacity,
            map: IdMap::with_capacity_and_hasher(capacity.min(1 << 20), Default::default()),
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
        }
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// True when the page is cached (does not affect recency or counters).
    pub fn contains(&self, page: PageId) -> bool {
        self.map.contains_key(&page)
    }

    /// Records an access: promotes a cached page to most-recently-used and
    /// counts a hit, or counts a miss. Returns whether it was a hit.
    pub fn access(&mut self, page: PageId) -> bool {
        if let Some(&slot) = self.map.get(&page) {
            self.unlink(slot);
            self.push_front(slot);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Inserts a page as most-recently-used, evicting the LRU page when
    /// full. Returns the evicted page, if any. Inserting an already-cached
    /// page just promotes it.
    pub fn insert(&mut self, page: PageId) -> Option<PageId> {
        if let Some(&slot) = self.map.get(&page) {
            self.unlink(slot);
            self.push_front(slot);
            return None;
        }
        self.insertions += 1;
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let victim_slot = self.tail;
            debug_assert_ne!(victim_slot, NIL);
            let victim = self.nodes[victim_slot as usize].page;
            self.unlink(victim_slot);
            self.map.remove(&victim);
            self.free.push(victim_slot);
            self.evictions += 1;
            evicted = Some(victim);
        }
        let slot = match self.free.pop() {
            Some(s) => {
                self.nodes[s as usize] = Node { page, prev: NIL, next: NIL };
                s
            }
            None => {
                self.nodes.push(Node { page, prev: NIL, next: NIL });
                (self.nodes.len() - 1) as u32
            }
        };
        self.map.insert(page, slot);
        self.push_front(slot);
        evicted
    }

    /// Pages currently cached, most recent first (test/diagnostic helper).
    pub fn pages_mru_order(&self) -> Vec<PageId> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.head;
        while cur != NIL {
            out.push(self.nodes[cur as usize].page);
            cur = self.nodes[cur as usize].next;
        }
        out
    }

    /// Snapshot of counters and occupancy. An LRU has no coalescing
    /// front end, so `coalesced_hits` is 0.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            coalesced_hits: 0,
            insertions: self.insertions,
            evictions: self.evictions,
            len: self.len(),
            capacity: self.capacity,
        }
    }

    /// Zeroes the counters while keeping the cached pages (measure a run
    /// over a warm cache without the warm-up skewing the numbers).
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
        self.insertions = 0;
        self.evictions = 0;
    }

    /// Empties the cache and zeroes all counters (run between sequences,
    /// §7.1).
    pub fn clear(&mut self) {
        self.map.clear();
        self.nodes.clear();
        self.free.clear();
        self.head = NIL;
        self.tail = NIL;
        self.hits = 0;
        self.misses = 0;
        self.insertions = 0;
        self.evictions = 0;
    }

    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let n = &self.nodes[slot as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else if self.head == slot {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else if self.tail == slot {
            self.tail = prev;
        }
        let n = &mut self.nodes[slot as usize];
        n.prev = NIL;
        n.next = NIL;
    }

    fn push_front(&mut self, slot: u32) {
        self.nodes[slot as usize].prev = NIL;
        self.nodes[slot as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

impl PageCache for PrefetchCache {
    fn access(&mut self, page: PageId) -> bool {
        PrefetchCache::access(self, page)
    }

    fn insert(&mut self, page: PageId) -> Option<PageId> {
        PrefetchCache::insert(self, page)
    }

    fn contains(&mut self, page: PageId) -> bool {
        PrefetchCache::contains(self, page)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_accounting() {
        let mut c = PrefetchCache::new(4);
        assert!(!c.access(PageId(1)));
        c.insert(PageId(1));
        assert!(c.access(PageId(1)));
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = PrefetchCache::new(3);
        c.insert(PageId(1));
        c.insert(PageId(2));
        c.insert(PageId(3));
        // Touch 1 so 2 becomes LRU.
        c.access(PageId(1));
        let evicted = c.insert(PageId(4));
        assert_eq!(evicted, Some(PageId(2)));
        assert!(c.contains(PageId(1)));
        assert!(c.contains(PageId(3)));
        assert!(c.contains(PageId(4)));
    }

    #[test]
    fn reinsert_promotes_without_eviction() {
        let mut c = PrefetchCache::new(2);
        c.insert(PageId(1));
        c.insert(PageId(2));
        assert_eq!(c.insert(PageId(1)), None); // promote
        let evicted = c.insert(PageId(3));
        assert_eq!(evicted, Some(PageId(2)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn mru_order_reflects_accesses() {
        let mut c = PrefetchCache::new(4);
        c.insert(PageId(1));
        c.insert(PageId(2));
        c.insert(PageId(3));
        c.access(PageId(1));
        assert_eq!(c.pages_mru_order(), vec![PageId(1), PageId(3), PageId(2)]);
    }

    #[test]
    fn capacity_one() {
        let mut c = PrefetchCache::new(1);
        c.insert(PageId(1));
        assert_eq!(c.insert(PageId(2)), Some(PageId(1)));
        assert_eq!(c.len(), 1);
        assert!(c.contains(PageId(2)));
    }

    #[test]
    fn clear_resets_everything() {
        let mut c = PrefetchCache::new(2);
        c.insert(PageId(1));
        c.access(PageId(1));
        c.access(PageId(9));
        c.clear();
        assert!(c.is_empty());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 0, 0));
        assert!(!c.contains(PageId(1)));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = PrefetchCache::new(2);
        c.insert(PageId(1));
        c.insert(PageId(2));
        c.insert(PageId(3)); // evicts 1
        c.access(PageId(2));
        c.access(PageId(9));
        c.reset_stats();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (0, 0, 0, 0));
        assert_eq!(s.len, 2);
        assert_eq!(s.capacity, 2);
        assert!(c.contains(PageId(2)) && c.contains(PageId(3)));
    }

    #[test]
    fn stats_snapshot_matches_accessors() {
        let mut c = PrefetchCache::new(2);
        c.insert(PageId(1));
        c.insert(PageId(2));
        c.insert(PageId(3));
        c.access(PageId(3));
        c.access(PageId(7));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.insertions, s.evictions), (1, 1, 3, 1));
        assert_eq!(s.len, c.len());
        assert_eq!(s.capacity, c.capacity());
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn never_exceeds_capacity_under_churn() {
        let mut c = PrefetchCache::new(8);
        for i in 0..1000u32 {
            c.insert(PageId(i % 37));
            assert!(c.len() <= 8);
        }
        assert_eq!(c.len(), 8);
    }
}
