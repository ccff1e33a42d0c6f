//! Disk pages and the page layout of a dataset.
//!
//! The paper stores spatial objects in 4 KB disk pages holding 87 objects
//! each (§7.1). An index bulk load decides which objects share a page; the
//! resulting [`PageLayout`] is the unit of all I/O accounting — queries and
//! prefetches read whole pages, and the cache holds whole pages.

use scout_geometry::{Aabb, ObjectId};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Identifier of a disk page. Ids are dense and reflect the physical
/// placement order on disk: pages with consecutive ids are physically
/// adjacent (relevant for the sequential-read discount).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

impl PageId {
    /// The id as an array index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Fibonacci multiplier (2⁶⁴ / φ, odd), the usual mixer for dense ids.
pub(crate) const FIBONACCI_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Hasher of the tables keyed by dense internal `u32` ids ([`PageId`],
/// [`ObjectId`]): one multiply, then the product's halves swap places.
///
/// The default SipHash protects a table from keys crafted to collide;
/// these ids are assigned by the bulk load, never read from outside
/// input, so that protection buys nothing. The swap matters:
/// [`ShardedCache`](crate::ShardedCache) picks a page's shard from the
/// product's top bits, and hashbrown takes its 7-bit group tag from the
/// top of the hash, so the unswapped product would give every page of
/// one shard the same leading tag bits. Deterministic: equal inserts give
/// equal iteration order on every run.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        panic!("IdHasher hashes u32 ids only");
    }

    #[inline]
    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(FIBONACCI_MUL).rotate_left(32);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by a dense `u32` id, hashed by [`IdHasher`].
pub(crate) type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of dense `u32` ids, hashed by `IdHasher`.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

/// One disk page: a set of objects plus their minimum bounding rectangle.
#[derive(Debug, Clone)]
pub struct Page {
    /// Page id (equals its position in the layout).
    pub id: PageId,
    /// Minimum bounding rectangle of the contained objects.
    pub mbr: Aabb,
    /// Objects stored in this page.
    pub objects: Vec<ObjectId>,
}

/// The physical layout of a dataset: every object assigned to exactly one
/// page.
///
/// Built once per bulk load and never changed, so indexes over the same
/// pack share one layout behind an `Arc` rather than copying it. It holds
/// the pages and the object count, nothing derived: no reader asks which
/// page an object is on.
#[derive(Debug, Clone)]
pub struct PageLayout {
    pages: Vec<Page>,
    object_count: usize,
}

impl PageLayout {
    /// Assembles a layout from pages produced by an index bulk load.
    ///
    /// `object_count` is the total number of objects in the dataset; every
    /// object id referenced by a page must be `< object_count`, and each
    /// object must appear in exactly one page.
    pub fn new(mut pages: Vec<Page>, object_count: usize) -> PageLayout {
        // One bit per object, set when a page claims it.
        let mut seen = vec![0u64; object_count.div_ceil(64)];
        let mut assigned = 0usize;
        for (i, page) in pages.iter_mut().enumerate() {
            page.id = PageId(i as u32);
            for &oid in &page.objects {
                let o = oid.index();
                assert!(
                    o < object_count,
                    "page {i} holds object {oid:?}, outside the layout's {object_count} objects"
                );
                let (word, bit) = (o / 64, 1u64 << (o % 64));
                assert!(seen[word] & bit == 0, "object {oid:?} assigned to two pages (one is {i})");
                seen[word] |= bit;
                assigned += 1;
            }
        }
        assert_eq!(assigned, object_count, "some objects are not assigned to any page");
        PageLayout { pages, object_count }
    }

    /// Number of pages.
    #[inline]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page with the given id.
    #[inline]
    pub fn page(&self, id: PageId) -> &Page {
        &self.pages[id.index()]
    }

    /// All pages in physical order.
    #[inline]
    pub fn pages(&self) -> &[Page] {
        &self.pages
    }

    /// Total number of objects across all pages.
    pub fn object_count(&self) -> usize {
        self.object_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::Vec3;

    fn page(objects: &[u32]) -> Page {
        Page {
            id: PageId(0),
            mbr: Aabb::new(Vec3::ZERO, Vec3::ONE),
            objects: objects.iter().map(|&o| ObjectId(o)).collect(),
        }
    }

    #[test]
    fn layout_assigns_dense_page_ids() {
        let mut first = page(&[0, 2]);
        first.id = PageId(7);
        let layout = PageLayout::new(vec![first, page(&[1, 3, 4])], 5);
        assert_eq!(layout.page_count(), 2);
        let ids: Vec<PageId> = layout.pages().iter().map(|p| p.id).collect();
        assert_eq!(ids, [PageId(0), PageId(1)]);
        assert_eq!(layout.page(PageId(1)).objects.len(), 3);
        assert_eq!(layout.object_count(), 5);
        assert_eq!(PageLayout::new(Vec::new(), 0).object_count(), 0);
    }

    #[test]
    #[should_panic(expected = "outside the layout's 2 objects")]
    fn out_of_range_object_rejected() {
        let _ = PageLayout::new(vec![page(&[0, 1]), page(&[2])], 2);
    }

    #[test]
    #[should_panic(expected = "two pages")]
    fn duplicate_assignment_rejected() {
        let _ = PageLayout::new(vec![page(&[0, 1]), page(&[1])], 2);
    }

    #[test]
    #[should_panic(expected = "not assigned")]
    fn unassigned_object_rejected() {
        let _ = PageLayout::new(vec![page(&[0])], 2);
    }
}
