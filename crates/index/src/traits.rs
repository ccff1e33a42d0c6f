//! Index abstractions.
//!
//! SCOUT "accesses the spatial data through a spatial index … Any spatial
//! index can be used as long as it can execute spatial range queries" (§4).
//! That contract is [`SpatialIndex`]. The §6 optimizations additionally
//! require an index that "a) allows the retrieval of pages from disk in a
//! particular spatial order and b) stores the relative positions of objects
//! (neighborhood information)" — that is [`OrderedSpatialIndex`], modeled
//! after FLAT \[27\] and DLS \[21\].

use scout_geometry::intersect::shape_intersects_aabb;
use scout_geometry::{prefetch_read, Aabb, ObjectId, QueryRegion, SpatialObject, Vec3};
use scout_storage::{PageId, PageLayout};

/// How many ids ahead of the one under test [`SpatialIndex::filter_pages_onto`]
/// requests an object record. Eight predicate tests (~10 ns of arithmetic
/// each) cover a memory load's latency; a page holds 87 ids, so the
/// distance is a small fraction of a page and shorter pages simply
/// prefetch nothing beyond their head.
pub(crate) const PREFETCH_DISTANCE: usize = 8;

/// The result of a range query.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Pages touched to answer the query, in retrieval order.
    pub pages: Vec<PageId>,
    /// Objects whose geometry intersects the query region.
    pub objects: Vec<scout_geometry::ObjectId>,
}

impl QueryResult {
    /// True when no objects matched.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

/// A spatial index able to execute range queries over a page layout.
///
/// The `_into` forms do the work and write into caller-owned buffers,
/// which they clear first — only capacity carries over, so a warmed buffer
/// makes the call allocation-free. [`SpatialIndex::pages_in_region`] and
/// [`SpatialIndex::range_query`] are their allocating conveniences.
pub trait SpatialIndex {
    /// The physical page layout this index was bulk-loaded into.
    fn layout(&self) -> &PageLayout;

    /// Pages whose MBR intersects `region`, in the index's natural
    /// retrieval order, into `out`, replacing its contents.
    fn pages_in_region_into(&self, region: &Aabb, out: &mut Vec<PageId>);

    /// [`SpatialIndex::pages_in_region_into`] into a fresh vector.
    fn pages_in_region(&self, region: &Aabb) -> Vec<PageId> {
        let mut out = Vec::new();
        self.pages_in_region_into(region, &mut out);
        out
    }

    /// Executes a range query into `out`, replacing its contents: touches
    /// every page overlapping the region
    /// ([`SpatialIndex::pages_in_region_into`]) and filters the contained
    /// objects with exact geometry tests
    /// ([`SpatialIndex::filter_pages_into`]).
    fn range_query_into(
        &self,
        objects: &[SpatialObject],
        region: &QueryRegion,
        out: &mut QueryResult,
    ) {
        self.pages_in_region_into(region.aabb(), &mut out.pages);
        self.filter_pages_into(objects, region, &out.pages, &mut out.objects);
    }

    /// The range query's object filter: the objects on `pages` whose
    /// geometry intersects `region`, page by page in list order, into
    /// `out`, replacing its contents.
    fn filter_pages_into(
        &self,
        objects: &[SpatialObject],
        region: &QueryRegion,
        pages: &[PageId],
        out: &mut Vec<ObjectId>,
    ) {
        out.clear();
        self.filter_pages_onto(objects, region, pages, out);
    }

    /// [`SpatialIndex::filter_pages_into`] appending to `out`: filtering a
    /// page list cut into consecutive pieces onto one list, the pieces in
    /// order, gives exactly the output for the whole list.
    ///
    /// The id lists point all over the dataset array, so the scan is
    /// bound by the latency of loading each object record, not by the
    /// predicate's arithmetic. It therefore asks for the record
    /// `PREFETCH_DISTANCE` ids ahead in the page's list, and for the
    /// first records of the next page, before it needs them
    /// ([`prefetch_read`] — a hint; objects come out in exactly the order
    /// of the plain loop).
    fn filter_pages_onto(
        &self,
        objects: &[SpatialObject],
        region: &QueryRegion,
        pages: &[PageId],
        out: &mut Vec<ObjectId>,
    ) {
        let layout = self.layout();
        let prefetch_head = |pid: PageId| {
            for &oid in layout.page(pid).objects.iter().take(PREFETCH_DISTANCE) {
                prefetch_read(&objects[oid.index()]);
            }
        };
        if let Some(&first) = pages.first() {
            prefetch_head(first);
        }
        for (i, &pid) in pages.iter().enumerate() {
            if let Some(&next) = pages.get(i + 1) {
                prefetch_head(next);
            }
            let ids = &layout.page(pid).objects[..];
            for (j, &oid) in ids.iter().enumerate() {
                if let Some(&ahead) = ids.get(j + PREFETCH_DISTANCE) {
                    prefetch_read(&objects[ahead.index()]);
                }
                if shape_intersects_aabb(&objects[oid.index()].shape, region.aabb()) {
                    out.push(oid);
                }
            }
        }
    }

    /// [`SpatialIndex::range_query_into`] into a fresh [`QueryResult`].
    fn range_query(&self, objects: &[SpatialObject], region: &QueryRegion) -> QueryResult {
        let mut out = QueryResult::default();
        self.range_query_into(objects, region, &mut out);
        out
    }
}

/// An index with neighborhood information supporting ordered retrieval
/// (the FLAT/DLS class used by SCOUT-OPT, §6.1).
pub trait OrderedSpatialIndex: SpatialIndex {
    /// A page whose MBR contains `p`, or the page closest to `p`.
    fn seed_page(&self, p: Vec3) -> Option<PageId>;

    /// Pages spatially adjacent to `page` (the precomputed neighborhood).
    fn page_neighbors(&self, page: PageId) -> &[PageId];

    /// Pages overlapping `region` retrieved by crawling neighbor links
    /// from the page nearest `start`, in breadth-first (spatial) order.
    fn crawl_region(&self, region: &Aabb, start: Vec3) -> Vec<PageId>;
}
