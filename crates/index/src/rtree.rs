//! A packed R-tree over STR-bulk-loaded pages.
//!
//! This is the "widely used R-Tree (STR Bulkloaded)" the paper couples with
//! plain SCOUT (§7.1). Leaves are the disk pages produced by
//! [`crate::str_pack::str_pack`]; internal levels are built by packing
//! consecutive (already STR-ordered) entries, the standard construction for
//! bulk-loaded R-trees.
//!
//! ## Memory layout
//!
//! The directory is stored as an **implicit flat layout**: one contiguous
//! array of fixed-size node records `{child_start, child_len, is_leaf,
//! live}` plus two parallel arrays every record slices into — the child
//! ids and, slot for slot, the children's boxes. No per-node heap
//! allocations, no `enum` children vectors to chase, and no walk reads a
//! [`scout_storage::Page`] record to learn a page's box.
//! [`SpatialIndex::pages_in_region_into`] tests all of a node's slots
//! without branching into one `u64` hit mask and descends over its set
//! bits; [`RTree::k_nearest_pages_into`] reads its distances from the same
//! slots and reuses a caller-owned [`KnnScratch`], so neither touches the
//! allocator once warm. The seed pointer-style directory survives as
//! [`crate::reference::ReferenceRTree`], the property-test oracle.

use crate::str_pack::str_pack;
use crate::traits::SpatialIndex;
use scout_geometry::{Aabb, SpatialObject, Vec3};
use scout_storage::{PageId, PageLayout};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Internal-node fanout (how many children each directory node packs).
pub(crate) const INTERNAL_FANOUT: usize = 64;

// A node's hit mask is one `u64`, one bit per child slot.
const _: () = assert!(INTERNAL_FANOUT <= 64);

/// One directory node record in the flat layout.
///
/// `child_start .. child_start + child_len` indexes [`RTree::children`]
/// and [`RTree::boxes`]: node indices for inner nodes, raw [`PageId`]
/// values for leaf-level nodes (`is_leaf`).
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    child_start: u32,
    child_len: u32,
    is_leaf: bool,
    /// Bit `i` is set when slot `i`'s box is not empty. ANDed into every
    /// hit mask, it is the `!is_empty()` of [`Aabb::intersects`] decided
    /// once at build time: six comparisons alone would let an inverted
    /// box through.
    live: u64,
}

/// An immutable, bulk-loaded R-tree.
///
/// The page layout sits behind an `Arc`: a clone shares it and copies only
/// the directory. A bed that hands FLAT a clone of its R-tree (one STR
/// pack serving both indexes) therefore holds one layout, not two; the
/// pages' object lists are the largest part of an index.
#[derive(Debug, Clone)]
pub struct RTree {
    layout: Arc<PageLayout>,
    /// Directory records, leaf level first (construction order).
    nodes: Vec<NodeRec>,
    /// Concatenated child arrays of every node.
    children: Vec<u32>,
    /// The box of each child, parallel to `children`: the child's MBR
    /// verbatim, six `f64` a slot (`min.x min.y min.z max.x max.y max.z`).
    boxes: Vec<Aabb>,
    root: u32,
    height: usize,
}

/// Best-first search entry: a directory node or a page, keyed by MBR
/// distance. The ordering is total — distance, then kind, then id — so
/// heap pop order depends only on the live entry *set*, which keeps
/// pruned and unpruned searches identical (see
/// [`RTree::k_nearest_pages_into`]).
#[derive(Debug, Clone, Copy)]
struct KnnEntry {
    dist: f64,
    /// Directory node (`true`) or page (`false`).
    is_node: bool,
    id: u32,
}

impl PartialEq for KnnEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for KnnEntry {}
impl PartialOrd for KnnEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KnnEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.dist
            .total_cmp(&other.dist)
            .then_with(|| self.is_node.cmp(&other.is_node))
            .then_with(|| self.id.cmp(&other.id))
    }
}

/// A max-heap key over page distances (tracks the k-th best candidate).
#[derive(Debug, Clone, Copy, PartialEq)]
struct TotalF64(f64);
impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Reusable state for [`RTree::k_nearest_pages_into`]: the best-first
/// frontier and the k-best candidate distances. Owning one per session /
/// build loop keeps repeated k-NN probes allocation-free once warm.
#[derive(Debug, Clone, Default)]
pub struct KnnScratch {
    /// Min-heap frontier of nodes and pages by MBR distance.
    frontier: BinaryHeap<Reverse<KnnEntry>>,
    /// Max-heap of the k smallest page distances seen so far; its top is
    /// the pruning bound once k candidates exist.
    best: BinaryHeap<TotalF64>,
}

impl KnnScratch {
    /// A fresh scratch with no reserved capacity.
    pub const fn new() -> KnnScratch {
        KnnScratch { frontier: BinaryHeap::new(), best: BinaryHeap::new() }
    }

    /// A scratch that no search of `tree` for at most `k` pages grows: the
    /// frontier holds each node and page at most once, and the best set
    /// `k + 1` distances.
    pub(crate) fn reserved(tree: &RTree, k: usize) -> KnnScratch {
        KnnScratch {
            frontier: BinaryHeap::with_capacity(tree.children.len() + 1),
            best: BinaryHeap::with_capacity(k + 1),
        }
    }
}

// `nearest_page`'s search state belongs to the thread, as the serve buffers
// in `scout-sim`'s session do: taken for the probe and put back, so only
// capacity carries over from one probe to the next.
thread_local! {
    static NEAREST_PAGE: Cell<(KnnScratch, Vec<PageId>)> =
        const { Cell::new((KnnScratch::new(), Vec::new())) };
}

impl RTree {
    /// Bulk loads with an explicit page capacity.
    pub fn bulk_load_with_capacity(objects: &[SpatialObject], capacity: usize) -> RTree {
        let layout = str_pack(objects, capacity);
        Self::from_layout(layout)
    }

    /// Builds the directory over an existing page layout.
    ///
    /// A layout with no pages builds the empty tree — one childless leaf
    /// node — on which both walks return nothing.
    pub(crate) fn from_layout(layout: PageLayout) -> RTree {
        let mut nodes: Vec<NodeRec> = Vec::new();
        let mut children: Vec<u32> = Vec::new();
        let mut boxes: Vec<Aabb> = Vec::new();
        // Packs consecutive (already STR-ordered) `(child id, box)` entries
        // into the nodes of the next level up, returned the same way.
        let mut pack = |entries: &[(u32, Aabb)], is_leaf: bool| -> Vec<(u32, Aabb)> {
            entries
                .chunks(INTERNAL_FANOUT)
                .map(|chunk| {
                    let child_start = children.len() as u32;
                    let mut mbr = Aabb::EMPTY;
                    let mut live = 0u64;
                    for (i, (child, b)) in chunk.iter().enumerate() {
                        children.push(*child);
                        boxes.push(*b);
                        live |= u64::from(!b.is_empty()) << i;
                        mbr = mbr.union(b);
                    }
                    nodes.push(NodeRec {
                        child_start,
                        child_len: chunk.len() as u32,
                        is_leaf,
                        live,
                    });
                    ((nodes.len() - 1) as u32, mbr)
                })
                .collect()
        };
        let pages: Vec<(u32, Aabb)> = layout.pages().iter().map(|p| (p.id.0, p.mbr)).collect();
        let mut level = pack(&pages, true);
        let mut height = 1;
        while level.len() > 1 {
            level = pack(&level, false);
            height += 1;
        }
        let root = match level.first() {
            Some(&(top, _)) => top,
            // No pages, so no node: root the tree in a childless leaf.
            None => {
                nodes.push(NodeRec { child_start: 0, child_len: 0, is_leaf: true, live: 0 });
                0
            }
        };
        RTree { layout: Arc::new(layout), nodes, children, boxes, root, height }
    }

    /// Tree height in directory levels (excludes the page level).
    pub fn height(&self) -> usize {
        self.height
    }

    /// The page whose MBR is nearest to `p` (contains it when possible).
    ///
    /// Exact best-first search over MBR distances, in the calling thread's
    /// [`KnnScratch`]: SCOUT-OPT seeds every gap crawl here, so a warmed
    /// thread probes without allocating.
    pub(crate) fn nearest_page(&self, p: Vec3) -> Option<PageId> {
        let (mut scratch, mut out) = NEAREST_PAGE.take();
        self.k_nearest_pages_into(p, 1, &mut scratch, &mut out);
        let page = out.first().copied();
        NEAREST_PAGE.set((scratch, out));
        page
    }

    /// The `k` pages with smallest MBR distance to `p`, nearest first,
    /// into a caller-provided output buffer, reusing `scratch` across calls.
    ///
    /// Best-first search with k-th-best pruning: once `k` page candidates
    /// have been seen, children whose MBR distance exceeds the current
    /// k-th best distance are skipped — they can never displace a
    /// candidate. The frontier pops in ascending `(dist, kind, id)` order,
    /// so the result is identical to the unpruned search.
    pub fn k_nearest_pages_into(
        &self,
        p: Vec3,
        k: usize,
        scratch: &mut KnnScratch,
        out: &mut Vec<PageId>,
    ) {
        out.clear();
        scratch.frontier.clear();
        scratch.best.clear();
        if k == 0 {
            return;
        }
        let bound = |best: &BinaryHeap<TotalF64>| {
            if best.len() == k {
                best.peek().expect("non-empty at len == k").0
            } else {
                f64::INFINITY
            }
        };
        scratch.frontier.push(Reverse(KnnEntry { dist: 0.0, is_node: true, id: self.root }));
        while let Some(Reverse(e)) = scratch.frontier.pop() {
            if e.is_node {
                if e.dist > bound(&scratch.best) {
                    continue; // no page below this node can make the k best
                }
                let node = &self.nodes[e.id as usize];
                let is_node = !node.is_leaf;
                for slot in node.slots() {
                    let d = self.boxes[slot].distance_sq_to_point(p);
                    if d > bound(&scratch.best) {
                        continue;
                    }
                    if !is_node {
                        scratch.best.push(TotalF64(d));
                        if scratch.best.len() > k {
                            scratch.best.pop();
                        }
                    }
                    let id = self.children[slot];
                    scratch.frontier.push(Reverse(KnnEntry { dist: d, is_node, id }));
                }
            } else {
                out.push(PageId(e.id));
                if out.len() == k {
                    break;
                }
            }
        }
    }

    /// The walk under [`SpatialIndex::pages_in_region_into`]: appends the
    /// pages below node `n` whose boxes meet the query box `q`, in
    /// ascending slot order at every level.
    ///
    /// Each slot is tested with six comparisons and no branch — a slot
    /// hits when `min ≤ q.max` and `max ≥ q.min` on every axis, boundary
    /// included — and the verdicts of a node fold into one mask, so the
    /// only data-dependent branches are the ones that follow a hit.
    fn walk(&self, n: u32, q: &Aabb, out: &mut Vec<PageId>) {
        let node = &self.nodes[n as usize];
        let slots = node.slots();
        let mut hits = 0u64;
        for (i, b) in self.boxes[slots.clone()].iter().enumerate() {
            let hit = (b.min.x <= q.max.x)
                & (b.min.y <= q.max.y)
                & (b.min.z <= q.max.z)
                & (b.max.x >= q.min.x)
                & (b.max.y >= q.min.y)
                & (b.max.z >= q.min.z);
            hits |= u64::from(hit) << i;
        }
        hits &= node.live;
        let children = &self.children[slots];
        while hits != 0 {
            let child = children[hits.trailing_zeros() as usize];
            hits &= hits - 1;
            if node.is_leaf {
                out.push(PageId(child));
            } else {
                self.walk(child, q, out);
            }
        }
    }
}

impl NodeRec {
    /// This node's range of child slots.
    #[inline]
    fn slots(&self) -> std::ops::Range<usize> {
        let start = self.child_start as usize;
        start..start + self.child_len as usize
    }
}

impl SpatialIndex for RTree {
    fn layout(&self) -> &PageLayout {
        &self.layout
    }

    /// Pages come out in ascending id order: every level was packed from
    /// consecutive entries, and every node is walked in slot order.
    fn pages_in_region_into(&self, region: &Aabb, out: &mut Vec<PageId>) {
        out.clear();
        // The other `!is_empty()` of `Aabb::intersects`, once per walk: an
        // inverted region could still pass a slot's six comparisons.
        if !region.is_empty() {
            self.walk(self.root, region, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::SpatialIndex;
    use scout_geometry::{ObjectId, QueryRegion, Shape, StructureId};

    fn grid_objects(n_per_axis: usize, spacing: f64) -> Vec<SpatialObject> {
        let mut out = Vec::new();
        let mut id = 0u32;
        for x in 0..n_per_axis {
            for y in 0..n_per_axis {
                for z in 0..n_per_axis {
                    out.push(SpatialObject::new(
                        ObjectId(id),
                        StructureId(0),
                        Shape::Point(Vec3::new(
                            x as f64 * spacing,
                            y as f64 * spacing,
                            z as f64 * spacing,
                        )),
                    ));
                    id += 1;
                }
            }
        }
        out
    }

    #[test]
    fn range_query_matches_brute_force() {
        let objs = grid_objects(10, 1.0); // 1000 points in [0,9]^3
        let tree = RTree::bulk_load_with_capacity(&objs, 16);
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::splat(2.5), Vec3::splat(6.5)));
        let mut got: Vec<u32> =
            tree.range_query(&objs, &region).objects.iter().map(|o| o.0).collect();
        got.sort_unstable();
        let mut expect: Vec<u32> = objs
            .iter()
            .filter(|o| region.aabb().contains_point(o.centroid()))
            .map(|o| o.id.0)
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
        assert_eq!(expect.len(), 4 * 4 * 4);
    }

    #[test]
    fn query_outside_bounds_is_empty() {
        let objs = grid_objects(4, 1.0);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let region = QueryRegion::from_aabb(Aabb::new(Vec3::splat(100.0), Vec3::splat(101.0)));
        let r = tree.range_query(&objs, &region);
        assert!(r.is_empty());
        assert!(r.pages.is_empty());
    }

    #[test]
    fn multi_level_tree_built_for_many_pages() {
        let objs = grid_objects(20, 1.0); // 8000 objects
        let tree = RTree::bulk_load_with_capacity(&objs, 4); // 2000 pages
        assert!(tree.height() >= 2, "height {}", tree.height());
    }

    #[test]
    fn nearest_page_is_globally_nearest() {
        let objs = grid_objects(8, 1.0);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        for p in [Vec3::new(3.4, 2.2, 5.9), Vec3::new(-4.0, 0.0, 0.0), Vec3::new(7.0, 7.0, 7.0)] {
            let page = tree.nearest_page(p).unwrap();
            let got = tree.layout().page(page).mbr.distance_sq_to_point(p);
            let best = tree
                .layout()
                .pages()
                .iter()
                .map(|pg| pg.mbr.distance_sq_to_point(p))
                .fold(f64::INFINITY, f64::min);
            assert!((got - best).abs() < 1e-12, "{got} vs brute-force {best}");
        }
    }

    /// The `k` nearest pages through a fresh scratch and output buffer.
    fn k_nearest_pages(tree: &RTree, p: Vec3, k: usize) -> Vec<PageId> {
        let mut out = Vec::with_capacity(k);
        tree.k_nearest_pages_into(p, k, &mut KnnScratch::new(), &mut out);
        out
    }

    #[test]
    fn k_nearest_pages_sorted_by_distance() {
        let objs = grid_objects(8, 1.0);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let p = Vec3::new(20.0, 20.0, 20.0); // outside; distances all > 0
        let near = k_nearest_pages(&tree, p, 5);
        assert_eq!(near.len(), 5);
        let dists: Vec<f64> =
            near.iter().map(|&pid| tree.layout().page(pid).mbr.distance_sq_to_point(p)).collect();
        for w in dists.windows(2) {
            assert!(w[0] <= w[1] + 1e-12);
        }
        // Exact: compare against brute force.
        let mut all: Vec<(f64, PageId)> = tree
            .layout()
            .pages()
            .iter()
            .map(|pg| (pg.mbr.distance_sq_to_point(p), pg.id))
            .collect();
        all.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!((dists[0] - all[0].0).abs() < 1e-12);
    }

    #[test]
    fn k_nearest_reused_scratch_matches_fresh() {
        let objs = grid_objects(8, 1.0);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let mut scratch = KnnScratch::new();
        let mut out = Vec::new();
        for (i, p) in
            [Vec3::new(1.0, 2.0, 3.0), Vec3::new(7.5, 0.1, 4.4), Vec3::new(-3.0, 9.0, 2.2)]
                .into_iter()
                .enumerate()
        {
            let k = 1 + 2 * i;
            tree.k_nearest_pages_into(p, k, &mut scratch, &mut out);
            assert_eq!(out, k_nearest_pages(&tree, p, k), "probe {i} diverged");
        }
    }

    #[test]
    fn k_larger_than_page_count_returns_all_pages() {
        let objs = grid_objects(3, 1.0);
        let tree = RTree::bulk_load_with_capacity(&objs, 8);
        let n = tree.layout().page_count();
        let near = k_nearest_pages(&tree, Vec3::splat(1.0), n + 10);
        assert_eq!(near.len(), n);
    }

    /// A layout of one-object pages with exactly the given boxes.
    fn layout_of_boxes(boxes: &[Aabb]) -> PageLayout {
        let pages = boxes
            .iter()
            .enumerate()
            .map(|(i, &mbr)| scout_storage::Page {
                id: PageId(0),
                mbr,
                objects: vec![ObjectId(i as u32)],
            })
            .collect();
        PageLayout::new(pages, boxes.len())
    }

    /// The mask walk answers every slot as `Aabb::intersects` does: for an
    /// empty and an inverted region, for a region touching a page box on
    /// one face only, and for page boxes that are `Aabb::EMPTY` or
    /// inverted on one axis.
    #[test]
    fn walk_agrees_with_aabb_intersects_slot_for_slot() {
        // 150 unit boxes along x (three leaf nodes under one inner node),
        // every seventh page box empty, every eleventh inverted on y.
        let boxes: Vec<Aabb> = (0..150)
            .map(|i| {
                let lo = Vec3::new(2.0 * i as f64, 0.0, 0.0);
                match i {
                    _ if i % 7 == 3 => Aabb::EMPTY,
                    _ if i % 11 == 5 => Aabb {
                        min: lo + Vec3::new(0.0, 1.0, 0.0),
                        max: lo + Vec3::new(1.0, 0.0, 1.0),
                    },
                    _ => Aabb::new(lo, lo + Vec3::ONE),
                }
            })
            .collect();
        let tree = RTree::from_layout(layout_of_boxes(&boxes));
        assert_eq!(tree.height(), 2);
        let everything = Aabb::new(Vec3::splat(-1.0), Vec3::splat(400.0));
        let regions = [
            everything,
            Aabb::new(Vec3::splat(f64::NEG_INFINITY), Vec3::splat(f64::INFINITY)),
            Aabb::EMPTY,
            // Inverted on x only, and spanned by page 12's box [24, 25].
            Aabb { min: Vec3::new(24.75, 0.0, 0.0), max: Vec3::new(24.25, 1.0, 1.0) },
            // Touches page 1 ([2, 3]) on its low-x face and page 0 on its
            // high-x face, and nothing else.
            Aabb::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(2.0, 1.0, 1.0)),
            // Touches page 2 ([4, 5]) on its high-z face only.
            Aabb::new(Vec3::new(4.25, 0.25, 1.0), Vec3::new(4.75, 0.75, 3.0)),
            // Misses by a hair on y.
            Aabb::new(Vec3::new(0.0, 1.0 + 1e-12, 0.0), Vec3::new(300.0, 2.0, 1.0)),
            Aabb::new(Vec3::new(100.5, 0.5, 0.5), Vec3::new(170.5, 0.6, 0.6)),
        ];
        let mut into = vec![PageId(77); 5];
        for region in &regions {
            let want: Vec<PageId> = boxes
                .iter()
                .zip(0..)
                .filter(|(b, _)| b.intersects(region))
                .map(|(_, i)| PageId(i))
                .collect();
            assert_eq!(tree.pages_in_region(region), want, "region {region:?}");
            tree.pages_in_region_into(region, &mut into);
            assert_eq!(into, want, "region {region:?}, into a used buffer");
        }
        assert_eq!(tree.pages_in_region(&regions[4]), [PageId(0), PageId(1)]);
        assert_eq!(tree.pages_in_region(&regions[5]), [PageId(2)]);
        // 21 empty page boxes, 12 more inverted ones.
        assert_eq!(tree.pages_in_region(&everything).len(), 150 - 21 - 12);
    }

    #[test]
    fn a_layout_without_pages_builds_the_empty_tree() {
        let tree = RTree::from_layout(PageLayout::new(Vec::new(), 0));
        assert_eq!(tree.height(), 1);
        let all = Aabb::new(Vec3::splat(f64::NEG_INFINITY), Vec3::splat(f64::INFINITY));
        assert!(tree.pages_in_region(&all).is_empty());
        assert!(k_nearest_pages(&tree, Vec3::ZERO, 3).is_empty());
        assert_eq!(tree.nearest_page(Vec3::ZERO), None);
    }

    #[test]
    fn pages_in_region_only_intersecting() {
        let objs = grid_objects(10, 1.0);
        let tree = RTree::bulk_load_with_capacity(&objs, 16);
        let region = Aabb::new(Vec3::splat(0.0), Vec3::splat(3.0));
        for pid in tree.pages_in_region(&region) {
            assert!(tree.layout().page(pid).mbr.intersects(&region));
        }
    }
}
