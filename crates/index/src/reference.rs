//! The pre-flattening R-tree directory, kept as an executable oracle.
//!
//! This is the seed implementation of [`crate::rtree::RTree`] verbatim:
//! heap-allocated directory nodes with an `enum` of child vectors, and an
//! unpruned best-first k-NN. It exists so `tests/index_properties.rs` can
//! assert the flat SoA directory returns equal results for
//! `pages_in_region` / `k_nearest_pages`. Nothing on a simulation path may
//! use it.

use crate::str_pack::str_pack;
use scout_geometry::{Aabb, SpatialObject, Vec3};
use scout_storage::{PageId, PageLayout};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::rtree::INTERNAL_FANOUT;

#[derive(Debug, Clone)]
enum Children {
    /// Leaf-level directory node: children are disk pages.
    Leaves(Vec<PageId>),
    /// Inner directory node: children are other nodes.
    Nodes(Vec<u32>),
}

#[derive(Debug, Clone)]
struct Node {
    mbr: Aabb,
    children: Children,
}

/// The seed pointer-style R-tree (oracle; see module docs).
#[derive(Debug, Clone)]
pub struct ReferenceRTree {
    layout: PageLayout,
    nodes: Vec<Node>,
    root: u32,
}

impl ReferenceRTree {
    /// Bulk loads with an explicit page capacity.
    pub fn bulk_load_with_capacity(objects: &[SpatialObject], capacity: usize) -> ReferenceRTree {
        Self::from_layout(str_pack(objects, capacity))
    }

    /// Builds the directory over an existing page layout.
    pub(crate) fn from_layout(layout: PageLayout) -> ReferenceRTree {
        let mut nodes: Vec<Node> = Vec::new();
        let mut level: Vec<u32> = layout
            .pages()
            .chunks(INTERNAL_FANOUT)
            .map(|chunk| {
                let mbr = chunk.iter().fold(Aabb::EMPTY, |acc, p| acc.union(&p.mbr));
                let ids = chunk.iter().map(|p| p.id).collect();
                nodes.push(Node { mbr, children: Children::Leaves(ids) });
                (nodes.len() - 1) as u32
            })
            .collect();
        while level.len() > 1 {
            level = level
                .chunks(INTERNAL_FANOUT)
                .map(|chunk| {
                    let mbr =
                        chunk.iter().fold(Aabb::EMPTY, |acc, &n| acc.union(&nodes[n as usize].mbr));
                    nodes.push(Node { mbr, children: Children::Nodes(chunk.to_vec()) });
                    (nodes.len() - 1) as u32
                })
                .collect();
        }
        let root = level[0];
        ReferenceRTree { layout, nodes, root }
    }

    /// The `k` pages with smallest MBR distance to `p`, nearest first
    /// (the seed's unpruned best-first search).
    pub fn k_nearest_pages(&self, p: Vec3, k: usize) -> Vec<PageId> {
        #[derive(PartialEq)]
        struct Entry {
            dist: f64,
            is_node: bool,
            id: u32,
        }
        impl Eq for Entry {}
        impl PartialOrd for Entry {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Entry {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.dist.total_cmp(&other.dist)
            }
        }

        let mut out = Vec::with_capacity(k);
        if k == 0 {
            return out;
        }
        let mut heap: BinaryHeap<Reverse<Entry>> = BinaryHeap::new();
        heap.push(Reverse(Entry { dist: 0.0, is_node: true, id: self.root }));
        while let Some(Reverse(e)) = heap.pop() {
            if e.is_node {
                match &self.nodes[e.id as usize].children {
                    Children::Nodes(children) => {
                        for &c in children {
                            let d = self.nodes[c as usize].mbr.distance_sq_to_point(p);
                            heap.push(Reverse(Entry { dist: d, is_node: true, id: c }));
                        }
                    }
                    Children::Leaves(pages) => {
                        for &pid in pages {
                            let d = self.layout.page(pid).mbr.distance_sq_to_point(p);
                            heap.push(Reverse(Entry { dist: d, is_node: false, id: pid.0 }));
                        }
                    }
                }
            } else {
                out.push(PageId(e.id));
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Pages whose MBR intersects `region`, in packed traversal order.
    pub fn pages_in_region(&self, region: &Aabb) -> Vec<PageId> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(n) = stack.pop() {
            let node = &self.nodes[n as usize];
            if !node.mbr.intersects(region) {
                continue;
            }
            match &node.children {
                Children::Nodes(children) => {
                    for &c in children.iter().rev() {
                        stack.push(c);
                    }
                }
                Children::Leaves(pages) => {
                    for &pid in pages {
                        if self.layout.page(pid).mbr.intersects(region) {
                            out.push(pid);
                        }
                    }
                }
            }
        }
        out
    }
}
