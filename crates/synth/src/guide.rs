//! Ground-truth guiding structures.
//!
//! Every generated dataset carries a [`GuideGraph`]: the skeleton of its
//! spatial structures (neuron fibers, artery center-lines, airway
//! center-lines, road polylines). Query sequences are produced by walking
//! this graph (§7.2: queries are "generated by making a random walk on the
//! graph representation of the entire dataset"). SCOUT never sees it.

use scout_geometry::Vec3;

pub use scout_geometry::ObjectAdjacency;

/// Index of a node within a [`GuideGraph`].
pub(crate) type GuideNodeId = u32;

/// An undirected spatial graph of structure skeletons.
#[derive(Debug, Clone, Default)]
pub struct GuideGraph {
    positions: Vec<Vec3>,
    adjacency: Vec<Vec<GuideNodeId>>,
}

impl GuideGraph {
    /// An empty graph.
    pub fn new() -> GuideGraph {
        GuideGraph::default()
    }

    /// Adds a node, returning its id.
    pub(crate) fn add_node(&mut self, pos: Vec3) -> GuideNodeId {
        self.positions.push(pos);
        self.adjacency.push(Vec::new());
        (self.positions.len() - 1) as GuideNodeId
    }

    /// Adds an undirected edge (idempotent).
    pub(crate) fn add_edge(&mut self, a: GuideNodeId, b: GuideNodeId) {
        assert_ne!(a, b, "self loops are not allowed in guide graphs");
        if !self.adjacency[a as usize].contains(&b) {
            self.adjacency[a as usize].push(b);
            self.adjacency[b as usize].push(a);
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Position of a node.
    #[inline]
    pub(crate) fn position(&self, n: GuideNodeId) -> Vec3 {
        self.positions[n as usize]
    }

    /// Neighbors of a node.
    #[inline]
    pub(crate) fn neighbors(&self, n: GuideNodeId) -> &[GuideNodeId] {
        &self.adjacency[n as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_geometry::ObjectId;

    #[test]
    fn graph_build_and_query() {
        let mut g = GuideGraph::new();
        let a = g.add_node(Vec3::ZERO);
        let b = g.add_node(Vec3::ONE);
        let c = g.add_node(Vec3::splat(2.0));
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, b); // idempotent
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(b), &[a, c]);
        assert_eq!(g.position(c), Vec3::splat(2.0));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_rejected() {
        let mut g = GuideGraph::new();
        let a = g.add_node(Vec3::ZERO);
        g.add_edge(a, a);
    }

    #[test]
    fn csr_adjacency() {
        let lists = vec![vec![ObjectId(1)], vec![ObjectId(0), ObjectId(2)], vec![ObjectId(1)]];
        let adj = ObjectAdjacency::from_lists(&lists);
        assert_eq!(adj.object_count(), 3);
        assert_eq!(adj.edge_count(), 4);
        assert_eq!(adj.neighbors(ObjectId(1)), &[ObjectId(0), ObjectId(2)]);
        assert_eq!(adj.neighbors(ObjectId(0)), &[ObjectId(1)]);
    }
}
