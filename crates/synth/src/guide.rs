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
///
/// The adjacency is one CSR (compressed sparse row) array: node `n`'s
/// neighbors are `targets[offsets[n] .. offsets[n + 1]]`, in the order its
/// edges were added. A guide over a 1.3 M-object neuron bed has about as
/// many nodes, and one list per node would cost a 24-byte header and a heap
/// block each; two flat arrays cost 4 bytes a node and 8 an edge. Built
/// once by the crate's `GuideBuilder` and read-only afterwards.
#[derive(Debug, Clone)]
pub struct GuideGraph {
    positions: Vec<Vec3>,
    /// Row starts into `targets`; `node_count() + 1` entries.
    offsets: Vec<u32>,
    /// Every row's neighbors, concatenated.
    targets: Vec<GuideNodeId>,
}

impl Default for GuideGraph {
    fn default() -> Self {
        GuideGraph { positions: Vec::new(), offsets: vec![0], targets: Vec::new() }
    }
}

impl GuideGraph {
    /// An empty graph.
    pub fn new() -> GuideGraph {
        GuideGraph::default()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.positions.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Position of a node.
    #[inline]
    pub(crate) fn position(&self, n: GuideNodeId) -> Vec3 {
        self.positions[n as usize]
    }

    /// Neighbors of a node, in the order its edges were added.
    #[inline]
    pub(crate) fn neighbors(&self, n: GuideNodeId) -> &[GuideNodeId] {
        let n = n as usize;
        &self.targets[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }

    /// The forest whose node `n` sits at `positions[n]` and hangs from
    /// `parents[n]` (a root names itself): the graph a [`GuideBuilder`]
    /// finishes to when it was given the edge from each non-root's parent,
    /// in node order. A generator that knows its sizes fills both arrays in
    /// place; a parent a node costs half an edge list, and a tree has no
    /// repeats to find.
    pub(crate) fn from_forest(positions: Vec<Vec3>, parents: Vec<GuideNodeId>) -> GuideGraph {
        let n = positions.len();
        assert_eq!(parents.len(), n, "one parent a node");
        assert!(n * 2 <= u32::MAX as usize, "guide rows overflow u32 offsets");
        let edges = || {
            let links = parents.iter().enumerate().map(|(c, &p)| (p, c as GuideNodeId));
            links.filter(|&(p, c)| p != c)
        };
        let mut offsets = vec![0u32; n + 1];
        for (p, c) in edges() {
            offsets[p as usize + 1] += 1;
            offsets[c as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // `offsets[i]` is row `i`'s cursor until the scatter leaves it at
        // the row's end, which is where row `i + 1` starts.
        let mut targets = vec![0 as GuideNodeId; offsets[n] as usize];
        for (p, c) in edges() {
            for (row, nb) in [(p, c), (c, p)] {
                targets[offsets[row as usize] as usize] = nb;
                offsets[row as usize] += 1;
            }
        }
        offsets.copy_within(0..n, 1);
        offsets[0] = 0;
        GuideGraph { positions, offsets, targets }
    }
}

/// Grows a [`GuideGraph`]: nodes and edges are appended to two flat lists
/// while a generator runs, and [`finish`](GuideBuilder::finish) scatters
/// the edges into CSR rows once. Generators read back node positions as
/// they grow, never neighbors, so nothing per-node is allocated until the
/// end.
#[derive(Debug, Default)]
pub(crate) struct GuideBuilder {
    positions: Vec<Vec3>,
    /// Undirected edges in the order they were added, repeats included.
    edges: Vec<(GuideNodeId, GuideNodeId)>,
}

impl GuideBuilder {
    /// An empty builder.
    pub(crate) fn new() -> GuideBuilder {
        GuideBuilder::default()
    }

    /// Adds a node, returning its id.
    pub(crate) fn add_node(&mut self, pos: Vec3) -> GuideNodeId {
        self.positions.push(pos);
        (self.positions.len() - 1) as GuideNodeId
    }

    /// Adds an undirected edge. Idempotent: a repeat, in either
    /// orientation, is dropped by [`finish`](GuideBuilder::finish).
    pub(crate) fn add_edge(&mut self, a: GuideNodeId, b: GuideNodeId) {
        assert_ne!(a, b, "self loops are not allowed in guide graphs");
        self.edges.push((a, b));
    }

    /// Position of a node.
    #[inline]
    pub(crate) fn position(&self, n: GuideNodeId) -> Vec3 {
        self.positions[n as usize]
    }

    /// The graph: each row lists its node's edges in the order they were
    /// added, a repeated edge where it first occurred — the rows of
    /// per-node lists that pushed both ends of every edge not yet listed.
    pub(crate) fn finish(self) -> GuideGraph {
        let GuideBuilder { positions, edges } = self;
        let n = positions.len();
        assert!(edges.len() * 2 <= u32::MAX as usize, "guide rows overflow u32 offsets");
        let mut offsets = vec![0u32; n + 1];
        for &(a, b) in &edges {
            offsets[a as usize + 1] += 1;
            offsets[b as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        // Scatter with room for repeats; `fill[i]` is row `i`'s length so
        // far. A repeat is found in row `a`, which is short.
        let mut fill = vec![0u32; n];
        let mut targets = vec![0 as GuideNodeId; edges.len() * 2];
        let mut repeats = false;
        for &(a, b) in &edges {
            let (ra, rb) = (offsets[a as usize] as usize, offsets[b as usize] as usize);
            if targets[ra..ra + fill[a as usize] as usize].contains(&b) {
                repeats = true;
                continue;
            }
            targets[ra + fill[a as usize] as usize] = b;
            targets[rb + fill[b as usize] as usize] = a;
            fill[a as usize] += 1;
            fill[b as usize] += 1;
        }
        if repeats {
            // Close the gaps the dropped repeats left, row by row.
            let mut end = 0usize;
            for i in 0..n {
                let start = offsets[i] as usize;
                let len = fill[i] as usize;
                targets.copy_within(start..start + len, end);
                offsets[i] = end as u32;
                end += len;
            }
            offsets[n] = end as u32;
            targets.truncate(end);
        }
        GuideGraph { positions, offsets, targets }
    }
}

#[cfg(test)]
impl GuideGraph {
    /// FNV-1a digest of the node count, every position's bits and every
    /// row in order, each row closed by a separator — a fingerprint that
    /// moves when any node, edge or row order does.
    pub(crate) fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325_u64;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
            }
        };
        eat(&(self.node_count() as u64).to_le_bytes());
        for n in 0..self.node_count() as GuideNodeId {
            let p = self.position(n);
            for c in [p.x, p.y, p.z] {
                eat(&c.to_bits().to_le_bytes());
            }
        }
        for n in 0..self.node_count() as GuideNodeId {
            for &nb in self.neighbors(n) {
                eat(&nb.to_le_bytes());
            }
            eat(&[0xFF]);
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use scout_geometry::ObjectId;

    #[test]
    fn graph_build_and_query() {
        let mut g = GuideBuilder::new();
        let a = g.add_node(Vec3::ZERO);
        let b = g.add_node(Vec3::ONE);
        let c = g.add_node(Vec3::splat(2.0));
        g.add_edge(a, b);
        g.add_edge(b, c);
        g.add_edge(a, b); // idempotent
        g.add_edge(b, a); // in either orientation
        let g = g.finish();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(b), &[a, c]);
        assert_eq!(g.position(c), Vec3::splat(2.0));
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loop_rejected() {
        let mut g = GuideBuilder::new();
        let a = g.add_node(Vec3::ZERO);
        g.add_edge(a, a);
    }

    /// The per-node lists `GuideGraph` kept before its CSR rows: both ends
    /// pushed unless row `a` already lists `b`.
    fn idempotent_lists(n: usize, edges: &[(GuideNodeId, GuideNodeId)]) -> Vec<Vec<GuideNodeId>> {
        let mut lists = vec![Vec::new(); n];
        for &(a, b) in edges {
            if !lists[a as usize].contains(&b) {
                lists[a as usize].push(b);
                lists[b as usize].push(a);
            }
        }
        lists
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        // Random edge lists with repeats spliced in, in both orientations:
        // `finish` must list every row as the idempotent lists did.
        #[test]
        fn guide_rows_equal_the_idempotent_lists(
            n in 2usize..48,
            raw in prop::collection::vec((0u32..1_000, 0u32..1_000), 0..120),
            repeats in prop::collection::vec((0usize..1_000, 0u8..2, 0usize..1_000), 0..40),
        ) {
            let mut edges: Vec<(GuideNodeId, GuideNodeId)> = raw
                .iter()
                .map(|&(x, y)| {
                    let a = x % n as u32;
                    (a, (a + 1 + y % (n as u32 - 1)) % n as u32)
                })
                .collect();
            for &(pick, flip, at) in &repeats {
                if let Some(&(a, b)) = edges.get(pick % edges.len().max(1)) {
                    let e = if flip == 1 { (b, a) } else { (a, b) };
                    edges.insert(at % (edges.len() + 1), e);
                }
            }
            let mut builder = GuideBuilder::new();
            for i in 0..n {
                builder.add_node(Vec3::splat(i as f64));
            }
            for &(a, b) in &edges {
                builder.add_edge(a, b);
            }
            let g = builder.finish();
            let lists = idempotent_lists(n, &edges);
            prop_assert_eq!(g.node_count(), n);
            prop_assert_eq!(g.edge_count(), lists.iter().map(Vec::len).sum::<usize>() / 2);
            for (i, list) in lists.iter().enumerate() {
                prop_assert_eq!(g.neighbors(i as GuideNodeId), list.as_slice());
                prop_assert_eq!(g.position(i as GuideNodeId), Vec3::splat(i as f64));
            }
        }

        // Random forests, each node hanging from an earlier one or rooting
        // a tree: `from_forest` is the builder given each parent edge in
        // node order, row for row.
        #[test]
        fn forest_rows_equal_the_builders(
            picks in prop::collection::vec((0u8..4, 0u32..1_000), 0..120),
        ) {
            let parents: Vec<GuideNodeId> = picks
                .iter()
                .enumerate()
                .map(|(c, &(root, at))| if c == 0 || root == 0 { c as u32 } else { at % c as u32 })
                .collect();
            let positions: Vec<Vec3> = (0..parents.len()).map(|i| Vec3::splat(i as f64)).collect();
            let mut builder = GuideBuilder::new();
            for &p in &positions {
                builder.add_node(p);
            }
            for (c, &p) in parents.iter().enumerate() {
                if p != c as u32 {
                    builder.add_edge(p, c as u32);
                }
            }
            let want = builder.finish();
            let got = GuideGraph::from_forest(positions, parents);
            prop_assert_eq!(got.digest(), want.digest());
            prop_assert_eq!(got.edge_count(), want.edge_count());
            prop_assert_eq!(got.offsets, want.offsets);
        }
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
