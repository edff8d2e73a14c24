//! The [`Topology`] type: a directed, weighted graph over dense node
//! indices.

use std::collections::BTreeMap;
use std::fmt;

/// A node identifier: a dense index in `0..n`, matching the row/column
/// indices of the adjacency and routing-state matrices.
pub type NodeId = usize;

/// A directed, weighted network topology.
///
/// Edges are stored sparsely; a missing entry denotes a missing link (which
/// the matrix layer treats as the constant-∞̄ edge function, exactly as the
/// paper represents absent edges).
#[derive(Clone, PartialEq, Eq)]
pub struct Topology<W> {
    nodes: usize,
    edges: BTreeMap<(NodeId, NodeId), W>,
}

impl<W> Topology<W> {
    /// An empty topology with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> Self {
        Self {
            nodes,
            edges: BTreeMap::new(),
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// The number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterate over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes
    }

    /// Add a node, returning its identifier.
    pub fn add_node(&mut self) -> NodeId {
        let id = self.nodes;
        self.nodes += 1;
        id
    }

    /// Set (or overwrite) the directed edge `i → j`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or if `i == j` (self loops
    /// carry no routing information: a node always reaches itself via the
    /// trivial route).
    pub fn set_edge(&mut self, i: NodeId, j: NodeId, w: W) {
        assert!(
            i < self.nodes && j < self.nodes,
            "edge endpoint out of range"
        );
        assert_ne!(i, j, "self loops are not allowed");
        self.edges.insert((i, j), w);
    }

    /// Remove the directed edge `i → j`, returning its weight if present.
    pub fn remove_edge(&mut self, i: NodeId, j: NodeId) -> Option<W> {
        self.edges.remove(&(i, j))
    }

    /// The weight of the directed edge `i → j`, if present.
    pub fn edge(&self, i: NodeId, j: NodeId) -> Option<&W> {
        self.edges.get(&(i, j))
    }

    /// Does the directed edge `i → j` exist?
    pub fn has_edge(&self, i: NodeId, j: NodeId) -> bool {
        self.edges.contains_key(&(i, j))
    }

    /// Iterate over all directed edges `(i, j, &w)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &W)> {
        self.edges.iter().map(|(&(i, j), w)| (i, j, w))
    }

    /// The out-neighbours of `i` (nodes `j` with an edge `i → j`).
    pub fn out_neighbors(&self, i: NodeId) -> Vec<NodeId> {
        self.edges
            .range((i, 0)..=(i, usize::MAX))
            .map(|(&(_, j), _)| j)
            .collect()
    }

    /// The in-neighbours of `j` (nodes `i` with an edge `i → j`).
    pub fn in_neighbors(&self, j: NodeId) -> Vec<NodeId> {
        self.edges
            .keys()
            .filter(|&&(_, to)| to == j)
            .map(|&(from, _)| from)
            .collect()
    }

    /// Is the edge relation symmetric (every link present in both
    /// directions)?
    pub fn is_symmetric(&self) -> bool {
        self.edges.keys().all(|&(i, j)| self.has_edge(j, i))
    }

    /// Remove a node (and every edge incident to it), compacting the
    /// identifiers of the nodes above it.  Returns the new topology — the
    /// paper's dynamic-network model treats this as starting a fresh problem
    /// instance with the corresponding row and column deleted.
    pub fn without_node(&self, v: NodeId) -> Topology<W>
    where
        W: Clone,
    {
        assert!(v < self.nodes, "node out of range");
        let remap = |x: NodeId| if x > v { x - 1 } else { x };
        let mut out = Topology::new(self.nodes - 1);
        for (i, j, w) in self.edges() {
            if i != v && j != v {
                out.set_edge(remap(i), remap(j), w.clone());
            }
        }
        out
    }

    /// Map every edge weight, preserving the shape.
    pub fn map_weights<W2>(&self, mut f: impl FnMut(NodeId, NodeId, &W) -> W2) -> Topology<W2> {
        // the keys arrive sorted and already validated, so the map is built
        // in bulk rather than one checked insert per edge
        Topology {
            nodes: self.nodes,
            edges: self
                .edges
                .iter()
                .map(|(&(i, j), w)| ((i, j), f(i, j, w)))
                .collect(),
        }
    }

    /// Attach weights to a shape: every existing edge gets `f(i, j)`.
    pub fn with_weights<W2>(&self, mut f: impl FnMut(NodeId, NodeId) -> W2) -> Topology<W2> {
        self.map_weights(|i, j, _| f(i, j))
    }

    /// Add both directions of a link with the same weight.
    pub fn set_link(&mut self, i: NodeId, j: NodeId, w: W)
    where
        W: Clone,
    {
        self.set_edge(i, j, w.clone());
        self.set_edge(j, i, w);
    }

    /// Remove both directions of a link.
    pub fn remove_link(&mut self, i: NodeId, j: NodeId) {
        self.remove_edge(i, j);
        self.remove_edge(j, i);
    }

    /// Is every node reachable from every other node, treating edges as
    /// undirected?  (A cheap sanity check used by generators and tests.)
    pub fn is_weakly_connected(&self) -> bool {
        if self.nodes == 0 {
            return true;
        }
        let mut seen = vec![false; self.nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for (i, j, _) in self.edges() {
                let other = if i == v {
                    Some(j)
                } else if j == v {
                    Some(i)
                } else {
                    None
                };
                if let Some(o) = other {
                    if !seen[o] {
                        seen[o] = true;
                        stack.push(o);
                    }
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

impl<W: fmt::Debug> fmt::Debug for Topology<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Topology(n={}, m={})", self.nodes, self.edge_count())?;
        for (i, j, w) in self.edges() {
            writeln!(f, "  {i} → {j}  [{w:?}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Topology<u32> {
        let mut t = Topology::new(3);
        t.set_link(0, 1, 1);
        t.set_link(1, 2, 2);
        t.set_link(0, 2, 3);
        t
    }

    #[test]
    fn basic_edge_operations() {
        let mut t = Topology::new(4);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.edge_count(), 0);
        t.set_edge(0, 1, 10u32);
        assert!(t.has_edge(0, 1));
        assert!(!t.has_edge(1, 0));
        assert_eq!(t.edge(0, 1), Some(&10));
        assert_eq!(t.edge(1, 0), None);
        t.set_edge(0, 1, 20);
        assert_eq!(t.edge(0, 1), Some(&20));
        assert_eq!(t.remove_edge(0, 1), Some(20));
        assert_eq!(t.remove_edge(0, 1), None);
    }

    #[test]
    #[should_panic(expected = "self loops")]
    fn self_loops_are_rejected() {
        Topology::new(2).set_edge(1, 1, 0u32);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edges_are_rejected() {
        Topology::new(2).set_edge(0, 5, 0u32);
    }

    #[test]
    fn neighbours_and_symmetry() {
        let t = triangle();
        assert!(t.is_symmetric());
        assert_eq!(t.out_neighbors(0), vec![1, 2]);
        assert_eq!(t.in_neighbors(0), vec![1, 2]);
        let mut asym = Topology::new(2);
        asym.set_edge(0, 1, 1u32);
        assert!(!asym.is_symmetric());
        assert_eq!(asym.out_neighbors(1), Vec::<NodeId>::new());
        assert_eq!(asym.in_neighbors(1), vec![0]);
    }

    #[test]
    fn add_and_remove_nodes() {
        let mut t = triangle();
        let v = t.add_node();
        assert_eq!(v, 3);
        assert_eq!(t.node_count(), 4);
        t.set_edge(3, 0, 9);

        let without1 = t.without_node(1);
        assert_eq!(without1.node_count(), 3);
        // old node 2 becomes 1, old node 3 becomes 2
        assert!(without1.has_edge(0, 1)); // was 0 → 2
        assert!(without1.has_edge(2, 0)); // was 3 → 0
        assert!(!without1.has_edge(0, 2));
        assert_eq!(
            without1.edge_count(),
            t.edges().filter(|&(i, j, _)| i != 1 && j != 1).count()
        );
    }

    #[test]
    fn weight_mapping_preserves_shape() {
        let t = triangle();
        let doubled = t.map_weights(|_, _, w| w * 2);
        assert_eq!(doubled.edge(0, 1), Some(&2));
        assert_eq!(doubled.edge_count(), t.edge_count());
        let shaped: Topology<()> = t.with_weights(|_, _| ());
        let reweighted = shaped.with_weights(|i, j| (i + j) as u32);
        assert_eq!(reweighted.edge(1, 2), Some(&3));
    }

    #[test]
    fn connectivity() {
        assert!(triangle().is_weakly_connected());
        let mut t = Topology::new(4);
        t.set_link(0, 1, 1u32);
        t.set_link(2, 3, 1);
        assert!(!t.is_weakly_connected());
        assert!(Topology::<u32>::new(0).is_weakly_connected());
        assert!(Topology::<u32>::new(1).is_weakly_connected());
    }

    #[test]
    fn link_helpers_and_debug() {
        let mut t = Topology::new(3);
        t.set_link(0, 2, 7u32);
        assert!(t.has_edge(0, 2) && t.has_edge(2, 0));
        t.remove_link(0, 2);
        assert_eq!(t.edge_count(), 0);
        let dbg = format!("{:?}", triangle());
        assert!(dbg.contains("Topology(n=3"));
        assert!(dbg.contains("0 → 1"));
    }
}
