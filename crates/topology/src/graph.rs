//! The [`Topology`] type: a directed, weighted graph over dense node
//! indices.

use std::fmt;

/// A node identifier: a dense index in `0..n`, matching the row/column
/// indices of the adjacency and routing-state matrices.
pub type NodeId = usize;

/// A directed, weighted network topology.
///
/// Edges are stored sparsely; a missing entry denotes a missing link (which
/// the matrix layer treats as the constant-∞̄ edge function, exactly as the
/// paper represents absent edges).
///
/// The layout is the adjacency matrix's: row `i` is the list of `i`'s
/// out-edges `(j, w)` sorted by `j`, so [`Topology::edges`] walks the edges
/// in sorted `(i, j)` order (digests and snapshots depend on that order),
/// an edit is a binary search in one row, and copying a topology or
/// re-weighting it ([`Topology::with_weights`]) is one allocation per row.
#[derive(Clone, PartialEq, Eq)]
pub struct Topology<W> {
    /// `rows[i]`: the out-edges of node `i`, sorted by target, no self loop.
    rows: Vec<Vec<(NodeId, W)>>,
    /// The number of directed edges (the sum of the row lengths).
    edges: usize,
}

impl<W> Topology<W> {
    /// An empty topology with `nodes` nodes and no edges.
    pub fn new(nodes: usize) -> Self {
        Self {
            rows: (0..nodes).map(|_| Vec::new()).collect(),
            edges: 0,
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.rows.len()
    }

    /// The number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges
    }

    /// Iterate over all node identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.rows.len()
    }

    /// Add a node, returning its identifier.
    pub fn add_node(&mut self) -> NodeId {
        self.rows.push(Vec::new());
        self.rows.len() - 1
    }

    /// Set (or overwrite) the directed edge `i → j`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range or if `i == j` (self loops
    /// carry no routing information: a node always reaches itself via the
    /// trivial route).
    pub fn set_edge(&mut self, i: NodeId, j: NodeId, w: W) {
        let n = self.rows.len();
        assert!(i < n && j < n, "edge endpoint out of range");
        assert_ne!(i, j, "self loops are not allowed");
        let row = &mut self.rows[i];
        match row.binary_search_by_key(&j, |&(k, _)| k) {
            Ok(pos) => row[pos].1 = w,
            Err(pos) => {
                row.insert(pos, (j, w));
                self.edges += 1;
            }
        }
    }

    /// Remove the directed edge `i → j`, returning its weight if present.
    pub fn remove_edge(&mut self, i: NodeId, j: NodeId) -> Option<W> {
        let row = self.rows.get_mut(i)?;
        let pos = row.binary_search_by_key(&j, |&(k, _)| k).ok()?;
        self.edges -= 1;
        Some(row.remove(pos).1)
    }

    /// The weight of the directed edge `i → j`, if present.
    pub fn edge(&self, i: NodeId, j: NodeId) -> Option<&W> {
        let row = self.rows.get(i)?;
        let pos = row.binary_search_by_key(&j, |&(k, _)| k).ok()?;
        Some(&row[pos].1)
    }

    /// Does the directed edge `i → j` exist?
    pub fn has_edge(&self, i: NodeId, j: NodeId) -> bool {
        self.edge(i, j).is_some()
    }

    /// Iterate over all directed edges `(i, j, &w)`, in sorted `(i, j)`
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &W)> {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(i, row)| row.iter().map(move |(j, w)| (i, *j, w)))
    }

    /// Node `i`'s out-edges `(j, w)`, sorted by `j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn row(&self, i: NodeId) -> &[(NodeId, W)] {
        assert!(i < self.rows.len(), "node out of range");
        &self.rows[i]
    }

    /// The out-neighbours of `i` (nodes `j` with an edge `i → j`).
    pub fn out_neighbors(&self, i: NodeId) -> Vec<NodeId> {
        self.rows
            .get(i)
            .map_or_else(Vec::new, |row| row.iter().map(|&(j, _)| j).collect())
    }

    /// The in-neighbours of `j` (nodes `i` with an edge `i → j`).
    pub fn in_neighbors(&self, j: NodeId) -> Vec<NodeId> {
        self.nodes().filter(|&i| self.has_edge(i, j)).collect()
    }

    /// Is the edge relation symmetric (every link present in both
    /// directions)?
    pub fn is_symmetric(&self) -> bool {
        self.edges().all(|(i, j, _)| self.has_edge(j, i))
    }

    /// Map every edge weight, preserving the shape.
    pub fn map_weights<W2>(&self, mut f: impl FnMut(NodeId, NodeId, &W) -> W2) -> Topology<W2> {
        let rows = self
            .rows
            .iter()
            .enumerate()
            .map(|(i, row)| row.iter().map(|(j, w)| (*j, f(i, *j, w))).collect())
            .collect();
        Topology {
            rows,
            edges: self.edges,
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
    /// One traversal: `O(n + |E|)`.
    pub fn is_weakly_connected(&self) -> bool {
        let n = self.rows.len();
        if n == 0 {
            return true;
        }
        // the rows hold each node's out-edges; the in-edges need a transpose
        let mut incoming: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (i, j, _) in self.edges() {
            incoming[j].push(i);
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reached = 1;
        while let Some(v) = stack.pop() {
            let out = self.rows[v].iter().map(|&(j, _)| j);
            for o in out.chain(incoming[v].iter().copied()) {
                if !seen[o] {
                    seen[o] = true;
                    reached += 1;
                    stack.push(o);
                }
            }
        }
        reached == n
    }
}

impl<W: fmt::Debug> fmt::Debug for Topology<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Topology(n={}, m={})",
            self.node_count(),
            self.edge_count()
        )?;
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
        assert!(t.has_edge(3, 0));
        assert_eq!(t.edge_count(), 7);
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
