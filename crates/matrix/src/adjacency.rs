//! The adjacency matrix `A` of edge functions.

use dbf_algebra::RoutingAlgebra;
use dbf_paths::pathvec::PathVector;
use dbf_paths::NodeId;
use dbf_topology::Topology;
use std::fmt;

/// The `n × n` adjacency matrix of a routing problem instance.
///
/// `A[i][j]` (when present) is the edge function node `i` applies to routes
/// announced by node `j` — the paper's `A_ij`.  Missing entries represent
/// missing links and behave as the constant-∞̄ function.
///
/// Real topologies are sparse (a router has a handful of neighbours, not
/// `n`), so the matrix is stored in compressed sparse rows: one array of
/// `(j, A_ij)` pairs for every present entry, row by row and each row
/// sorted by `j`, and an offsets array that cuts it into rows.  Beside it
/// sits the transpose of the sparsity pattern in the same form — per node
/// `k`, the ascending rows `i` that import from `k` — built by every
/// constructor and kept in step by [`AdjacencyMatrix::set`].  Memory is
/// `O(n + |E|)` instead of `O(n²)`, σ and δ iterate over a node's actual
/// neighbours (what makes 10⁴-node sweeps feasible), and the dirty-row
/// engines and the message engines read who is affected by a row straight
/// from [`AdjacencyMatrix::dependants`].  A matrix is a handful of
/// allocations, however many nodes it has.
pub struct AdjacencyMatrix<A: RoutingAlgebra> {
    n: usize,
    /// Row `i` is `links[offsets[i]..offsets[i + 1]]`: sorted by
    /// neighbour, never containing `i` itself.  `offsets.len() == n + 1`.
    offsets: Vec<usize>,
    links: Vec<(NodeId, A::Edge)>,
    /// The readers of node `k` are `readers[reader_offsets[k]..
    /// reader_offsets[k + 1]]`, ascending: every `i` with `A_ik` present.
    reader_offsets: Vec<usize>,
    readers: Vec<NodeId>,
}

// Manual Clone: deriving would add an unnecessary `A: Clone` bound on the
// algebra itself, whereas only the edges need it (and the `RoutingAlgebra`
// trait already requires `Edge: Clone`).
impl<A: RoutingAlgebra> Clone for AdjacencyMatrix<A> {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            offsets: self.offsets.clone(),
            links: self.links.clone(),
            reader_offsets: self.reader_offsets.clone(),
            readers: self.readers.clone(),
        }
    }
}

impl<A: RoutingAlgebra> AdjacencyMatrix<A> {
    /// An adjacency with no links at all.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            offsets: vec![0; n + 1],
            links: Vec::new(),
            reader_offsets: vec![0; n + 1],
            readers: Vec::new(),
        }
    }

    /// Build an adjacency from an explicit entry function.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> Option<A::Edge>) -> Self {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut links = Vec::new();
        let mut reader_counts = vec![0; n + 1];
        offsets.push(0);
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                if let Some(e) = f(i, j) {
                    links.push((j, e));
                    reader_counts[j] += 1;
                }
            }
            offsets.push(links.len());
        }
        Self::with_transpose(offsets, links, reader_counts)
    }

    /// Build an adjacency from a topology whose edge weights *are* the
    /// algebra's edge functions: the topology edge `i → j` becomes `A_ij`.
    pub fn from_topology(topo: &Topology<A::Edge>) -> Self {
        let n = topo.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut links = Vec::with_capacity(topo.edge_count());
        let mut reader_counts = vec![0; n + 1];
        offsets.push(0);
        for i in 0..n {
            // a topology row is already an adjacency row (sorted by
            // neighbour, no self loop): copy it whole, then count its
            // neighbours' readers
            let row = topo.row(i);
            links.extend_from_slice(row);
            for &(k, _) in row {
                reader_counts[k] += 1;
            }
            offsets.push(links.len());
        }
        Self::with_transpose(offsets, links, reader_counts)
    }

    /// Finish a constructor from its rows and `reader_counts[k]`, how many
    /// rows import from `k` (the last of its `n + 1` slots is spare).
    /// Prefix sums turn the counts into the end of each node's reader
    /// list, and walking the rows backwards fills every list from its end,
    /// so each one comes out ascending and the counts become the offsets.
    fn with_transpose(
        offsets: Vec<usize>,
        links: Vec<(NodeId, A::Edge)>,
        reader_counts: Vec<usize>,
    ) -> Self {
        let n = offsets.len() - 1;
        let mut reader_offsets = reader_counts;
        let mut end = 0;
        for slot in &mut reader_offsets[..n] {
            end += *slot;
            *slot = end;
        }
        reader_offsets[n] = end;
        let mut readers = vec![0; end];
        for i in (0..n).rev() {
            for &(k, _) in &links[offsets[i]..offsets[i + 1]] {
                reader_offsets[k] -= 1;
                readers[reader_offsets[k]] = i;
            }
        }
        Self {
            n,
            offsets,
            links,
            reader_offsets,
            readers,
        }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The number of present (non-∞̄) entries.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The entry `A_ij`, if the link exists.
    pub fn get(&self, i: NodeId, j: NodeId) -> Option<&A::Edge> {
        assert!(i < self.n && j < self.n, "adjacency index out of range");
        let row = self.row(i);
        row.binary_search_by_key(&j, |&(k, _)| k)
            .ok()
            .map(|pos| &row[pos].1)
    }

    /// Set (or clear) the entry `A_ij`.  Overwriting a present entry costs
    /// a binary search; adding or clearing one shifts both the rows and
    /// the transpose behind it, `O(n + |E|)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or on the diagonal (`i == j`); the
    /// diagonal is handled by the identity matrix `I`, not by `A`.
    pub fn set(&mut self, i: NodeId, j: NodeId, e: Option<A::Edge>) {
        assert!(i < self.n && j < self.n, "adjacency index out of range");
        assert_ne!(
            i, j,
            "the diagonal of A is unused (see the identity matrix I)"
        );
        let (lo, hi) = (self.offsets[i], self.offsets[i + 1]);
        let found = self.links[lo..hi].binary_search_by_key(&j, |&(k, _)| k);
        let readers = &self.readers[self.reader_offsets[j]..self.reader_offsets[j + 1]];
        let at = self.reader_offsets[j] + readers.partition_point(|&r| r < i);
        match (found, e) {
            (Ok(pos), Some(e)) => self.links[lo + pos].1 = e,
            (Ok(pos), None) => {
                self.links.remove(lo + pos);
                self.readers.remove(at);
                shift(&mut self.offsets[i + 1..], false);
                shift(&mut self.reader_offsets[j + 1..], false);
            }
            (Err(pos), Some(e)) => {
                self.links.insert(lo + pos, (j, e));
                self.readers.insert(at, i);
                shift(&mut self.offsets[i + 1..], true);
                shift(&mut self.reader_offsets[j + 1..], true);
            }
            (Err(_), None) => {}
        }
    }

    /// Row `i` as a sorted slice of `(neighbour, A_ij)` pairs — the links
    /// over which node `i` imports routes.  This is the representation `σ`
    /// iterates over, giving per-round cost `O(n · |E|)` instead of `O(n³)`.
    pub fn row(&self, i: NodeId) -> &[(NodeId, A::Edge)] {
        assert!(i < self.n, "adjacency index out of range");
        &self.links[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The rows that import from row `k` (every `i` with `A_ik` present),
    /// ascending — column `k` of the transpose of the sparsity pattern.
    /// This is the propagation structure the dirty-row engines walk each
    /// round (when row `k` changes, exactly these rows can change next
    /// round) and the list of peers a message engine's node `k` announces
    /// to.
    pub fn dependants(&self, k: NodeId) -> &[NodeId] {
        assert!(k < self.n, "adjacency index out of range");
        &self.readers[self.reader_offsets[k]..self.reader_offsets[k + 1]]
    }

    /// Apply `A_ij` to a route, treating a missing entry as the constant-∞̄
    /// function.
    pub fn apply(&self, alg: &A, i: NodeId, j: NodeId, r: &A::Route) -> A::Route {
        match self.get(i, j) {
            Some(f) => alg.extend(f, r),
            None => alg.invalid(),
        }
    }
}

/// Move the offsets behind an inserted (or removed) entry one slot up (or
/// down).
fn shift(offsets: &mut [usize], inserted: bool) {
    for o in offsets {
        if inserted {
            *o += 1;
        } else {
            *o -= 1;
        }
    }
}

impl<A: RoutingAlgebra> fmt::Debug for AdjacencyMatrix<A>
where
    A::Edge: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AdjacencyMatrix(n={})", self.n)?;
        for i in 0..self.n {
            for j in 0..self.n {
                if let Some(e) = self.get(i, j) {
                    writeln!(f, "  A[{i},{j}] = {e:?}")?;
                }
            }
        }
        Ok(())
    }
}

/// Lift a topology of *base-algebra* edges into the adjacency of the
/// path-vector lifting: the topology edge `i → j` with base policy `w`
/// becomes the annotated edge `A_ij = (i, j, w)`.
pub fn lift_topology<A: RoutingAlgebra>(
    pv: &PathVector<A>,
    topo: &Topology<A::Edge>,
) -> AdjacencyMatrix<PathVector<A>> {
    let n = topo.node_count();
    AdjacencyMatrix::from_fn(n, |i, j| topo.edge(i, j).map(|w| pv.edge(i, j, w.clone())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::*;
    use dbf_topology::generators;

    #[test]
    fn from_topology_respects_direction() {
        let mut topo = dbf_topology::Topology::new(3);
        topo.set_edge(0, 1, NatInf::fin(5));
        let adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::from_topology(&topo);
        assert_eq!(adj.get(0, 1), Some(&NatInf::fin(5)));
        assert_eq!(adj.get(1, 0), None);
        assert_eq!(adj.node_count(), 3);
        assert_eq!(adj.link_count(), 1);
        assert_eq!(adj.row(0), &[(1, NatInf::fin(5))]);
        assert!(adj.row(2).is_empty());
        assert_eq!(adj.dependants(1), &[0], "node 0 imports from node 1");
        assert!(adj.dependants(0).is_empty());
    }

    #[test]
    fn apply_treats_missing_links_as_filtering() {
        let alg = ShortestPaths::new();
        let topo = generators::line(3).with_weights(|_, _| NatInf::fin(1));
        let adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::from_topology(&topo);
        assert_eq!(adj.apply(&alg, 0, 1, &NatInf::fin(3)), NatInf::fin(4));
        assert_eq!(adj.apply(&alg, 0, 2, &NatInf::fin(3)), NatInf::INF);
    }

    #[test]
    fn rows_are_sorted_and_track_set_and_clear() {
        let mut adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(4);
        adj.set(1, 3, Some(NatInf::fin(3)));
        adj.set(1, 0, Some(NatInf::fin(1)));
        adj.set(1, 2, Some(NatInf::fin(2)));
        assert_eq!(
            adj.row(1),
            &[
                (0, NatInf::fin(1)),
                (2, NatInf::fin(2)),
                (3, NatInf::fin(3))
            ]
        );
        adj.set(1, 2, Some(NatInf::fin(9))); // overwrite in place
        assert_eq!(adj.get(1, 2), Some(&NatInf::fin(9)));
        adj.set(1, 2, None); // clear
        assert_eq!(adj.get(1, 2), None);
        assert_eq!(
            adj.row(1),
            &[(0, NatInf::fin(1)), (3, NatInf::fin(3))],
            "the cleared entry is gone, its neighbours keep their order"
        );
        adj.set(1, 2, None); // clearing a missing entry is a no-op
        assert_eq!(adj.link_count(), 2);
        assert!(adj.row(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "diagonal")]
    fn diagonal_entries_are_rejected() {
        let mut adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(2);
        adj.set(1, 1, Some(NatInf::fin(1)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_get_is_rejected() {
        let adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(2);
        let _ = adj.get(0, 5);
    }

    #[test]
    fn from_fn_skips_the_diagonal() {
        let adj: AdjacencyMatrix<ShortestPaths> =
            AdjacencyMatrix::from_fn(3, |_, _| Some(NatInf::fin(1)));
        assert_eq!(adj.link_count(), 6);
        for i in 0..3 {
            assert_eq!(adj.get(i, i), None);
        }
    }

    #[test]
    fn lifting_a_topology_annotates_endpoints() {
        let pv = dbf_paths::PathVector::new(ShortestPaths::new(), 4);
        let topo = generators::ring(4).with_weights(|_, _| NatInf::fin(2));
        let adj = lift_topology(&pv, &topo);
        let e = adj.get(0, 1).expect("ring edge 0→1 exists");
        assert_eq!((e.src, e.dst), (0, 1));
        assert_eq!(e.inner, NatInf::fin(2));
        assert_eq!(adj.link_count(), topo.edge_count());
    }

    #[test]
    fn debug_output_lists_links() {
        let topo = generators::line(2).with_weights(|_, _| NatInf::fin(7));
        let adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::from_topology(&topo);
        let s = format!("{adj:?}");
        assert!(s.contains("A[0,1] = 7"));
    }
}
