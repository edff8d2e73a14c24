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
/// `n`), so the matrix is stored row-compressed: row `i` is the sorted list
/// of `(j, A_ij)` pairs for the links that exist.  This keeps the memory
/// footprint `O(n + |E|)` instead of `O(n²)` and lets `σ`/`δ` iterate over a
/// node's actual neighbours, which is what makes 10⁴-node sweeps feasible.
pub struct AdjacencyMatrix<A: RoutingAlgebra> {
    n: usize,
    /// `rows[i]` is sorted by neighbour index and never contains `i` itself.
    rows: Vec<Vec<(NodeId, A::Edge)>>,
}

// Manual Clone: deriving would add an unnecessary `A: Clone` bound on the
// algebra itself, whereas only the edges need it (and the `RoutingAlgebra`
// trait already requires `Edge: Clone`).
impl<A: RoutingAlgebra> Clone for AdjacencyMatrix<A> {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            rows: self.rows.clone(),
        }
    }
}

impl<A: RoutingAlgebra> AdjacencyMatrix<A> {
    /// An adjacency with no links at all.
    pub fn empty(n: usize) -> Self {
        Self {
            n,
            rows: (0..n).map(|_| Vec::new()).collect(),
        }
    }

    /// Build an adjacency from an explicit entry function.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> Option<A::Edge>) -> Self {
        let mut adj = Self::empty(n);
        for i in 0..n {
            for j in 0..n {
                if i != j {
                    if let Some(e) = f(i, j) {
                        adj.rows[i].push((j, e));
                    }
                }
            }
        }
        adj
    }

    /// Build an adjacency from a topology whose edge weights *are* the
    /// algebra's edge functions: the topology edge `i → j` becomes `A_ij`.
    pub fn from_topology(topo: &Topology<A::Edge>) -> Self {
        let n = topo.node_count();
        // size every row once (degree count), then fill: no row grows
        // through reallocation
        let mut degree = vec![0usize; n];
        for (i, _, _) in topo.edges() {
            degree[i] += 1;
        }
        let mut rows: Vec<Vec<(NodeId, A::Edge)>> =
            degree.into_iter().map(Vec::with_capacity).collect();
        // `Topology::edges` iterates in sorted `(i, j)` order, so each row is
        // built already sorted.
        for (i, j, w) in topo.edges() {
            rows[i].push((j, w.clone()));
        }
        Self { n, rows }
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The number of present (non-∞̄) entries.
    pub fn link_count(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// The entry `A_ij`, if the link exists.
    pub fn get(&self, i: NodeId, j: NodeId) -> Option<&A::Edge> {
        assert!(i < self.n && j < self.n, "adjacency index out of range");
        self.rows[i]
            .binary_search_by_key(&j, |&(k, _)| k)
            .ok()
            .map(|pos| &self.rows[i][pos].1)
    }

    /// Set (or clear) the entry `A_ij`.
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
        let row = &mut self.rows[i];
        match (row.binary_search_by_key(&j, |&(k, _)| k), e) {
            (Ok(pos), Some(e)) => row[pos].1 = e,
            (Ok(pos), None) => {
                row.remove(pos);
            }
            (Err(pos), Some(e)) => row.insert(pos, (j, e)),
            (Err(_), None) => {}
        }
    }

    /// Row `i` as a sorted slice of `(neighbour, A_ij)` pairs — the links
    /// over which node `i` imports routes.  This is the representation `σ`
    /// iterates over, giving per-round cost `O(n · |E|)` instead of `O(n³)`.
    pub fn row(&self, i: NodeId) -> &[(NodeId, A::Edge)] {
        assert!(i < self.n, "adjacency index out of range");
        &self.rows[i]
    }

    /// Apply `A_ij` to a route, treating a missing entry as the constant-∞̄
    /// function.
    pub fn apply(&self, alg: &A, i: NodeId, j: NodeId, r: &A::Route) -> A::Route {
        match self.get(i, j) {
            Some(f) => alg.extend(f, r),
            None => alg.invalid(),
        }
    }

    /// `dependants[k]` = the rows that import from row `k` (the transpose
    /// of the sparsity pattern).  This is the propagation structure both
    /// dirty-row engines and the full-sweep row-skip walk each round: when
    /// row `k` changes, exactly `dependants[k]` can change next round.
    pub fn dependants(&self) -> Vec<Vec<NodeId>> {
        let mut dependants: Vec<Vec<NodeId>> = vec![Vec::new(); self.n];
        for (i, row) in self.rows.iter().enumerate() {
            for (k, _) in row {
                dependants[*k].push(i);
            }
        }
        dependants
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
