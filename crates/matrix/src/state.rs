//! The global routing state `X ∈ 𝕄ₙ(S)` and the identity matrix `I`.
//!
//! A state's rows are copy-on-write (`table.rs`): a clone shares every row
//! with its original until one of the two writes a row, and then holds a
//! copy of that row alone.  A reconvergence from a borrowed fixed point
//! therefore copies the rows it changes, not the `n²` table.

use crate::lines::Lines;
use crate::table::Table;
use dbf_algebra::RoutingAlgebra;
use dbf_paths::NodeId;
use std::fmt;

/// The global routing state: an `n × n` matrix of routes where `X[i][j]` is
/// node `i`'s current best route to destination `j` (row `i` is node `i`'s
/// routing table).  Cloning it is cheap: the clone shares the rows.
pub struct RoutingState<A: RoutingAlgebra> {
    n: usize,
    table: Table<A::Route>,
}

// Manual impls: deriving would add unnecessary `A: Clone / PartialEq` bounds
// on the *algebra* itself, whereas only the routes need them (and the
// `RoutingAlgebra` trait already requires `Route: Clone + Eq`).
impl<A: RoutingAlgebra> Clone for RoutingState<A> {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            table: self.table.clone(),
        }
    }
}

impl<A: RoutingAlgebra> PartialEq for RoutingState<A> {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.table == other.table
    }
}

impl<A: RoutingAlgebra> Eq for RoutingState<A> {}

impl<A: RoutingAlgebra> RoutingState<A> {
    /// The identity matrix `I`: the trivial route on the diagonal and the
    /// invalid route everywhere else.  This is the canonical "clean" start
    /// state of a routing protocol (no node knows anything except how to
    /// reach itself).
    ///
    /// It is stored in `O(n)` entries (`table.rs`): a cold start from it
    /// costs no `n²` table.  Rows written to it are copied out first, as
    /// for a shared state.
    pub fn identity(alg: &A, n: usize) -> Self {
        Self::from_table(n, Table::identity(n, alg.invalid(), alg.trivial()))
    }

    /// A state with every entry equal to `r`.
    pub fn uniform(n: usize, r: A::Route) -> Self {
        Self::from_table(n, Table::new(n, n, Lines::filled(n * n, r)))
    }

    /// Build a state from an explicit entry function.
    pub fn from_fn(n: usize, mut f: impl FnMut(NodeId, NodeId) -> A::Route) -> Self {
        let (mut i, mut j) = (0, 0);
        let entries = Lines::from_fn(n * n, |_| {
            let r = f(i, j);
            j += 1;
            if j == n {
                (i, j) = (i + 1, 0);
            }
            r
        });
        Self::from_table(n, Table::new(n, n, entries))
    }

    /// The number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The route `X[i][j]`.
    pub fn get(&self, i: NodeId, j: NodeId) -> &A::Route {
        assert!(i < self.n && j < self.n, "state index out of range");
        &self.table.row(i)[j]
    }

    /// Overwrite the route `X[i][j]`.
    pub fn set(&mut self, i: NodeId, j: NodeId, r: A::Route) {
        assert!(i < self.n && j < self.n, "state index out of range");
        self.table.row_mut(i)[j] = r;
    }

    /// Node `i`'s routing table (row `i`).
    pub fn row(&self, i: NodeId) -> &[A::Route] {
        assert!(i < self.n, "state index out of range");
        self.table.row(i)
    }

    /// Mutable access to node `i`'s routing table (row `i`).  A row shared
    /// with another state is copied first, so the write is this state's
    /// alone.
    pub fn row_mut(&mut self, i: NodeId) -> &mut [A::Route] {
        assert!(i < self.n, "state index out of range");
        self.table.row_mut(i)
    }

    /// The rows, as the row kernel reads them.
    pub(crate) fn table(&self) -> &Table<A::Route> {
        &self.table
    }

    /// Give up the rows: the fixed-point kernel takes a state over as its
    /// row store, sharing what the state shared.
    pub(crate) fn into_table(self) -> Table<A::Route> {
        self.table
    }

    /// Wrap `n` rows of `n` routes back into a state (the inverse of
    /// [`RoutingState::into_table`]).
    pub(crate) fn from_table(n: usize, table: Table<A::Route>) -> Self {
        assert_eq!(table.row_count(), n, "a state holds n rows");
        Self { n, table }
    }

    /// Iterate over all entries as `(i, j, &route)`, in row-major order.
    /// Walks the rows — no per-entry division — so digesting a 10⁵-row
    /// block costs a pair of counters, not a `div`+`mod` per route.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, NodeId, &A::Route)> {
        (0..self.n).flat_map(move |i| self.row(i).iter().enumerate().map(move |(j, r)| (i, j, r)))
    }

    /// Grow the state to `new_n ≥ n` nodes, filling fresh entries with the
    /// identity pattern (trivial on the diagonal, invalid elsewhere).  Used
    /// when a node joins the network (Section 3.2).
    pub fn grown(&self, alg: &A, new_n: usize) -> Self {
        assert!(new_n >= self.n, "grown() cannot shrink a state");
        Self::from_fn(new_n, |i, j| {
            if i < self.n && j < self.n {
                self.get(i, j).clone()
            } else if i == j {
                alg.trivial()
            } else {
                alg.invalid()
            }
        })
    }
}

impl<A: RoutingAlgebra> fmt::Debug for RoutingState<A>
where
    A::Route: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "RoutingState(n={})", self.n)?;
        for i in 0..self.n {
            write!(f, "  node {i}: ")?;
            for j in 0..self.n {
                write!(f, "{:?} ", self.get(i, j))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::*;

    #[test]
    fn identity_matrix_shape() {
        let alg = ShortestPaths::new();
        let i3 = RoutingState::identity(&alg, 3);
        assert_eq!(i3.node_count(), 3);
        for a in 0..3 {
            for b in 0..3 {
                if a == b {
                    assert_eq!(i3.get(a, b), &NatInf::fin(0));
                } else {
                    assert_eq!(i3.get(a, b), &NatInf::INF);
                }
            }
        }
    }

    #[test]
    fn rows_and_entries() {
        let x = RoutingState::<ShortestPaths>::from_fn(2, |i, j| NatInf::fin((i * 10 + j) as u64));
        assert_eq!(x.row(1), &[NatInf::fin(10), NatInf::fin(11)]);
        assert_eq!(x.entries().count(), 4);
        let mut y = x.clone();
        y.set(0, 1, NatInf::INF);
        assert_eq!(y.get(0, 1), &NatInf::INF);
        assert_ne!(x, y);
    }

    #[test]
    fn entries_iterate_in_row_major_index_order() {
        let x = RoutingState::<ShortestPaths>::from_fn(3, |i, j| NatInf::fin((i * 3 + j) as u64));
        let seen: Vec<(usize, usize)> = x.entries().map(|(i, j, _)| (i, j)).collect();
        let expected: Vec<(usize, usize)> =
            (0..3).flat_map(|i| (0..3).map(move |j| (i, j))).collect();
        assert_eq!(seen, expected);
        for (i, j, r) in x.entries() {
            assert_eq!(r, x.get(i, j));
        }
    }

    #[test]
    fn growing_and_shrinking() {
        let alg = ShortestPaths::new();
        let x = RoutingState::<ShortestPaths>::from_fn(2, |i, j| NatInf::fin((i + j) as u64));
        let g = x.grown(&alg, 4);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.get(1, 1), x.get(1, 1));
        assert_eq!(g.get(3, 3), &NatInf::fin(0));
        assert_eq!(g.get(2, 3), &NatInf::INF);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_access_panics() {
        let alg = ShortestPaths::new();
        let x = RoutingState::identity(&alg, 2);
        let _ = x.get(2, 0);
    }

    #[test]
    fn debug_output_mentions_rows() {
        let alg = ShortestPaths::new();
        let x = RoutingState::identity(&alg, 2);
        let s = format!("{x:?}");
        assert!(s.contains("node 0"));
        assert!(s.contains("node 1"));
    }
}
