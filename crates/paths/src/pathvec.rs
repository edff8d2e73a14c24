//! The path-vector lifting: turn any routing algebra into a path algebra by
//! recording, in every route, the path along which it was generated.
//!
//! This is the algebraic model of what path-vector protocols (BGP-like
//! protocols) do operationally: routes carry the path they traversed, and a
//! node discards any route whose path already contains it.  Section 5 of the
//! paper shows that for *increasing* algebras this loop filtering is enough
//! to recover absolute convergence even though the underlying carrier may be
//! infinite (Theorem 11) — the set of *consistent* routes is finite because
//! simple paths are.
//!
//! Route preference in the lifting is decided by the base algebra first,
//! then by path length, then by a lexicographic comparison of the paths
//! (mirroring steps (2)–(4) of the Section 7 decision procedure).  The
//! length tie-break is what makes the lifting of an increasing algebra
//! *strictly* increasing: an extension either strictly worsens the base
//! value or lengthens the path.

use crate::path::{NodeId, Path, SimplePath};
use crate::path_algebra::PathAlgebra;
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::{Increasing, RoutingAlgebra, SampleableAlgebra, StrictlyIncreasing};
use std::cmp::Ordering;
use std::fmt;

/// A route of the path-vector lifting: either invalid, or a base-algebra
/// value together with the simple path along which it was generated.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum PvRoute<R> {
    /// The invalid route (path `⊥`).
    Invalid,
    /// A valid route.
    Valid {
        /// The base-algebra value of the route.
        value: R,
        /// The path along which the route was generated.
        path: SimplePath,
    },
}

impl<R> PvRoute<R> {
    /// The base value, if the route is valid.
    pub fn value(&self) -> Option<&R> {
        match self {
            PvRoute::Invalid => None,
            PvRoute::Valid { value, .. } => Some(value),
        }
    }

    /// The path of the route (`⊥` for the invalid route).
    pub fn path(&self) -> Path {
        match self {
            PvRoute::Invalid => Path::Invalid,
            PvRoute::Valid { path, .. } => Path::Simple(path.clone()),
        }
    }

    /// Is this the invalid route?
    pub fn is_invalid(&self) -> bool {
        matches!(self, PvRoute::Invalid)
    }

    /// The number of edges in the route's path, if valid.
    pub fn path_len(&self) -> Option<usize> {
        match self {
            PvRoute::Invalid => None,
            PvRoute::Valid { path, .. } => Some(path.len()),
        }
    }
}

impl<R: fmt::Debug> fmt::Debug for PvRoute<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PvRoute::Invalid => write!(f, "∞⊥"),
            PvRoute::Valid { value, path } => write!(f, "{value:?}@{path:?}"),
        }
    }
}

/// An edge of the path-vector lifting: a base-algebra edge annotated with
/// its endpoints.  The edge carries routes announced by node `src`'s
/// neighbour `dst`... more precisely, following the paper's `A_ij` indexing,
/// `src = i` is the node importing the route and `dst = j` is the neighbour
/// that announced it.
#[derive(Clone, PartialEq, Eq)]
pub struct PvEdge<E> {
    /// The importing node `i`.
    pub src: NodeId,
    /// The announcing neighbour `j`.
    pub dst: NodeId,
    /// The base-algebra policy applied on import.
    pub inner: E,
}

impl<E: fmt::Debug> fmt::Debug for PvEdge<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "A[{},{}]({:?})", self.src, self.dst, self.inner)
    }
}

/// The path-vector lifting of a base routing algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathVector<A> {
    base: A,
    nodes: usize,
}

impl<A: RoutingAlgebra> PathVector<A> {
    /// Lift `base` over a network of `nodes` nodes (the node count is used
    /// only for sampling and for height bounds; the algebra itself works
    /// for any node identifiers).
    pub fn new(base: A, nodes: usize) -> Self {
        Self { base, nodes }
    }

    /// The base algebra.
    pub fn base(&self) -> &A {
        &self.base
    }

    /// The node count this lifting was configured with.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Annotate a base edge with its endpoints `(i, j)` (`i` imports routes
    /// announced by `j`).
    pub fn edge(&self, src: NodeId, dst: NodeId, inner: A::Edge) -> PvEdge<A::Edge> {
        PvEdge { src, dst, inner }
    }

    /// Build a (possibly inconsistent) valid route directly from a value and
    /// a path.  This is how arbitrary/stale starting states are constructed
    /// in the experiments.
    ///
    /// # Panics
    ///
    /// Panics if `value` is the base algebra's invalid route — the invalid
    /// route of the lifting is [`PvRoute::Invalid`].
    pub fn lift_route(&self, value: A::Route, path: SimplePath) -> PvRoute<A::Route> {
        assert!(
            value != self.base.invalid(),
            "use PvRoute::Invalid for the invalid route of the lifting"
        );
        PvRoute::Valid { value, path }
    }

    fn cmp_valid(
        &self,
        av: &A::Route,
        ap: &SimplePath,
        bv: &A::Route,
        bp: &SimplePath,
    ) -> Ordering {
        self.base
            .route_cmp(av, bv)
            .then_with(|| ap.len().cmp(&bp.len()))
            .then_with(|| ap.cmp(bp))
    }
}

impl<A: RoutingAlgebra> RoutingAlgebra for PathVector<A> {
    type Route = PvRoute<A::Route>;
    type Edge = PvEdge<A::Edge>;

    fn choice(&self, a: &Self::Route, b: &Self::Route) -> Self::Route {
        if self.route_cmp(a, b) == Ordering::Greater {
            b.clone()
        } else {
            a.clone()
        }
    }

    fn route_le(&self, a: &Self::Route, b: &Self::Route) -> bool {
        self.route_cmp(a, b) != Ordering::Greater
    }

    /// The preference order by reference: ∞̄ last, then `cmp_valid`.
    /// `Equal` only for equal routes, so this is the order `choice` derives.
    fn route_cmp(&self, a: &Self::Route, b: &Self::Route) -> Ordering {
        match (a, b) {
            (PvRoute::Invalid, PvRoute::Invalid) => Ordering::Equal,
            (PvRoute::Invalid, _) => Ordering::Greater,
            (_, PvRoute::Invalid) => Ordering::Less,
            (
                PvRoute::Valid {
                    value: av,
                    path: ap,
                },
                PvRoute::Valid {
                    value: bv,
                    path: bp,
                },
            ) => self.cmp_valid(av, ap, bv, bp),
        }
    }

    fn extend(&self, f: &Self::Edge, r: &Self::Route) -> Self::Route {
        let (value, path) = match r {
            PvRoute::Invalid => return PvRoute::Invalid,
            PvRoute::Valid { value, path } => (value, path),
        };
        // Loop detection / contiguity: P3.
        let extended_path = match path.try_extend(f.src, f.dst) {
            Ok(p) => p,
            Err(_) => return PvRoute::Invalid,
        };
        // Base policy application; a filtered route is invalid (and its
        // path is ⊥), keeping P1.
        let extended_value = self.base.extend(&f.inner, value);
        if extended_value == self.base.invalid() {
            return PvRoute::Invalid;
        }
        PvRoute::Valid {
            value: extended_value,
            path: extended_path,
        }
    }

    fn trivial(&self) -> Self::Route {
        PvRoute::Valid {
            value: self.base.trivial(),
            path: SimplePath::empty(),
        }
    }

    fn invalid(&self) -> Self::Route {
        PvRoute::Invalid
    }
}

impl<A: RoutingAlgebra> PathAlgebra for PathVector<A> {
    fn path_of(&self, r: &Self::Route) -> Path {
        r.path()
    }

    fn edge_endpoints(&self, f: &Self::Edge) -> (NodeId, NodeId) {
        (f.src, f.dst)
    }
}

// The lifting of an increasing algebra is increasing, and — because a valid
// extension always lengthens the path — strictly increasing (the paper's
// observation after Definition 14 that "any increasing algebra with a path
// function is automatically strictly increasing").
impl<A: Increasing> Increasing for PathVector<A> {}
impl<A: Increasing> StrictlyIncreasing for PathVector<A> {}

impl<A> SampleableAlgebra for PathVector<A>
where
    A: SampleableAlgebra,
{
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<Self::Route> {
        let mut rng = SplitMix64::new(seed);
        let n = self.nodes.max(2);
        let base_routes = self.base.sample_routes(seed ^ 0x9A7B, count.max(4));
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            // Random simple path over the configured node set.
            let mut available: Vec<NodeId> = (0..n).collect();
            let path_len = (rng.next_below(n as u64) as usize).min(n - 1);
            let mut nodes = Vec::with_capacity(path_len + 1);
            if path_len > 0 {
                for _ in 0..=path_len {
                    let idx = rng.next_below(available.len() as u64) as usize;
                    nodes.push(available.swap_remove(idx));
                }
            }
            let path = SimplePath::from_nodes(nodes).expect("sampled nodes are distinct");
            // Random base value that is not the base invalid (the lifting
            // represents invalidity as PvRoute::Invalid).
            let mut value = base_routes[rng.next_below(base_routes.len() as u64) as usize].clone();
            if value == self.base.invalid() {
                value = self.base.trivial();
            }
            out.push(PvRoute::Valid { value, path });
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<Self::Edge> {
        let mut rng = SplitMix64::new(seed ^ 0xE46E);
        let n = self.nodes.max(2) as u64;
        let base_edges = self.base.sample_edges(seed ^ 0x177E, count.max(2));
        (0..count.max(1))
            .map(|k| {
                let src = rng.next_below(n) as NodeId;
                let mut dst = rng.next_below(n) as NodeId;
                if dst == src {
                    dst = (dst + 1) % n as NodeId;
                }
                PvEdge {
                    src,
                    dst,
                    inner: base_edges[k % base_edges.len()].clone(),
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::prelude::*;
    use dbf_algebra::properties;

    fn pv() -> PathVector<ShortestPaths> {
        PathVector::new(ShortestPaths::new(), 6)
    }

    #[test]
    fn trivial_and_invalid_are_distinguished() {
        let alg = pv();
        assert!(alg.invalid().is_invalid());
        assert!(!alg.trivial().is_invalid());
        assert_eq!(alg.trivial().path_len(), Some(0));
        assert_eq!(alg.invalid().path_len(), None);
        assert_eq!(alg.trivial().value(), Some(&NatInf::fin(0)));
        assert_eq!(alg.invalid().value(), None);
    }

    #[test]
    fn choice_prefers_better_base_value() {
        let alg = pv();
        let a = alg.lift_route(NatInf::fin(2), SimplePath::from_nodes(vec![0, 1]).unwrap());
        let b = alg.lift_route(NatInf::fin(5), SimplePath::from_nodes(vec![0, 2]).unwrap());
        assert_eq!(alg.choice(&a, &b), a);
        assert_eq!(alg.choice(&b, &a), a);
        assert_eq!(alg.choice(&a, &alg.invalid()), a);
        assert_eq!(alg.choice(&alg.invalid(), &b), b);
    }

    #[test]
    fn choice_breaks_value_ties_by_path_length_then_lexicographically() {
        let alg = pv();
        let short = alg.lift_route(NatInf::fin(4), SimplePath::from_nodes(vec![0, 3]).unwrap());
        let long = alg.lift_route(
            NatInf::fin(4),
            SimplePath::from_nodes(vec![0, 1, 3]).unwrap(),
        );
        assert_eq!(alg.choice(&short, &long), short);
        let lex_a = alg.lift_route(NatInf::fin(4), SimplePath::from_nodes(vec![0, 2]).unwrap());
        let lex_b = alg.lift_route(NatInf::fin(4), SimplePath::from_nodes(vec![1, 2]).unwrap());
        assert_eq!(alg.choice(&lex_a, &lex_b), lex_a);
        assert_eq!(alg.choice(&lex_b, &lex_a), lex_a);
    }

    #[test]
    fn extension_applies_policy_and_extends_path() {
        let alg = pv();
        let r1 = alg.extend(&alg.edge(1, 2, NatInf::fin(3)), &alg.trivial());
        match &r1 {
            PvRoute::Valid { value, path } => {
                assert_eq!(*value, NatInf::fin(3));
                assert_eq!(path.nodes(), &[1, 2]);
            }
            PvRoute::Invalid => panic!("extension of the trivial route must be valid"),
        }
        let r0 = alg.extend(&alg.edge(0, 1, NatInf::fin(2)), &r1);
        assert_eq!(r0.value(), Some(&NatInf::fin(5)));
        assert_eq!(r0.path_len(), Some(2));
    }

    #[test]
    fn looping_extensions_are_filtered() {
        let alg = pv();
        let r = alg.lift_route(
            NatInf::fin(4),
            SimplePath::from_nodes(vec![1, 2, 3]).unwrap(),
        );
        // 2 is already on the path.
        assert!(alg.extend(&alg.edge(2, 1, NatInf::fin(1)), &r).is_invalid());
        // Discontiguous: the path starts at 1, not 3.
        assert!(alg.extend(&alg.edge(0, 3, NatInf::fin(1)), &r).is_invalid());
        // Contiguous, loop-free extension is fine.
        assert!(!alg.extend(&alg.edge(0, 1, NatInf::fin(1)), &r).is_invalid());
    }

    #[test]
    fn base_filtering_produces_the_invalid_route() {
        let alg = pv();
        let r = alg.lift_route(NatInf::fin(4), SimplePath::from_nodes(vec![1, 2]).unwrap());
        let filtered = alg.extend(&alg.edge(0, 1, alg.base().unreachable_edge()), &r);
        assert!(filtered.is_invalid());
        assert!(alg.path_of(&filtered).is_invalid());
    }

    #[test]
    #[should_panic(expected = "invalid route of the lifting")]
    fn lift_route_rejects_the_base_invalid_value() {
        let alg = pv();
        let _ = alg.lift_route(NatInf::INF, SimplePath::empty());
    }

    #[test]
    fn required_laws_hold_on_samples() {
        let alg = pv();
        let routes = alg.sample_routes(111, 48);
        let edges = alg.sample_edges(111, 16);
        properties::check_required_laws(&alg, &routes, &edges).unwrap();
    }

    #[test]
    fn lifting_of_an_increasing_algebra_is_strictly_increasing() {
        // Widest paths is increasing but not strictly; its lifting is
        // strictly increasing.
        let alg = PathVector::new(WidestPaths::new(), 5);
        let routes = alg.sample_routes(131, 48);
        let edges = alg.sample_edges(131, 16);
        properties::check_required_laws(&alg, &routes, &edges).unwrap();
        properties::check_strictly_increasing(&alg, &edges, &routes).unwrap();
    }

    #[test]
    fn lifting_of_shortest_paths_is_strictly_increasing() {
        let alg = pv();
        let routes = alg.sample_routes(137, 48);
        let edges = alg.sample_edges(137, 16);
        properties::check_strictly_increasing(&alg, &edges, &routes).unwrap();
    }

    #[test]
    fn sampling_is_deterministic_and_contains_distinguished_routes() {
        let alg = pv();
        let a = alg.sample_routes(7, 20);
        let b = alg.sample_routes(7, 20);
        assert_eq!(a, b);
        assert!(a.contains(&alg.trivial()));
        assert!(a.contains(&alg.invalid()));
        assert_eq!(alg.sample_edges(7, 12), alg.sample_edges(7, 12));
    }

    #[test]
    fn debug_formats() {
        let alg = pv();
        let r = alg.lift_route(NatInf::fin(4), SimplePath::from_nodes(vec![1, 2]).unwrap());
        assert_eq!(format!("{r:?}"), "4@[1→2]");
        assert_eq!(format!("{:?}", alg.invalid()), "∞⊥");
        let e = alg.edge(0, 1, NatInf::fin(9));
        assert_eq!(format!("{e:?}"), "A[0,1](9)");
    }

    #[test]
    fn node_count_and_base_accessors() {
        let alg = pv();
        assert_eq!(alg.node_count(), 6);
        assert_eq!(alg.base(), &ShortestPaths::new());
    }
}
