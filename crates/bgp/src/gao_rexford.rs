//! The Gao-Rexford conditions expressed inside the increasing framework.
//!
//! Gao & Rexford showed that if every AS follows the commercial rules
//!
//! * **preference** — prefer routes learned from customers over routes
//!   learned from peers over routes learned from providers, and
//! * **export** — routes learned from a peer or a provider are only
//!   exported to customers (equivalently: only customer-learned or own
//!   routes are exported to peers and providers),
//!
//! then BGP converges.  Sobrinho (and the paper, Section 1) observe that
//! these conditions can be *implemented inside* a strictly increasing
//! algebra, which shows the increasing condition is strictly more general:
//! it needs no assumptions about the global customer/provider topology, and
//! it re-verifies nothing when the topology changes.
//!
//! This module is that implementation.  A route records the relationship
//! class through which it was learned (customer ≺ peer ≺ provider, with a
//! node's own routes counting as customer-class so they may be exported
//! anywhere); an edge records the business relationship of the announcing
//! neighbour and performs valley-free export filtering.  The resulting
//! algebra is increasing (verified by the tests), so Theorem 11 applies —
//! and unlike the original Gao-Rexford argument it keeps working even if
//! the provider/customer relation has cycles.

use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::{Increasing, RoutingAlgebra, SampleableAlgebra, StrictlyIncreasing};
use dbf_matrix::AdjacencyMatrix;
use dbf_paths::path_algebra::PathAlgebra;
use dbf_paths::{NodeId, Path, SimplePath};
use dbf_topology::generators::TierRelation;
use dbf_topology::Topology;
use std::cmp::Ordering;
use std::fmt;

/// The business relationship of the announcing neighbour `j` as seen by the
/// importing node `i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relationship {
    /// `j` is `i`'s customer (the route travels "up").
    Customer,
    /// `j` is `i`'s peer.
    Peer,
    /// `j` is `i`'s provider (the route travels "down").
    Provider,
}

/// How the current holder of a route learned it.  The ordering is the
/// Gao-Rexford preference: customer-learned ≺ peer-learned ≺
/// provider-learned (a node's own routes count as customer-class).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RouteClass {
    /// Learned from a customer (or originated locally).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider.
    Provider,
}

/// A route of the Gao-Rexford algebra.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum GrRoute {
    /// The invalid route.
    Invalid,
    /// A valid route.
    Valid {
        /// How the route was learned.
        class: RouteClass,
        /// The AS path.
        path: SimplePath,
    },
}

impl GrRoute {
    /// The class, if valid.
    pub fn class(&self) -> Option<RouteClass> {
        match self {
            GrRoute::Invalid => None,
            GrRoute::Valid { class, .. } => Some(*class),
        }
    }

    /// Is this the invalid route?
    pub fn is_invalid(&self) -> bool {
        matches!(self, GrRoute::Invalid)
    }

    /// The path, if valid.
    pub fn simple_path(&self) -> Option<&SimplePath> {
        match self {
            GrRoute::Invalid => None,
            GrRoute::Valid { path, .. } => Some(path),
        }
    }
}

impl fmt::Debug for GrRoute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrRoute::Invalid => write!(f, "invalid"),
            GrRoute::Valid { class, path } => write!(f, "⟨{class:?} {path:?}⟩"),
        }
    }
}

/// An edge of the Gao-Rexford algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrEdge {
    /// The importing node `i`.
    pub importer: NodeId,
    /// The announcing neighbour `j`.
    pub announcer: NodeId,
    /// What `j` is to `i`.
    pub relationship: Relationship,
}

/// The Gao-Rexford routing algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaoRexford {
    nodes: usize,
}

impl GaoRexford {
    /// Create the algebra for a network of `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        Self { nodes }
    }

    /// Build an edge.
    pub fn edge(&self, importer: NodeId, announcer: NodeId, relationship: Relationship) -> GrEdge {
        GrEdge {
            importer,
            announcer,
            relationship,
        }
    }

    /// Build the adjacency matrix from a tiered-hierarchy topology whose
    /// edge labels say what the *target* of the edge is to the *source*
    /// (the convention of [`dbf_topology::generators::tiered_hierarchy`]).
    pub fn adjacency_from_hierarchy(
        &self,
        topo: &Topology<TierRelation>,
    ) -> AdjacencyMatrix<GaoRexford> {
        AdjacencyMatrix::from_fn(topo.node_count(), |i, j| {
            topo.edge(i, j).map(|rel| {
                let relationship = match rel {
                    TierRelation::CustomerOf => Relationship::Customer,
                    TierRelation::ProviderOf => Relationship::Provider,
                    TierRelation::PeerOf => Relationship::Peer,
                };
                self.edge(i, j, relationship)
            })
        })
    }

    fn cmp_valid(
        &self,
        ac: RouteClass,
        ap: &SimplePath,
        bc: RouteClass,
        bp: &SimplePath,
    ) -> Ordering {
        ac.cmp(&bc)
            .then_with(|| ap.len().cmp(&bp.len()))
            .then_with(|| ap.cmp(bp))
    }
}

impl RoutingAlgebra for GaoRexford {
    type Route = GrRoute;
    type Edge = GrEdge;

    fn choice(&self, a: &GrRoute, b: &GrRoute) -> GrRoute {
        if self.route_cmp(a, b) == Ordering::Greater {
            b.clone()
        } else {
            a.clone()
        }
    }

    fn route_le(&self, a: &GrRoute, b: &GrRoute) -> bool {
        self.route_cmp(a, b) != Ordering::Greater
    }

    /// The preference order by reference: ∞̄ last, then `cmp_valid`.
    /// `Equal` only for equal routes, so this is the order `choice` derives.
    fn route_cmp(&self, a: &GrRoute, b: &GrRoute) -> Ordering {
        match (a, b) {
            (GrRoute::Invalid, GrRoute::Invalid) => Ordering::Equal,
            (GrRoute::Invalid, _) => Ordering::Greater,
            (_, GrRoute::Invalid) => Ordering::Less,
            (
                GrRoute::Valid {
                    class: ac,
                    path: ap,
                },
                GrRoute::Valid {
                    class: bc,
                    path: bp,
                },
            ) => self.cmp_valid(*ac, ap, *bc, bp),
        }
    }

    fn extend(&self, f: &GrEdge, r: &GrRoute) -> GrRoute {
        let (class, path) = match r {
            GrRoute::Invalid => return GrRoute::Invalid,
            GrRoute::Valid { class, path } => (*class, path),
        };
        // Valley-free export filtering: the announcer only exports
        // customer-learned (or own) routes to its providers and peers.
        let exportable = match f.relationship {
            Relationship::Customer | Relationship::Peer => class == RouteClass::Customer,
            Relationship::Provider => true,
        };
        if !exportable {
            return GrRoute::Invalid;
        }
        let extended = match path.try_extend(f.importer, f.announcer) {
            Ok(p) => p,
            Err(_) => return GrRoute::Invalid,
        };
        let new_class = match f.relationship {
            Relationship::Customer => RouteClass::Customer,
            Relationship::Peer => RouteClass::Peer,
            Relationship::Provider => RouteClass::Provider,
        };
        GrRoute::Valid {
            class: new_class,
            path: extended,
        }
    }

    fn trivial(&self) -> GrRoute {
        GrRoute::Valid {
            class: RouteClass::Customer,
            path: SimplePath::empty(),
        }
    }

    fn invalid(&self) -> GrRoute {
        GrRoute::Invalid
    }
}

impl PathAlgebra for GaoRexford {
    fn path_of(&self, r: &GrRoute) -> Path {
        match r {
            GrRoute::Invalid => Path::Invalid,
            GrRoute::Valid { path, .. } => Path::Simple(path.clone()),
        }
    }

    fn edge_endpoints(&self, f: &GrEdge) -> (NodeId, NodeId) {
        (f.importer, f.announcer)
    }
}

// Valley-free filtering guarantees the class never improves across an edge,
// and the path always grows, so the algebra is (strictly) increasing.
impl Increasing for GaoRexford {}
impl StrictlyIncreasing for GaoRexford {}

impl SampleableAlgebra for GaoRexford {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<GrRoute> {
        let mut rng = SplitMix64::new(seed);
        let n = self.nodes.max(2);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            let mut available: Vec<NodeId> = (0..n).collect();
            let len = (rng.next_below(n as u64) as usize).min(n - 1);
            let mut nodes = Vec::new();
            if len > 0 {
                for _ in 0..=len {
                    let idx = rng.next_below(available.len() as u64) as usize;
                    nodes.push(available.swap_remove(idx));
                }
            }
            let class = match rng.next_below(3) {
                0 => RouteClass::Customer,
                1 => RouteClass::Peer,
                _ => RouteClass::Provider,
            };
            out.push(GrRoute::Valid {
                class,
                path: SimplePath::from_nodes(nodes).expect("distinct nodes"),
            });
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<GrEdge> {
        let mut rng = SplitMix64::new(seed ^ 0x6E0);
        let n = self.nodes.max(2) as u64;
        (0..count.max(1))
            .map(|_| {
                let importer = rng.next_below(n) as NodeId;
                let mut announcer = rng.next_below(n) as NodeId;
                if announcer == importer {
                    announcer = (announcer + 1) % n as NodeId;
                }
                let relationship = match rng.next_below(3) {
                    0 => Relationship::Customer,
                    1 => Relationship::Peer,
                    _ => Relationship::Provider,
                };
                self.edge(importer, announcer, relationship)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbf_algebra::properties;
    use dbf_paths::path_algebra::{check_p1, check_p2, check_p3};
    use dbf_topology::generators;

    fn alg() -> GaoRexford {
        GaoRexford::new(6)
    }

    #[test]
    fn preference_is_customer_then_peer_then_provider() {
        let a = alg();
        let customer = GrRoute::Valid {
            class: RouteClass::Customer,
            path: SimplePath::from_nodes(vec![0, 1, 2, 3]).unwrap(),
        };
        let peer = GrRoute::Valid {
            class: RouteClass::Peer,
            path: SimplePath::from_nodes(vec![0, 4]).unwrap(),
        };
        let provider = GrRoute::Valid {
            class: RouteClass::Provider,
            path: SimplePath::from_nodes(vec![0, 5]).unwrap(),
        };
        // a long customer route still beats a short peer or provider route
        assert_eq!(a.choice(&customer, &peer), customer);
        assert_eq!(a.choice(&peer, &provider), peer);
        assert_eq!(a.choice(&customer, &provider), customer);
        // within a class, shorter paths win
        let short_peer = GrRoute::Valid {
            class: RouteClass::Peer,
            path: SimplePath::from_nodes(vec![0, 3]).unwrap(),
        };
        assert_eq!(a.choice(&peer, &short_peer), short_peer);
    }

    #[test]
    fn export_filtering_is_valley_free() {
        let a = alg();
        let via_provider = GrRoute::Valid {
            class: RouteClass::Provider,
            path: SimplePath::from_nodes(vec![1, 2]).unwrap(),
        };
        let via_customer = GrRoute::Valid {
            class: RouteClass::Customer,
            path: SimplePath::from_nodes(vec![1, 3]).unwrap(),
        };
        // A provider-learned route is not exported to a peer or to a
        // provider (i.e. not importable over a customer or peer edge)…
        assert!(a
            .extend(&a.edge(0, 1, Relationship::Customer), &via_provider)
            .is_invalid());
        assert!(a
            .extend(&a.edge(0, 1, Relationship::Peer), &via_provider)
            .is_invalid());
        // …but it is exported to customers (importable over a provider edge).
        assert!(!a
            .extend(&a.edge(0, 1, Relationship::Provider), &via_provider)
            .is_invalid());
        // Customer-learned routes go everywhere.
        for rel in [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ] {
            assert!(!a.extend(&a.edge(0, 1, rel), &via_customer).is_invalid());
        }
        // The imported class records the relationship it arrived over.
        assert_eq!(
            a.extend(&a.edge(0, 1, Relationship::Peer), &via_customer)
                .class(),
            Some(RouteClass::Peer)
        );
    }

    #[test]
    fn required_laws_and_path_laws_hold() {
        let a = alg();
        let routes = a.sample_routes(3, 48);
        let edges = a.sample_edges(3, 16);
        properties::check_required_laws(&a, &routes, &edges).unwrap();
        check_p1(&a, &routes).unwrap();
        check_p2(&a, &routes).unwrap();
        check_p3(&a, &edges, &routes).unwrap();
    }

    #[test]
    fn gao_rexford_policies_are_strictly_increasing() {
        // The paper's point: the Gao-Rexford conditions live strictly inside
        // the increasing framework.
        let a = alg();
        let routes = a.sample_routes(9, 64);
        let edges = a.sample_edges(9, 24);
        properties::check_increasing(&a, &edges, &routes).unwrap();
        properties::check_strictly_increasing(&a, &edges, &routes).unwrap();
    }

    #[test]
    fn adjacency_from_a_tiered_hierarchy() {
        let a = GaoRexford::new(14);
        let (topo, tier_of) = generators::tiered_hierarchy(&[2, 4, 8], 0.4, 0.2, 5);
        let adj = a.adjacency_from_hierarchy(&topo);
        assert_eq!(adj.node_count(), 14);
        assert_eq!(adj.link_count(), topo.edge_count());
        // spot-check a provider/customer pair's labels
        let mut checked = false;
        for (i, j, rel) in topo.edges() {
            if *rel == TierRelation::CustomerOf {
                let e = adj.get(i, j).unwrap();
                assert_eq!(e.relationship, Relationship::Customer);
                assert!(tier_of[j] == tier_of[i] + 1);
                let back = adj.get(j, i).unwrap();
                assert_eq!(back.relationship, Relationship::Provider);
                checked = true;
                break;
            }
        }
        assert!(
            checked,
            "hierarchy should contain at least one customer edge"
        );
    }

    #[test]
    fn trivial_route_is_exportable_everywhere() {
        let a = alg();
        for rel in [
            Relationship::Customer,
            Relationship::Peer,
            Relationship::Provider,
        ] {
            let r = a.extend(&a.edge(2, 3, rel), &a.trivial());
            assert!(
                !r.is_invalid(),
                "own routes must be exportable over {rel:?} edges"
            );
            assert_eq!(r.simple_path().unwrap().nodes(), &[2, 3]);
        }
    }
}
