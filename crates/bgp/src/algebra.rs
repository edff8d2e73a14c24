//! The Section 7 routing algebra: BGP-like routes, the decision procedure
//! and the edge functions `f_{i,j,pol}`.
//!
//! The decision procedure for `x ⊕ y` is the one given in the paper:
//!
//! 1. if either route is invalid, return the other;
//! 2. else if one level is strictly smaller, return that route;
//! 3. else if one path is strictly shorter, return that route;
//! 4. else break ties by a lexicographic comparison of paths.
//!
//! (We add a final tie-break on the community sets so that `⊕` is a total
//! selective operator even on routes that differ *only* in their communities
//! — communities never make one route preferable to another, but the
//! algebraic laws need a deterministic winner.)
//!
//! The edge function `f_{i,j,pol}` first checks that the announced route's
//! path can be extended by the edge `(i, j)` without looping, then applies
//! the configured [`Policy`].  Because the path always grows and no policy
//! can lower the level, the algebra is increasing — and therefore, by
//! Theorem 11, every configuration expressible in it converges absolutely:
//! it is impossible to write a policy that interferes with convergence.

use crate::policy::Policy;
use crate::route::{BgpRoute, CommunitySet};
use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::{Increasing, RoutingAlgebra, SampleableAlgebra, StrictlyIncreasing};
use dbf_matrix::AdjacencyMatrix;
use dbf_paths::path_algebra::PathAlgebra;
use dbf_paths::{NodeId, Path, SimplePath};
use dbf_topology::Topology;
use std::cmp::Ordering;
use std::fmt;

/// An edge of the BGP-like algebra: the paper's `f_{i,j,pol}`.
#[derive(Clone, PartialEq, Eq)]
pub struct BgpEdge {
    /// The importing node `i`.
    pub importer: NodeId,
    /// The announcing neighbour `j`.
    pub announcer: NodeId,
    /// The import policy applied after the path extension.
    pub policy: Policy,
}

impl fmt::Debug for BgpEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f[{},{}]({:?})",
            self.importer, self.announcer, self.policy
        )
    }
}

/// The Section 7 safe-by-design routing algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BgpAlgebra {
    nodes: usize,
}

impl BgpAlgebra {
    /// Create the algebra for a network of `nodes` nodes (the count is used
    /// only for sampling).
    pub fn new(nodes: usize) -> Self {
        Self { nodes }
    }

    /// The configured node count.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Build an edge `f_{i,j,pol}`.
    pub fn edge(&self, importer: NodeId, announcer: NodeId, policy: Policy) -> BgpEdge {
        BgpEdge {
            importer,
            announcer,
            policy,
        }
    }

    /// Build the adjacency matrix of a network whose topology edges carry
    /// import policies: the topology edge `i → j` with policy `pol` becomes
    /// `A_ij = f_{i,j,pol}`.
    pub fn adjacency_from_topology(&self, topo: &Topology<Policy>) -> AdjacencyMatrix<BgpAlgebra> {
        AdjacencyMatrix::from_fn(topo.node_count(), |i, j| {
            topo.edge(i, j).map(|pol| self.edge(i, j, pol.clone()))
        })
    }

    fn cmp_valid(
        &self,
        al: u32,
        ap: &SimplePath,
        ac: &CommunitySet,
        bl: u32,
        bp: &SimplePath,
        bc: &CommunitySet,
    ) -> Ordering {
        al.cmp(&bl)
            .then_with(|| ap.len().cmp(&bp.len()))
            .then_with(|| ap.cmp(bp))
            .then_with(|| ac.cmp(bc))
    }
}

impl RoutingAlgebra for BgpAlgebra {
    type Route = BgpRoute;
    type Edge = BgpEdge;

    fn choice(&self, a: &BgpRoute, b: &BgpRoute) -> BgpRoute {
        if self.route_cmp(a, b) == Ordering::Greater {
            b.clone()
        } else {
            a.clone()
        }
    }

    fn extend(&self, f: &BgpEdge, r: &BgpRoute) -> BgpRoute {
        let BgpRoute::Valid {
            level,
            communities,
            path,
        } = r
        else {
            return BgpRoute::Invalid;
        };
        // Adjacency and loop filtering: (i, j) must be a valid extension of
        // the announced path.
        let Ok(extended) = path.try_extend(f.importer, f.announcer) else {
            return BgpRoute::Invalid;
        };
        // Policy application on the extended route (so conditions can see
        // the new path): the one path allocation of an extension.
        f.policy.apply_owned(BgpRoute::Valid {
            level: *level,
            communities: communities.clone(),
            path: extended,
        })
    }

    fn route_le(&self, a: &BgpRoute, b: &BgpRoute) -> bool {
        self.route_cmp(a, b) != Ordering::Greater
    }

    /// The decision procedure itself, by reference: ∞̄ last, then
    /// `cmp_valid`.  `Equal` only for equal routes, so this is the order
    /// `choice` derives.
    fn route_cmp(&self, a: &BgpRoute, b: &BgpRoute) -> Ordering {
        match (a, b) {
            (BgpRoute::Invalid, BgpRoute::Invalid) => Ordering::Equal,
            (BgpRoute::Invalid, _) => Ordering::Greater,
            (_, BgpRoute::Invalid) => Ordering::Less,
            (
                BgpRoute::Valid {
                    level: al,
                    communities: ac,
                    path: ap,
                },
                BgpRoute::Valid {
                    level: bl,
                    communities: bc,
                    path: bp,
                },
            ) => self.cmp_valid(*al, ap, ac, *bl, bp, bc),
        }
    }

    fn trivial(&self) -> BgpRoute {
        BgpRoute::trivial()
    }

    fn invalid(&self) -> BgpRoute {
        BgpRoute::Invalid
    }
}

impl PathAlgebra for BgpAlgebra {
    fn path_of(&self, r: &BgpRoute) -> Path {
        match r {
            BgpRoute::Invalid => Path::Invalid,
            BgpRoute::Valid { path, .. } => Path::Simple(path.clone()),
        }
    }

    fn edge_endpoints(&self, f: &BgpEdge) -> (NodeId, NodeId) {
        (f.importer, f.announcer)
    }
}

// Paths always grow and levels never decrease, so the algebra is increasing;
// with the path-length tie-break the extension is in fact strictly worse,
// so it is strictly increasing too.
impl Increasing for BgpAlgebra {}
impl StrictlyIncreasing for BgpAlgebra {}

impl SampleableAlgebra for BgpAlgebra {
    fn sample_routes(&self, seed: u64, count: usize) -> Vec<BgpRoute> {
        let mut rng = SplitMix64::new(seed);
        let n = self.nodes.max(2);
        let mut out = vec![self.trivial(), self.invalid()];
        while out.len() < count.max(2) {
            // random simple path
            let mut available: Vec<NodeId> = (0..n).collect();
            let len = (rng.next_below(n as u64) as usize).min(n - 1);
            let mut nodes = Vec::new();
            if len > 0 {
                for _ in 0..=len {
                    let idx = rng.next_below(available.len() as u64) as usize;
                    nodes.push(available.swap_remove(idx));
                }
            }
            let path = SimplePath::from_nodes(nodes).expect("distinct nodes");
            let mut communities = CommunitySet::empty();
            for c in 0..4u32 {
                if rng.next_bool(0.3) {
                    communities.insert(c);
                }
            }
            out.push(BgpRoute::Valid {
                level: rng.next_below(50) as u32,
                communities,
                path,
            });
        }
        out
    }

    fn sample_edges(&self, seed: u64, count: usize) -> Vec<BgpEdge> {
        let mut rng = SplitMix64::new(seed ^ 0xB69);
        let n = self.nodes.max(2) as u64;
        (0..count.max(1))
            .map(|_| {
                let importer = rng.next_below(n) as NodeId;
                let mut announcer = rng.next_below(n) as NodeId;
                if announcer == importer {
                    announcer = (announcer + 1) % n as NodeId;
                }
                self.edge(importer, announcer, random_policy(&mut rng, 2))
            })
            .collect()
    }
}

/// A random policy of bounded depth (used for sampling and for the
/// experiments' randomly configured networks).
pub fn random_policy(rng: &mut SplitMix64, depth: usize) -> Policy {
    use crate::policy::Condition;
    if depth == 0 {
        return match rng.next_below(4) {
            0 => Policy::IncrPrefBy(rng.next_below(10) as u32),
            1 => Policy::AddComm(rng.next_below(4) as u32),
            2 => Policy::DelComm(rng.next_below(4) as u32),
            _ => Policy::Reject,
        };
    }
    match rng.next_below(6) {
        0 => Policy::IncrPrefBy(rng.next_below(10) as u32),
        1 => Policy::AddComm(rng.next_below(4) as u32),
        2 => Policy::DelComm(rng.next_below(4) as u32),
        3 => Policy::Reject,
        4 => random_policy(rng, depth - 1).then(random_policy(rng, depth - 1)),
        _ => {
            let cond = match rng.next_below(3) {
                0 => Condition::InComm(rng.next_below(4) as u32),
                1 => Condition::InPath(rng.next_below(6) as usize),
                _ => Condition::not(Condition::InComm(rng.next_below(4) as u32)),
            };
            Policy::when(cond, random_policy(rng, depth - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Condition;
    use dbf_algebra::properties;
    use dbf_paths::path_algebra::{check_p1, check_p2, check_p3};

    fn alg() -> BgpAlgebra {
        BgpAlgebra::new(5)
    }

    #[test]
    fn decision_procedure_prefers_lower_level_then_shorter_path() {
        let a = alg();
        let low_level = BgpRoute::valid(
            1,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 2, 3, 4]).unwrap(),
        );
        let high_level = BgpRoute::valid(
            5,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 2]).unwrap(),
        );
        assert_eq!(a.choice(&low_level, &high_level), low_level);

        let short = BgpRoute::valid(
            3,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 4]).unwrap(),
        );
        let long = BgpRoute::valid(
            3,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 2, 4]).unwrap(),
        );
        assert_eq!(a.choice(&short, &long), short);

        let lex_a = BgpRoute::valid(
            3,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 2]).unwrap(),
        );
        let lex_b = BgpRoute::valid(
            3,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 4]).unwrap(),
        );
        assert_eq!(a.choice(&lex_a, &lex_b), lex_a);
        assert_eq!(a.choice(&lex_b, &lex_a), lex_a);

        assert_eq!(a.choice(&BgpRoute::Invalid, &short), short);
        assert_eq!(a.choice(&short, &BgpRoute::Invalid), short);
    }

    #[test]
    fn extension_extends_the_path_then_applies_policy() {
        let a = alg();
        let r1 = a.extend(&a.edge(1, 2, Policy::IncrPrefBy(7)), &a.trivial());
        match &r1 {
            BgpRoute::Valid { level, path, .. } => {
                assert_eq!(*level, 7);
                assert_eq!(path.nodes(), &[1, 2]);
            }
            BgpRoute::Invalid => panic!("extension of the trivial route must be valid"),
        }
        // conditions see the extended path
        let tag_if_via_2 = Policy::when(Condition::InPath(2), Policy::AddComm(99));
        let r0 = a.extend(&a.edge(0, 1, tag_if_via_2), &r1);
        assert!(r0.communities().unwrap().contains(99));
    }

    #[test]
    fn looping_and_discontiguous_extensions_are_filtered() {
        let a = alg();
        let r = BgpRoute::valid(
            0,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 2, 3]).unwrap(),
        );
        assert!(a.extend(&a.edge(2, 1, Policy::identity()), &r).is_invalid());
        assert!(a.extend(&a.edge(0, 3, Policy::identity()), &r).is_invalid());
        assert!(!a.extend(&a.edge(0, 1, Policy::identity()), &r).is_invalid());
        assert!(a.extend(&a.edge(0, 1, Policy::Reject), &r).is_invalid());
        assert!(a
            .extend(&a.edge(0, 1, Policy::identity()), &BgpRoute::Invalid)
            .is_invalid());
    }

    #[test]
    fn required_laws_hold_on_samples() {
        let a = alg();
        let mut routes = a.sample_routes(3, 48);
        // Routes that differ only in their communities: the last tie-break
        // of the order, which `route_le`/`route_cmp` must reproduce.
        let path = SimplePath::from_nodes(vec![1, 2, 3]).unwrap();
        for tags in [vec![], vec![2], vec![2, 9], vec![3]] {
            routes.push(BgpRoute::valid(
                4,
                CommunitySet::from_iter(tags),
                path.clone(),
            ));
        }
        let edges = a.sample_edges(3, 16);
        properties::check_required_laws(&a, &routes, &edges).unwrap();
    }

    #[test]
    fn the_order_is_the_decision_procedure_by_reference() {
        let a = alg();
        let route = |level, tags: &[u32], nodes: &[NodeId]| {
            BgpRoute::valid(
                level,
                CommunitySet::from_iter(tags.iter().copied()),
                SimplePath::from_nodes(nodes.to_vec()).unwrap(),
            )
        };
        // Ascending: level, then path length, then path, then communities,
        // then ∞̄.
        let ascending = [
            a.trivial(),
            route(1, &[], &[1, 2, 3, 4]),
            route(5, &[7], &[1, 2]),
            route(5, &[], &[1, 4]),
            route(5, &[3], &[1, 4]),
            route(5, &[], &[1, 2, 4]),
            BgpRoute::Invalid,
        ];
        for (x, better) in ascending.iter().enumerate() {
            for (y, worse) in ascending.iter().enumerate() {
                assert_eq!(
                    a.route_cmp(better, worse),
                    x.cmp(&y),
                    "{better:?} {worse:?}"
                );
                assert_eq!(a.route_le(better, worse), x <= y, "{better:?} {worse:?}");
            }
        }
    }

    #[test]
    fn the_algebra_is_strictly_increasing_and_not_distributive() {
        let a = alg();
        let routes = a.sample_routes(7, 48);
        let edges = a.sample_edges(7, 16);
        properties::check_increasing(&a, &edges, &routes).unwrap();
        properties::check_strictly_increasing(&a, &edges, &routes).unwrap();

        // A conditional community-based policy violates distributivity
        // (the Section 1 example expressed in this algebra).
        let f = a.edge(
            0,
            1,
            Policy::when(Condition::InComm(17), Policy::IncrPrefBy(100)),
        );
        let tagged = BgpRoute::valid(
            0,
            CommunitySet::from_iter([17]),
            SimplePath::from_nodes(vec![1, 2]).unwrap(),
        );
        let untagged = BgpRoute::valid(
            1,
            CommunitySet::empty(),
            SimplePath::from_nodes(vec![1, 3]).unwrap(),
        );
        let lhs = a.extend(&f, &a.choice(&tagged, &untagged));
        let rhs = a.choice(&a.extend(&f, &tagged), &a.extend(&f, &untagged));
        assert_ne!(lhs, rhs, "conditional policies are not distributive");
    }

    #[test]
    fn path_algebra_laws_hold() {
        let a = alg();
        let routes = a.sample_routes(11, 48);
        let edges = a.sample_edges(11, 16);
        check_p1(&a, &routes).unwrap();
        check_p2(&a, &routes).unwrap();
        check_p3(&a, &edges, &routes).unwrap();
    }

    #[test]
    fn adjacency_construction_from_a_policy_topology() {
        let a = BgpAlgebra::new(3);
        let mut topo: Topology<Policy> = Topology::new(3);
        topo.set_edge(0, 1, Policy::IncrPrefBy(1));
        topo.set_edge(1, 0, Policy::Reject);
        let adj = a.adjacency_from_topology(&topo);
        assert_eq!(adj.link_count(), 2);
        let e = adj.get(0, 1).unwrap();
        assert_eq!((e.importer, e.announcer), (0, 1));
        assert_eq!(e.policy, Policy::IncrPrefBy(1));
        assert!(adj.get(2, 0).is_none());
    }

    #[test]
    fn sampling_is_deterministic() {
        let a = alg();
        assert_eq!(a.sample_routes(5, 20), a.sample_routes(5, 20));
        assert_eq!(a.sample_edges(5, 10), a.sample_edges(5, 10));
        assert_eq!(a.node_count(), 5);
    }
}
