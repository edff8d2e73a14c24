//! Reference topology generators.
//!
//! Generators build *shapes* — `Topology<()>` — and callers attach
//! algebra-specific edge functions with [`Topology::with_weights`].  All
//! random generators are seeded and deterministic.
//!
//! The shapes cover the topology classes invoked by the paper's narrative:
//! simple reference graphs for unit tests (lines, rings, stars, complete
//! graphs, grids), Gilbert random graphs for convergence sweeps, Clos
//! (leaf–spine) fabrics for the data-center discussion of Section 8.3 and
//! tiered provider/customer hierarchies for the Gao-Rexford experiments.

use crate::graph::{NodeId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A bidirectional line `0 — 1 — … — n-1`.
pub fn line(n: usize) -> Topology<()> {
    let mut t = Topology::new(n);
    for i in 1..n {
        t.set_link(i - 1, i, ());
    }
    t
}

/// A bidirectional ring on `n ≥ 3` nodes.
pub fn ring(n: usize) -> Topology<()> {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut t = line(n);
    t.set_link(n - 1, 0, ());
    t
}

/// A star with node `0` at the centre.
pub fn star(n: usize) -> Topology<()> {
    assert!(n >= 2, "a star needs at least 2 nodes");
    let mut t = Topology::new(n);
    for i in 1..n {
        t.set_link(0, i, ());
    }
    t
}

/// The complete (bidirectional) graph on `n` nodes.
pub fn complete(n: usize) -> Topology<()> {
    let mut t = Topology::new(n);
    for i in 0..n {
        for j in (i + 1)..n {
            t.set_link(i, j, ());
        }
    }
    t
}

/// A `rows × cols` grid with links between horizontal and vertical
/// neighbours.
pub fn grid(rows: usize, cols: usize) -> Topology<()> {
    let mut t = Topology::new(rows * cols);
    let id = |r: usize, c: usize| r * cols + c;
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                t.set_link(id(r, c), id(r, c + 1), ());
            }
            if r + 1 < rows {
                t.set_link(id(r, c), id(r + 1, c), ());
            }
        }
    }
    t
}

/// Visit each unordered pair `{i, j}` (`i < j`) with probability `p`,
/// skipping geometrically between hits so the cost is `O(n + p·n²)` rather
/// than `O(n²)` — at `n = 10⁴` and sweep-typical sparse `p` this is the
/// difference between microseconds and a second of pure RNG draws.
/// Deterministic in the `rng` stream.
fn sample_pairs(n: usize, p: f64, rng: &mut StdRng, mut hit: impl FnMut(NodeId, NodeId)) {
    let p = p.clamp(0.0, 1.0);
    if p <= 0.0 || n < 2 {
        return;
    }
    if p >= 1.0 {
        for i in 0..n {
            for j in (i + 1)..n {
                hit(i, j);
            }
        }
        return;
    }
    let ln_q = (1.0 - p).ln();
    if ln_q >= 0.0 {
        // `1 - p` rounded to 1.0: p is below f64 resolution, so no pair
        // would realistically be sampled.
        return;
    }
    let pairs = n * (n - 1) / 2;
    // Cursor over the linearised pair index `m`: row `i` (with `i < j`)
    // holds the `n - 1 - i` pair indices starting at `row_start`.  `i` only
    // ever advances, so unranking is amortised O(n) across the whole walk.
    let mut m = 0usize;
    let mut i = 0usize;
    let mut row_start = 0usize;
    loop {
        // Geometric skip: the number of misses before the next hit.
        let unit = (rng.gen_range(0.0..1.0f64)).max(f64::MIN_POSITIVE);
        let skip = (unit.ln() / ln_q).floor();
        if skip >= (pairs - m) as f64 {
            return;
        }
        m += skip as usize;
        while m >= row_start + (n - 1 - i) {
            row_start += n - 1 - i;
            i += 1;
        }
        hit(i, i + 1 + (m - row_start));
        m += 1;
        if m >= pairs {
            return;
        }
    }
}

/// A Gilbert random graph `G(n, p)`: every unordered pair is linked
/// (bidirectionally) with probability `p`.  Deterministic in `seed`.
pub fn random_gnp(n: usize, p: f64, seed: u64) -> Topology<()> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new(n);
    sample_pairs(n, p, &mut rng, |i, j| t.set_link(i, j, ()));
    t
}

/// A connected Gilbert random graph: `G(n, p)` with a random spanning ring
/// added first so the result is always connected.  Deterministic in `seed`.
pub fn connected_random(n: usize, p: f64, seed: u64) -> Topology<()> {
    assert!(n >= 3, "connected_random needs at least 3 nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    // Random permutation ring for connectivity.
    let mut perm: Vec<NodeId> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        perm.swap(i, j);
    }
    let mut t = Topology::new(n);
    for k in 0..n {
        t.set_link(perm[k], perm[(k + 1) % n], ());
    }
    sample_pairs(n, p, &mut rng, |i, j| {
        if !t.has_edge(i, j) {
            t.set_link(i, j, ());
        }
    });
    t
}

/// A Barabási–Albert-style preferential-attachment graph with the heavy
/// tailed degree profile of the AS-level Internet: the first `min(n, m+1)`
/// nodes form a clique, and every later node attaches to `m` *distinct*
/// existing nodes sampled proportionally to their current degree (the
/// classic endpoint-list trick: drawing a uniform entry from the flat list
/// of edge endpoints is exactly degree-weighted sampling).  Deterministic
/// in `seed`; connected for `m ≥ 1`.
pub fn as_graph(n: usize, m: usize, seed: u64) -> Topology<()> {
    assert!(m >= 1, "as_graph needs m >= 1");
    assert!(n >= 2, "as_graph needs at least 2 nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new(n);
    // Every edge {i, j} pushes both endpoints, so a node's multiplicity in
    // `endpoints` is its degree.
    let mut endpoints: Vec<NodeId> = Vec::with_capacity(2 * (m + 1).min(n) * n.max(1));
    let core = (m + 1).min(n);
    for i in 0..core {
        for j in (i + 1)..core {
            t.set_link(i, j, ());
            endpoints.push(i);
            endpoints.push(j);
        }
    }
    let mut targets: Vec<NodeId> = Vec::with_capacity(m);
    for v in core..n {
        targets.clear();
        // `v` joins with `m` distinct degree-weighted neighbours; rejection
        // on duplicates terminates fast because m ≪ v in any realistic call.
        while targets.len() < m.min(v) {
            let u = endpoints[rng.gen_range(0..endpoints.len())];
            if !targets.contains(&u) {
                targets.push(u);
            }
        }
        for &u in &targets {
            t.set_link(v, u, ());
            endpoints.push(v);
            endpoints.push(u);
        }
    }
    t
}

/// A two-level Clos (leaf–spine) data-center fabric: every leaf is connected
/// to every spine.  Nodes `0..spines` are spines, `spines..spines+leaves`
/// are leaves.
pub fn leaf_spine(spines: usize, leaves: usize) -> Topology<()> {
    let mut t = Topology::new(spines + leaves);
    for s in 0..spines {
        for l in 0..leaves {
            t.set_link(s, spines + l, ());
        }
    }
    t
}

/// The relationship attached to a directed edge of a tiered AS hierarchy.
///
/// The edge `i → j` is labelled with the relationship of `j` *as seen by*
/// `i`: routes announced by `j` arrive at `i` over this edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierRelation {
    /// `j` is a customer of `i` (`j` sits one tier below `i`).
    CustomerOf,
    /// `j` is a provider of `i` (`j` sits one tier above `i`).
    ProviderOf,
    /// `i` and `j` are peers (same tier).
    PeerOf,
}

/// A tiered provider/customer hierarchy in the style of the Gao-Rexford
/// model: `tiers[t]` nodes in tier `t` (tier 0 at the top).  Every node has
/// at least one provider in the tier above, peers are added within a tier
/// with probability `p_peer`, and extra provider links with probability
/// `p_extra`.  Edges are labelled with [`TierRelation`] from the point of
/// view of the edge's source.  Deterministic in `seed`.
pub fn tiered_hierarchy(
    tiers: &[usize],
    p_peer: f64,
    p_extra: f64,
    seed: u64,
) -> (Topology<TierRelation>, Vec<usize>) {
    assert!(!tiers.is_empty(), "at least one tier is required");
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = tiers.iter().sum();
    let mut tier_of = Vec::with_capacity(n);
    for (t, &count) in tiers.iter().enumerate() {
        tier_of.extend(std::iter::repeat_n(t, count));
    }
    let first_of_tier: Vec<usize> = tiers
        .iter()
        .scan(0usize, |acc, &c| {
            let start = *acc;
            *acc += c;
            Some(start)
        })
        .collect();

    let mut t = Topology::new(n);
    let add_cp = |topo: &mut Topology<TierRelation>, provider: NodeId, customer: NodeId| {
        // provider sees customer as CustomerOf; customer sees provider as ProviderOf
        topo.set_edge(provider, customer, TierRelation::CustomerOf);
        topo.set_edge(customer, provider, TierRelation::ProviderOf);
    };

    // every node below tier 0 gets at least one provider in the tier above
    for (v, &tier) in tier_of.iter().enumerate() {
        if tier == 0 {
            continue;
        }
        let above_start = first_of_tier[tier - 1];
        let above_count = tiers[tier - 1];
        let provider = above_start + rng.gen_range(0..above_count);
        add_cp(&mut t, provider, v);
        // extra providers
        for p in above_start..above_start + above_count {
            if p != provider && rng.gen_bool(p_extra.clamp(0.0, 1.0)) {
                add_cp(&mut t, p, v);
            }
        }
    }
    // peering within tiers (and full mesh at tier 0 so the top is connected)
    for v in 0..n {
        for u in (v + 1)..n {
            if tier_of[v] == tier_of[u] {
                let is_top = tier_of[v] == 0;
                if is_top || rng.gen_bool(p_peer.clamp(0.0, 1.0)) {
                    t.set_edge(v, u, TierRelation::PeerOf);
                    t.set_edge(u, v, TierRelation::PeerOf);
                }
            }
        }
    }
    (t, tier_of)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_ring_star_shapes() {
        let l = line(5);
        assert_eq!(l.node_count(), 5);
        assert_eq!(l.edge_count(), 8); // 4 links, both directions
        assert!(l.is_weakly_connected());

        let r = ring(5);
        assert_eq!(r.edge_count(), 10);
        assert!(r.is_symmetric());

        let s = star(5);
        assert_eq!(s.edge_count(), 8);
        assert_eq!(s.out_neighbors(0).len(), 4);
        assert_eq!(s.out_neighbors(3), vec![0]);
    }

    #[test]
    fn complete_and_grid_shapes() {
        let c = complete(6);
        assert_eq!(c.edge_count(), 6 * 5);
        assert!(c.is_symmetric());

        let g = grid(3, 4);
        assert_eq!(g.node_count(), 12);
        // horizontal links: 3 rows × 3, vertical links: 2 × 4 ⇒ 17 links
        assert_eq!(g.edge_count(), 2 * (3 * 3 + 2 * 4));
        assert!(g.is_weakly_connected());
    }

    #[test]
    fn random_graphs_are_deterministic_in_the_seed() {
        let a = random_gnp(20, 0.3, 7);
        let b = random_gnp(20, 0.3, 7);
        let c = random_gnp(20, 0.3, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.is_symmetric());
    }

    #[test]
    fn gnp_extremes() {
        assert_eq!(random_gnp(10, 0.0, 1).edge_count(), 0);
        assert_eq!(random_gnp(10, 1.0, 1).edge_count(), 90);
        // Sub-resolution p (1 - p rounds to 1.0) must behave like p = 0,
        // not degenerate into a complete graph.
        assert_eq!(random_gnp(50, 1e-18, 1).edge_count(), 0);
        // Out-of-range p is clamped.
        assert_eq!(random_gnp(6, 7.5, 1).edge_count(), 30);
    }

    #[test]
    fn gnp_density_tracks_p() {
        // The geometric-skip sampler must hit roughly p · C(n,2) pairs.
        let n = 200;
        let pairs = (n * (n - 1) / 2) as f64;
        for &p in &[0.01, 0.1, 0.5] {
            let links = random_gnp(n, p, 97).edge_count() as f64 / 2.0;
            let expected = p * pairs;
            let sd = (pairs * p * (1.0 - p)).sqrt();
            assert!(
                (links - expected).abs() < 6.0 * sd,
                "p={p}: got {links} links, expected ~{expected}"
            );
        }
    }

    #[test]
    fn connected_random_is_connected() {
        for seed in 0..10 {
            let t = connected_random(16, 0.05, seed);
            assert!(
                t.is_weakly_connected(),
                "seed {seed} produced a disconnected graph"
            );
            assert!(t.is_symmetric());
        }
    }

    #[test]
    fn datacenter_fabrics() {
        let ls = leaf_spine(4, 8);
        assert_eq!(ls.node_count(), 12);
        assert_eq!(ls.edge_count(), 2 * 4 * 8);
        assert!(ls.is_weakly_connected());
    }

    #[test]
    fn as_graph_shape_and_determinism() {
        let n = 200;
        let m = 2;
        let t = as_graph(n, m, 11);
        assert_eq!(t.node_count(), n);
        assert!(t.is_weakly_connected());
        assert!(t.is_symmetric());
        // clique on the first m+1 nodes, then m links per later node
        let links = (m + 1) * m / 2 + (n - m - 1) * m;
        assert_eq!(t.edge_count(), 2 * links);
        assert!(t.has_edge(0, 1), "the seed clique always links 0 and 1");
        assert_eq!(t, as_graph(n, m, 11));
        assert_ne!(t, as_graph(n, m, 12));
    }

    #[test]
    fn as_graph_degree_profile_is_heavy_tailed() {
        // Preferential attachment concentrates degree: the best-connected
        // node must collect far more than the mean degree, and low-degree
        // leaves (degree exactly m) must dominate the population.
        let n = 500;
        let m = 2;
        let t = as_graph(n, m, 7);
        let degree: Vec<usize> = (0..n).map(|v| t.out_neighbors(v).len()).collect();
        let max = *degree.iter().max().unwrap();
        let mean = degree.iter().sum::<usize>() as f64 / n as f64;
        assert!(
            max as f64 > 5.0 * mean,
            "max degree {max} vs mean {mean}: no hub emerged"
        );
        let leaves = degree.iter().filter(|&&d| d == m).count();
        assert!(leaves > n / 4, "only {leaves} degree-{m} leaves");
    }

    #[test]
    fn as_graph_small_n_degenerates_to_a_clique() {
        // n <= m + 1: everything fits in the seed clique.
        let t = as_graph(3, 4, 0);
        assert_eq!(t.edge_count(), 6);
        assert!(t.is_symmetric());
    }

    #[test]
    fn tiered_hierarchy_structure() {
        let (t, tier_of) = tiered_hierarchy(&[2, 4, 8], 0.3, 0.2, 42);
        assert_eq!(t.node_count(), 14);
        assert_eq!(tier_of.len(), 14);
        assert_eq!(tier_of.iter().filter(|&&x| x == 0).count(), 2);
        assert!(t.is_weakly_connected());
        // relationship labels are mutually consistent
        for (i, j, rel) in t.edges() {
            match rel {
                TierRelation::CustomerOf => {
                    assert_eq!(t.edge(j, i), Some(&TierRelation::ProviderOf));
                    assert!(tier_of[j] == tier_of[i] + 1);
                }
                TierRelation::ProviderOf => {
                    assert_eq!(t.edge(j, i), Some(&TierRelation::CustomerOf));
                    assert!(tier_of[j] + 1 == tier_of[i]);
                }
                TierRelation::PeerOf => {
                    assert_eq!(t.edge(j, i), Some(&TierRelation::PeerOf));
                    assert_eq!(tier_of[i], tier_of[j]);
                }
            }
        }
        // determinism
        let (t2, _) = tiered_hierarchy(&[2, 4, 8], 0.3, 0.2, 42);
        assert_eq!(t, t2);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_rings_are_rejected() {
        let _ = ring(2);
    }
}
