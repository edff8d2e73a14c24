//! Property-based tests for the algebraic laws of Table 1 of the paper.
//!
//! Each strategy generates arbitrary routes/edges for one of the bundled
//! algebras and asserts the laws pointwise, complementing the exhaustive /
//! sampled checkers in `dbf_algebra::properties`.

use dbf_algebra::combinators::lex::{Lex, LexEdge, LexRoute};
use dbf_algebra::prelude::*;
use proptest::prelude::*;

/// Strategy for an arbitrary `ℕ∞` route with a healthy share of the two
/// distinguished constants.
fn nat_inf() -> impl Strategy<Value = NatInf> {
    prop_oneof![
        8 => (0u64..5_000).prop_map(NatInf::fin),
        1 => Just(NatInf::ZERO),
        1 => Just(NatInf::INF),
    ]
}

fn filter_policy() -> impl Strategy<Value = FilterPolicy> {
    let leaf = prop_oneof![
        (1u64..50).prop_map(FilterPolicy::Add),
        Just(FilterPolicy::Reject),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (0u64..100, inner.clone(), inner).prop_map(|(t, a, b)| FilterPolicy::if_below(t, a, b))
    })
}

fn stratified_route() -> impl Strategy<Value = StratifiedRoute> {
    prop_oneof![
        6 => (0u32..6, 0u64..1_000).prop_map(|(l, d)| StratifiedRoute::valid(l, d)),
        1 => Just(StratifiedRoute::Invalid),
    ]
}

fn stratified_edge() -> impl Strategy<Value = dbf_algebra::instances::stratified::StratifiedEdge> {
    use dbf_algebra::instances::stratified::StratifiedEdge;
    prop_oneof![
        (1u64..20).prop_map(StratifiedEdge::weight),
        (1u64..20, 0u32..6).prop_map(|(w, l)| StratifiedEdge::raising(w, l)),
        (1u64..20, 0u32..6).prop_map(|(w, b)| StratifiedEdge::filtering(w, b)),
    ]
}

proptest! {
    // ------------------------------------------------------------------
    // Shortest paths
    // ------------------------------------------------------------------

    #[test]
    fn shortest_choice_is_associative_commutative_selective(
        a in nat_inf(), b in nat_inf(), c in nat_inf()
    ) {
        let alg = ShortestPaths::new();
        prop_assert_eq!(
            alg.choice(&a, &alg.choice(&b, &c)),
            alg.choice(&alg.choice(&a, &b), &c)
        );
        prop_assert_eq!(alg.choice(&a, &b), alg.choice(&b, &a));
        let ab = alg.choice(&a, &b);
        prop_assert!(ab == a || ab == b);
    }

    #[test]
    fn shortest_identity_annihilator_laws(a in nat_inf()) {
        let alg = ShortestPaths::new();
        prop_assert_eq!(alg.choice(&a, &alg.trivial()), alg.trivial());
        prop_assert_eq!(alg.choice(&a, &alg.invalid()), a);
    }

    #[test]
    fn shortest_is_strictly_increasing_and_distributive(
        a in nat_inf(), b in nat_inf(), w in 1u64..500
    ) {
        let alg = ShortestPaths::new();
        let f = alg.edge(w);
        if !alg.is_invalid(&a) {
            prop_assert!(alg.route_lt(&a, &alg.extend(&f, &a)));
        }
        prop_assert_eq!(
            alg.extend(&f, &alg.choice(&a, &b)),
            alg.choice(&alg.extend(&f, &a), &alg.extend(&f, &b))
        );
        prop_assert_eq!(alg.extend(&f, &alg.invalid()), alg.invalid());
    }

    #[test]
    fn shortest_derived_order_is_total_and_transitive(
        a in nat_inf(), b in nat_inf(), c in nat_inf()
    ) {
        let alg = ShortestPaths::new();
        prop_assert!(alg.route_le(&a, &b) || alg.route_le(&b, &a));
        if alg.route_le(&a, &b) && alg.route_le(&b, &c) {
            prop_assert!(alg.route_le(&a, &c));
        }
    }

    // ------------------------------------------------------------------
    // Widest paths
    // ------------------------------------------------------------------

    #[test]
    fn widest_laws(a in nat_inf(), b in nat_inf(), w in 1u64..5_000) {
        let alg = WidestPaths::new();
        let f = alg.edge(w);
        // required laws
        prop_assert_eq!(alg.choice(&a, &b), alg.choice(&b, &a));
        let ab = alg.choice(&a, &b);
        prop_assert!(ab == a || ab == b);
        prop_assert_eq!(alg.choice(&a, &alg.trivial()), alg.trivial());
        prop_assert_eq!(alg.choice(&a, &alg.invalid()), a);
        prop_assert_eq!(alg.extend(&f, &alg.invalid()), alg.invalid());
        // increasing (never strictly)
        prop_assert!(alg.route_le(&a, &alg.extend(&f, &a)));
        // distributive
        prop_assert_eq!(
            alg.extend(&f, &alg.choice(&a, &b)),
            alg.choice(&alg.extend(&f, &a), &alg.extend(&f, &b))
        );
    }

    // ------------------------------------------------------------------
    // Bounded hop count (finite carrier)
    // ------------------------------------------------------------------

    #[test]
    fn hopcount_stays_within_carrier(limit in 1u64..32, hops in 1u64..5, a in nat_inf()) {
        let alg = BoundedHopCount::new(limit);
        let out = alg.extend(&hops, &a);
        if let Some(h) = out.as_fin() {
            prop_assert!(h <= limit);
        }
        // strictly increasing on non-invalid routes that are inside the carrier
        if let Some(h) = a.as_fin() {
            if h <= limit {
                prop_assert!(alg.route_lt(&a, &out));
            }
        }
    }

    #[test]
    fn hopcount_carrier_enumeration_is_consistent(limit in 1u64..24) {
        let alg = BoundedHopCount::new(limit);
        let all = alg.all_routes();
        prop_assert_eq!(all.len() as u64, limit + 2);
        // every enumerated route is a fixed point of choice with itself and
        // bounded by the distinguished elements
        for r in &all {
            prop_assert_eq!(alg.choice(r, r), *r);
            prop_assert!(alg.route_le(&alg.trivial(), r));
            prop_assert!(alg.route_le(r, &alg.invalid()));
        }
    }

    // ------------------------------------------------------------------
    // Most reliable paths
    // ------------------------------------------------------------------

    #[test]
    fn reliability_laws(pa in 0.0f64..=1.0, pb in 0.0f64..=1.0, pe in 0.01f64..0.99) {
        let alg = MostReliablePaths::new();
        let a = Reliability::new(pa);
        let b = Reliability::new(pb);
        let f = alg.edge(pe);
        let ab = alg.choice(&a, &b);
        prop_assert!(ab == a || ab == b);
        prop_assert_eq!(alg.choice(&a, &alg.trivial()), alg.trivial());
        prop_assert_eq!(alg.choice(&a, &alg.invalid()), a);
        prop_assert_eq!(alg.extend(&f, &alg.invalid()), alg.invalid());
        prop_assert!(alg.route_le(&a, &alg.extend(&f, &a)));
        if !alg.is_invalid(&a) {
            prop_assert!(alg.route_lt(&a, &alg.extend(&f, &a)));
        }
    }

    // ------------------------------------------------------------------
    // Filtered shortest paths (policy-rich)
    // ------------------------------------------------------------------

    #[test]
    fn filtered_policies_are_strictly_increasing(a in nat_inf(), pol in filter_policy()) {
        let alg = FilteredShortestPaths::new();
        prop_assert!(pol.is_structurally_strictly_increasing());
        let fa = alg.extend(&pol, &a);
        prop_assert!(alg.route_le(&a, &fa));
        if !alg.is_invalid(&a) {
            prop_assert!(alg.route_lt(&a, &fa));
        }
        prop_assert_eq!(alg.extend(&pol, &alg.invalid()), alg.invalid());
    }

    #[test]
    fn filtered_choice_laws(a in nat_inf(), b in nat_inf(), c in nat_inf()) {
        let alg = FilteredShortestPaths::new();
        prop_assert_eq!(
            alg.choice(&a, &alg.choice(&b, &c)),
            alg.choice(&alg.choice(&a, &b), &c)
        );
        let ab = alg.choice(&a, &b);
        prop_assert!(ab == a || ab == b);
    }

    // ------------------------------------------------------------------
    // Stratified shortest paths
    // ------------------------------------------------------------------

    #[test]
    fn stratified_laws(
        a in stratified_route(),
        b in stratified_route(),
        c in stratified_route(),
        e in stratified_edge()
    ) {
        let alg = StratifiedShortestPaths::new();
        prop_assert_eq!(
            alg.choice(&a, &alg.choice(&b, &c)),
            alg.choice(&alg.choice(&a, &b), &c)
        );
        prop_assert_eq!(alg.choice(&a, &b), alg.choice(&b, &a));
        let ab = alg.choice(&a, &b);
        prop_assert!(ab == a || ab == b);
        prop_assert_eq!(alg.choice(&a, &alg.trivial()), alg.trivial());
        prop_assert_eq!(alg.choice(&a, &alg.invalid()), a);
        prop_assert_eq!(alg.extend(&e, &alg.invalid()), alg.invalid());
        if !alg.is_invalid(&a) {
            prop_assert!(alg.route_lt(&a, &alg.extend(&e, &a)));
        }
    }

    // ------------------------------------------------------------------
    // Lexicographic product
    // ------------------------------------------------------------------

    #[test]
    fn lex_product_laws(
        a1 in nat_inf(), a2 in nat_inf(),
        b1 in nat_inf(), b2 in nat_inf(),
        cap in 1u64..1_000, w in 1u64..100
    ) {
        // widest-then-shortest: the classic bandwidth/latency metric
        let alg = Lex::new(WidestPaths::new(), ShortestPaths::new());
        let x = LexRoute::new(a1, a2);
        let y = LexRoute::new(b1, b2);
        let f = LexEdge::new(NatInf::fin(cap), NatInf::fin(w));
        let xy = alg.choice(&x, &y);
        prop_assert!(xy == x || xy == y);
        prop_assert_eq!(alg.choice(&x, &y), alg.choice(&y, &x));
        prop_assert_eq!(alg.choice(&x, &alg.trivial()), alg.trivial());
        prop_assert_eq!(alg.choice(&x, &alg.invalid()), x.clone());
        prop_assert_eq!(alg.extend(&f, &alg.invalid()), alg.invalid());
        // increasing: both components are increasing
        prop_assert!(alg.route_le(&x, &alg.extend(&f, &x)));
    }

    #[test]
    fn lex_product_of_strict_components_is_strict(
        h1 in 0u64..10, d1 in 0u64..500,
        hop in 1u64..3, w in 1u64..50
    ) {
        let alg = Lex::new(BoundedHopCount::new(10), ShortestPaths::new());
        let x = LexRoute::new(NatInf::fin(h1), NatInf::fin(d1));
        let f = LexEdge::new(hop, NatInf::fin(w));
        prop_assert!(alg.route_lt(&x, &alg.extend(&f, &x)));
    }
}

// ---------------------------------------------------------------------------
// Height: the convergence-rate theorems bound rounds by n·h, so the height
// helpers must really compute the longest strict preference chain.  The
// order-agnostic DP below is the independent witness `carrier_height`'s
// sort-and-dedup shortcut is checked against.
// ---------------------------------------------------------------------------

/// Longest strictly-decreasing preference chain in the carrier, by a
/// Bellman-Ford-style DP over `route_lt` — no reliance on the order being
/// total or on sorting.
fn longest_strict_chain<A: FiniteCarrier>(alg: &A) -> u64 {
    let routes = alg.all_routes();
    let k = routes.len();
    let mut best = vec![1u64; k];
    // Chains have at most k elements, so k relaxation passes suffice.
    for _ in 0..k {
        let mut changed = false;
        for i in 0..k {
            for j in 0..k {
                // routes[j] strictly preferred over routes[i]: a chain
                // ending at j extends by i.
                if alg.route_lt(&routes[j], &routes[i]) && best[j] + 1 > best[i] {
                    best[i] = best[j] + 1;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    best.into_iter().max().unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `carrier_height` equals the DP chain length on every bounded
    /// hop-count carrier: for a total order, distinct values and the
    /// longest strict chain coincide.
    #[test]
    fn carrier_height_is_the_longest_strict_chain(limit in 1u64..16) {
        let alg = BoundedHopCount::new(limit);
        prop_assert_eq!(carrier_height(&alg), longest_strict_chain(&alg));
        prop_assert_eq!(carrier_height(&alg), limit + 2, "carrier {{0..limit, ∞}}");
    }

    /// `route_height` is consistent with the chain structure: `h(0̄)` is
    /// the algebra height, `h(∞̄) = 1`, and height decreases by exactly
    /// one per preference step along the hop-count chain.
    #[test]
    fn route_heights_descend_the_chain(limit in 1u64..16) {
        let alg = BoundedHopCount::new(limit);
        prop_assert_eq!(route_height(&alg, &alg.trivial()), carrier_height(&alg));
        prop_assert_eq!(route_height(&alg, &alg.invalid()), 1);
        for hops in 0..limit {
            let here = route_height(&alg, &NatInf::fin(hops));
            let next = route_height(&alg, &NatInf::fin(hops + 1));
            prop_assert_eq!(here, next + 1);
        }
    }
}
