//! [`RibIn`] against a shadow table of raw adverts.
//!
//! The message-level engines used to keep the last advert per sender and
//! destination and re-import all of them on every decision; they now keep
//! the imported candidates.  Whatever sequence of imports and session
//! withdrawals a node sees, its selection must be what the old fold over
//! the raw adverts computes: `best(j) = I_ij ⊕ ⨁_k A_ik(raw[k][j])`.
//!
//! (The test lives here because this crate is the first to see a
//! distance-vector algebra, the path-vector lifting and the Section 7
//! algebra together.)

use dbf_algebra::algebra::SplitMix64;
use dbf_algebra::prelude::*;
use dbf_bgp::algebra::random_policy;
use dbf_bgp::prelude::*;
use dbf_matrix::{AdjacencyMatrix, RibIn};
use dbf_paths::prelude::*;
use proptest::prelude::*;

const N: usize = 5;

/// One thing a node hears: `from` announces its pool route `route` for `dest`,
/// or (`withdraw`) the session with `from` resets.  `from` need not be a
/// node `to` imports from — edges are directed — and may be `to` itself.
#[derive(Debug, Clone, Copy)]
struct Heard {
    to: NodeId,
    from: NodeId,
    dest: NodeId,
    route: usize,
    withdraw: bool,
}

fn heard() -> impl Strategy<Value = Heard> {
    (0..N, 0..N, 0..N, 0usize..1_000, 0u8..8).prop_map(|(to, from, dest, route, w)| Heard {
        to,
        from,
        dest,
        route,
        withdraw: w == 0,
    })
}

/// A random directed graph over `N` nodes with `edge(i, k)` on each link.
fn random_adjacency<A: RoutingAlgebra>(
    rng: &mut SplitMix64,
    mut edge: impl FnMut(&mut SplitMix64, NodeId, NodeId) -> A::Edge,
) -> AdjacencyMatrix<A> {
    AdjacencyMatrix::from_fn(N, |i, k| rng.next_bool(0.5).then(|| edge(rng, i, k)))
}

/// Run `script` against every node's RIB and the shadow table; returns how
/// many of the selections compared were valid routes over a link.
fn check<A: SampleableAlgebra>(
    alg: &A,
    adj: &AdjacencyMatrix<A>,
    seed: u64,
    script: &[Heard],
) -> Result<usize, TestCaseError> {
    // pool[k]: what `k` may announce — arbitrary sampled routes (a stale
    // state holds anything), and routes `k` itself imported, which are the
    // ones whose path a node importing from `k` can extend.
    let pool: Vec<Vec<A::Route>> = (0..N)
        .map(|k| {
            let mut routes = alg.sample_routes(seed, 8);
            for (_, f) in adj.row(k) {
                for r in alg.sample_routes(seed ^ 0x51, 6) {
                    routes.push(alg.extend(f, &r));
                }
            }
            routes
        })
        .collect();

    let mut ribs: Vec<RibIn<A>> = (0..N).map(|i| RibIn::new(alg, i, adj.row(i), N)).collect();
    // raw[i][j][k]: the last advert `i` heard from `k` for `j`.
    let mut raw = vec![vec![vec![alg.invalid(); N]; N]; N];
    let mut selected = 0;

    for (step, h) in script.iter().enumerate() {
        let imports = adj.row(h.to);
        let link = ribs[h.to].link(imports, h.from);
        prop_assert_eq!(link.is_some(), adj.get(h.to, h.from).is_some());
        if h.withdraw {
            for heard in &mut raw[h.to] {
                heard[h.from] = alg.invalid();
            }
            if let Some(link) = link {
                ribs[h.to].withdraw(alg, imports, link);
            }
        } else {
            let advert = &pool[h.from][h.route % pool[h.from].len()];
            raw[h.to][h.dest][h.from] = advert.clone();
            if let Some(link) = link {
                ribs[h.to].import(alg, imports, link, h.dest, advert);
            }
        }
        for (j, heard) in raw[h.to].iter().enumerate() {
            let expected = if j == h.to {
                alg.trivial()
            } else {
                let mut best = alg.invalid();
                for (k, f) in imports {
                    best = alg.choice(&best, &alg.extend(f, &heard[*k]));
                }
                selected += usize::from(best != alg.invalid());
                best
            };
            prop_assert_eq!(
                ribs[h.to].best(alg, j),
                &expected,
                "node {} destination {} after step {} ({:?})",
                h.to,
                j,
                step,
                h
            );
        }
    }
    Ok(selected)
}

/// The three algebras, picked by `seed`, on a random directed graph.
fn check_some_algebra(seed: u64, script: &[Heard]) -> Result<usize, TestCaseError> {
    let mut rng = SplitMix64::new(seed);
    match seed % 3 {
        0 => {
            let alg = BoundedHopCount::new(6);
            let adj = random_adjacency(&mut rng, |rng, _, _| 1 + rng.next_below(3));
            check(&alg, &adj, seed, script)
        }
        1 => {
            let alg = PathVector::new(ShortestPaths::new(), N);
            let adj = random_adjacency(&mut rng, |rng, i, k| {
                alg.edge(i, k, NatInf::fin(1 + rng.next_below(4)))
            });
            check(&alg, &adj, seed, script)
        }
        _ => {
            let alg = BgpAlgebra::new(N);
            let adj = random_adjacency(&mut rng, |rng, i, k| alg.edge(i, k, random_policy(rng, 2)));
            check(&alg, &adj, seed, script)
        }
    }
}

proptest! {
    #[test]
    fn selection_equals_the_fold_over_raw_adverts(
        seed in 0u64..1_000_000,
        script in proptest::collection::vec(heard(), 1..60),
    ) {
        check_some_algebra(seed, &script)?;
    }
}

/// The oracle would pass vacuously if every candidate were ∞̄: on a fixed
/// script each of the three algebras does select routes it imported.
#[test]
fn the_scripts_exercise_valid_selections() {
    let script: Vec<Heard> = (0..300)
        .map(|s| Heard {
            to: s % N,
            from: (s / N) % N,
            dest: (s / 7) % N,
            route: s * 13,
            withdraw: s % 11 == 0,
        })
        .collect();
    for seed in [3, 4, 5] {
        let selected = check_some_algebra(seed, &script).unwrap();
        assert!(
            selected > 100,
            "algebra {}: {selected} selections",
            seed % 3
        );
    }
}
