//! Property tests for the row-compressed sparse [`AdjacencyMatrix`]
//! against a naive dense model.
//!
//! The fuzzing subsystem's topology-change scripts hammer exactly this
//! surface — repeated add/remove of the same edge, clearing absent
//! entries, overwriting in place — so the sparse representation is checked
//! op-for-op against a `Vec<Vec<Option<_>>>` oracle.

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use proptest::prelude::*;

const N: usize = 6;

/// One mutation: set `i → j` to `Some(w)` or clear it.
#[derive(Debug, Clone, Copy)]
struct Op {
    i: usize,
    j: usize,
    set: Option<u64>,
}

fn op() -> impl Strategy<Value = Op> {
    (0..N, 0..N, 0u64..12).prop_filter_map("diagonal", |(i, j, w)| {
        if i == j {
            return None;
        }
        Some(Op {
            i,
            j,
            // 0 encodes "clear"; anything else sets that weight.
            set: if w == 0 { None } else { Some(w) },
        })
    })
}

/// Apply an op sequence to both representations and compare every
/// observable: per-entry lookups, link count, row sortedness and the
/// imported-neighbour sets.
fn check_against_dense(ops: &[Op]) -> Result<(), proptest::test_runner::TestCaseError> {
    let mut sparse: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(N);
    let mut dense: Vec<Vec<Option<NatInf>>> = vec![vec![None; N]; N];
    for op in ops {
        let value = op.set.map(NatInf::fin);
        sparse.set(op.i, op.j, value);
        dense[op.i][op.j] = value;

        for (i, dense_row) in dense.iter().enumerate() {
            for (j, expected) in dense_row.iter().enumerate() {
                prop_assert_eq!(
                    sparse.get(i, j).copied(),
                    *expected,
                    "entry ({}, {}) diverged after {:?}",
                    i,
                    j,
                    op
                );
            }
            let row = sparse.row(i);
            prop_assert!(
                row.windows(2).all(|w| w[0].0 < w[1].0),
                "row {} must stay strictly sorted: {:?}",
                i,
                row.iter().map(|&(j, _)| j).collect::<Vec<_>>()
            );
            let dense_neighbors: Vec<usize> = dense_row
                .iter()
                .enumerate()
                .filter_map(|(j, e)| e.is_some().then_some(j))
                .collect();
            let keys: Vec<usize> = row.iter().map(|&(j, _)| j).collect();
            prop_assert_eq!(keys, dense_neighbors);
        }
        let dense_links = dense.iter().flatten().filter(|e| e.is_some()).count();
        prop_assert_eq!(sparse.link_count(), dense_links);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_adjacency_matches_the_dense_model(ops in proptest::collection::vec(op(), 0..60)) {
        check_against_dense(&ops)?;
    }

    #[test]
    fn repeated_add_remove_of_one_edge_round_trips(
        w1 in 1u64..9, w2 in 1u64..9, rounds in 1usize..8
    ) {
        // The fuzzer's flapping-link scripts: set, overwrite, clear, clear
        // again, restore — the entry and the row structure must round-trip
        // exactly.
        let mut adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(N);
        for _ in 0..rounds {
            adj.set(1, 3, Some(NatInf::fin(w1)));
            prop_assert_eq!(adj.get(1, 3), Some(&NatInf::fin(w1)));
            adj.set(1, 3, Some(NatInf::fin(w2))); // overwrite in place
            prop_assert_eq!(adj.get(1, 3), Some(&NatInf::fin(w2)));
            prop_assert_eq!(adj.link_count(), 1);
            adj.set(1, 3, None);
            adj.set(1, 3, None); // clearing an absent entry is a no-op
            prop_assert_eq!(adj.get(1, 3), None);
            prop_assert_eq!(adj.link_count(), 0);
        }
        prop_assert!(adj.row(1).is_empty());
    }

    #[test]
    fn sigma_is_insensitive_to_edge_insertion_order(keys in proptest::collection::vec(0u64..1000, 10)) {
        // Build the same ring adjacency twice, inserting edges in different
        // orders; σ must reach the same fixed point (the rows are sorted
        // canonically regardless of insertion order).
        let alg = ShortestPaths::new();
        let edges: Vec<(usize, usize, u64)> = (0..N)
            .flat_map(|i| [(i, (i + 1) % N, 1 + (i as u64 % 3)), ((i + 1) % N, i, 2)])
            .collect();
        let mut shuffled = edges.clone();
        // Deterministic shuffle driven by the generated keys.
        for (k, key) in keys.iter().enumerate() {
            let a = k % shuffled.len();
            let b = (*key as usize) % shuffled.len();
            shuffled.swap(a, b);
        }
        let build = |list: &[(usize, usize, u64)]| {
            let mut adj: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(N);
            for &(i, j, w) in list {
                adj.set(i, j, Some(NatInf::fin(w)));
            }
            adj
        };
        let a = build(&edges);
        let b = build(&shuffled);
        let fixed_a = iterate_to_fixed_point(&alg, &a, &RoutingState::identity(&alg, N), 100);
        let fixed_b = iterate_to_fixed_point(&alg, &b, &RoutingState::identity(&alg, N), 100);
        prop_assert!(fixed_a.converged && fixed_b.converged);
        prop_assert_eq!(fixed_a.state, fixed_b.state);
    }
}
