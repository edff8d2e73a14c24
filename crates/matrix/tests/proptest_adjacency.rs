//! Property tests for the row-compressed sparse [`AdjacencyMatrix`]
//! against a naive dense model.
//!
//! The fuzzing subsystem's topology-change scripts hammer exactly this
//! surface — repeated add/remove of the same edge, clearing absent
//! entries, overwriting in place — so the sparse representation is checked
//! op-for-op against a `Vec<Vec<Option<_>>>` oracle.  The transpose the
//! matrix carries (`dependants(k)`, the rows that import from `k`) is
//! checked against the same oracle after every op and for every
//! constructor and clone.

use dbf_algebra::prelude::*;
use dbf_matrix::prelude::*;
use dbf_topology::Topology;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

/// Rows and transpose against the dense model, brute force: every row is
/// strictly sorted and holds exactly the model's entries, for every `k`
/// `dependants(k)` is the ascending `{i : A_ik present}`, and the
/// transpose holds one reader per link.
fn check_rows_and_transpose(
    adj: &AdjacencyMatrix<ShortestPaths>,
    dense: &[Vec<Option<NatInf>>],
) -> Result<(), TestCaseError> {
    let n = dense.len();
    prop_assert_eq!(adj.node_count(), n);
    for (i, dense_row) in dense.iter().enumerate() {
        let row = adj.row(i);
        prop_assert!(
            row.windows(2).all(|w| w[0].0 < w[1].0),
            "row {} must stay strictly sorted",
            i
        );
        let want: Vec<(usize, NatInf)> = dense_row
            .iter()
            .enumerate()
            .filter_map(|(j, e)| e.map(|e| (j, e)))
            .collect();
        prop_assert_eq!(row, &want[..], "row {}", i);
    }
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, dense_row) in dense.iter().enumerate() {
        for (k, e) in dense_row.iter().enumerate() {
            if e.is_some() {
                readers[k].push(i);
            }
        }
    }
    for (k, want) in readers.iter().enumerate() {
        prop_assert_eq!(adj.dependants(k), &want[..], "readers of {}", k);
    }
    let readers: usize = (0..n).map(|k| adj.dependants(k).len()).sum();
    prop_assert_eq!(adj.link_count(), readers);
    Ok(())
}

/// Apply an op sequence to both representations and compare every
/// observable: per-entry lookups, link count, row sortedness, the
/// imported-neighbour sets and the transpose — of the matrix and of a
/// clone taken after each op.
fn check_against_dense(ops: &[Op]) -> Result<(), TestCaseError> {
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
        check_rows_and_transpose(&sparse, &dense)?;
        check_rows_and_transpose(&sparse.clone(), &dense)?;
    }
    Ok(())
}

/// A dense `n × n` model from one weight per cell, row-major: 0 (and the
/// diagonal) is a missing link.
fn dense_from_cells(n: usize, cells: &[u64]) -> Vec<Vec<Option<NatInf>>> {
    (0..n)
        .map(|i| {
            (0..n)
                .map(|j| (i != j && cells[i * n + j] > 0).then(|| NatInf::fin(cells[i * n + j])))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn sparse_adjacency_matches_the_dense_model(ops in proptest::collection::vec(op(), 0..60)) {
        check_against_dense(&ops)?;
    }

    #[test]
    fn every_constructor_carries_the_transpose(
        n in 0usize..10,
        cells in proptest::collection::vec(0u64..4, 100),
    ) {
        // About a third of the cells are missing links; `n = 0` and `1`
        // leave nothing to read.
        let dense = dense_from_cells(n, &cells);
        let empty: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::empty(n);
        check_rows_and_transpose(&empty, &vec![vec![None; n]; n])?;
        check_rows_and_transpose(&empty.clone(), &vec![vec![None; n]; n])?;
        let from_fn: AdjacencyMatrix<ShortestPaths> =
            AdjacencyMatrix::from_fn(n, |i, j| dense[i][j]);
        check_rows_and_transpose(&from_fn, &dense)?;
        check_rows_and_transpose(&from_fn.clone(), &dense)?;
        let mut topo = Topology::new(n);
        for (i, row) in dense.iter().enumerate() {
            for (j, e) in row.iter().enumerate() {
                if let Some(e) = e {
                    topo.set_edge(i, j, *e);
                }
            }
        }
        let from_topology: AdjacencyMatrix<ShortestPaths> = AdjacencyMatrix::from_topology(&topo);
        check_rows_and_transpose(&from_topology, &dense)?;
        check_rows_and_transpose(&from_topology.clone(), &dense)?;
    }

    #[test]
    fn set_on_a_built_matrix_keeps_the_transpose(
        cells in proptest::collection::vec(0u64..4, N * N),
        ops in proptest::collection::vec(op(), 0..40),
    ) {
        // `set` on a matrix some other constructor built, and on a clone
        // of it: the copy diverges, the original keeps its transpose.
        let mut dense = dense_from_cells(N, &cells);
        let original: AdjacencyMatrix<ShortestPaths> =
            AdjacencyMatrix::from_fn(N, |i, j| dense[i][j]);
        let before = dense.clone();
        let mut adj = original.clone();
        for op in &ops {
            let value = op.set.map(NatInf::fin);
            adj.set(op.i, op.j, value);
            dense[op.i][op.j] = value;
            check_rows_and_transpose(&adj, &dense)?;
        }
        check_rows_and_transpose(&original, &before)?;
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
