//! The one digest entry renderer, `dbf_matrix::blocked::fold_entry_text`,
//! against the text it replaced: `format!("({i},{j})={r:?};")` per entry.
//!
//! Tables of five route types (hop count with `∞`, shortest paths up to 20
//! digits, widest paths, a path-vector lifting with `∞⊥`, BGP routes with
//! community sets) are drawn from a small pool in runs, so equal routes
//! repeat within and across row ends.  Each is folded row-major as one
//! window and column by column over block windows, the last one ragged,
//! with the columns numbered from an arbitrary first destination.

use dbf_algebra::algebra::{SampleableAlgebra, SplitMix64};
use dbf_algebra::prelude::{BoundedHopCount, NatInf, ShortestPaths, WidestPaths};
use dbf_bgp::algebra::BgpAlgebra;
use dbf_matrix::blocked::fold_entry_text;
use dbf_paths::PathVector;
use proptest::prelude::*;
use std::fmt::Debug;

/// A row-major table of `len` entries drawn from `pool`, switching to a
/// random pool entry with probability `1 / run` at each entry.
fn table<R: Clone>(pool: &[R], len: usize, run: u64, seed: u64) -> Vec<R> {
    let mut rng = SplitMix64::new(seed);
    let mut at = 0;
    (0..len)
        .map(|_| {
            if rng.next_below(run) == 0 {
                at = rng.next_below(pool.len() as u64) as usize;
            }
            pool[at].clone()
        })
        .collect()
}

/// Both folds of the `m × c` table `t`, whose columns are destinations
/// `j0 ..`, against the per-entry `format!` reference.
fn check<R: Debug + Eq + Clone>(t: &[R], c: usize, j0: usize, block: usize) -> TestCaseResult {
    let m = t.len() / c;
    let reference = |i: usize, jl: usize| format!("({i},{})={:?};", j0 + jl, t[i * c + jl]);

    let mut whole = String::new();
    fold_entry_text(t.chunks(c), j0, c, |_, text| whole.push_str(text));
    let want: String = (0..m)
        .flat_map(|i| (0..c).map(move |jl| (i, jl)))
        .map(|(i, jl)| reference(i, jl))
        .collect();
    prop_assert_eq!(whole, want, "row-major fold");

    let mut cols = vec![String::new(); c];
    for b0 in (0..c).step_by(block) {
        let w = block.min(c - b0);
        let slab: Vec<R> = t
            .chunks(c)
            .flat_map(|row| row[b0..b0 + w].to_vec())
            .collect();
        fold_entry_text(slab.chunks(w), j0 + b0, w, |jl, text| {
            cols[b0 + jl].push_str(text)
        });
    }
    for (jl, col) in cols.into_iter().enumerate() {
        let want: String = (0..m).map(|i| reference(i, jl)).collect();
        prop_assert_eq!(col, want, "column {jl}");
    }
    Ok(())
}

fn first_destinations() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(95), Just(9_990), 0usize..1 << 40]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn the_renderer_writes_what_format_writes(
        seed in any::<u64>(),
        m in 1usize..130,
        c in 1usize..24,
        block in 1usize..30,
        run in 1u64..40,
        j0 in first_destinations(),
    ) {
        let len = m * c;
        let hops = BoundedHopCount::new(12).sample_routes(seed, 6);
        check(&table(&hops, len, run, seed), c, j0, block)?;
        let mut shortest = ShortestPaths::new().sample_routes(seed, 5);
        shortest.push(NatInf::fin(u64::MAX - 1));
        check(&table(&shortest, len, run, seed), c, j0, block)?;
        let widest = WidestPaths::new().sample_routes(seed, 6);
        check(&table(&widest, len, run, seed), c, j0, block)?;
        let pv = PathVector::new(ShortestPaths::new(), 12).sample_routes(seed, 6);
        check(&table(&pv, len, run, seed), c, j0, block)?;
        let bgp = BgpAlgebra::new(12).sample_routes(seed, 6);
        check(&table(&bgp, len, run, seed), c, j0, block)?;
    }
}

/// An empty table folds nothing.
#[test]
fn an_empty_table_folds_nothing() {
    fold_entry_text::<NatInf>([], 0, 0, |_, _| panic!("no entries"));
}
