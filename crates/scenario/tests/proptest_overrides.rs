//! Model-based test of [`WeightOverrides`]' sorted-row layout: random
//! `insert`/`remove`/`get` sequences run against a `BTreeMap<(i, j), w>`
//! reference kept here — the map the table was before it moved onto the
//! shape's rows — and every observable is compared after every operation:
//! lookups over the whole key grid (diagonal and past the grown rows
//! included), the values `insert` and `remove` hand back, `iter()` and
//! `values()` order, the `Debug` text, and `==`.

use dbf_scenario::WeightOverrides;
use proptest::prelude::*;
use std::collections::BTreeMap;

type Model = BTreeMap<(usize, usize), u64>;

/// Keys are drawn from `0..NODES`; lookups probe two past it.
const NODES: usize = 12;

/// The table a `BTreeMap` of the same content collects into, inserted in
/// descending key order (so every insert lands at the front of its row).
fn collected(m: &Model) -> WeightOverrides {
    m.iter().rev().map(|(&k, &w)| (k, w)).collect()
}

/// Every observable of `t` against `m`.
fn agree(t: &WeightOverrides, m: &Model) -> Result<(), TestCaseError> {
    for i in 0..NODES + 2 {
        for j in 0..NODES + 2 {
            prop_assert_eq!(t.get(&(i, j)), m.get(&(i, j)), "get({}, {})", i, j);
        }
    }
    let entries: Vec<_> = t.iter().collect();
    let expected: Vec<_> = m.iter().map(|(&(i, j), &w)| (i, j, w)).collect();
    prop_assert_eq!(entries, expected, "iter() in (i, j) order");
    prop_assert_eq!(
        t.values().collect::<Vec<_>>(),
        m.values().collect::<Vec<_>>()
    );
    prop_assert_eq!(format!("{t:?}"), format!("{m:?}"));
    prop_assert_eq!(format!("{t:#?}"), format!("{m:#?}"));
    prop_assert_eq!(t, &collected(m), "== ignores the order keys arrived in");
    Ok(())
}

/// A raw operation: `(kind, a, b, weight)`.
type RawOp = (u8, usize, usize, u64);

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    // endpoints up to NODES + 3: removes and lookups past the grown rows
    proptest::collection::vec(
        (0u8..6, 0usize..NODES + 4, 0usize..NODES + 4, 1u64..5),
        0..48,
    )
}

proptest! {
    #[test]
    fn sorted_rows_behave_as_the_btree_map_did(raw in raw_ops()) {
        let mut t = WeightOverrides::new();
        let mut m = Model::new();
        agree(&t, &m)?;
        for &(kind, a, b, w) in &raw {
            let before = (t.clone(), m.clone());
            match kind {
                // inserts weigh triple so the tables do not stay empty;
                // `admit` keeps them off the diagonal
                0..=2 => {
                    let (a, b) = (a % NODES, b % NODES);
                    let b = if a == b { (b + 1) % NODES } else { b };
                    prop_assert_eq!(t.insert((a, b), w), m.insert((a, b), w));
                }
                // removes take any key: on the diagonal, past the rows
                3 | 4 => prop_assert_eq!(t.remove(&(a, b)), m.remove(&(a, b))),
                _ => prop_assert_eq!(t.remove(&(a, a)), None),
            }
            agree(&t, &m)?;
            prop_assert_eq!(t == before.0, m == before.1, "== tracks the model's");
        }
        // the same content reached by another path: grown further, then
        // those rows emptied
        let mut other = collected(&m);
        other.insert((NODES + 20, 0), 7);
        other.insert((0, NODES + 30), 7);
        prop_assert!(other != t);
        other.remove(&(NODES + 20, 0));
        other.remove(&(0, NODES + 30));
        prop_assert_eq!(&other, &t);
        agree(&other, &m)?;
        // ... and emptied entirely, it is a new table
        for (i, j, _) in t.iter() {
            other.remove(&(i, j));
        }
        prop_assert_eq!(other, WeightOverrides::new());
    }
}

#[test]
fn the_map_constructors_keep_the_last_weight_per_key() {
    let pairs = [((3, 1), 5), ((0, 2), 9), ((3, 1), 6), ((0, 1), 4)];
    let model: Model = pairs.into_iter().collect();
    let from_array = WeightOverrides::from(pairs);
    let from_iter: WeightOverrides = pairs.into_iter().collect();
    assert_eq!(from_array, from_iter);
    assert_eq!(
        from_array.iter().collect::<Vec<_>>(),
        [(0, 1, 4), (0, 2, 9), (3, 1, 6)]
    );
    assert_eq!(format!("{from_array:?}"), format!("{model:?}"));
    assert_eq!(
        format!("{from_array:?}"),
        "{(0, 1): 4, (0, 2): 9, (3, 1): 6}"
    );
    assert_eq!(WeightOverrides::from([]), WeightOverrides::default());
    assert_eq!(format!("{:?}", WeightOverrides::new()), "{}");
}

#[test]
#[should_panic(expected = "self loops")]
fn an_override_on_the_diagonal_is_refused() {
    WeightOverrides::new().insert((2, 2), 1);
}
