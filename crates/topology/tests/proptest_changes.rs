//! Property-based tests that the in-place edit primitive
//! ([`TopologyChange::apply_to`]) is the functional one (`apply`,
//! `apply_all`) minus the copies, and that the bulk-built `map_weights`
//! is the insert-by-insert construction.

use dbf_topology::{generators, Topology, TopologyChange};
use proptest::prelude::*;

/// A raw edit: `(kind, a, b, weight)`.  Endpoints are resolved against the
/// node count *at the edit's position in the sequence*, so an edit may name
/// a node an earlier `AddNode` of the same sequence introduced.
type RawEdit = (u8, usize, usize, u32);

fn raw_edits() -> impl Strategy<Value = Vec<RawEdit>> {
    proptest::collection::vec((0u8..5, 0usize..64, 0usize..64, 1u32..100), 0..24)
}

/// Resolve raw edits into changes that are valid on `nodes` nodes (and on
/// whatever the sequence itself grows that to).  Removals may well name
/// absent edges; those are defined no-ops.
fn resolve(raw: &[RawEdit], mut nodes: usize) -> Vec<TopologyChange<u32>> {
    raw.iter()
        .map(|&(kind, a, b, weight)| {
            let (a, b) = (a % nodes, b % nodes);
            match kind {
                // two of five kinds: sets should not be outnumbered by removals
                0 | 1 => TopologyChange::SetEdge {
                    from: a,
                    // never a self loop
                    to: if a == b { (b + 1) % nodes } else { b },
                    weight,
                },
                2 => TopologyChange::RemoveEdge { from: a, to: b },
                3 => TopologyChange::FailLink { a, b },
                _ => {
                    nodes += 1;
                    TopologyChange::AddNode
                }
            }
        })
        .collect()
}

proptest! {
    #[test]
    fn in_place_fold_is_the_apply_chain_is_apply_all(raw in raw_edits(), n in 3usize..8) {
        let source = generators::ring(n).with_weights(|i, j| (i * 10 + j) as u32);
        let untouched = source.clone();
        let changes = resolve(&raw, n);

        let mut in_place = source.clone();
        for c in &changes {
            c.apply_to(&mut in_place);
        }
        let chained = changes.iter().fold(source.clone(), |t, c| c.apply(&t));
        let folded = TopologyChange::apply_all(&changes, &source);

        prop_assert_eq!(&in_place, &chained);
        prop_assert_eq!(&in_place, &folded);
        prop_assert_eq!(&source, &untouched, "the functional forms leave the source alone");
        let adds = changes.iter().filter(|c| matches!(c, TopologyChange::AddNode)).count();
        prop_assert_eq!(in_place.node_count(), n + adds);
    }

    #[test]
    fn map_weights_is_the_insert_by_insert_construction(raw in raw_edits(), n in 3usize..8) {
        let topo = TopologyChange::apply_all(
            &resolve(&raw, n),
            &generators::ring(n).with_weights(|_, _| 1u32),
        );
        let f = |i: usize, j: usize, w: &u32| (i as u64) << 32 | (j as u64) << 16 | u64::from(*w);

        let mut inserted = Topology::new(topo.node_count());
        for (i, j, w) in topo.edges() {
            inserted.set_edge(i, j, f(i, j, w));
        }
        let mapped = topo.map_weights(f);

        prop_assert_eq!(&mapped, &inserted);
        // edge for edge, in iteration order
        prop_assert_eq!(
            mapped.edges().collect::<Vec<_>>(),
            inserted.edges().collect::<Vec<_>>()
        );
        prop_assert_eq!(topo.with_weights(|i, j| i + j), topo.map_weights(|i, j, _| i + j));
    }
}

#[test]
fn the_empty_sequence_is_a_plain_copy() {
    let source = generators::line(4).with_weights(|_, _| 7u32);
    assert_eq!(TopologyChange::apply_all(&[], &source), source);
}

#[test]
fn an_edit_may_name_a_node_added_earlier_in_the_sequence() {
    let source = generators::line(3).with_weights(|_, _| 1u32);
    let changes = [
        TopologyChange::AddNode,
        TopologyChange::SetEdge {
            from: 3,
            to: 0,
            weight: 5,
        },
        TopologyChange::FailLink { a: 3, b: 0 },
        TopologyChange::SetEdge {
            from: 0,
            to: 3,
            weight: 6,
        },
    ];
    let out = TopologyChange::apply_all(&changes, &source);
    assert_eq!(out.node_count(), 4);
    assert_eq!(out.edge(0, 3), Some(&6));
    assert!(!out.has_edge(3, 0));
    assert_eq!(source.node_count(), 3);
}
