//! Model-based test of [`Topology`]'s sorted-row layout: random edit
//! sequences run against a `BTreeMap<(i, j), w>` reference kept here — the
//! layout `Topology` had before it moved to sorted rows, with that
//! layout's `Debug` text and its rescanning connectivity check — and every
//! observable is compared after every edit.

use dbf_topology::{NodeId, Topology};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::fmt::Write as _;

#[derive(Clone, PartialEq, Eq)]
struct Model {
    nodes: usize,
    edges: BTreeMap<(NodeId, NodeId), u32>,
}

impl Model {
    fn new(nodes: usize) -> Model {
        Model {
            nodes,
            edges: BTreeMap::new(),
        }
    }

    fn out_neighbors(&self, i: NodeId) -> Vec<NodeId> {
        self.edges
            .keys()
            .filter(|k| k.0 == i)
            .map(|k| k.1)
            .collect()
    }

    fn in_neighbors(&self, j: NodeId) -> Vec<NodeId> {
        self.edges
            .keys()
            .filter(|k| k.1 == j)
            .map(|k| k.0)
            .collect()
    }

    /// The old check: rescan every edge for every popped vertex.
    fn is_weakly_connected(&self) -> bool {
        if self.nodes == 0 {
            return true;
        }
        let mut seen = vec![false; self.nodes];
        let mut stack = vec![0usize];
        seen[0] = true;
        while let Some(v) = stack.pop() {
            for &(i, j) in self.edges.keys() {
                let other = if i == v {
                    j
                } else if j == v {
                    i
                } else {
                    continue;
                };
                if !seen[other] {
                    seen[other] = true;
                    stack.push(other);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }

    /// The `Debug` text of the `BTreeMap` layout.
    fn debug_text(&self) -> String {
        let mut s = format!("Topology(n={}, m={})\n", self.nodes, self.edges.len());
        for (&(i, j), w) in &self.edges {
            writeln!(s, "  {i} → {j}  [{w:?}]").unwrap();
        }
        s
    }

    /// A topology with the model's edges, inserted in descending order.
    fn build(&self) -> Topology<u32> {
        let mut t = Topology::new(self.nodes);
        for (&(i, j), &w) in self.edges.iter().rev() {
            t.set_edge(i, j, w);
        }
        t
    }
}

/// Every observable of `t` against `m`, out-of-range probes included.
fn agree(t: &Topology<u32>, m: &Model) -> Result<(), TestCaseError> {
    let n = m.nodes;
    prop_assert_eq!(t.node_count(), n);
    prop_assert_eq!(t.edge_count(), m.edges.len());
    let edges: Vec<_> = t.edges().map(|(i, j, &w)| (i, j, w)).collect();
    let expected: Vec<_> = m.edges.iter().map(|(&(i, j), &w)| (i, j, w)).collect();
    prop_assert_eq!(edges, expected, "edges() in sorted (i, j) order");
    for i in 0..=n + 1 {
        for j in 0..=n + 1 {
            prop_assert_eq!(t.edge(i, j), m.edges.get(&(i, j)), "edge({}, {})", i, j);
            prop_assert_eq!(t.has_edge(i, j), m.edges.contains_key(&(i, j)));
        }
        prop_assert_eq!(t.out_neighbors(i), m.out_neighbors(i), "out of {}", i);
        prop_assert_eq!(t.in_neighbors(i), m.in_neighbors(i), "into {}", i);
    }
    prop_assert_eq!(
        t.is_symmetric(),
        m.edges.keys().all(|&(i, j)| m.edges.contains_key(&(j, i)))
    );
    prop_assert_eq!(t.is_weakly_connected(), m.is_weakly_connected());
    prop_assert_eq!(format!("{t:?}"), m.debug_text());
    prop_assert_eq!(t, &m.build(), "Eq ignores the order edges arrived in");
    Ok(())
}

/// A raw edit: `(kind, a, b, weight)`, endpoints resolved modulo the node
/// count at the edit's position.
type RawEdit = (u8, usize, usize, u32);

fn raw_edits() -> impl Strategy<Value = Vec<RawEdit>> {
    proptest::collection::vec((0u8..8, 0usize..64, 0usize..64, 1u32..5), 0..40)
}

proptest! {
    #[test]
    fn sorted_rows_behave_as_the_btree_map_did(raw in raw_edits(), n in 2usize..7) {
        let mut t: Topology<u32> = Topology::new(n);
        let mut m = Model::new(n);
        agree(&t, &m)?;
        for &(kind, a, b, w) in &raw {
            let nodes = m.nodes;
            let (a, b) = (a % nodes, b % nodes);
            let b = if a == b { (b + 1) % nodes } else { b };
            let (before_t, before_m) = (t.clone(), m.clone());
            match kind {
                // sets weigh double so the graphs do not stay empty
                0 | 1 => {
                    t.set_edge(a, b, w);
                    m.edges.insert((a, b), w);
                }
                2 => prop_assert_eq!(t.remove_edge(a, b), m.edges.remove(&(a, b))),
                3 => {
                    t.set_link(a, b, w);
                    m.edges.insert((a, b), w);
                    m.edges.insert((b, a), w);
                }
                4 => {
                    t.remove_link(a, b);
                    m.edges.remove(&(a, b));
                    m.edges.remove(&(b, a));
                }
                5 => {
                    prop_assert_eq!(t.add_node(), m.nodes);
                    m.nodes += 1;
                }
                _ => prop_assert_eq!(t.remove_edge(nodes + a, b), None),
            }
            agree(&t, &m)?;
            prop_assert_eq!(t == before_t, m == before_m, "Eq tracks the model's");
        }
        // re-weighting keeps the shape, edge for edge
        let mapped = t.map_weights(|i, j, w| (i * 100 + j) as u32 + w);
        let mut mm = m.clone();
        for (&(i, j), w) in mm.edges.iter_mut() {
            *w += (i * 100 + j) as u32;
        }
        agree(&mapped, &mm)?;
    }
}

#[test]
fn rows_are_sorted_slices_of_the_out_edges() {
    let mut t = Topology::new(4);
    t.set_edge(1, 3, 'c');
    t.set_edge(1, 0, 'a');
    t.set_edge(1, 2, 'b');
    assert_eq!(t.row(1), &[(0, 'a'), (2, 'b'), (3, 'c')]);
    assert!(t.row(0).is_empty());
}
