//! Topology change events for the dynamic-network model of Section 3.2.
//!
//! The paper handles network dynamics by viewing the computation after a
//! change as a *new problem instance*: the adjacency matrix is updated and
//! the current (now possibly stale/inconsistent) routing state becomes the
//! new starting state, and the convergence theorems guarantee reconvergence
//! from whatever state results.  [`TopologyChange`] is a weighted
//! vocabulary of such events.  Nothing in the library applies it — only
//! the benchmark harness and tests do; the library's change vocabulary is
//! `dbf-scenario`'s `ChangeSpec`, which scenarios, churn traces and the
//! route server apply.

use crate::graph::{NodeId, Topology};
use std::fmt;

/// A single change to the network topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyChange<W> {
    /// Add (or replace) the directed edge `i → j` with weight `w`.
    SetEdge {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
        /// The new edge weight (policy).
        weight: W,
    },
    /// Remove the directed edge `i → j`.
    RemoveEdge {
        /// Source node.
        from: NodeId,
        /// Destination node.
        to: NodeId,
    },
    /// Remove both directions of the link between `a` and `b` (a link
    /// failure).
    FailLink {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Add a fresh node (with no edges).
    AddNode,
}

impl<W: Clone> TopologyChange<W> {
    /// Apply the change to `topo` in place: the cost is the edit, not the
    /// network.
    pub fn apply_to(&self, topo: &mut Topology<W>) {
        match self {
            TopologyChange::SetEdge { from, to, weight } => {
                topo.set_edge(*from, *to, weight.clone());
            }
            TopologyChange::RemoveEdge { from, to } => {
                topo.remove_edge(*from, *to);
            }
            TopologyChange::FailLink { a, b } => {
                topo.remove_link(*a, *b);
            }
            TopologyChange::AddNode => {
                topo.add_node();
            }
        }
    }

    /// Apply the change to a topology, returning the updated topology.
    pub fn apply(&self, topo: &Topology<W>) -> Topology<W> {
        let mut out = topo.clone();
        self.apply_to(&mut out);
        out
    }

    /// Apply a sequence of changes in order (one copy of `topo`, however
    /// long the sequence).
    pub fn apply_all(changes: &[Self], topo: &Topology<W>) -> Topology<W> {
        let mut out = topo.clone();
        for c in changes {
            c.apply_to(&mut out);
        }
        out
    }
}

impl<W: fmt::Debug> fmt::Display for TopologyChange<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyChange::SetEdge { from, to, weight } => {
                write!(f, "set {from} → {to} to {weight:?}")
            }
            TopologyChange::RemoveEdge { from, to } => write!(f, "remove {from} → {to}"),
            TopologyChange::FailLink { a, b } => write!(f, "fail link {a} ↔ {b}"),
            TopologyChange::AddNode => write!(f, "add node"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn changes_apply_functionally() {
        let base = generators::ring(4).with_weights(|_, _| 1u32);
        let changed = TopologyChange::SetEdge {
            from: 0,
            to: 2,
            weight: 9,
        }
        .apply(&base);
        assert!(changed.has_edge(0, 2));
        assert!(!base.has_edge(0, 2), "the original topology is untouched");

        let failed = TopologyChange::FailLink { a: 0, b: 1 }.apply(&changed);
        assert!(!failed.has_edge(0, 1));
        assert!(!failed.has_edge(1, 0));

        let removed = TopologyChange::RemoveEdge { from: 1, to: 2 }.apply(&failed);
        assert!(!removed.has_edge(1, 2));
        assert!(
            removed.has_edge(2, 1),
            "only the requested direction is removed"
        );

        let grown = TopologyChange::<u32>::AddNode.apply(&removed);
        assert_eq!(grown.node_count(), 5);
    }

    #[test]
    fn apply_all_folds_in_order() {
        let base = generators::line(3).with_weights(|_, _| 1u32);
        let changes = vec![
            TopologyChange::SetEdge {
                from: 0,
                to: 2,
                weight: 5,
            },
            TopologyChange::RemoveEdge { from: 0, to: 2 },
        ];
        let out = TopologyChange::apply_all(&changes, &base);
        assert!(!out.has_edge(0, 2), "later changes win");
    }

    #[test]
    fn set_edge_overwrites_and_is_directional() {
        let base = generators::line(3).with_weights(|_, _| 1u32);
        let overwritten = TopologyChange::SetEdge {
            from: 0,
            to: 1,
            weight: 7,
        }
        .apply(&base);
        assert_eq!(
            overwritten.edge(0, 1),
            Some(&7),
            "existing edges are replaced"
        );
        assert_eq!(
            overwritten.edge(1, 0),
            Some(&1),
            "the reverse direction is untouched"
        );
        assert_eq!(overwritten.edge_count(), base.edge_count());
    }

    #[test]
    fn removals_of_absent_edges_are_no_ops() {
        let base = generators::line(3).with_weights(|_, _| 1u32);
        let removed = TopologyChange::RemoveEdge { from: 0, to: 2 }.apply(&base);
        assert_eq!(removed, base);
        let failed = TopologyChange::FailLink { a: 0, b: 2 }.apply(&base);
        assert_eq!(failed, base);
    }

    #[test]
    fn fail_link_removes_both_directions_only() {
        let base = generators::ring(4).with_weights(|_, _| 1u32);
        let failed = TopologyChange::FailLink { a: 1, b: 2 }.apply(&base);
        assert!(!failed.has_edge(1, 2) && !failed.has_edge(2, 1));
        assert_eq!(failed.edge_count(), base.edge_count() - 2);
        assert!(
            failed.has_edge(0, 1) && failed.has_edge(2, 3),
            "other links survive"
        );
    }

    #[test]
    fn add_node_grows_by_one_and_preserves_edges() {
        let base = generators::complete(3).with_weights(|i, j| (i * 10 + j) as u32);
        let grown = TopologyChange::<u32>::AddNode.apply(&base);
        assert_eq!(grown.node_count(), base.node_count() + 1);
        assert_eq!(grown.edge_count(), base.edge_count());
        for (i, j, w) in base.edges() {
            assert_eq!(grown.edge(i, j), Some(w), "edge {i}→{j} must be preserved");
        }
        // the fresh node is isolated
        let v = grown.node_count() - 1;
        assert!(grown.out_neighbors(v).is_empty());
        assert!(grown.in_neighbors(v).is_empty());
    }

    #[test]
    fn failure_then_restore_round_trips() {
        let base = generators::ring(5).with_weights(|_, _| 9u32);
        let round_tripped = TopologyChange::apply_all(
            &[
                TopologyChange::FailLink { a: 2, b: 3 },
                TopologyChange::SetEdge {
                    from: 2,
                    to: 3,
                    weight: 9,
                },
                TopologyChange::SetEdge {
                    from: 3,
                    to: 2,
                    weight: 9,
                },
            ],
            &base,
        );
        assert_eq!(round_tripped, base);
    }

    #[test]
    fn display_is_informative() {
        let c = TopologyChange::SetEdge {
            from: 1,
            to: 2,
            weight: 7u32,
        };
        assert!(c.to_string().contains("1 → 2"));
        assert!(TopologyChange::<u32>::FailLink { a: 0, b: 3 }
            .to_string()
            .contains("0 ↔ 3"));
        assert_eq!(TopologyChange::<u32>::AddNode.to_string(), "add node");
        assert!(TopologyChange::<u32>::RemoveEdge { from: 2, to: 0 }
            .to_string()
            .contains("remove"));
    }
}
