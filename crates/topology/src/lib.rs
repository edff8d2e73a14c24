//! # dbf-topology — network topologies and generators
//!
//! Routing problems in the paper are posed over an `n`-node directed graph
//! whose edges are weighted with policy functions from the routing algebra's
//! edge set `F`.  This crate provides:
//!
//! * [`graph::Topology`] — a directed, weighted graph with dense node
//!   indices `0..n`, supporting the edge additions and removals and the
//!   node additions of the paper's dynamic-network model (Section 3.2);
//! * [`generators`] — reference topology shapes (line, ring, star, complete,
//!   grid, leaf–spine data-center fabrics, Gilbert and preferential-
//!   attachment random graphs and tiered provider/customer hierarchies)
//!   used by the tests, examples and experiments;
//! * [`change::TopologyChange`] — a small vocabulary of weighted topology
//!   events (link failures, policy changes, node churn).  No library crate
//!   applies it: the benchmark harness and tests do.  The library's change
//!   vocabulary is `dbf-scenario`'s `ChangeSpec`, which scenarios, churn
//!   traces and the route server apply.
//!
//! Weights are deliberately generic: generators build *shapes*
//! (`Topology<()>`) and callers attach algebra-specific edge functions with
//! [`graph::Topology::with_weights`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod change;
pub mod generators;
pub mod graph;

pub use change::TopologyChange;
pub use graph::{NodeId, Topology};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::change::TopologyChange;
    pub use crate::generators;
    pub use crate::graph::{NodeId, Topology};
}
