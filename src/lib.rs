//! # dbf-routing — policy-rich Distributed Bellman-Ford routing
//!
//! A Rust library reproducing *"Asynchronous Convergence of Policy-Rich
//! Distributed Bellman-Ford Routing Protocols"* (Daggitt, Gurney & Griffin,
//! SIGCOMM 2018): routing algebras, the synchronous matrix model, the
//! asynchronous computation model with message loss/reordering/duplication,
//! the ultrametric convergence machinery, a safe-by-design BGP-like policy
//! language, and message-level protocol engines.
//!
//! This facade crate re-exports the workspace members under stable module
//! names and provides a [`prelude`] for convenient glob imports.
//!
//! | module | contents | paper section |
//! |---|---|---|
//! | [`algebra`] | routing algebras, Table 1 property checkers, Table 2 instances | §2.1 |
//! | [`paths`] | simple paths, path algebras (P1–P3), the path-vector lifting | §5.1 |
//! | [`topology`] | network topologies and generators | — |
//! | [`matrix`] | adjacency matrices, routing states, `σ`, synchronous iteration | §2.2–2.3 |
//! | [`metric`] | ultrametrics, heights, contraction checkers | §3.3, §4.1, §5.2 |
//! | [`asynch`] | schedules (S1–S3), the asynchronous iterate `δ`, the event simulator | §3 |
//! | [`bgp`] | the safe-by-design policy-rich algebra, Gao-Rexford, SPP gadgets | §7 |
//! | [`protocols`] | RIP-like and BGP-like engines, threaded runtime, wire formats | — |
//! | [`telemetry`] | zero-cost-when-off instrumentation: sinks, metrics, JSONL traces | — |
//!
//! ## Quick start
//!
//! ```
//! use dbf_routing::prelude::*;
//!
//! // A ring of five routers running shortest paths.
//! let alg = ShortestPaths::new();
//! let topo = dbf_routing::topology::generators::ring(5).with_weights(|_, _| NatInf::fin(1));
//! let adj = AdjacencyMatrix::from_topology(&topo);
//!
//! // Synchronous convergence from the clean state…
//! let sync = iterate_to_fixed_point(&alg, &adj, &RoutingState::identity(&alg, 5), 100);
//! assert!(sync.converged);
//!
//! // …and the asynchronous iterate reaches the same answer under an
//! // adversarial schedule with delays, duplication and reordering.
//! let sched = Schedule::random(5, 300, ScheduleParams::harsh(), 42);
//! let async_run = run_delta(&alg, &adj, &RoutingState::identity(&alg, 5), &sched);
//! assert!(is_stable(&alg, &adj, &async_run.final_state));
//! assert_eq!(async_run.final_state, sync.state);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dbf_algebra as algebra;
pub use dbf_async as asynch;
pub use dbf_bgp as bgp;
pub use dbf_matrix as matrix;
pub use dbf_metric as metric;
pub use dbf_paths as paths;
pub use dbf_protocols as protocols;
pub use dbf_telemetry as telemetry;
pub use dbf_topology as topology;

/// A kitchen-sink prelude re-exporting the most commonly used items from
/// every workspace crate.
pub mod prelude {
    pub use dbf_algebra::prelude::*;
    pub use dbf_async::prelude::*;
    pub use dbf_bgp::prelude::*;
    pub use dbf_matrix::prelude::*;
    pub use dbf_metric::prelude::*;
    pub use dbf_paths::prelude::*;
    pub use dbf_protocols::prelude::*;
    // `dbf_topology::prelude::NodeId` is the same `usize` alias as
    // `dbf_paths::NodeId`; re-export the rest explicitly to avoid an
    // ambiguous glob.
    pub use dbf_topology::prelude::{generators, Topology, TopologyChange};
}
