//! # dbf-matrix — the matrix model of synchronous Distributed Bellman-Ford
//!
//! This crate implements Sections 2.2 and 2.3 of *"Asynchronous Convergence
//! of Policy-Rich Distributed Bellman-Ford Routing Protocols"* (Daggitt,
//! Gurney & Griffin, SIGCOMM 2018):
//!
//! * [`adjacency::AdjacencyMatrix`] — the `n × n` matrix `A` of edge
//!   functions describing the network's links and import policies
//!   (`A[i][j]` is the policy node `i` applies to routes announced by its
//!   neighbour `j`; a missing entry is the constant-∞̄ function);
//! * [`state::RoutingState`] — the global routing state `X ∈ 𝕄ₙ(S)`, where
//!   row `i` is node `i`'s routing table and `X[i][j]` is node `i`'s current
//!   best route to destination `j`, together with the identity matrix `I`;
//! * [`rib::RibIn`] — one node's adj-RIB-in: the imported candidate
//!   `A_ik(advert)` per link and destination, and the selection fold over
//!   them — what the message-level engines of `dbf-async` and
//!   `dbf-protocols` keep instead of re-importing every neighbour's advert
//!   on every delivery — [`rib::EventQueue`], the earliest-first event
//!   queue those engines run their simulated time on, and
//!   [`rib::MessageRun`], the one outcome all of them return;
//! * [`sigma`](mod@crate::sigma) — one synchronous round
//!   `σ(X) = A(X) ⊕ I` (Equation 5), whole and row by row;
//! * [`kernel`] — the one fixed-point loop: a resumable Jacobi stepper
//!   ([`FixedPoint`]) parameterised by *initial frontier* (all rows | a
//!   dirty mask), *executor* (inline | a worker pool), *column window*
//!   (whole row | a slab) and telemetry *sink*, whose
//!   [`FixedPoint::solve`] owns the one budget rule every engine below
//!   shares;
//! * [`sync`] — stability testing (Definition 4), the iteration budget and
//!   [`iterate_with`], the one σ iteration every whole-state entry point
//!   forwards to, reporting one [`SyncOutcome`] (iteration counts are the
//!   quantity studied in Section 8.1);
//! * [`incremental`] — dirty-row iteration: the kernel started from the
//!   rows a topology change perturbs, making reconvergence proportional to
//!   the perturbed region rather than to the whole network;
//! * [`blocked`] — destination-blocked σ: the kernel over column windows,
//!   for fixed points whose square state does not fit in memory;
//! * [`frontier`] — the epoch-stamped work queue the kernel drains: O(1)
//!   dedup-insert, O(|frontier|) drain, and clearing by generation bump
//!   instead of an O(n) scan per round;
//! * [`parallel`] — the pooled executor: a round's work list cut into
//!   degree-balanced bands computed by a worker pool, **bit-identical** to
//!   the inline sweep at any thread count;
//! * [`pool`] — the persistent worker pool behind those sweeps: parked
//!   workers and epoch-stamped band work lists replace per-round thread
//!   spawning, and job panics surface as recoverable errors instead of
//!   taking the process down.  Its [`WorkerPool::map`] is the workspace's
//!   one order-preserving parallel map (sweep replicates and fuzz cases
//!   fan out through it);
//! * [`oracle`] — an exhaustive all-simple-paths optimum used to cross-check
//!   fixed points: for distributive algebras the fixed point must equal the
//!   global path optimum (the classical theory), while policy-rich algebras
//!   are only locally optimal — both facts are exercised by the tests and
//!   the Table 2 experiment.
//!
//! The adjacency is stored row-compressed (`O(n + |E|)`), and one σ round
//! costs `O(n · |E|)` — sparse, not `O(n³)` — which is what lets the sweep
//! engine in `dbf-scenario` iterate 10⁴-node fabrics to their fixed point.
//!
//! Iterating a routing problem to its fixed point:
//!
//! ```
//! use dbf_algebra::prelude::*;
//! use dbf_matrix::prelude::*;
//! use dbf_topology::generators;
//!
//! // Shortest paths on a 6-node ring with unit edge weights.
//! let alg = ShortestPaths::new();
//! let topo = generators::ring(6).with_weights(|_, _| NatInf::fin(1));
//! let adj = AdjacencyMatrix::from_topology(&topo);
//!
//! let start = RoutingState::identity(&alg, 6);
//! let out = iterate_to_fixed_point(&alg, &adj, &start, 100);
//! assert!(out.converged);
//! assert!(is_stable(&alg, &adj, &out.state));
//! // Ring distance: the long way round is never chosen.
//! assert_eq!(out.state.get(0, 3), &NatInf::fin(3));
//! assert_eq!(out.state.get(0, 5), &NatInf::fin(1));
//! ```

// `deny` rather than `forbid`: two audited sites sit behind a local
// `allow` — the pool's lifetime-erasure transmute (see
// `pool::PoolScope::execute`) and the call into the σ row kernel built for
// a CPU feature level the process detected (`sigma::row_window_at`);
// everything else in the crate remains unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod adjacency;
pub mod blocked;
pub mod frontier;
pub mod incremental;
pub mod kernel;
mod lines;
pub mod oracle;
pub mod parallel;
pub mod pool;
pub mod rib;
pub mod sigma;
pub mod state;
pub mod sync;
mod table;

pub use adjacency::AdjacencyMatrix;
pub use blocked::{blocked_fixed_point, BlockedOutcome};
pub use frontier::Frontier;
pub use incremental::{
    dirty_rows_after_change, iterate_dirty_to_fixed_point, iterate_dirty_traced, IncrementalOutcome,
};
pub use kernel::{Executor, FixedPoint, Inline, Start};
pub use parallel::{par_iterate_to_fixed_point, Pooled};
pub use pool::{default_jobs, PoolScope, PoolStats, WorkerPool};
pub use rib::{EventQueue, MessageRun, MessageStats, RibIn};
pub use sigma::{
    row_kernel, sigma, sigma_row_from_changed, sigma_row_into, sigma_row_into_changed,
};
pub use state::RoutingState;
pub use sync::{
    is_stable, iterate_to_fixed_point, iterate_traced, iterate_with, iteration_budget, SyncOutcome,
};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::adjacency::{lift_topology, AdjacencyMatrix};
    pub use crate::blocked::{blocked_fixed_point, BlockedOutcome};
    pub use crate::frontier::Frontier;
    pub use crate::incremental::{
        dirty_rows_after_change, iterate_dirty_to_fixed_point, iterate_dirty_traced,
        IncrementalOutcome,
    };
    pub use crate::kernel::{Executor, FixedPoint, Inline, Start};
    pub use crate::oracle::exhaustive_path_optimum;
    pub use crate::parallel::{par_iterate_to_fixed_point, Pooled};
    pub use crate::pool::{PoolScope, PoolStats, WorkerPool};
    pub use crate::rib::{EventQueue, MessageRun, MessageStats, RibIn};
    pub use crate::sigma::{sigma, sigma_k, sigma_row_into, sigma_row_into_changed};
    pub use crate::state::RoutingState;
    pub use crate::sync::{
        is_stable, iterate_to_fixed_point, iterate_traced, iterate_with, iteration_budget,
        SyncOutcome,
    };
}
