//! # dbf-async — the asynchronous computation model
//!
//! This crate implements Section 3 of *"Asynchronous Convergence of
//! Policy-Rich Distributed Bellman-Ford Routing Protocols"* (Daggitt,
//! Gurney & Griffin, SIGCOMM 2018):
//!
//! * [`schedule`] — schedules `(α, β)` (Definition 5): the activation
//!   function `α(t)` saying which nodes recompute their tables at time `t`
//!   and the data-flow function `β(t, i, j)` saying how stale the data node
//!   `i` uses from node `j` is.  Constructors produce synchronous,
//!   round-robin, randomly delayed/reordered/duplicated and adversarial
//!   schedules; [`Schedule::certify`] decides the finite-horizon
//!   strengthenings of the axioms **S1–S3** against the `(w, ℓ)` the
//!   convergence bounds use, with an explicit witness on violation;
//! * [`delta`] — the asynchronous iterate `δ` defined from a schedule, with
//!   convergence detection (Definitions 6–8);
//! * [`convergence`] — absolute-convergence testing across ensembles of
//!   starting states and schedules: every run must reach the *same*
//!   σ-stable state;
//! * [`sim`] — a message-level discrete-event simulator with loss,
//!   duplication, reordering and bounded delay.  Every execution of the
//!   simulator corresponds to *some* schedule `(α, β)`, so the convergence
//!   theorems apply to it directly; it is the bridge between the algebraic
//!   model and the protocol engines in `dbf-protocols`, and like them it
//!   returns a [`dbf_matrix::MessageRun`] — tables and counters, judged by
//!   the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod delta;
pub mod schedule;
pub mod sim;

pub use convergence::{check_absolute_convergence, AbsoluteConvergence, ConvergenceFailure};
pub use delta::{run_delta, run_delta_traced, DeltaOutcome, DeltaRun};
pub use schedule::{AxiomViolation, Schedule, ScheduleParams};
pub use sim::{EventSim, SimConfig};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::convergence::{
        check_absolute_convergence, AbsoluteConvergence, ConvergenceFailure,
    };
    pub use crate::delta::{run_delta, run_delta_traced, DeltaOutcome, DeltaRun};
    pub use crate::schedule::{AxiomViolation, Schedule, ScheduleParams};
    pub use crate::sim::{EventSim, SimConfig};
}
