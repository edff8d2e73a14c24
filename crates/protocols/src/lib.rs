//! # dbf-protocols — message-level protocol engines
//!
//! The algebraic model of the paper abstracts over protocol machinery; this
//! crate supplies that machinery so the theory can be exercised against
//! something that looks and behaves like the protocols operators actually
//! run:
//!
//! * [`rip`] — a RIP-like distance-vector engine: periodic full-table
//!   updates, triggered updates, split horizon with poisoned reverse, route
//!   timeouts and the classic hop-count limit of 15/16.  Its algebra is the
//!   finite, strictly increasing bounded-hop-count algebra, so Theorem 7
//!   guarantees (and the tests observe) absolute convergence;
//! * [`bgp`] — a BGP-like path-vector engine: per-neighbour sessions with
//!   reliable in-order delivery, incremental announcements and withdrawals,
//!   adj-RIB-in bookkeeping and import policies written in the Section 7
//!   policy language.  Because the policy language is safe by design, any
//!   configuration converges;
//! * [`wire`] — a compact binary wire format for the update messages of
//!   both engines, pinned byte-for-byte by golden vectors.
//!
//! Every engine here returns a [`dbf_matrix::MessageRun`]: the final tables
//! and a [`dbf_matrix::MessageStats`], with no verdict.  Whether the tables
//! are σ's fixed point is for the caller to judge, so no engine solves σ.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bgp;
pub mod rip;
pub mod wire;

pub use bgp::{BgpConfig, BgpEngine};
pub use rip::{RipConfig, RipEngine, SplitHorizon};

/// Commonly used items, suitable for a glob import.
pub mod prelude {
    pub use crate::bgp::{BgpConfig, BgpEngine};
    pub use crate::rip::{RipConfig, RipEngine, SplitHorizon};
}
