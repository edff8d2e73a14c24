//! The declarative [`Scenario`] specification and its TOML codec.
//!
//! A scenario is *data*: a topology, an algebra, a sequence of phases
//! (each optionally applying `TopologyChange`-style edits and switching
//! the fault profile), the engines to execute it on, and the expected
//! differential verdict.  The same spec runs unchanged on the synchronous
//! σ-iteration, the schedule-driven asynchronous iterate δ, the
//! fault-injecting discrete-event simulator and the RIP/BGP protocol
//! engines — which is exactly the quantification of the paper's
//! convergence theorems ("the same fixed point under *every* schedule").
//!
//! Specs serialize to TOML via [`Scenario::to_toml_string`] and parse back
//! via [`Scenario::from_toml_str`]; the round trip is lossless.  Each type
//! declares its keys once, for both directions (see `crate::fields`).

use crate::fields::{
    self, Flag, Float, Form, Keys, List, Named, Pair, Seed, Sub, Tag, Text, Uint, Visit,
};
use dbf_algebra::prelude::NatInf;
use dbf_bgp::spp::SppAlgebra;
use std::fmt;

/// A fully described routing experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Machine-friendly name (used as the file stem and report key).
    pub name: String,
    /// Human description of what the scenario demonstrates.
    pub description: String,
    /// The network shape the first phase starts from.
    pub topology: TopologySpec,
    /// The routing algebra and its edge-weight/policy derivation.
    pub algebra: AlgebraSpec,
    /// Which engines to execute on.
    pub engines: Vec<EngineKind>,
    /// Seeds for the stochastic engines (δ schedules, the event simulator
    /// and the protocol engines run once per seed; σ once).
    pub seeds: Vec<u64>,
    /// The timed event script: each phase may edit the topology and
    /// switches the fault profile.
    pub phases: Vec<PhaseSpec>,
    /// The expected differential verdict.
    pub expect: Expectation,
}

/// Topology families understood by the scenario engine.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// A bidirectional line on `n` nodes.
    Line {
        /// Node count.
        n: usize,
    },
    /// A bidirectional ring on `n ≥ 3` nodes.
    Ring {
        /// Node count.
        n: usize,
    },
    /// A star with node 0 at the centre.
    Star {
        /// Node count.
        n: usize,
    },
    /// The complete graph on `n` nodes.
    Complete {
        /// Node count.
        n: usize,
    },
    /// A `rows × cols` grid.
    Grid {
        /// Row count.
        rows: usize,
        /// Column count.
        cols: usize,
    },
    /// A connected Gilbert random graph (spanning ring + `G(n, p)`).
    ConnectedRandom {
        /// Node count.
        n: usize,
        /// Extra-link probability.
        p: f64,
        /// Generator seed.
        seed: u64,
    },
    /// A preferential-attachment AS graph (Barabási–Albert style): a clique
    /// on the first `m + 1` nodes, then each later node attaches to `m`
    /// distinct degree-weighted existing nodes.
    AsGraph {
        /// Node count.
        n: usize,
        /// Links added per joining node.
        m: usize,
        /// Generator seed.
        seed: u64,
    },
    /// A two-level Clos (leaf–spine) fabric.
    LeafSpine {
        /// Spine count.
        spines: usize,
        /// Leaf count.
        leaves: usize,
    },
    /// A tiered provider/customer hierarchy (required by the Gao-Rexford
    /// algebra).
    Tiered {
        /// Nodes per tier, top tier first.
        tiers: Vec<usize>,
        /// Intra-tier peering probability.
        p_peer: f64,
        /// Extra-provider probability.
        p_extra: f64,
        /// Generator seed.
        seed: u64,
    },
    /// An explicit edge list (links are bidirectional).
    Explicit {
        /// Node count.
        nodes: usize,
        /// Bidirectional links.
        links: Vec<(usize, usize)>,
    },
    /// The topology is implied by the algebra (SPP gadgets carry their own
    /// shape).
    Gadget,
}

/// Algebra families understood by the scenario engine.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraSpec {
    /// Shortest paths (min-plus over ℕ∞); strictly increasing and
    /// distributive.
    Shortest {
        /// Edge-weight derivation.
        weights: WeightRule,
    },
    /// Widest paths (max-min over ℕ∞); increasing.
    Widest {
        /// Edge-capacity derivation.
        weights: WeightRule,
    },
    /// Bounded hop count (the RIP algebra); finite and strictly
    /// increasing, so Theorem 7 applies.
    Hopcount {
        /// The hop limit (classically 15/16).
        limit: u64,
    },
    /// The Section 7 safe-by-design BGP algebra with per-edge random
    /// policies; strictly increasing, so Theorem 11 applies.
    Bgp {
        /// Random policy nesting depth (0 = identity import policies).
        policy_depth: usize,
        /// Per-edge policy derivation seed.
        policy_seed: u64,
    },
    /// The Gao-Rexford customer/peer/provider algebra over a tiered
    /// hierarchy.
    GaoRexford,
    /// A Stable-Paths-Problem gadget (deliberately *not* increasing): the
    /// negative-control algebras.
    Spp {
        /// Which gadget.
        gadget: SppGadget,
    },
}

/// The SPP gadget catalogue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SppGadget {
    /// DISAGREE: two stable states (the BGP wedgie).
    Disagree,
    /// BAD GADGET: no stable state (permanent oscillation).
    Bad,
    /// GOOD GADGET: converges despite the unconstrained algebra.
    Good,
}

impl SppGadget {
    /// The gadget's algebra (which carries its own topology).
    pub fn algebra(self) -> SppAlgebra {
        match self {
            SppGadget::Disagree => SppAlgebra::disagree(),
            SppGadget::Bad => SppAlgebra::bad_gadget(),
            SppGadget::Good => SppAlgebra::good_gadget(),
        }
    }
}

/// Deterministic edge-weight derivation: `w(i, j) = (i·mul_i + j·mul_j)
/// mod modulus + base`.  With `modulus = 1` every edge weighs `base`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightRule {
    /// Coefficient of the source index.
    pub mul_i: u64,
    /// Coefficient of the target index.
    pub mul_j: u64,
    /// Modulus (≥ 1).
    pub modulus: u64,
    /// Offset added after the modulus: at least 1, which keeps every
    /// weight non-zero ([`Scenario::validate`] refuses a rule with 0).
    pub base: u64,
}

impl WeightRule {
    /// Every edge gets weight `w`.
    pub fn uniform(w: u64) -> Self {
        Self {
            mul_i: 0,
            mul_j: 0,
            modulus: 1,
            base: w,
        }
    }

    /// The varied default used by the repository's tests: coefficients 7
    /// and 13 modulo 9, offset 1.
    pub fn varied() -> Self {
        Self {
            mul_i: 7,
            mul_j: 13,
            modulus: 9,
            base: 1,
        }
    }

    /// Evaluate the rule for the directed edge `i → j`.
    ///
    /// The coefficients are arbitrary `u64`s and the rule only has to be
    /// deterministic, so the arithmetic wraps, in every build profile.  On
    /// a rule [`Scenario::validate`] accepts only the mix can: the largest
    /// weight `modulus − 1 + base` is then inside the finite range.
    pub fn weight(&self, i: usize, j: usize) -> u64 {
        let mix = (i as u64)
            .wrapping_mul(self.mul_i)
            .wrapping_add((j as u64).wrapping_mul(self.mul_j));
        (mix % self.modulus.max(1)).wrapping_add(self.base)
    }
}

/// The execution engines a scenario can request.
///
/// This enum is purely nominal: names, parsing, seed handling, size
/// capabilities and algebra support all live in the engine registry
/// ([`crate::engine::descriptors`]), and execution is dispatched by
/// [`crate::engine::run_engine`] — adding an engine means adding a variant
/// here, a descriptor there, and one step function; no other dispatch site
/// exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Synchronous σ-iteration to a fixed point (`dbf-matrix`).
    Sync,
    /// Incremental dirty-row σ (`dbf-matrix::incremental`): after a
    /// topology change only the perturbed rows recompute.
    Incremental,
    /// The asynchronous iterate δ under seeded random schedules
    /// (`dbf-async`).
    Delta,
    /// The fault-injecting discrete-event message simulator (`dbf-async`).
    Sim,
    /// The message-level RIP protocol engine (`dbf-protocols::rip`);
    /// requires the hopcount algebra.
    Rip,
    /// The message-level BGP protocol engine (`dbf-protocols::bgp`);
    /// requires the bgp algebra.
    Bgp,
}

impl EngineKind {
    /// The canonical lowercase name (from the engine registry).
    pub fn name(self) -> &'static str {
        crate::engine::descriptor(self).name
    }

    /// Every registered engine, in presentation order.
    pub fn all() -> impl Iterator<Item = EngineKind> {
        crate::engine::descriptors().iter().map(|d| d.kind)
    }

    /// Parse a canonical name (consulting the engine registry).
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        Self::from_name(s)
    }
}

impl fmt::Display for EngineKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One epoch of the experiment: topology edits applied at its start plus
/// the fault profile in force while it runs.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// Human label (shown in reports).
    pub label: String,
    /// Topology edits applied before the phase runs.
    pub changes: Vec<ChangeSpec>,
    /// The fault/schedule profile for the phase.
    pub faults: FaultSpec,
}

impl PhaseSpec {
    /// A quiet phase with no changes.
    pub fn quiet(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            changes: Vec::new(),
            faults: FaultSpec::default(),
        }
    }
}

/// A single topology edit (the spec-level mirror of
/// `dbf_topology::TopologyChange`, weight-free because weights/policies are
/// re-derived from the algebra spec).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChangeSpec {
    /// Add (or restore) both directions of the link `a ↔ b`.
    SetLink {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// Add (or restore) the directed edge `from → to`.
    SetEdge {
        /// Source.
        from: usize,
        /// Target.
        to: usize,
    },
    /// Remove the directed edge `from → to`.
    RemoveEdge {
        /// Source.
        from: usize,
        /// Target.
        to: usize,
    },
    /// Remove both directions of the link `a ↔ b` (a link failure).
    FailLink {
        /// One endpoint.
        a: usize,
        /// The other endpoint.
        b: usize,
    },
    /// Re-weight the directed edge `from → to` (adding it if absent):
    /// policy churn rather than structural churn.  Serve/trace-level only
    /// — scenario phases derive their weights from the spec's weight
    /// rule, so this op is rejected there.
    SetWeight {
        /// Source.
        from: usize,
        /// Target.
        to: usize,
        /// The new edge weight.
        weight: u64,
    },
    /// Add a fresh, initially isolated node.
    AddNode,
}

/// Which δ-schedule family a phase requests.
///
/// The paper's theorems quantify over *every* admissible schedule, so a
/// spec may ask for the worst case instead of a random sample: the
/// adversarial-staleness schedule starves one victim node (it activates
/// only every `period` steps and always reads the stalest data the lag
/// bound `max_delay` allows) while everyone else runs synchronously.
/// Only the δ engine consumes this; the event simulator's faults are
/// governed by the probabilistic knobs regardless.  The adversarial
/// schedule is a pure function of the phase parameters, so when every
/// phase of a spec uses it the δ engine runs once rather than once per
/// seed (identical seeds would only duplicate the run).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleSpec {
    /// Seeded random schedules (`Schedule::random`) — the default.
    Random,
    /// `Schedule::adversarial_stale`: the victim activates every `period`
    /// steps and always reads maximally stale data.
    AdversarialStale {
        /// The starved node (clamped modulo the node count at run time, so
        /// the same spec stays valid under `n`-axis sweeps).
        victim: usize,
        /// Activation period of the victim (≥ 1).
        period: u64,
    },
}

/// Fault-injection and schedule parameters for one phase.
///
/// `loss`/`duplicate`/`min_delay`/`max_delay` drive the event simulator;
/// `activation`/`reorder`/`duplicate`/`max_delay`/`horizon` drive the
/// random δ-schedules, and `schedule` can replace those with a worst-case
/// staleness schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Message-loss probability (simulator).
    pub loss: f64,
    /// Message-duplication probability (simulator and schedules).
    pub duplicate: f64,
    /// Reordering probability (schedules).
    pub reorder: f64,
    /// Per-step activation probability (schedules).
    pub activation: f64,
    /// Minimum link delay (simulator ticks).
    pub min_delay: u64,
    /// Maximum link delay (simulator ticks; also the schedule lag bound).
    pub max_delay: u64,
    /// δ-schedule horizon (steps).
    pub horizon: usize,
    /// The δ-schedule family for this phase.
    pub schedule: ScheduleSpec,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            loss: 0.0,
            duplicate: 0.0,
            reorder: 0.15,
            activation: 0.6,
            min_delay: 1,
            max_delay: 5,
            horizon: 400,
            schedule: ScheduleSpec::Random,
        }
    }
}

impl FaultSpec {
    /// A lossy, duplicating, heavily reordering profile.
    pub fn adversarial() -> Self {
        Self {
            loss: 0.25,
            duplicate: 0.25,
            reorder: 0.3,
            activation: 0.35,
            min_delay: 1,
            max_delay: 15,
            horizon: 600,
            schedule: ScheduleSpec::Random,
        }
    }

    /// A worst-case staleness profile: node `victim` activates only every
    /// `period` steps and always reads maximally stale data.
    pub fn adversarial_stale(victim: usize, period: u64) -> Self {
        Self {
            schedule: ScheduleSpec::AdversarialStale { victim, period },
            ..Self::default()
        }
    }
}

/// The verdict the differential checker is expected to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expectation {
    /// Every run ends each phase in a σ-stable state.
    pub converges: bool,
    /// All runs of the final phase agree on one fixed point.
    pub agreement: bool,
}

impl Default for Expectation {
    fn default() -> Self {
        Self {
            converges: true,
            agreement: true,
        }
    }
}

/// A spec-level validation or decoding error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// What went wrong.
    pub message: String,
}

impl SpecError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario spec error: {}", self.message)
    }
}

impl std::error::Error for SpecError {}

/// An edge weight arriving from outside the program (a spec, a trace or
/// WAL line, a snapshot, a change handed to the route server): `u64::MAX`
/// is how [`NatInf`] represents `∞`, so it is not a weight, and neither
/// is 0 — across a zero-weight edge hop count and shortest paths only
/// *increase*, not strictly, the fixed point stops being unique
/// (Theorem 7), and a stale route can circulate a zero-weight cycle
/// forever.  The error is a bare message; callers attach their own
/// file/line context.
pub(crate) fn finite_weight(w: u64) -> Result<u64, String> {
    match NatInf::try_fin(w) {
        Some(_) if w > 0 => Ok(w),
        _ => Err(format!(
            "weight {w} is out of range (weights are 1..={}: a zero weight is not \
             strictly increasing, so the fixed point would not be unique; \
             u64::MAX stands for ∞)",
            u64::MAX - 1
        )),
    }
}

/// A hop limit arriving from outside the program (a spec, a sweep axis, a
/// trace header): one `BoundedHopCount::new` takes (at least 1) and a
/// finite point of `ℕ∞` (`u64::MAX` stands for ∞).
pub(crate) fn hop_limit(limit: u64) -> Result<(), SpecError> {
    if limit > 0 && NatInf::try_fin(limit).is_some() {
        return Ok(());
    }
    Err(SpecError::new(format!(
        "hop-count limit {limit} is out of range (limits are 1..={}; u64::MAX stands for ∞)",
        u64::MAX - 1
    )))
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

/// The most lag cells — `horizon · n²`, four bytes each — one phase's
/// δ-schedule may hold: 2²⁷, half a gibibyte.  The schedule is built whole
/// before δ takes its first step and a failed allocation aborts the process
/// (no panic for the runner's firewall to catch), so a horizon arriving from
/// outside — a TOML file, a sweep axis — is bounded here, before anything
/// is built.  The cap admits the largest network the registry recommends δ
/// for (512 nodes) at the default horizon of 400: 1.05·10⁸ cells.
pub const MAX_SCHEDULE_CELLS: u64 = 1 << 27;

/// The most cells — `n²`, one route each — the dense state of a scenario
/// may hold: 2²⁸, so at most 16 384 nodes.  Every engine keeps at least one
/// `n × n` table, built before its first step, so a node count arriving
/// from outside (a TOML file, a sweep axis) is bounded here, as the
/// horizon is by [`MAX_SCHEDULE_CELLS`].  The cap admits the largest
/// builtin sweep point, `n = 10⁴`.
pub const MAX_STATE_CELLS: u64 = 1 << 28;

impl TopologySpec {
    /// The node count of the initial shape, when the family determines it
    /// (`Gadget` carries its own shape, so it answers `None`).  Saturates
    /// rather than wraps, so an oversized shape reads as one.
    pub fn initial_nodes(&self) -> Option<usize> {
        Some(match self {
            TopologySpec::Line { n }
            | TopologySpec::Ring { n }
            | TopologySpec::Star { n }
            | TopologySpec::Complete { n }
            | TopologySpec::ConnectedRandom { n, .. }
            | TopologySpec::AsGraph { n, .. } => *n,
            TopologySpec::Grid { rows, cols } => rows.saturating_mul(*cols),
            TopologySpec::LeafSpine { spines, leaves } => spines.saturating_add(*leaves),
            TopologySpec::Tiered { tiers, .. } => tiers.iter().fold(0, |a, t| a.saturating_add(*t)),
            TopologySpec::Explicit { nodes, .. } => *nodes,
            TopologySpec::Gadget => return None,
        })
    }

    /// The family's name, as a spec's `family` key and a trace's
    /// `topology` line spell it.
    pub fn family(&self) -> &'static str {
        self.name()
    }

    /// The family called `family` on `n` nodes, for the families whose one
    /// key is the node count (`line`, `ring`, `star`, `complete`): what a
    /// churn trace's `topology` line and `gen-trace --topology` name.
    pub fn sized(family: &str, n: usize) -> Result<Self, SpecError> {
        let mut sized = Self::from_name(family)?;
        match &mut sized {
            TopologySpec::Line { n: k }
            | TopologySpec::Ring { n: k }
            | TopologySpec::Star { n: k }
            | TopologySpec::Complete { n: k } => *k = n,
            _ => {
                return Err(SpecError::new(format!(
                    "a {family} takes more than a node count"
                )))
            }
        }
        Ok(sized)
    }

    /// The one rule for which shapes a family can build: its minimum size,
    /// explicit links between two distinct existing nodes, and a provider
    /// tier above every non-empty tier of a hierarchy.
    /// [`Scenario::validate`], [`crate::run::build_shape`] and
    /// [`crate::sweep::resize_topology`] all ask it.
    pub(crate) fn check_shape(&self) -> Result<(), SpecError> {
        let least = |n: usize, min: usize| {
            if n >= min {
                return Ok(());
            }
            Err(SpecError::new(format!(
                "a {} needs at least {min} nodes, got {n}",
                self.family()
            )))
        };
        match self {
            TopologySpec::Ring { n } => least(*n, 3),
            TopologySpec::Star { n } => least(*n, 2),
            TopologySpec::ConnectedRandom { n, .. } => least(*n, 3),
            TopologySpec::AsGraph { m: 0, .. } => Err(SpecError::new("an as_graph needs m >= 1")),
            TopologySpec::AsGraph { n, .. } => least(*n, 2),
            TopologySpec::Explicit { nodes, links } => links
                .iter()
                .find(|&&(a, b)| a >= *nodes || b >= *nodes || a == b)
                .map_or(Ok(()), |(a, b)| {
                    Err(SpecError::new(format!(
                        "explicit link ({a}, {b}) is a self-loop or leaves the {nodes} nodes"
                    )))
                }),
            TopologySpec::Tiered { tiers, .. }
                if tiers.is_empty() || tiers.windows(2).any(|w| w[0] == 0 && w[1] > 0) =>
            {
                Err(SpecError::new(format!(
                    "tiers {tiers:?}: a hierarchy needs at least one tier, and every node \
                     below the top needs a provider in the tier above"
                )))
            }
            TopologySpec::Line { .. }
            | TopologySpec::Complete { .. }
            | TopologySpec::Grid { .. }
            | TopologySpec::LeafSpine { .. }
            | TopologySpec::Tiered { .. }
            | TopologySpec::Gadget => Ok(()),
        }
    }
}

impl ChangeSpec {
    /// Is the change addressable on an `n`-node topology?  Self-loops and
    /// out-of-range nodes are rejected; removals of absent edges are *not*
    /// (they are defined no-ops, see `dbf_topology::TopologyChange`).
    pub fn in_bounds(&self, n: usize) -> bool {
        match *self {
            ChangeSpec::SetLink { a, b } => a < n && b < n && a != b,
            ChangeSpec::SetEdge { from, to } => from < n && to < n && from != to,
            ChangeSpec::RemoveEdge { from, to } => from < n && to < n,
            ChangeSpec::FailLink { a, b } => a < n && b < n,
            ChangeSpec::SetWeight { from, to, .. } => from < n && to < n && from != to,
            ChangeSpec::AddNode => true,
        }
    }

    /// How many nodes the change adds to the network.
    pub fn added_nodes(&self) -> usize {
        usize::from(matches!(self, ChangeSpec::AddNode))
    }
}

impl Scenario {
    /// The node count each phase runs on: the initial topology's (0 for a
    /// gadget, which carries its own shape and takes no changes) plus every
    /// `add_node` up to and including the phase's own.  Never shrinks, so
    /// the last entry is the largest network the scenario reaches.
    pub fn phase_node_counts(&self) -> Vec<usize> {
        let mut n = self.topology.initial_nodes().unwrap_or(0);
        self.phases
            .iter()
            .map(|phase| {
                n = n.saturating_add(phase.changes.iter().map(ChangeSpec::added_nodes).sum());
                n
            })
            .collect()
    }

    /// Decide whether the spec can run: the one place every rule a spec
    /// must meet is written (the engines and the shape builder assume them).
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::new("scenario name must not be empty"));
        }
        if self.phases.is_empty() {
            return Err(SpecError::new("a scenario needs at least one phase"));
        }
        if self.engines.is_empty() {
            return Err(SpecError::new("a scenario needs at least one engine"));
        }
        if self.seeds.is_empty() {
            return Err(SpecError::new("a scenario needs at least one seed"));
        }
        self.topology.check_shape()?;
        // A gadget carries its own shape.
        let gadget_nodes = match self.algebra {
            AlgebraSpec::Spp { gadget } => gadget.algebra().node_count(),
            _ => 0,
        };
        let counts = self.phase_node_counts();
        let largest = counts.last().map_or(0, |&n| n.max(gadget_nodes)) as u64;
        if largest
            .checked_mul(largest)
            .is_none_or(|cells| cells > MAX_STATE_CELLS)
        {
            return Err(SpecError::new(format!(
                "{largest} nodes is more than a scenario holds (its dense n × n state has at \
                 most {MAX_STATE_CELLS} cells)"
            )));
        }
        // Capability gating lives in the registry: engines tied to one
        // algebra (the protocol adapters) reject everything else here, at
        // validation time, before any engine runs.
        for &engine in &self.engines {
            (crate::engine::descriptor(engine).supports)(self)?;
        }
        match (&self.algebra, &self.topology) {
            (AlgebraSpec::GaoRexford, TopologySpec::Tiered { .. }) => {}
            (AlgebraSpec::GaoRexford, other) => {
                return Err(SpecError::new(format!(
                    "the gao_rexford algebra needs a tiered topology, got {other:?}"
                )));
            }
            (AlgebraSpec::Spp { .. }, TopologySpec::Gadget) => {}
            (AlgebraSpec::Spp { .. }, other) => {
                return Err(SpecError::new(format!(
                    "spp algebras carry their own gadget topology; use family = \"gadget\", got {other:?}"
                )));
            }
            (_, TopologySpec::Gadget) => {
                return Err(SpecError::new(
                    "family = \"gadget\" is only valid with an spp algebra",
                ));
            }
            (_, TopologySpec::Tiered { .. }) => {
                return Err(SpecError::new(
                    "family = \"tiered\" is only valid with the gao_rexford algebra",
                ));
            }
            _ => {}
        }
        if let AlgebraSpec::Shortest { weights } | AlgebraSpec::Widest { weights } = &self.algebra {
            // `x mod m + base` runs from `base` to `m − 1 + base`: if both
            // ends are weights, every weight the rule derives is one.
            finite_weight(weights.base)
                .and_then(|base| {
                    base.checked_add(weights.modulus.max(1) - 1)
                        .ok_or_else(|| "weight rule overflows u64".to_string())
                })
                .and_then(finite_weight)
                .map_err(SpecError::new)?;
        }
        if let AlgebraSpec::Hopcount { limit } = self.algebra {
            hop_limit(limit)?;
        }
        let changes_allowed = !matches!(self.algebra, AlgebraSpec::Spp { .. });
        let runs_delta = self.engines.contains(&EngineKind::Delta);
        // Simulate the node count through the phases so out-of-range
        // changes are rejected at spec-validation time, before any engine
        // runs.  `AddNode` grows the count, so later changes may reference
        // nodes earlier changes introduced.
        let mut nodes = self.topology.initial_nodes();
        for phase in &self.phases {
            if !changes_allowed && !phase.changes.is_empty() {
                return Err(SpecError::new(
                    "topology changes are not supported on gadget scenarios",
                ));
            }
            for c in &phase.changes {
                if let ChangeSpec::SetWeight { .. } = c {
                    // Phases derive every weight from the weight rule; a
                    // per-edge re-weight is trace-level policy churn, which
                    // only the route server's override map gives meaning.
                    return Err(SpecError::new(format!(
                        "change {c:?} in phase {:?} is serve/trace-level policy churn; scenario \
                         phases derive weights from the weight rule",
                        phase.label
                    )));
                }
                if matches!(self.algebra, AlgebraSpec::GaoRexford)
                    && !matches!(
                        c,
                        ChangeSpec::RemoveEdge { .. } | ChangeSpec::FailLink { .. }
                    )
                {
                    return Err(SpecError::new(
                        "gao_rexford scenarios only support edge/link removals (relationships of \
                         fresh links would be ambiguous)",
                    ));
                }
                if let Some(n) = nodes.as_mut() {
                    if !c.in_bounds(*n) {
                        return Err(SpecError::new(format!(
                            "change {c:?} in phase {:?} is out of range for a {n}-node topology",
                            phase.label
                        )));
                    }
                    *n += c.added_nodes();
                }
            }
            if let ScheduleSpec::AdversarialStale { period: 0, .. } = phase.faults.schedule {
                return Err(SpecError::new(
                    "adversarial_stale schedules need period >= 1",
                ));
            }
            if runs_delta {
                let (horizon, n) = (phase.faults.horizon, nodes.unwrap_or(gadget_nodes));
                let cells = (n as u64)
                    .checked_mul(n as u64)
                    .and_then(|c| c.checked_mul(horizon as u64));
                if u32::try_from(horizon).is_err() || cells.is_none_or(|c| c > MAX_SCHEDULE_CELLS) {
                    return Err(SpecError::new(format!(
                        "phase {:?}: horizon {horizon} over {n} nodes is more than a delta \
                         schedule holds (horizon · n² lag cells, at most {MAX_SCHEDULE_CELLS}, \
                         and a horizon below 2³²)",
                        phase.label
                    )));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// TOML and line forms: one key list per type (see `crate::fields`)
// ---------------------------------------------------------------------

impl Scenario {
    /// Serialize to TOML text.
    pub fn to_toml_string(&self) -> String {
        fields::write_toml(self)
    }

    /// Parse and validate a TOML document (see the README for the format).
    pub fn from_toml_str(input: &str) -> Result<Self, SpecError> {
        let scenario: Self = fields::read_toml(input)?;
        scenario.validate()?;
        Ok(scenario)
    }
}

impl Keys for Scenario {
    fn blank() -> Self {
        Scenario {
            name: String::new(),
            description: String::new(),
            topology: TopologySpec::Gadget,
            algebra: AlgebraSpec::GaoRexford,
            engines: vec![EngineKind::Sync, EngineKind::Sim],
            seeds: vec![1],
            phases: vec![PhaseSpec::quiet("run")],
            expect: Expectation::default(),
        }
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        f.req("name", &mut self.name, Text)?;
        f.opt("description", &mut self.description, Text)?;
        f.req("topology", &mut self.topology, Sub)?;
        f.req("algebra", &mut self.algebra, Sub)?;
        f.opt("engines", &mut self.engines, List(Tag))?;
        f.opt("seeds", &mut self.seeds, List(Seed))?;
        f.opt("phases", &mut self.phases, List(Sub))?;
        f.opt("expect", &mut self.expect, Sub)
    }
}

impl Named for EngineKind {
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        crate::engine::descriptors()
            .iter()
            .map(|d| (d.name, d.kind))
    }
}

impl Named for TopologySpec {
    #[rustfmt::skip]
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        use TopologySpec::*;
        [
            ("line", Line { n: 0 }),
            ("ring", Ring { n: 0 }),
            ("star", Star { n: 0 }),
            ("complete", Complete { n: 0 }),
            ("grid", Grid { rows: 0, cols: 0 }),
            ("connected_random", ConnectedRandom { n: 0, p: 0.0, seed: 0 }),
            ("as_graph", AsGraph { n: 0, m: 0, seed: 0 }),
            ("leaf_spine", LeafSpine { spines: 0, leaves: 0 }),
            ("tiered", Tiered { tiers: Vec::new(), p_peer: 0.35, p_extra: 0.25, seed: 0 }),
            ("explicit", Explicit { nodes: 0, links: Vec::new() }),
            ("gadget", Gadget),
        ]
        .into_iter()
    }
}

impl Keys for TopologySpec {
    fn blank() -> Self {
        TopologySpec::Gadget
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        use TopologySpec::*;
        f.req("family", self, Tag)?;
        match self {
            Line { n } | Ring { n } | Star { n } | Complete { n } => f.req("n", n, Uint),
            Grid { rows, cols } => {
                f.req("rows", rows, Uint)?;
                f.req("cols", cols, Uint)
            }
            ConnectedRandom { n, p, seed } => {
                f.req("n", n, Uint)?;
                f.req("p", p, Float)?;
                f.req("seed", seed, Seed)
            }
            AsGraph { n, m, seed } => {
                f.req("n", n, Uint)?;
                f.req("m", m, Uint)?;
                f.opt("seed", seed, Seed)
            }
            LeafSpine { spines, leaves } => {
                f.req("spines", spines, Uint)?;
                f.req("leaves", leaves, Uint)
            }
            Tiered {
                tiers,
                p_peer,
                p_extra,
                seed,
            } => {
                f.req("tiers", tiers, List(Uint))?;
                f.opt("p_peer", p_peer, Float)?;
                f.opt("p_extra", p_extra, Float)?;
                f.opt("seed", seed, Seed)
            }
            Explicit { nodes, links } => {
                f.req("nodes", nodes, Uint)?;
                f.req("links", links, List(Pair))
            }
            Gadget => Ok(()),
        }
    }
}

impl Keys for WeightRule {
    fn blank() -> Self {
        WeightRule::uniform(1)
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        f.opt("mul_i", &mut self.mul_i, Uint)?;
        f.opt("mul_j", &mut self.mul_j, Uint)?;
        f.opt("modulus", &mut self.modulus, Uint)?;
        f.opt("base", &mut self.base, Uint)
    }
}

impl Named for AlgebraSpec {
    #[rustfmt::skip]
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        use AlgebraSpec::*;
        let weights = WeightRule::uniform(1);
        [
            ("shortest", Shortest { weights }),
            ("widest", Widest { weights }),
            ("hopcount", Hopcount { limit: 16 }),
            ("bgp", Bgp { policy_depth: 2, policy_seed: 0 }),
            ("gao_rexford", GaoRexford),
            ("spp", Spp { gadget: SppGadget::Disagree }),
        ]
        .into_iter()
    }
}

impl Keys for AlgebraSpec {
    fn blank() -> Self {
        AlgebraSpec::GaoRexford
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        use AlgebraSpec::*;
        f.req("kind", self, Tag)?;
        match self {
            Shortest { weights } | Widest { weights } => f.opt("weights", weights, Sub),
            Hopcount { limit } => f.opt("limit", limit, Uint),
            Bgp {
                policy_depth,
                policy_seed,
            } => {
                f.opt("policy_depth", policy_depth, Uint)?;
                f.opt("policy_seed", policy_seed, Seed)
            }
            GaoRexford => Ok(()),
            Spp { gadget } => f.req("gadget", gadget, Tag),
        }
    }
}

impl Named for SppGadget {
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        use SppGadget::*;
        [("disagree", Disagree), ("bad", Bad), ("good", Good)].into_iter()
    }
}

impl Named for ChangeSpec {
    #[rustfmt::skip]
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        use ChangeSpec::*;
        [
            ("set_link", SetLink { a: 0, b: 0 }),
            ("set_edge", SetEdge { from: 0, to: 0 }),
            ("remove_edge", RemoveEdge { from: 0, to: 0 }),
            ("fail_link", FailLink { a: 0, b: 0 }),
            ("set_weight", SetWeight { from: 0, to: 0, weight: 0 }),
            ("add_node", AddNode),
        ]
        .into_iter()
    }
}

/// A change is also a line — `set_link 3 9`, the tag and then each key's
/// value in this order — in churn traces, the WAL and a snapshot's pending
/// batch.
impl Keys for ChangeSpec {
    fn blank() -> Self {
        ChangeSpec::AddNode
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        use ChangeSpec::*;
        f.req("op", self, Tag)?;
        match self {
            SetLink { a, b } | FailLink { a, b } => {
                f.req("a", a, Uint)?;
                f.req("b", b, Uint)
            }
            SetEdge { from, to } | RemoveEdge { from, to } => {
                f.req("from", from, Uint)?;
                f.req("to", to, Uint)
            }
            SetWeight { from, to, weight } => {
                f.req("from", from, Uint)?;
                f.req("to", to, Uint)?;
                f.req("weight", weight, Uint)
            }
            AddNode => Ok(()),
        }
    }
}

impl Keys for PhaseSpec {
    fn blank() -> Self {
        PhaseSpec::quiet("")
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        f.req("label", &mut self.label, Text)?;
        f.opt("changes", &mut self.changes, List(Sub))?;
        f.opt("faults", &mut self.faults, Sub)
    }
}

impl Named for ScheduleSpec {
    #[rustfmt::skip]
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        // No clamping of `period`: a `period = 0` typo must surface as the
        // validate() error, not be silently rewritten.
        [
            ("random", ScheduleSpec::Random),
            ("adversarial_stale", ScheduleSpec::AdversarialStale { victim: 0, period: 3 }),
        ]
        .into_iter()
    }
}

impl Keys for FaultSpec {
    fn blank() -> Self {
        FaultSpec::default()
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        // A written file leaves the default schedule out.
        f.opt_unless("schedule", &mut self.schedule, ScheduleSpec::Random, Tag)?;
        if let ScheduleSpec::AdversarialStale { victim, period } = &mut self.schedule {
            f.opt("victim", victim, Uint)?;
            f.opt("period", period, Uint)?;
        }
        f.opt("loss", &mut self.loss, Float)?;
        f.opt("duplicate", &mut self.duplicate, Float)?;
        f.opt("reorder", &mut self.reorder, Float)?;
        f.opt("activation", &mut self.activation, Float)?;
        f.opt("min_delay", &mut self.min_delay, Uint)?;
        f.opt("max_delay", &mut self.max_delay, Uint)?;
        f.opt("horizon", &mut self.horizon, Uint)
    }
}

impl Keys for Expectation {
    fn blank() -> Self {
        Expectation::default()
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        f.opt("converges", &mut self.converges, Flag)?;
        f.opt("agreement", &mut self.agreement, Flag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> Scenario {
        Scenario {
            name: "demo".into(),
            description: "a round-trip fixture".into(),
            topology: TopologySpec::Ring { n: 6 },
            algebra: AlgebraSpec::Hopcount { limit: 16 },
            engines: vec![EngineKind::Sync, EngineKind::Delta, EngineKind::Sim],
            seeds: vec![1, 2],
            phases: vec![
                PhaseSpec::quiet("baseline"),
                PhaseSpec {
                    label: "failure".into(),
                    changes: vec![ChangeSpec::FailLink { a: 0, b: 5 }],
                    faults: FaultSpec::adversarial(),
                },
            ],
            expect: Expectation::default(),
        }
    }

    #[test]
    fn toml_round_trip_is_lossless() {
        let scenario = demo();
        let text = scenario.to_toml_string();
        let reparsed = Scenario::from_toml_str(&text)
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n---\n{text}"));
        assert_eq!(scenario, reparsed, "serialized form:\n{text}");
    }

    #[test]
    fn validation_catches_mismatches() {
        let mut s = demo();
        s.topology = TopologySpec::Gadget;
        assert!(
            s.validate().is_err(),
            "gadget topology needs an spp algebra"
        );

        let mut s = demo();
        s.algebra = AlgebraSpec::GaoRexford;
        assert!(s.validate().is_err(), "gao-rexford needs a tiered topology");

        let mut s = demo();
        s.phases.clear();
        assert!(s.validate().is_err(), "at least one phase required");

        assert!(demo().validate().is_ok());
    }

    #[test]
    fn out_of_range_changes_are_rejected_at_validation_time() {
        let mut s = demo();
        s.phases[1].changes = vec![ChangeSpec::FailLink { a: 0, b: 99 }];
        let err = s.validate().expect_err("node 99 does not exist");
        assert!(err.message.contains("out of range"), "{err}");

        let mut s = demo();
        s.phases[1].changes = vec![ChangeSpec::SetEdge { from: 2, to: 2 }];
        assert!(s.validate().is_err(), "self-loops are rejected");

        // AddNode grows the simulated count, so a change may reference the
        // node a previous change introduced — even across phases.
        let mut s = demo();
        s.phases[0].changes = vec![ChangeSpec::AddNode];
        s.phases[1].changes = vec![ChangeSpec::SetLink { a: 0, b: 6 }];
        assert!(s.validate().is_ok(), "{:?}", s.validate());
        s.phases[1].changes = vec![ChangeSpec::SetLink { a: 0, b: 7 }];
        assert!(s.validate().is_err(), "node 7 was never added");
        assert_eq!(s.phase_node_counts(), [7, 7]);
        s.phases[1].changes = vec![ChangeSpec::AddNode, ChangeSpec::AddNode];
        assert_eq!(s.phase_node_counts(), [7, 9]);
        assert_eq!(demo().phase_node_counts(), [6, 6]);
    }

    #[test]
    fn the_infinity_sentinel_is_not_a_weight() {
        // `weight = -1` is how u64::MAX arrives through TOML's i64: the
        // reader refuses it before anything can wrap it back to ∞.
        let reweigh = |weight| {
            let mut s = demo();
            s.phases[1].changes = vec![ChangeSpec::SetWeight {
                from: 0,
                to: 1,
                weight,
            }];
            Scenario::from_toml_str(&s.to_toml_string())
        };
        let err = reweigh(u64::MAX).expect_err("u64::MAX stands for ∞");
        assert!(
            err.message
                .contains("phases[1].changes[0].weight: expected a non-negative integer, got -1"),
            "{err}"
        );
        // A weight TOML can hold decodes, and validate refuses the change
        // itself: a phase takes its weights from the weight rule.
        for weight in [0, 1, i64::MAX as u64] {
            let err = reweigh(weight).expect_err("set_weight is trace-level churn");
            assert!(err.message.contains("policy churn"), "{err}");
        }

        // ... and a weight rule that could derive it is rejected whole.
        let ruled = |modulus, base| {
            let mut s = demo();
            s.algebra = AlgebraSpec::Shortest {
                weights: WeightRule {
                    mul_i: 7,
                    mul_j: 13,
                    modulus,
                    base,
                },
            };
            s.validate()
        };
        let err = ruled(1, u64::MAX).expect_err("uniform ∞");
        assert!(err.message.contains("out of range"), "{err}");
        let err = ruled(9, u64::MAX - 8).expect_err("tops out at u64::MAX");
        assert!(err.message.contains("out of range"), "{err}");
        let err = ruled(9, u64::MAX - 3).expect_err("wraps");
        assert!(err.message.contains("overflows"), "{err}");
        assert!(ruled(9, u64::MAX - 9).is_ok());
        // ... or 0: `x mod m + 0` is 0 whenever m divides x.
        let err = ruled(9, 0).expect_err("bottoms out at 0");
        assert!(err.message.contains("strictly increasing"), "{err}");
        assert!(ruled(1, 0).is_err(), "uniform 0");
    }

    #[test]
    fn redundant_changes_are_valid_no_ops_not_errors() {
        // Removing an absent edge and re-adding an existing link must be
        // accepted by validation (they are defined no-ops downstream).
        let mut s = demo();
        s.phases[1].changes = vec![
            ChangeSpec::RemoveEdge { from: 0, to: 3 }, // absent in a ring
            ChangeSpec::RemoveEdge { from: 0, to: 3 }, // twice
            ChangeSpec::SetLink { a: 0, b: 1 },        // already present
            ChangeSpec::FailLink { a: 2, b: 5 },       // absent link
        ];
        assert!(s.validate().is_ok(), "{:?}", s.validate());
    }

    #[test]
    fn adversarial_stale_schedules_round_trip_and_validate() {
        let mut s = demo();
        s.phases[1].faults = FaultSpec::adversarial_stale(2, 3);
        assert!(s.validate().is_ok());
        let text = s.to_toml_string();
        assert!(text.contains("adversarial_stale"), "{text}");
        let back = Scenario::from_toml_str(&text).unwrap();
        assert_eq!(s, back);
        assert_eq!(
            back.phases[1].faults.schedule,
            ScheduleSpec::AdversarialStale {
                victim: 2,
                period: 3
            }
        );

        s.phases[1].faults.schedule = ScheduleSpec::AdversarialStale {
            victim: 0,
            period: 0,
        };
        assert!(s.validate().is_err(), "period 0 would never activate");
        // ... and the same typo in a TOML file is rejected rather than
        // silently clamped.
        assert!(
            Scenario::from_toml_str(&s.to_toml_string()).is_err(),
            "period = 0 in TOML must surface the validation error"
        );
    }

    #[test]
    fn a_horizon_delta_cannot_hold_is_refused_before_anything_is_built() {
        // demo(): a 6-node ring, 36 lag cells per step.
        let mut s = demo();
        s.phases[1].faults.horizon = (MAX_SCHEDULE_CELLS / 36) as usize;
        assert!(s.validate().is_ok(), "{:?}", s.validate());
        for horizon in [s.phases[1].faults.horizon + 1, 4_000_000_000, 5_000_000_000] {
            s.phases[1].faults.horizon = horizon;
            let err = s.validate().expect_err("the schedule would not fit");
            assert!(err.message.contains("phase \"failure\""), "{err}");
            assert!(err.message.contains(&horizon.to_string()), "{err}");
            // The same number in a file is the same error, not an abort.
            assert_eq!(Scenario::from_toml_str(&s.to_toml_string()), Err(err));
        }
        // Only δ materialises a schedule.
        s.engines = vec![EngineKind::Sync, EngineKind::Sim];
        assert!(s.validate().is_ok());

        // A gadget carries its own shape (DISAGREE: 3 nodes); `add_node`
        // counts.
        let mut g = crate::builtins::bgp_wedgie();
        assert_eq!(g.engines, [EngineKind::Delta]);
        g.phases[0].faults.horizon = (MAX_SCHEDULE_CELLS / 9) as usize;
        assert!(g.validate().is_ok());
        g.phases[0].faults.horizon += 1;
        assert!(g.validate().is_err());
        let mut s = demo();
        s.phases[1].changes = vec![ChangeSpec::AddNode];
        s.phases[1].faults.horizon = (MAX_SCHEDULE_CELLS / 49) as usize + 1;
        assert!(s.validate().is_err());
        s.phases[0].faults.horizon = s.phases[1].faults.horizon;
        s.phases[1].faults.horizon = 400;
        assert!(s.validate().is_ok(), "phase 0 still has 6 nodes");
    }

    #[test]
    fn unknown_schedule_kinds_are_rejected() {
        let mut s = demo();
        s.phases.truncate(1);
        let text = s
            .to_toml_string()
            .replace("[phases.faults]", "[phases.faults]\nschedule = \"warp\"");
        assert!(Scenario::from_toml_str(&text).is_err(), "{text}");
    }

    #[test]
    fn initial_nodes_follows_the_family() {
        assert_eq!(TopologySpec::Ring { n: 6 }.initial_nodes(), Some(6));
        assert_eq!(
            TopologySpec::Grid { rows: 3, cols: 4 }.initial_nodes(),
            Some(12)
        );
        assert_eq!(
            TopologySpec::LeafSpine {
                spines: 2,
                leaves: 5
            }
            .initial_nodes(),
            Some(7)
        );
        assert_eq!(
            TopologySpec::Tiered {
                tiers: vec![1, 2, 3],
                p_peer: 0.2,
                p_extra: 0.2,
                seed: 0
            }
            .initial_nodes(),
            Some(6)
        );
        assert_eq!(TopologySpec::Gadget.initial_nodes(), None);
    }

    #[test]
    fn weight_rules_evaluate() {
        assert_eq!(WeightRule::uniform(3).weight(5, 9), 3);
        // Coefficients whose products and sum leave u64 wrap, in debug
        // builds as in release ones, and the weight stays inside the
        // rule's range.
        let huge = WeightRule {
            mul_i: u64::MAX,
            mul_j: u64::MAX - 6,
            modulus: 9,
            base: 1,
        };
        assert_eq!(
            huge.weight(3, 5),
            3u64.wrapping_mul(u64::MAX)
                .wrapping_add(5u64.wrapping_mul(u64::MAX - 6))
                % 9
                + 1
        );
        assert!((0..40).all(|k| (1..=9).contains(&huge.weight(k, 40 - k))));
        let varied = WeightRule::varied();
        assert_eq!(varied.weight(1, 2), (7 + 26) % 9 + 1);
    }

    #[test]
    fn engine_names_round_trip() {
        let mut seen = 0;
        for e in EngineKind::all() {
            assert_eq!(EngineKind::parse(e.name()).unwrap(), e);
            seen += 1;
        }
        assert_eq!(seen, 6, "the registry holds six engines");
        for unknown in ["warp", "threaded"] {
            assert!(EngineKind::parse(unknown).is_err(), "{unknown}");
        }
    }

    #[test]
    fn protocol_engines_are_gated_to_their_algebras() {
        let mut s = demo(); // hopcount
        s.engines = vec![EngineKind::Sync, EngineKind::Rip, EngineKind::Incremental];
        assert!(s.validate().is_ok(), "{:?}", s.validate());

        s.engines = vec![EngineKind::Bgp];
        let err = s.validate().expect_err("bgp engine on a hopcount algebra");
        assert!(err.message.contains("bgp"), "{err}");

        s.algebra = AlgebraSpec::Bgp {
            policy_depth: 1,
            policy_seed: 7,
        };
        assert!(s.validate().is_ok(), "{:?}", s.validate());
        s.engines = vec![EngineKind::Rip];
        assert!(s.validate().is_err(), "rip engine on a bgp algebra");

        // A hop limit that does not fit the u32 wire metric is rejected for
        // the rip engine (huge finite metrics would be ambiguous on the
        // wire) but fine for the in-memory engines.
        s.algebra = AlgebraSpec::Hopcount {
            limit: u32::MAX as u64,
        };
        let err = s.validate().expect_err("hop limit beyond the wire metric");
        assert!(err.message.contains("does not fit"), "{err}");
        s.engines = vec![EngineKind::Sync, EngineKind::Incremental];
        assert!(s.validate().is_ok(), "{:?}", s.validate());
    }
}
