//! The churn-trace model, its line codec and the seeded generator.
//!
//! One line vocabulary serves three files: a trace's events, the WAL's
//! records and a snapshot's pending batch all go through
//! [`event_to_line`] / [`parse_event_line`].  A change's line is its key
//! list's line form and the algebra header line is [`ServeAlgebra`]'s, so
//! each verb and each name is spelled once (see `crate::fields`).

use super::types::ServeProblem;
use crate::fields::{Form, Keys, Kind, Named, Tag, Uint, Visit};
use crate::run::build_shape;
use crate::spec::{finite_weight, hop_limit, ChangeSpec, SpecError, TopologySpec};
use dbf_algebra::algebra::SplitMix64;
use dbf_topology::Topology;
use std::fmt::Write as _;

/// One event of a churn trace: a topology change or a route query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeEvent {
    /// A topology change, reusing the scenario change vocabulary.
    Change(ChangeSpec),
    /// A route query: "what is `from`'s route to `to`?"  Forces the
    /// pending batch to flush and reconverge first (unless the server is
    /// degraded, in which case it answers stale — see
    /// [`RouteServer::query`](super::RouteServer::query)).
    Query {
        /// Querying node.
        from: usize,
        /// Destination node.
        to: usize,
    },
}

/// The algebras the serve trace format supports.  Both are strictly
/// increasing, so the fixed point is unique and replay digests are
/// comparable across thread counts *and* batch sizes.
///
/// The difference is the carrier: the hop-count carrier is *finite*, so
/// Theorem 7 guarantees reconvergence from any state and batches always
/// reconverge incrementally from the cached table.  Plain shortest paths
/// has an infinite carrier (the paper's Section 5 count-to-infinity
/// example), so the server falls back to a from-scratch reconvergence on
/// batches that worsen routes — see
/// [`RouteServer::restart_on_removal`](super::RouteServer::restart_on_removal).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeAlgebra {
    /// Bounded hop count with the given limit (uniform weight 1 unless
    /// overridden by `set_weight` events).
    Hopcount {
        /// The hop limit.
        limit: u64,
    },
    /// Shortest paths with uniform weight 1 (unless overridden by
    /// `set_weight` events).
    Shortest,
}

impl ServeAlgebra {
    /// Stable tag used in trace files and checkpoint snapshots: the line
    /// form, `hopcount <limit>` or `shortest`.
    pub fn tag(&self) -> String {
        self.to_line()
    }

    /// The algebra called `name`, a hop count limited to `limit` hops: what
    /// `gen-trace --algebra` and `scale-run --algebra` name.
    pub fn named(name: &str, limit: u64) -> Result<Self, SpecError> {
        Ok(match Self::from_name(name)? {
            ServeAlgebra::Hopcount { .. } => ServeAlgebra::Hopcount { limit },
            shortest => shortest,
        })
    }

    /// A hop limit must pass [`hop_limit`], as a scenario's does.
    pub(super) fn validate(&self) -> Result<(), SpecError> {
        match *self {
            ServeAlgebra::Hopcount { limit } => hop_limit(limit),
            ServeAlgebra::Shortest => Ok(()),
        }
    }
}

impl Named for ServeAlgebra {
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        let hopcount = ServeAlgebra::Hopcount { limit: 0 };
        [("hopcount", hopcount), ("shortest", ServeAlgebra::Shortest)].into_iter()
    }
}

impl Keys for ServeAlgebra {
    fn blank() -> Self {
        ServeAlgebra::Shortest
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        f.req("kind", self, Tag)?;
        match self {
            ServeAlgebra::Hopcount { limit } => f.req("limit", limit, Uint),
            ServeAlgebra::Shortest => Ok(()),
        }
    }
}

/// A replayable churn trace: the initial topology, the routing algebra,
/// and the event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnTrace {
    /// The initial topology (generator families with a `n` only).
    pub topology: TopologySpec,
    /// The routing algebra.
    pub algebra: ServeAlgebra,
    /// The event stream, in arrival order.
    pub events: Vec<ServeEvent>,
}

/// The most nodes a served network may have.  A server keeps one dense
/// `n × n` table, and a second while a flush that grows, restarts or
/// recomputes half the rows runs, so memory grows as n² (2¹² nodes:
/// 128 MiB of 8-byte routes, twice that in such a flush) and a `complete`
/// shape holds n² edges besides.  A node count is outside input (a trace
/// header, `gen-trace --nodes`, a run of `add_node` events): past this it
/// is refused before anything of that size is built.
pub(super) const MAX_NODES: usize = 1 << 12;

/// Refuse a node count the server cannot hold (see [`MAX_NODES`]).
pub(super) fn check_node_count(n: usize) -> Result<(), SpecError> {
    if n > MAX_NODES {
        return Err(SpecError::new(format!(
            "{n} nodes is more than a route server holds (at most {MAX_NODES}: \
             its dense n × n table grows as n²)"
        )));
    }
    Ok(())
}

/// Can `change` join the batch of a network of `n` nodes (the batch's own
/// `add_node`s counted)?  The one rule for a pushed change and a restored
/// pending one.
pub(super) fn admit(change: &ChangeSpec, n: usize) -> Result<(), ServeProblem> {
    if !change.in_bounds(n) {
        return Err(ServeProblem::out_of_range(format!(
            "change {change:?} is out of range for a {n}-node topology"
        )));
    }
    match *change {
        ChangeSpec::SetWeight { weight, .. } => finite_weight(weight)
            .map(drop)
            .map_err(ServeProblem::out_of_range),
        ChangeSpec::AddNode if n >= MAX_NODES => Err(ServeProblem::out_of_range(format!(
            "add_node would grow the network past {MAX_NODES} nodes"
        ))),
        _ => Ok(()),
    }
}

/// Build the initial shape of a served network, refusing a node count the
/// server cannot hold *before* the shape is built.
pub(super) fn serve_shape(topology: &TopologySpec) -> Result<Topology<()>, SpecError> {
    if let Some(n) = topology.initial_nodes() {
        check_node_count(n)?;
    }
    build_shape(topology)
}

/// The v1 trace header: no `set_weight` events.
pub(super) const TRACE_HEADER: &str = "# dbf-churn-trace v1";
/// The v2 trace header: adds the `set_weight <from> <to> <w>` verb.
/// Emitted only when a trace actually contains weight events, so v1
/// traces keep round-tripping byte-identically.
pub(super) const TRACE_HEADER_V2: &str = "# dbf-churn-trace v2";

/// Render an event in the trace's line vocabulary: a change's line form
/// ([`Keys::to_line`]), or `query <from> <to>`.
pub(super) fn event_to_line(e: &ServeEvent) -> String {
    match e {
        ServeEvent::Change(c) => c.to_line(),
        ServeEvent::Query { from, to } => format!("query {from} {to}"),
    }
}

/// Parse one event line of the trace vocabulary.  The error is a bare
/// message; callers attach file/line context.
pub(super) fn parse_event_line(line: &str) -> Result<ServeEvent, String> {
    let mut words = line.split_whitespace();
    if words.next() != Some("query") {
        let change = ChangeSpec::from_line(line)?;
        if let ChangeSpec::SetWeight { weight, .. } = change {
            finite_weight(weight)?;
        }
        return Ok(ServeEvent::Change(change));
    }
    match (words.next(), words.next(), words.next()) {
        (Some(from), Some(to), None) => {
            let node = |word| Uint.parse(word).map_err(|e| e.message);
            Ok(ServeEvent::Query {
                from: node(from)?,
                to: node(to)?,
            })
        }
        _ => Err("query takes 2 operand(s)".to_string()),
    }
}

impl ChurnTrace {
    /// Render the trace in its line-oriented text format.
    ///
    /// ```text
    /// # dbf-churn-trace v1
    /// topology ring 32
    /// algebra hopcount 64
    /// set_link 3 9
    /// fail_link 0 1
    /// query 0 5
    /// add_node
    /// ```
    ///
    /// Traces containing `set_weight` events are emitted under the v2
    /// header; weightless traces stay on v1 so existing trace files
    /// round-trip byte-identically.
    pub fn to_text(&self) -> String {
        let has_weights = self
            .events
            .iter()
            .any(|e| matches!(e, ServeEvent::Change(ChangeSpec::SetWeight { .. })));
        let mut out = String::new();
        out.push_str(if has_weights {
            TRACE_HEADER_V2
        } else {
            TRACE_HEADER
        });
        out.push('\n');
        // Only a family of one node count has a `topology` line.
        let (family, n) = (self.topology.family(), self.topology.initial_nodes());
        let n = n.unwrap_or(0);
        assert!(
            TopologySpec::sized(family, n).is_ok_and(|t| t == self.topology),
            "unsupported serve topology {:?} (validated on construction)",
            self.topology
        );
        let _ = writeln!(out, "topology {family} {n}");
        let _ = writeln!(out, "algebra {}", self.algebra.tag());
        for ev in &self.events {
            out.push_str(&event_to_line(ev));
            out.push('\n');
        }
        out
    }

    /// Parse the text format produced by [`ChurnTrace::to_text`] (both
    /// the v1 and v2 headers are accepted).
    pub fn parse(text: &str) -> Result<ChurnTrace, SpecError> {
        let mut lines = text.lines().enumerate();
        let bad = |k: usize, msg: &str| SpecError::new(format!("trace line {}: {msg}", k + 1));
        match lines.next() {
            Some((_, l)) if l.trim() == TRACE_HEADER || l.trim() == TRACE_HEADER_V2 => {}
            _ => {
                return Err(SpecError::new(format!(
                    "not a churn trace (expected header {TRACE_HEADER:?} or {TRACE_HEADER_V2:?})"
                )))
            }
        }
        let mut topology = None;
        let mut algebra = None;
        let mut events = Vec::new();
        for (k, raw) in lines {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            let word = toks[0];
            match word {
                "topology" => {
                    if toks.len() != 3 {
                        return Err(bad(k, "topology takes 2 operand(s)"));
                    }
                    let n = Uint.parse(toks[2]).map_err(|e| bad(k, &e.message))?;
                    check_node_count(n).map_err(|e| bad(k, &e.message))?;
                    let sized = TopologySpec::sized(toks[1], n);
                    topology = Some(sized.map_err(|e| bad(k, &e.message))?);
                }
                "algebra" => {
                    let read = ServeAlgebra::from_line(&line[word.len()..]);
                    let named = read.map_err(|e| bad(k, &e))?;
                    named.validate().map_err(|e| bad(k, &e.message))?;
                    algebra = Some(named);
                }
                _ => events.push(parse_event_line(line).map_err(|e| bad(k, &e))?),
            }
        }
        Ok(ChurnTrace {
            topology: topology.ok_or_else(|| SpecError::new("trace has no topology line"))?,
            algebra: algebra.ok_or_else(|| SpecError::new("trace has no algebra line"))?,
            events,
        })
    }

    /// Number of change events in the trace.
    pub fn change_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, ServeEvent::Change(_)))
            .count()
    }

    /// Number of query events in the trace.
    pub fn query_count(&self) -> usize {
        self.events.len() - self.change_count()
    }
}

/// Parameters of the seeded churn-trace generator.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpec {
    /// Initial topology (`line`/`ring`/`star`/`complete` only).
    pub topology: TopologySpec,
    /// Routing algebra.
    pub algebra: ServeAlgebra,
    /// How many events to generate.
    pub events: usize,
    /// Root seed of the event stream.
    pub seed: u64,
    /// Out of 1000 events, how many are queries (the rest are changes).
    pub query_permille: u32,
    /// Out of 1000 non-query events, how many are `set_weight` policy
    /// changes (weights 1..=8).  At 0 the generator draws no weight
    /// randomness at all, so pre-existing traces regenerate
    /// byte-identically.
    pub weight_permille: u32,
}

/// Generate a deterministic churn trace: link flaps, directed edge churn,
/// optional per-edge weight policy churn, and interleaved route queries
/// over the initial topology.  Node count stays fixed (`add_node` is
/// accepted by the replayer but not generated, so a 10⁶-event trace does
/// not grow the network without bound).
pub fn generate_trace(spec: &TraceSpec) -> Result<ChurnTrace, SpecError> {
    spec.algebra.validate()?;
    let shape = serve_shape(&spec.topology)?;
    let n = shape.node_count();
    if n < 3 {
        return Err(SpecError::new("churn traces need at least 3 nodes"));
    }
    let mut rng = SplitMix64::new(spec.seed ^ 0x5e7e_5e7e_5e7e_5e7e);
    let mut events = Vec::with_capacity(spec.events);
    for _ in 0..spec.events {
        let pick_pair = |rng: &mut SplitMix64| {
            let a = rng.next_below(n as u64) as usize;
            let mut b = rng.next_below(n as u64) as usize;
            if a == b {
                b = (b + 1) % n;
            }
            (a, b)
        };
        if rng.next_below(1000) < spec.query_permille as u64 {
            let (from, to) = pick_pair(&mut rng);
            events.push(ServeEvent::Query { from, to });
        } else if spec.weight_permille > 0 && rng.next_below(1000) < spec.weight_permille as u64 {
            let (from, to) = pick_pair(&mut rng);
            let weight = 1 + rng.next_below(8);
            events.push(ServeEvent::Change(ChangeSpec::SetWeight {
                from,
                to,
                weight,
            }));
        } else {
            let (a, b) = pick_pair(&mut rng);
            let change = match rng.next_below(4) {
                0 => ChangeSpec::SetLink { a, b },
                1 => ChangeSpec::FailLink { a, b },
                2 => ChangeSpec::SetEdge { from: a, to: b },
                _ => ChangeSpec::RemoveEdge { from: a, to: b },
            };
            events.push(ServeEvent::Change(change));
        }
    }
    Ok(ChurnTrace {
        topology: spec.topology.clone(),
        algebra: spec.algebra,
        events,
    })
}
