//! The churn-trace model, its line codec and the seeded generator.
//!
//! One line vocabulary serves three files: a trace's events, the WAL's
//! records and a snapshot's pending batch all go through
//! [`event_to_line`] / [`parse_event_line`].

use crate::run::build_shape;
use crate::spec::{finite_weight, hop_limit, ChangeSpec, SpecError, TopologySpec};
use dbf_algebra::algebra::SplitMix64;
use dbf_topology::Topology;

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
    /// Stable tag used in trace files and checkpoint snapshots.
    pub fn tag(&self) -> String {
        match self {
            ServeAlgebra::Hopcount { limit } => format!("hopcount {limit}"),
            ServeAlgebra::Shortest => "shortest".to_string(),
        }
    }

    /// A hop limit must pass [`hop_limit`], as a scenario's does.
    pub(super) fn validate(&self) -> Result<(), SpecError> {
        match *self {
            ServeAlgebra::Hopcount { limit } => hop_limit(limit),
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

/// The most nodes a served network may have.  A server keeps the dense
/// `n × n` table twice — the committed one and the working copy of the
/// flush in progress — so memory grows as n² (2¹² nodes: 2 × 128 MiB of
/// 8-byte routes) and a `complete` shape holds n² edges besides.  A node
/// count is outside input (a trace header, `gen-trace --nodes`, a run of
/// `add_node` events): past this it is refused before anything of that
/// size is built.
pub(super) const MAX_NODES: usize = 1 << 12;

/// Refuse a node count the server cannot hold (see [`MAX_NODES`]).
fn check_node_count(n: usize) -> Result<(), SpecError> {
    if n > MAX_NODES {
        return Err(SpecError::new(format!(
            "{n} nodes is more than a route server holds (at most {MAX_NODES}: \
             it keeps the dense n × n table twice)"
        )));
    }
    Ok(())
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

/// Render a change in the trace's line vocabulary (shared by the trace
/// format, the WAL, and checkpoint pending-batch persistence).
pub(super) fn change_to_line(c: &ChangeSpec) -> String {
    match c {
        ChangeSpec::SetLink { a, b } => format!("set_link {a} {b}"),
        ChangeSpec::SetEdge { from, to } => format!("set_edge {from} {to}"),
        ChangeSpec::RemoveEdge { from, to } => format!("remove_edge {from} {to}"),
        ChangeSpec::FailLink { a, b } => format!("fail_link {a} {b}"),
        ChangeSpec::AddNode => "add_node".to_string(),
        ChangeSpec::SetWeight { from, to, weight } => format!("set_weight {from} {to} {weight}"),
    }
}

/// Render an event in the trace's line vocabulary.
pub(super) fn event_to_line(e: &ServeEvent) -> String {
    match e {
        ServeEvent::Change(c) => change_to_line(c),
        ServeEvent::Query { from, to } => format!("query {from} {to}"),
    }
}

/// Parse one event line of the trace vocabulary.  The error is a bare
/// message; callers attach file/line context.
pub(super) fn parse_event_line(line: &str) -> Result<ServeEvent, String> {
    let toks: Vec<&str> = line.split_whitespace().collect();
    if toks.is_empty() {
        return Err("empty event line".to_string());
    }
    let word = toks[0];
    let arity = |want: usize| -> Result<(), String> {
        if toks.len() == want + 1 {
            Ok(())
        } else {
            Err(format!("{word} takes {want} operand(s)"))
        }
    };
    let num = |pos: usize| -> Result<usize, String> {
        toks[pos]
            .parse::<usize>()
            .map_err(|e| format!("bad operand {:?}: {e}", toks[pos]))
    };
    match word {
        "set_link" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::SetLink {
                a: num(1)?,
                b: num(2)?,
            }))
        }
        "set_edge" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::SetEdge {
                from: num(1)?,
                to: num(2)?,
            }))
        }
        "remove_edge" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::RemoveEdge {
                from: num(1)?,
                to: num(2)?,
            }))
        }
        "fail_link" => {
            arity(2)?;
            Ok(ServeEvent::Change(ChangeSpec::FailLink {
                a: num(1)?,
                b: num(2)?,
            }))
        }
        "add_node" => {
            arity(0)?;
            Ok(ServeEvent::Change(ChangeSpec::AddNode))
        }
        "set_weight" => {
            arity(3)?;
            Ok(ServeEvent::Change(ChangeSpec::SetWeight {
                from: num(1)?,
                to: num(2)?,
                weight: finite_weight(num(3)? as u64)?,
            }))
        }
        "query" => {
            arity(2)?;
            Ok(ServeEvent::Query {
                from: num(1)?,
                to: num(2)?,
            })
        }
        other => Err(format!("unknown event {other:?}")),
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
        let topo = match &self.topology {
            TopologySpec::Line { n } => format!("line {n}"),
            TopologySpec::Ring { n } => format!("ring {n}"),
            TopologySpec::Star { n } => format!("star {n}"),
            TopologySpec::Complete { n } => format!("complete {n}"),
            other => panic!("unsupported serve topology {other:?} (validated on construction)"),
        };
        out.push_str(&format!("topology {topo}\n"));
        out.push_str(&format!("algebra {}\n", self.algebra.tag()));
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
            let num = |pos: usize| -> Result<usize, SpecError> {
                toks[pos]
                    .parse::<usize>()
                    .map_err(|e| bad(k, &format!("bad operand {:?}: {e}", toks[pos])))
            };
            match word {
                "topology" => {
                    if toks.len() != 3 {
                        return Err(bad(k, "topology takes 2 operand(s)"));
                    }
                    let n = num(2)?;
                    check_node_count(n).map_err(|e| bad(k, &e.message))?;
                    topology = Some(match toks[1] {
                        "line" => TopologySpec::Line { n },
                        "ring" => TopologySpec::Ring { n },
                        "star" => TopologySpec::Star { n },
                        "complete" => TopologySpec::Complete { n },
                        other => return Err(bad(k, &format!("unknown topology {other:?}"))),
                    });
                }
                "algebra" => {
                    algebra = Some(match &toks[1..] {
                        ["hopcount", _] => {
                            let algebra = ServeAlgebra::Hopcount {
                                limit: num(2)? as u64,
                            };
                            algebra.validate().map_err(|e| bad(k, &e.message))?;
                            algebra
                        }
                        ["shortest"] => ServeAlgebra::Shortest,
                        _ => return Err(bad(k, "expected `hopcount <limit>` or `shortest`")),
                    });
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
