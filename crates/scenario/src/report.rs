//! Machine-readable scenario reports and a tiny JSON emitter.
//!
//! Reports are deliberately engine- and algebra-agnostic: routing states
//! are summarised by a stable digest (FNV-1a over the `Debug` rendering of
//! every entry), so the differential checker can compare runs of *any*
//! algebra without the report types being generic.

use dbf_matrix::blocked::Fnv1a;
use dbf_telemetry::escape_into;
use std::fmt;

/// A minimal JSON value (the build environment has no serde; this covers
/// everything the reports need).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// A boolean.
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// A float.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Build a string value.
    pub fn str(s: impl Into<String>) -> Self {
        Json::Str(s.into())
    }

    /// Build an integer value from an unsigned counter.  [`Json::Int`]
    /// holds an `i64`; a counter past `i64::MAX` (a hop limit near
    /// `u64::MAX`, a saturated bound) clamps there instead of wrapping to
    /// a negative number.
    pub fn uint(v: u64) -> Self {
        Json::Int(i64::try_from(v).unwrap_or(i64::MAX))
    }
}

fn write_json(v: &Json, indent: usize, out: &mut String) {
    let pad = "  ".repeat(indent);
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::Int(i) => out.push_str(&i.to_string()),
        Json::Num(x) => {
            if x.is_finite() {
                out.push_str(&format!("{x}"));
            } else {
                out.push_str("null");
            }
        }
        Json::Str(s) => {
            out.push('"');
            escape_into(out, s);
            out.push('"');
        }
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push_str("[\n");
            for (i, item) in items.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  ");
                write_json(item, indent + 1, out);
                if i + 1 < items.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push(']');
        }
        Json::Obj(fields) => {
            if fields.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push_str("{\n");
            for (i, (k, val)) in fields.iter().enumerate() {
                out.push_str(&pad);
                out.push_str("  \"");
                escape_into(out, k);
                out.push_str("\": ");
                write_json(val, indent + 1, out);
                if i + 1 < fields.len() {
                    out.push(',');
                }
                out.push('\n');
            }
            out.push_str(&pad);
            out.push('}');
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        write_json(self, 0, &mut out);
        f.write_str(&out)
    }
}

/// A stable 64-bit digest builder: [`Fnv1a`] with the report's hex
/// rendering.
#[derive(Debug, Clone, Default)]
pub struct Digest {
    hash: Fnv1a,
}

impl Digest {
    /// Fold a string into the digest.
    pub fn update(&mut self, s: &str) {
        self.hash.update(s.as_bytes());
    }

    /// The digest as a fixed-width hex string.
    pub fn finish(&self) -> String {
        format!("{:016x}", self.hash.value())
    }

    /// The raw 64-bit digest value (used for deterministic seed
    /// derivation in the sweep engine).
    pub fn value(&self) -> u64 {
        self.hash.value()
    }

    /// Resume a digest from a previously saved [`Digest::value`], so a
    /// running digest (the route server's answers digest) can survive a
    /// checkpoint/recover cycle mid-stream.
    pub fn from_state(state: u64) -> Digest {
        Digest {
            hash: Fnv1a::from_state(state),
        }
    }
}

/// The outcome of one phase on one engine run.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseOutcome {
    /// The phase label.
    pub label: String,
    /// Whether the phase's final state is a fixed point of σ on the
    /// phase's topology.
    pub sigma_stable: bool,
    /// Rounds of logical time the phase took: σ iterations for the
    /// synchronous engines, worklist rounds for the incremental engine,
    /// the quiescence time for δ, and the simulated time of the last table
    /// change for the event-driven engines.
    pub rounds: u64,
    /// The convergence-bound oracle's prediction for this phase: the
    /// maximum number of rounds the theory allows this engine (`n·h` for
    /// the synchronous engines per arXiv 2106.01184, the
    /// activation/staleness-parameterized bound of arXiv 2507.07263 for
    /// δ).  `None` when no theorem applies — engines whose round counter
    /// is not deterministic logical rounds, or algebras outside the
    /// theorems' hypotheses (the SPP gadgets).
    pub predicted_bound: Option<u64>,
    /// Engine-specific work metric: σ iterations (row recomputations for
    /// the incremental engine), δ activations, or a message engine's
    /// deliveries.
    pub work: u64,
    /// Messages sent; `None` for engines with no message concept (σ/δ),
    /// serialized as JSON `null` so absence is distinguishable from zero.
    pub messages: Option<u64>,
    /// Bytes put on the wire; `Some` only for engines that encode their
    /// messages through `dbf-protocols::wire`, `None` (JSON `null`)
    /// otherwise — in-memory message counts have no meaningful byte size.
    pub bytes: Option<u64>,
    /// Wall-clock time of the phase in milliseconds.
    pub wall_ms: f64,
    /// Digest of the phase's final routing state.
    pub digest: String,
}

impl PhaseOutcome {
    /// Does the measured round count respect the predicted bound?
    /// Vacuously true when no bound applies.
    pub fn within_bound(&self) -> bool {
        self.predicted_bound.is_none_or(|b| self.rounds <= b)
    }

    /// The tightness ratio `rounds / predicted_bound` — how much of the
    /// theoretical budget the run actually used.  `None` when no bound
    /// applies (a zero bound cannot occur: n ≥ 1 and h ≥ 2).
    pub fn tightness(&self) -> Option<f64> {
        self.predicted_bound
            .filter(|&b| b > 0)
            .map(|b| self.rounds as f64 / b as f64)
    }
}

/// One engine execution of a scenario (σ runs once; δ, the simulator and
/// the protocol engines once per seed).
#[derive(Debug, Clone, PartialEq)]
pub struct EngineRun {
    /// Engine label, e.g. `sync`, `delta[3]`, `sim[7]`, `bgp[1]`.
    pub engine: String,
    /// Per-phase outcomes, in phase order.
    pub phases: Vec<PhaseOutcome>,
    /// A panic message, when the engine blew up instead of completing.
    /// The run then carries one placeholder outcome per phase (never
    /// σ-stable), so the differential verdict counts it as a convergence
    /// failure rather than aborting the whole process with it.
    pub error: Option<String>,
}

/// One engine run's phases summed: what sweeps aggregate and the bound
/// audit prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunTotals {
    /// Logical rounds.
    pub rounds: u64,
    /// Engine work.
    pub work: u64,
    /// Messages sent (phases without a message concept count 0).
    pub messages: u64,
    /// Wall-clock milliseconds.
    pub wall_ms: f64,
    /// The worst (largest) [`PhaseOutcome::tightness`], `None` when no
    /// phase carried a bound.
    pub tightness: Option<f64>,
}

impl EngineRun {
    /// Sum this run's phases.
    pub fn totals(&self) -> RunTotals {
        let phases = &self.phases;
        RunTotals {
            rounds: phases.iter().map(|p| p.rounds).sum(),
            work: phases.iter().map(|p| p.work).sum(),
            messages: phases.iter().map(|p| p.messages.unwrap_or(0)).sum(),
            wall_ms: phases.iter().map(|p| p.wall_ms).sum(),
            tightness: phases
                .iter()
                .filter_map(PhaseOutcome::tightness)
                .reduce(f64::max),
        }
    }
}

/// The differential verdict across all runs of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Agreement {
    /// Per phase: did every run reach σ-stability *and* the same state?
    pub per_phase: Vec<bool>,
    /// Did every run of the final phase stabilise?
    pub converges: bool,
    /// Did every run of the final phase land on the same fixed point?
    pub agreement: bool,
    /// Did every phase of every run respect its predicted convergence
    /// bound (`rounds ≤ predicted_bound`)?  Vacuously true for runs and
    /// phases without a bound.
    pub bounds_ok: bool,
}

/// The full report of one scenario execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// The scenario name.
    pub scenario: String,
    /// The scenario description.
    pub description: String,
    /// Phase labels, in order.
    pub phase_labels: Vec<String>,
    /// All engine runs.
    pub runs: Vec<EngineRun>,
    /// The differential verdict.
    pub verdict: Agreement,
    /// What the spec expected.
    pub expected_converges: bool,
    /// What the spec expected.
    pub expected_agreement: bool,
}

impl ScenarioReport {
    /// Did the observed verdict match the spec's expectation?
    pub fn expectation_met(&self) -> bool {
        self.verdict.converges == self.expected_converges
            && self.verdict.agreement == self.expected_agreement
            && self.verdict.bounds_ok
    }

    /// Render as a JSON value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("scenario".into(), Json::str(&self.scenario)),
            ("description".into(), Json::str(&self.description)),
            (
                "phases".into(),
                Json::Arr(self.phase_labels.iter().map(Json::str).collect()),
            ),
            (
                "runs".into(),
                Json::Arr(
                    self.runs
                        .iter()
                        .map(|run| {
                            Json::Obj(vec![
                                ("engine".into(), Json::str(&run.engine)),
                                (
                                    "error".into(),
                                    run.error.as_deref().map_or(Json::Null, Json::str),
                                ),
                                (
                                    "phases".into(),
                                    Json::Arr(
                                        run.phases
                                            .iter()
                                            .map(|p| {
                                                Json::Obj(vec![
                                                    ("label".into(), Json::str(&p.label)),
                                                    (
                                                        "sigma_stable".into(),
                                                        Json::Bool(p.sigma_stable),
                                                    ),
                                                    ("rounds".into(), Json::uint(p.rounds)),
                                                    (
                                                        "predicted_bound".into(),
                                                        p.predicted_bound
                                                            .map_or(Json::Null, Json::uint),
                                                    ),
                                                    ("work".into(), Json::uint(p.work)),
                                                    (
                                                        "messages".into(),
                                                        p.messages.map_or(Json::Null, Json::uint),
                                                    ),
                                                    (
                                                        "bytes".into(),
                                                        p.bytes.map_or(Json::Null, Json::uint),
                                                    ),
                                                    ("wall_ms".into(), Json::Num(p.wall_ms)),
                                                    ("digest".into(), Json::str(&p.digest)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "verdict".into(),
                Json::Obj(vec![
                    (
                        "per_phase".into(),
                        Json::Arr(
                            self.verdict
                                .per_phase
                                .iter()
                                .map(|&b| Json::Bool(b))
                                .collect(),
                        ),
                    ),
                    ("converges".into(), Json::Bool(self.verdict.converges)),
                    ("agreement".into(), Json::Bool(self.verdict.agreement)),
                    ("bounds_ok".into(), Json::Bool(self.verdict.bounds_ok)),
                ]),
            ),
            (
                "expected".into(),
                Json::Obj(vec![
                    ("converges".into(), Json::Bool(self.expected_converges)),
                    ("agreement".into(), Json::Bool(self.expected_agreement)),
                ]),
            ),
            ("expectation_met".into(), Json::Bool(self.expectation_met())),
        ])
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("scenario {:<24} ", self.scenario));
        out.push_str(&format!(
            "converges={} agreement={} bounds_ok={} expected(c={}, a={}) {}",
            self.verdict.converges,
            self.verdict.agreement,
            self.verdict.bounds_ok,
            self.expected_converges,
            self.expected_agreement,
            if self.expectation_met() {
                "OK"
            } else {
                "MISMATCH"
            },
        ));
        for run in &self.runs {
            let last = run.phases.last();
            if let Some(err) = &run.error {
                out.push_str(&format!("\n  {:<14} ENGINE-PANIC: {err}", run.engine));
                continue;
            }
            out.push_str(&format!(
                "\n  {:<14} {}",
                run.engine,
                run.phases
                    .iter()
                    .map(|p| {
                        let mut cell = format!(
                            "[{} stable={} rounds={} work={}",
                            p.label, p.sigma_stable, p.rounds, p.work
                        );
                        if let Some(b) = p.predicted_bound {
                            cell.push_str(&format!(" bound={b}"));
                            if !p.within_bound() {
                                cell.push_str(" BOUND-EXCEEDED");
                            }
                        }
                        if let Some(m) = p.messages {
                            cell.push_str(&format!(" msgs={m}"));
                        }
                        if let Some(b) = p.bytes {
                            cell.push_str(&format!(" bytes={b}"));
                        }
                        cell.push_str(&format!(" {}]", &p.digest[..8]));
                        cell
                    })
                    .collect::<Vec<_>>()
                    .join(" → "),
            ));
            let _ = last;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_nests() {
        let j = Json::Obj(vec![
            ("s".into(), Json::str("a\"b\\c\nd")),
            (
                "xs".into(),
                Json::Arr(vec![Json::Int(1), Json::Bool(true), Json::Null]),
            ),
            ("o".into(), Json::Obj(vec![("k".into(), Json::Num(1.5))])),
        ]);
        let text = j.to_string();
        assert!(text.contains("\\\"b\\\\c\\nd"));
        assert!(text.contains("\"xs\": [\n"));
        assert!(text.contains("1.5"));
    }

    #[test]
    fn unsigned_counters_clamp_instead_of_wrapping_negative() {
        assert_eq!(Json::uint(0), Json::Int(0));
        assert_eq!(Json::uint(i64::MAX as u64), Json::Int(i64::MAX));
        assert_eq!(Json::uint(i64::MAX as u64 + 1), Json::Int(i64::MAX));
        assert_eq!(Json::uint(u64::MAX).to_string(), i64::MAX.to_string());
    }

    #[test]
    fn digest_is_stable_and_discriminating() {
        let mut a = Digest::default();
        a.update("hello");
        let mut b = Digest::default();
        b.update("hello");
        let mut c = Digest::default();
        c.update("hellp");
        assert_eq!(a.finish(), b.finish());
        assert_ne!(a.finish(), c.finish());
        assert_eq!(a.finish().len(), 16);
    }

    fn report(stable: bool, digests: (&str, &str)) -> ScenarioReport {
        let phase = |d: &str| PhaseOutcome {
            label: "p".into(),
            sigma_stable: stable,
            rounds: 1,
            predicted_bound: Some(4),
            work: 1,
            messages: None,
            bytes: None,
            wall_ms: 0.1,
            digest: d.into(),
        };
        ScenarioReport {
            scenario: "t".into(),
            description: String::new(),
            phase_labels: vec!["p".into()],
            runs: vec![
                EngineRun {
                    engine: "sync".into(),
                    phases: vec![phase(digests.0)],
                    error: None,
                },
                EngineRun {
                    engine: "sim[1]".into(),
                    phases: vec![phase(digests.1)],
                    error: None,
                },
            ],
            verdict: Agreement {
                per_phase: vec![stable && digests.0 == digests.1],
                converges: stable,
                agreement: stable && digests.0 == digests.1,
                bounds_ok: true,
            },
            expected_converges: true,
            expected_agreement: true,
        }
    }

    #[test]
    fn expectation_matching() {
        assert!(report(true, ("aa", "aa")).expectation_met());
        assert!(!report(true, ("aa", "bb")).expectation_met());
        assert!(!report(false, ("aa", "aa")).expectation_met());
        let j = report(true, ("aa", "aa")).to_json().to_string();
        assert!(j.contains("\"expectation_met\": true"));
        assert!(j.contains("\"rounds\": 1"));
        assert!(j.contains("\"predicted_bound\": 4"));
        assert!(j.contains("\"bounds_ok\": true"));
        assert!(j.contains("\"messages\": null"));
        assert!(j.contains("\"bytes\": null"));
    }

    #[test]
    fn a_bound_violation_fails_the_expectation_like_a_differential_failure() {
        let mut r = report(true, ("aaaaaaaaaaaaaaaa", "aaaaaaaaaaaaaaaa"));
        assert!(r.expectation_met());
        // The checker surfaced a phase exceeding its predicted bound.
        r.runs[0].phases[0].rounds = 9;
        r.verdict.bounds_ok = false;
        assert!(!r.runs[0].phases[0].within_bound());
        assert!(!r.expectation_met());
        assert!(r.summary().contains("BOUND-EXCEEDED"));
        let j = r.to_json().to_string();
        assert!(j.contains("\"bounds_ok\": false"));
        assert!(j.contains("\"expectation_met\": false"));
    }

    #[test]
    fn tightness_is_rounds_over_bound() {
        let r = report(true, ("aa", "aa"));
        let p = &r.runs[0].phases[0];
        assert!(p.within_bound());
        assert_eq!(p.tightness(), Some(0.25));
        let unbounded = PhaseOutcome {
            predicted_bound: None,
            ..p.clone()
        };
        assert!(unbounded.within_bound());
        assert_eq!(unbounded.tightness(), None);
    }
}
