//! Property-based scenario fuzzing through the cross-engine differential
//! checker, with failure minimization.
//!
//! The invariant under test is the paper's headline result made executable
//! (Theorems 7/11): **any strictly-increasing spec must agree across all
//! engines** — every run of every engine converges, and all runs land on
//! the same σ-stable fixed point.  [`run_fuzz`] hurls seeded random specs
//! (and random sweep grids, the cheap batch driver) from [`crate::gen`] at
//! [`run_scenario`] and checks exactly that, with no per-case expectations
//! to hand-maintain.
//!
//! When a case fails, [`shrink_scenario`] greedily minimizes it — dropping
//! phases and script entries, shrinking the topology, simplifying fault
//! profiles, and thinning engines/seeds — while re-checking that every
//! candidate still fails.  The minimized spec is written to a corpus
//! directory as a self-describing TOML with its exact reproduction
//! command, so a failure found by an overnight fuzz run is a one-command
//! regression test.
//!
//! Determinism contract: the same `(seed, cases)` pair produces the same
//! cases, the same verdicts and byte-identical [`FuzzReport::to_json`]
//! output regardless of `--jobs` (execution fans out through the
//! order-preserving [`WorkerPool::map`]).

use crate::gen::{case_seed, scenario_case, sweep_case};
use crate::report::{Agreement, Json};
use crate::run::run_scenario;
use crate::spec::{FaultSpec, Scenario, ScheduleSpec, SpecError, TopologySpec};
use crate::sweep::{resize_topology, run_sweep, SweepRunOptions};
use dbf_matrix::WorkerPool;
use std::path::{Path, PathBuf};

/// Every `SWEEP_EVERY`-th case is a sweep grid instead of a single
/// scenario.
const SWEEP_EVERY: u64 = 8;

/// Options for [`run_fuzz`].
#[derive(Debug, Clone)]
pub struct FuzzOptions {
    /// How many cases to generate and run.
    pub cases: usize,
    /// The root seed of the case stream.
    pub seed: u64,
    /// Worker threads (`0`/`1` runs inline).
    pub jobs: usize,
    /// Run only this case index (reproduction mode).
    pub case: Option<usize>,
    /// The directory minimized failures are written to (created on the
    /// first failure; a green run writes nothing).
    pub corpus: PathBuf,
}

/// The outcome of one fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzCaseResult {
    /// Case index in the stream.
    pub index: usize,
    /// The case's derived seed (`gen::case_seed(root, index)`).
    pub case_seed: u64,
    /// `"scenario"` or `"sweep"`.
    pub kind: &'static str,
    /// The generated spec's name.
    pub name: String,
    /// Did the differential invariant hold?
    pub ok: bool,
    /// Compact description of the verdict (deterministic; no timings).
    pub detail: String,
}

/// A minimized failure.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzFailure {
    /// Case index in the stream.
    pub index: usize,
    /// The case's derived seed.
    pub case_seed: u64,
    /// The minimized failing spec, as TOML.
    pub minimized_toml: String,
    /// Accepted shrink steps.
    pub shrink_steps: usize,
    /// The exact command that reproduces the minimized failure.
    pub repro: String,
    /// Where the corpus file was written, if writing was enabled.
    pub written_to: Option<String>,
}

/// The full report of a fuzz run.
#[derive(Debug, Clone, PartialEq)]
pub struct FuzzReport {
    /// The root seed.
    pub seed: u64,
    /// How many cases ran.
    pub cases: usize,
    /// Per-case outcomes, in case order.
    pub results: Vec<FuzzCaseResult>,
    /// Minimized failures, in case order.
    pub failures: Vec<FuzzFailure>,
}

impl FuzzReport {
    /// Did every case uphold the invariant?
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.results.iter().all(|r| r.ok)
    }

    /// Render as a JSON value.  Deliberately contains no wall-clock data,
    /// so the output is byte-identical for any `--jobs` value.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("seed".into(), Json::uint(self.seed)),
            ("cases".into(), Json::uint(self.cases as u64)),
            ("ok".into(), Json::Bool(self.ok())),
            (
                "results".into(),
                Json::Arr(
                    self.results
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("case".into(), Json::uint(r.index as u64)),
                                (
                                    "case_seed".into(),
                                    Json::str(format!("{:#018x}", r.case_seed)),
                                ),
                                ("kind".into(), Json::str(r.kind)),
                                ("name".into(), Json::str(&r.name)),
                                ("ok".into(), Json::Bool(r.ok)),
                                ("detail".into(), Json::str(&r.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "failures".into(),
                Json::Arr(
                    self.failures
                        .iter()
                        .map(|f| {
                            Json::Obj(vec![
                                ("case".into(), Json::uint(f.index as u64)),
                                (
                                    "case_seed".into(),
                                    Json::str(format!("{:#018x}", f.case_seed)),
                                ),
                                ("shrink_steps".into(), Json::uint(f.shrink_steps as u64)),
                                ("repro".into(), Json::str(&f.repro)),
                                (
                                    "written_to".into(),
                                    match &f.written_to {
                                        Some(p) => Json::str(p),
                                        None => Json::Null,
                                    },
                                ),
                                ("minimized_toml".into(), Json::str(&f.minimized_toml)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// A compact human-readable summary.
    pub fn summary(&self) -> String {
        let failed = self.results.iter().filter(|r| !r.ok).count();
        let mut out = format!(
            "fuzz seed={} cases={} ok={} failed={} {}",
            self.seed,
            self.cases,
            self.results.len() - failed,
            failed,
            if self.ok() { "OK" } else { "FAILURES" },
        );
        for f in &self.failures {
            out.push_str(&format!(
                "\n  case #{} (seed {:#018x}) minimized in {} steps: {}",
                f.index, f.case_seed, f.shrink_steps, f.repro
            ));
        }
        out
    }
}

/// The fuzz invariant, in three legs: every run converges, every run
/// agrees on the fixed point, and every bound-annotated phase converges
/// within its predicted round bound — so a bound violation is shrunk and
/// recorded in the corpus exactly like a differential failure.
fn invariant_holds(verdict: &Agreement) -> bool {
    verdict.converges && verdict.agreement && verdict.bounds_ok
}

/// Does a spec violate the fuzz invariant?  (Invalid specs do not count as
/// failures — the shrinker uses this to discard over-aggressive
/// candidates.)
pub fn violates_invariant(spec: &Scenario) -> bool {
    if spec.validate().is_err() {
        return false;
    }
    match run_scenario(spec) {
        Ok(report) => !invariant_holds(&report.verdict),
        Err(_) => false,
    }
}

/// Execute a fuzz run: generate `opts.cases` cases from `opts.seed`, fan
/// them out over `opts.jobs` workers, check the differential invariant on
/// each, and shrink + record any failures.
pub fn run_fuzz(opts: &FuzzOptions) -> Result<FuzzReport, SpecError> {
    let indices: Vec<usize> = (0..opts.cases)
        .filter(|i| opts.case.is_none_or(|want| *i == want))
        .collect();
    if indices.is_empty() {
        return Err(match opts.case {
            Some(case) => SpecError::new(format!(
                "--case {case} is out of range (the run has {} cases)",
                opts.cases
            )),
            None => SpecError::new("--cases must be at least 1"),
        });
    }
    // Results come back in input order, which is what keeps the JSON
    // byte-identical across --jobs.
    let results = WorkerPool::shared().map(opts.jobs, indices, |index| {
        let seed = case_seed(opts.seed, index as u64);
        if (index as u64) % SWEEP_EVERY == SWEEP_EVERY - 1 {
            let sweep = sweep_case(seed);
            let outcome = run_sweep(
                &sweep,
                &SweepRunOptions {
                    jobs: 1,
                    threads: 1,
                    ..SweepRunOptions::default()
                },
            );
            match outcome {
                Ok(report) => {
                    let failures: Vec<(usize, usize)> = report
                        .points
                        .iter()
                        .flat_map(|p| p.failures.iter().map(|f| (p.index, f.replicate)))
                        .collect();
                    let ok = report.ok();
                    let detail = if ok {
                        format!("grid={} all cells agree", report.points.len())
                    } else {
                        format!("failing cells: {failures:?}")
                    };
                    (index, seed, "sweep", sweep.name.clone(), ok, detail, {
                        // Map the first failing cell back to a concrete
                        // scenario so the shrinker has something to chew on.
                        failures.first().and_then(|&(point, replicate)| {
                            let grid = sweep.grid();
                            grid.iter()
                                .find(|p| p.index == point)
                                .and_then(|p| sweep.derive_scenario(p, replicate).ok())
                        })
                    })
                }
                Err(e) => (
                    index,
                    seed,
                    "sweep",
                    format!("fuzz-sweep-{seed:016x}"),
                    false,
                    format!("sweep error: {e}"),
                    None,
                ),
            }
        } else {
            let scenario = scenario_case(seed);
            match run_scenario(&scenario) {
                Ok(report) => {
                    let ok = invariant_holds(&report.verdict);
                    let detail = format!(
                        "converges={} agreement={} bounds_ok={} runs={}",
                        report.verdict.converges,
                        report.verdict.agreement,
                        report.verdict.bounds_ok,
                        report.runs.len()
                    );
                    let failing = (!ok).then(|| scenario.clone());
                    (
                        index,
                        seed,
                        "scenario",
                        scenario.name.clone(),
                        ok,
                        detail,
                        failing,
                    )
                }
                Err(e) => (
                    index,
                    seed,
                    "scenario",
                    scenario.name.clone(),
                    false,
                    format!("spec error: {e}"),
                    None,
                ),
            }
        }
    });

    let mut report = FuzzReport {
        seed: opts.seed,
        cases: opts.cases,
        results: Vec::with_capacity(results.len()),
        failures: Vec::new(),
    };
    // Shrinking runs sequentially after the parallel sweep so the corpus
    // and report stay deterministic in case order.
    for (index, seed, kind, name, ok, detail, failing) in results {
        report.results.push(FuzzCaseResult {
            index,
            case_seed: seed,
            kind,
            name,
            ok,
            detail,
        });
        if let Some(spec) = failing {
            let (minimized, steps) = shrink_scenario(&spec, &violates_invariant);
            report
                .failures
                .push(record_failure(index, seed, minimized, steps, opts));
        }
    }
    Ok(report)
}

fn record_failure(
    index: usize,
    seed: u64,
    minimized: Scenario,
    steps: usize,
    opts: &FuzzOptions,
) -> FuzzFailure {
    let toml = minimized.to_toml_string();
    let dir = &opts.corpus;
    let path = dir.join(format!("fuzz-{seed:016x}.min.toml"));
    let repro = format!("scenarios run {}", path.display());
    let header = format!(
        "# Minimized failing spec found by `scenarios fuzz --seed {} --cases {} --case {index}`.\n\
         # The differential invariant (all engines converge to one fixed point) was violated.\n\
         # Reproduce with: {repro}\n",
        opts.seed, opts.cases
    );
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, format!("{header}{toml}")))
        .map(|()| path.display().to_string());
    let (repro, written_to) = match written {
        Ok(p) => (repro, Some(p)),
        Err(e) => (
            format!(
                "scenarios fuzz --seed {} --cases {} --case {index} (corpus write failed: {e})",
                opts.seed, opts.cases
            ),
            None,
        ),
    };
    FuzzFailure {
        index,
        case_seed: seed,
        minimized_toml: toml,
        shrink_steps: steps,
        repro,
        written_to,
    }
}

// ---------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------

/// The size score the shrinker minimizes: a weighted sum over everything
/// that makes a spec expensive to read or run.
pub fn spec_size(s: &Scenario) -> usize {
    let changes: usize = s.phases.iter().map(|p| p.changes.len()).sum();
    let horizon: usize = s.phases.iter().map(|p| p.faults.horizon).sum();
    let knobs: usize = s
        .phases
        .iter()
        .map(|p| {
            let f = &p.faults;
            (f.loss > 0.0) as usize
                + (f.duplicate > 0.0) as usize
                + (f.reorder > 0.0) as usize
                + (f.schedule != ScheduleSpec::Random) as usize
        })
        .sum();
    let n = s.topology.initial_nodes().unwrap_or(0);
    s.phases.len() * 1000
        + changes * 200
        + n * 50
        + (s.engines.len() + s.seeds.len()) * 30
        + horizon / 10
        + knobs * 5
}

/// Candidate single-step reductions of a spec, most aggressive first.
/// Every candidate is structurally smaller under [`spec_size`]; invalid
/// candidates are filtered by the failure predicate (which treats them as
/// non-failing).
fn shrink_candidates(s: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // 1. Drop whole phases.
    if s.phases.len() > 1 {
        for k in 0..s.phases.len() {
            let mut c = s.clone();
            c.phases.remove(k);
            out.push(c);
        }
    }
    // 2. Bisect the change scripts: all, first half, second half, singles.
    for (k, phase) in s.phases.iter().enumerate() {
        let m = phase.changes.len();
        if m == 0 {
            continue;
        }
        let mut drop_range = |lo: usize, hi: usize| {
            let mut c = s.clone();
            c.phases[k].changes.drain(lo..hi);
            out.push(c);
        };
        drop_range(0, m);
        if m > 1 {
            drop_range(0, m / 2);
            drop_range(m / 2, m);
            for i in 0..m {
                drop_range(i, i + 1);
            }
        }
    }
    // 3. Shrink the topology: halve toward the family minimum.
    for t in shrink_topology(&s.topology) {
        let mut c = s.clone();
        c.topology = t;
        out.push(c);
    }
    // 4. Thin engines and seeds.
    if s.engines.len() > 1 {
        for k in 0..s.engines.len() {
            let mut c = s.clone();
            c.engines.remove(k);
            out.push(c);
        }
    }
    if s.seeds.len() > 1 {
        for k in 0..s.seeds.len() {
            let mut c = s.clone();
            c.seeds.remove(k);
            out.push(c);
        }
    }
    // 5. Simplify fault profiles.
    for (k, phase) in s.phases.iter().enumerate() {
        let f = &phase.faults;
        if *f != FaultSpec::default() {
            let mut c = s.clone();
            c.phases[k].faults = FaultSpec::default();
            out.push(c);
        }
        if f.loss > 0.0 || f.duplicate > 0.0 || f.reorder > 0.0 {
            let mut c = s.clone();
            c.phases[k].faults.loss = 0.0;
            c.phases[k].faults.duplicate = 0.0;
            c.phases[k].faults.reorder = 0.0;
            out.push(c);
        }
        if f.schedule != ScheduleSpec::Random {
            let mut c = s.clone();
            c.phases[k].faults.schedule = ScheduleSpec::Random;
            out.push(c);
        }
        if f.horizon > 100 {
            let mut c = s.clone();
            c.phases[k].faults.horizon = (f.horizon / 2).max(50);
            out.push(c);
        }
    }
    out
}

/// Topology reductions: halve the node count through
/// [`resize_topology`] (to the smallest size of at least half that the
/// family's own size rule accepts), then the moves a node count cannot
/// express.  Each drops nodes: [`spec_size`] weighs a topology by its node
/// count alone, so a move that keeps it could never be accepted.
fn shrink_topology(t: &TopologySpec) -> Vec<TopologySpec> {
    let n = t.initial_nodes().unwrap_or(0);
    let mut out: Vec<TopologySpec> = (n / 2..n)
        .find_map(|k| resize_topology(t, k).ok())
        .into_iter()
        .collect();
    match *t {
        TopologySpec::LeafSpine { spines, leaves } if spines > 1 => {
            out.push(TopologySpec::LeafSpine {
                spines: spines / 2,
                leaves,
            });
        }
        TopologySpec::Tiered {
            ref tiers,
            p_peer,
            p_extra,
            seed,
        } => {
            for (k, &size) in tiers.iter().enumerate() {
                if size > 1 {
                    let mut smaller = tiers.clone();
                    smaller[k] = size / 2;
                    out.push(TopologySpec::Tiered {
                        tiers: smaller,
                        p_peer,
                        p_extra,
                        seed,
                    });
                }
            }
            if tiers.len() > 2 {
                out.push(TopologySpec::Tiered {
                    tiers: tiers[..tiers.len() - 1].to_vec(),
                    p_peer,
                    p_extra,
                    seed,
                });
            }
        }
        _ => {}
    }
    out
}

/// Greedily minimize a failing spec: repeatedly take the first candidate
/// reduction that is smaller and still fails, until none improves (or the
/// evaluation budget runs out).  Returns the minimized spec and the number
/// of accepted reductions.
///
/// `fails` must answer `false` for invalid specs — [`violates_invariant`]
/// does; a custom predicate used in tests should too.
pub fn shrink_scenario(spec: &Scenario, fails: &dyn Fn(&Scenario) -> bool) -> (Scenario, usize) {
    let mut current = spec.clone();
    let mut accepted = 0usize;
    let mut evaluations = 0usize;
    const MAX_EVALUATIONS: usize = 400;
    loop {
        let before = spec_size(&current);
        let mut improved = false;
        for candidate in shrink_candidates(&current) {
            if spec_size(&candidate) >= before {
                continue;
            }
            evaluations += 1;
            if fails(&candidate) {
                current = candidate;
                accepted += 1;
                improved = true;
                break;
            }
            if evaluations >= MAX_EVALUATIONS {
                return (current, accepted);
            }
        }
        if !improved {
            return (current, accepted);
        }
    }
}

/// The outcome of replaying one corpus case.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayOutcome {
    /// The corpus file that was replayed.
    pub path: PathBuf,
    /// Did the differential verdict match the spec's expectation?
    pub expectation_met: bool,
    /// Per engine run, in run order: `(run label, total logical rounds
    /// across all phases)`.  A convergence-time fingerprint of the case —
    /// a regression that slows convergence shows up here even when the
    /// verdict still matches.
    pub rounds: Vec<(String, u64)>,
}

/// Replay every `*.toml` spec in a corpus directory through the
/// differential checker, returning a [`ReplayOutcome`] per file.  Used by
/// CI to keep previously minimized failures fixed.
pub fn replay_corpus(dir: &Path) -> Result<Vec<ReplayOutcome>, SpecError> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| SpecError::new(format!("cannot read corpus dir {dir:?}: {e}")))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "toml"))
        .collect();
    entries.sort();
    let mut out = Vec::with_capacity(entries.len());
    for path in entries {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| SpecError::new(format!("cannot read {path:?}: {e}")))?;
        let spec = Scenario::from_toml_str(&text)
            .map_err(|e| SpecError::new(format!("{}: {e}", path.display())))?;
        let report = run_scenario(&spec)?;
        out.push(ReplayOutcome {
            path,
            expectation_met: report.expectation_met(),
            rounds: report
                .runs
                .iter()
                .map(|run| {
                    (
                        run.engine.clone(),
                        run.phases.iter().map(|p| p.rounds).sum(),
                    )
                })
                .collect(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{AlgebraSpec, ChangeSpec, EngineKind, Expectation, PhaseSpec, SppGadget};

    #[test]
    fn spec_size_orders_reductions() {
        let big = scenario_case(1);
        let mut smaller = big.clone();
        smaller.phases.truncate(1);
        assert!(spec_size(&smaller) < spec_size(&big) || big.phases.len() == 1);
    }

    #[test]
    fn shrinking_respects_a_synthetic_predicate() {
        // "Fails" iff the topology is a ring with n >= 6: the shrinker must
        // halve n down to the boundary without ever accepting a passing
        // candidate.
        let spec = Scenario {
            name: "t-shrink".into(),
            description: String::new(),
            topology: TopologySpec::Ring { n: 24 },
            algebra: AlgebraSpec::Hopcount { limit: 16 },
            engines: vec![EngineKind::Sync, EngineKind::Delta, EngineKind::Sim],
            seeds: vec![1, 2, 3],
            phases: vec![
                PhaseSpec::quiet("a"),
                PhaseSpec {
                    label: "b".into(),
                    changes: vec![
                        ChangeSpec::FailLink { a: 0, b: 1 },
                        ChangeSpec::SetLink { a: 0, b: 1 },
                    ],
                    faults: FaultSpec::adversarial(),
                },
            ],
            expect: Expectation::default(),
        };
        let fails = |s: &Scenario| {
            s.validate().is_ok() && matches!(s.topology, TopologySpec::Ring { n } if n >= 6)
        };
        let (min, steps) = shrink_scenario(&spec, &fails);
        assert!(steps > 0, "the shrinker must make progress");
        assert!(fails(&min), "the minimized spec still fails");
        assert_eq!(min.phases.len(), 1, "irrelevant phases are dropped");
        assert_eq!(min.seeds.len(), 1, "irrelevant seeds are dropped");
        assert_eq!(min.engines.len(), 1, "irrelevant engines are dropped");
        let TopologySpec::Ring { n } = min.topology else {
            panic!("the failing family is kept");
        };
        assert!(
            (6..=11).contains(&n),
            "n halves toward the boundary, got {n}"
        );
    }

    #[test]
    fn shrinking_a_real_checker_failure_produces_a_smaller_failing_spec() {
        // The SPP BAD GADGET is the catalogue's deliberately non-increasing
        // algebra: it oscillates forever, so the fuzz invariant (converge +
        // agree) genuinely fails on it.  Wrap it in noise and let the
        // shrinker strip the noise away.  (The event simulator is left out:
        // on a never-converging spec every sim evaluation runs to its event
        // cap, which makes shrink evaluations needlessly slow.)
        let bad = Scenario {
            name: "t-bad-gadget-noisy".into(),
            description: "deliberately failing fuzz-style case".into(),
            topology: TopologySpec::Gadget,
            algebra: AlgebraSpec::Spp {
                gadget: SppGadget::Bad,
            },
            engines: vec![EngineKind::Sync, EngineKind::Delta],
            seeds: vec![1, 2, 3, 4],
            phases: vec![
                PhaseSpec::quiet("one"),
                PhaseSpec::quiet("two"),
                PhaseSpec {
                    label: "three".into(),
                    changes: Vec::new(),
                    faults: FaultSpec {
                        horizon: 150,
                        ..FaultSpec::adversarial()
                    },
                },
            ],
            expect: Expectation::default(),
        };
        assert!(
            violates_invariant(&bad),
            "the bad gadget must fail the oracle"
        );
        let (min, steps) = shrink_scenario(&bad, &violates_invariant);
        assert!(steps > 0);
        assert!(violates_invariant(&min), "the minimized spec still fails");
        assert!(
            spec_size(&min) < spec_size(&bad),
            "minimized ({}) must be smaller than original ({})",
            spec_size(&min),
            spec_size(&bad)
        );
        assert_eq!(min.phases.len(), 1, "two of three phases are noise");
        assert_eq!(min.seeds.len(), 1, "three of four seeds are noise");
        // The minimized spec round-trips, so it can be written to a corpus
        // file and replayed with `scenarios run`.
        let back = Scenario::from_toml_str(&min.to_toml_string()).unwrap();
        assert_eq!(min, back);
    }

    /// `spec_size` weighs a topology by its node count alone, so a
    /// candidate that keeps the count can never be accepted.
    #[test]
    fn every_topology_candidate_has_fewer_nodes() {
        let families = [
            TopologySpec::Line { n: 8 },
            TopologySpec::Ring { n: 8 },
            TopologySpec::Star { n: 8 },
            TopologySpec::Complete { n: 8 },
            TopologySpec::Grid { rows: 3, cols: 4 },
            TopologySpec::ConnectedRandom {
                n: 12,
                p: 0.3,
                seed: 1,
            },
            TopologySpec::AsGraph {
                n: 12,
                m: 4,
                seed: 1,
            },
            TopologySpec::LeafSpine {
                spines: 4,
                leaves: 8,
            },
            TopologySpec::Tiered {
                tiers: vec![2, 4, 8],
                p_peer: 0.2,
                p_extra: 0.3,
                seed: 1,
            },
            TopologySpec::Explicit {
                nodes: 4,
                links: vec![(0, 1), (1, 2), (2, 3), (0, 2)],
            },
            TopologySpec::Gadget,
        ];
        for t in families {
            let n = t.initial_nodes();
            for c in shrink_topology(&t) {
                assert!(c.initial_nodes() < n, "{t:?} shrinks to {c:?}");
            }
        }
    }

    #[test]
    fn invalid_candidates_never_count_as_failing() {
        let mut s = scenario_case(5);
        s.topology = TopologySpec::Gadget; // invalid with a non-SPP algebra
        assert!(!violates_invariant(&s));
    }
}
