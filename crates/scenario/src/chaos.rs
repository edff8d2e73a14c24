//! The chaos harness: run a churn trace under an injected fault plan,
//! recover if the plan crashed the server, and *verify* the outcome —
//! digest identity with an unfaulted reference run, the convergence
//! bound, and (for corruption plans) that recovery failed cleanly with
//! the right structured error instead of silently diverging.
//!
//! This is the executable form of the robustness claim: the paper's
//! asynchronous model already prices in an adversarial environment
//! (messages lost, duplicated, reordered; participants failing and
//! rejoining), so a correctly built server must produce *bit-identical*
//! results under any deterministic fault schedule — worker deaths,
//! straggler bands, panicking epochs, process crashes at arbitrary
//! event offsets, torn WAL tails, delayed flushes — or fail with a
//! structured, attributable error.  `scenarios chaos --replay <trace>`
//! drives [`run_chaos`] over the built-in plans or a TOML plan file.
//!
//! The harness always runs the faulted side on a **dedicated worker
//! pool** (see [`crate::serve::ServeOptions`]): fault epochs are counted
//! relative to pool arm time, so a fresh pool makes the schedule
//! reproducible.

use crate::checkpoint::CheckpointStore;
use crate::fields::{self, Form, Keys, List, Named, Seed, Sub, Tag, Uint, Visit};
use crate::report::Json;
use crate::serve::{
    replay_clocked, replay_trace_opts, ChurnTrace, Clock, DeadlineCfg, ReplayReport, ScriptedClock,
    ServeOptions, SystemClock,
};
use crate::spec::SpecError;
use dbf_matrix::{FaultKind, FaultPlan};
use dbf_telemetry::TelemetrySink;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Names of the built-in fault plans, in the order `scenarios chaos`
/// runs them.
pub fn builtin_plan_names() -> &'static [&'static str] {
    &[
        "worker-kill",
        "band-stall",
        "fail-epoch",
        "process-crash",
        "wal-truncate",
        "wal-corrupt",
        "flush-delay",
    ]
}

/// A built-in fault plan, scaled to a trace of `events` events (crash
/// plans fire mid-trace).  Returns `None` for unknown names.
pub fn builtin_plan(name: &str, events: usize) -> Option<FaultPlan> {
    let mid = (events as u64 / 2).max(1);
    Some(match name {
        "worker-kill" => FaultPlan::new(1)
            .with(FaultKind::KillWorker { worker: 0 }, 2)
            .with(FaultKind::KillWorker { worker: 1 }, 5),
        "band-stall" => FaultPlan::new(2).with(FaultKind::StallBand { millis: 20 }, 1),
        "fail-epoch" => FaultPlan::new(3).with(FaultKind::FailEpoch, 1),
        "process-crash" => FaultPlan::new(4).with(FaultKind::CrashAtEvent, mid),
        "wal-truncate" => FaultPlan::new(5)
            .with(FaultKind::CrashAtEvent, mid)
            .with(FaultKind::TruncateWal { bytes: 7 }, 0),
        "wal-corrupt" => FaultPlan::new(6)
            .with(FaultKind::CrashAtEvent, mid)
            .with(FaultKind::CorruptWal { byte: 5 }, 0),
        "flush-delay" => FaultPlan::new(7).with(FaultKind::DelayFlush { millis: 50 }, 0),
        _ => return None,
    })
}

/// Parse a fault plan from its TOML form:
///
/// ```toml
/// seed = 7
///
/// [[fault]]
/// kind = "kill_worker"   # or stall_band / fail_epoch / crash /
///                        #    truncate_wal / corrupt_wal / delay_flush
/// at = 2                 # trigger site (see FaultKind docs)
/// worker = 0             # kill_worker only
/// millis = 20            # stall_band / delay_flush
/// bytes = 7              # truncate_wal
/// byte = 5               # corrupt_wal
/// ```
pub fn load_plan(text: &str) -> Result<FaultPlan, SpecError> {
    let file: PlanFile = fields::read_toml(text)
        .map_err(|e| SpecError::new(format!("fault plan: {}", e.message)))?;
    let mut plan = FaultPlan::new(file.seed);
    for fault in file.faults {
        plan.push(fault.kind, fault.at);
    }
    Ok(plan)
}

/// The fault kinds a plan file names, in the order of their table.
pub fn fault_kind_names() -> impl Iterator<Item = &'static str> {
    FaultKind::names().map(|(name, _)| name)
}

/// Each kind under [`FaultKind::name`], with the defaults of its keys.
impl Named for FaultKind {
    fn names() -> impl Iterator<Item = (&'static str, Self)> {
        use FaultKind::*;
        [
            KillWorker { worker: 0 },
            StallBand { millis: 10 },
            FailEpoch,
            CrashAtEvent,
            TruncateWal { bytes: 8 },
            CorruptWal { byte: 0 },
            DelayFlush { millis: 25 },
        ]
        .into_iter()
        .map(|kind| (kind.name(), kind))
    }
}

/// A fault plan file: its seed and its `[[fault]]` tables.
#[derive(Clone)]
struct PlanFile {
    seed: u64,
    faults: Vec<PlannedFault>,
}

/// One `[[fault]]` table: the fault and its trigger site.
#[derive(Clone)]
struct PlannedFault {
    kind: FaultKind,
    at: u64,
}

impl Keys for PlanFile {
    fn blank() -> Self {
        PlanFile {
            seed: 0,
            faults: Vec::new(),
        }
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        f.opt("seed", &mut self.seed, Seed)?;
        f.opt("fault", &mut self.faults, List(Sub))
    }
}

impl Keys for PlannedFault {
    fn blank() -> Self {
        PlannedFault {
            kind: FaultKind::FailEpoch,
            at: 0,
        }
    }

    fn keys(&mut self, f: &mut Form<'_, '_>) -> Visit {
        use FaultKind::*;
        f.req("kind", &mut self.kind, Tag)?;
        match &mut self.kind {
            KillWorker { worker } => f.opt("worker", worker, Uint)?,
            StallBand { millis } | DelayFlush { millis } => f.opt("millis", millis, Uint)?,
            TruncateWal { bytes } => f.opt("bytes", bytes, Uint)?,
            CorruptWal { byte } => f.opt("byte", byte, Uint)?,
            FailEpoch | CrashAtEvent => {}
        }
        f.opt("at", &mut self.at, Uint)
    }
}

/// The verified result of one chaos run.
#[derive(Debug, Clone)]
pub struct ChaosOutcome {
    /// Plan name (built-in name or the plan file path).
    pub plan: String,
    /// Faults from the plan that actually fired.
    pub faults_fired: usize,
    /// Did the plan crash the process (structured `crash` failure)?
    pub crashed: bool,
    /// Did the run (or the post-crash recovery) complete?
    pub recovered: bool,
    /// Final-table digest identical to the unfaulted reference run.
    pub digests_match: bool,
    /// Answers digest identical too (skipped — reported `true` — when
    /// staleness was in play, since stale answers legitimately differ).
    pub answers_match: bool,
    /// Measured worst flush respected the convergence-bound oracle.
    pub bound_respected: bool,
    /// Queries served stale during degraded operation.
    pub stale_answers: u64,
    /// For corruption plans: the structured failure kind recovery was
    /// *required* to produce (verified, not just observed).
    pub expected_failure: Option<String>,
    /// The overall verdict for this plan.
    pub ok: bool,
    /// Human-readable explanation of the verdict.
    pub detail: String,
}

fn bound_held(r: &ReplayReport) -> bool {
    r.stats.worst_flush_bound == 0 || r.stats.worst_flush_rounds <= r.stats.worst_flush_bound
}

/// Run `trace` under `plan` and verify the outcome against an unfaulted
/// reference run.
///
/// * Plans without a crash fault run once on a dedicated pool; the run
///   must complete and match the reference digests exactly.
/// * Plans with a crash fault run with a checkpoint store in `dir`,
///   must fail with a structured `crash` report, then any scheduled WAL
///   tampering is applied and a recovery run must either reproduce the
///   reference digests (crash / torn tail) or — for interior WAL
///   corruption — fail cleanly with a structured `wal` error.
/// * Plans with a flush delay run under a tight fixed deadline so the
///   degradation path is exercised; stale answers are expected there,
///   so only the final-table digest is compared.  They run on a
///   [`ScriptedClock`]: the injected delay advances the clock instead of
///   sleeping, and how many flushes overrun and how many answers are
///   stale is the same number on every machine and thread count.
///
/// Kill/stall/fail-epoch faults act on the worker pool, so `threads`
/// should be ≥ 2 for them to bite.
pub fn run_chaos(
    trace: &ChurnTrace,
    name: &str,
    plan: FaultPlan,
    threads: usize,
    batch_max: usize,
    dir: &Path,
    tel: &mut dyn TelemetrySink,
) -> Result<ChaosOutcome, SpecError> {
    let plan = Arc::new(plan);
    let has_crash = plan
        .faults()
        .iter()
        .any(|f| matches!(f.kind, FaultKind::CrashAtEvent));
    let has_delay = plan
        .faults()
        .iter()
        .any(|f| matches!(f.kind, FaultKind::DelayFlush { .. }));
    let tamper = plan.wal_tamper();
    // A delayed flush only exercises the robustness machinery if a
    // deadline is in force; pick one tight enough that the injected
    // delay always overruns it.
    let deadline = if has_delay {
        DeadlineCfg::Millis(5)
    } else {
        DeadlineCfg::Off
    };
    // One clock per faulted replay (a recovery is a new process).  A
    // microsecond per reading keeps an undelayed flush — one reading a
    // round — far inside the deadline.
    let clock = || -> Arc<dyn Clock> {
        if has_delay {
            Arc::new(ScriptedClock::new(Duration::from_micros(1)))
        } else {
            Arc::new(SystemClock::default())
        }
    };

    let clean = replay_trace_opts(
        trace,
        &ServeOptions {
            threads,
            batch_max,
            ..ServeOptions::default()
        },
        tel,
    )?;
    if let Some(f) = &clean.failure {
        return Err(SpecError::new(format!(
            "chaos reference run failed: {}: {}",
            f.kind, f.message
        )));
    }

    let mut outcome = ChaosOutcome {
        plan: name.to_string(),
        faults_fired: 0,
        crashed: false,
        recovered: false,
        digests_match: false,
        answers_match: false,
        bound_respected: false,
        stale_answers: 0,
        expected_failure: None,
        ok: false,
        detail: String::new(),
    };

    let final_report = if has_crash {
        let _ = std::fs::remove_dir_all(dir);
        let crash_run = replay_clocked(
            trace,
            &ServeOptions {
                threads,
                batch_max,
                deadline,
                checkpoint_dir: Some(dir.to_path_buf()),
                checkpoint_every: 32,
                faults: Some(plan.clone()),
                ..ServeOptions::default()
            },
            clock(),
            tel,
        )?;
        match &crash_run.failure {
            Some(f) if f.kind == FaultKind::CrashAtEvent.name() => outcome.crashed = true,
            other => {
                outcome.detail = format!("expected a structured crash failure, got {other:?}");
                outcome.faults_fired = plan.fired_count();
                return Ok(outcome);
            }
        }
        if let Some(kind) = tamper {
            let mut store = CheckpointStore::open(dir)
                .map_err(|e| SpecError::new(format!("chaos store: {e}")))?;
            let tampered = match kind {
                FaultKind::TruncateWal { bytes } => store.tamper_truncate(bytes),
                FaultKind::CorruptWal { byte } => store.tamper_corrupt(byte),
                _ => unreachable!("wal_tamper only returns WAL kinds"),
            };
            tampered.map_err(|e| SpecError::new(format!("chaos tamper: {e}")))?;
            tel.fault_injected(kind.name(), 0);
        }
        replay_clocked(
            trace,
            &ServeOptions {
                threads,
                batch_max,
                deadline,
                checkpoint_dir: Some(dir.to_path_buf()),
                checkpoint_every: 32,
                recover: true,
                ..ServeOptions::default()
            },
            clock(),
            tel,
        )?
    } else {
        replay_clocked(
            trace,
            &ServeOptions {
                threads,
                batch_max,
                deadline,
                faults: Some(plan.clone()),
                ..ServeOptions::default()
            },
            clock(),
            tel,
        )?
    };
    outcome.faults_fired = plan.fired_count();
    outcome.stale_answers = final_report.stats.stale_answers;

    // Interior WAL corruption: the *verified* outcome is a clean,
    // structured wal error — silent divergence or a generic crash both
    // fail the plan.
    if matches!(tamper, Some(FaultKind::CorruptWal { .. })) {
        outcome.expected_failure = Some("wal".to_string());
        match &final_report.failure {
            Some(f) if f.kind == "wal" => {
                outcome.ok = true;
                outcome.detail = format!("recovery refused the corrupt WAL: {}", f.message);
            }
            Some(f) => {
                outcome.detail = format!(
                    "expected a structured wal failure, got {}: {}",
                    f.kind, f.message
                );
            }
            None => {
                outcome.detail =
                    "recovery silently succeeded on a corrupt WAL (checksum not enforced?)"
                        .to_string();
            }
        }
        return Ok(outcome);
    }

    if let Some(f) = &final_report.failure {
        outcome.detail = format!(
            "run failed: {}: {} (offset {})",
            f.kind, f.message, f.offset
        );
        return Ok(outcome);
    }
    outcome.recovered = true;
    // A run that went degraded partitions the change stream differently
    // (queries answer stale instead of forcing a flush), so its batch
    // and round totals are wall-clock-dependent; the unique fixed point
    // is the invariant that survives.  Undegraded runs must match the
    // full deterministic accounting.
    let degraded = final_report.stats.deadline_overruns > 0;
    outcome.digests_match = final_report.final_digest == clean.final_digest
        && (degraded
            || (final_report.stats.batches == clean.stats.batches
                && final_report.stats.rounds == clean.stats.rounds));
    // Stale answers legitimately change the answer stream (each stale
    // answer carries a staleness marker), so delay plans compare only
    // the final table.
    outcome.answers_match = if final_report.stats.stale_answers > 0 {
        true
    } else {
        final_report.answers_digest == clean.answers_digest
    };
    outcome.bound_respected = bound_held(&final_report) && bound_held(&clean);
    outcome.ok = outcome.digests_match && outcome.answers_match && outcome.bound_respected;
    outcome.detail = if outcome.ok {
        format!(
            "verified: {} fault(s) fired, digests identical, bound held",
            outcome.faults_fired
        )
    } else {
        format!(
            "digests_match={} answers_match={} bound_respected={}",
            outcome.digests_match, outcome.answers_match, outcome.bound_respected
        )
    };
    Ok(outcome)
}

/// Render chaos outcomes as the `BENCH_chaos.json` document.
pub fn chaos_json(outcomes: &[ChaosOutcome], threads: usize, batch: usize) -> Json {
    Json::Obj(vec![
        ("schema_version".into(), Json::Int(1)),
        ("suite".into(), Json::str("dbf-chaos")),
        ("threads".into(), Json::uint(threads as u64)),
        ("batch".into(), Json::uint(batch as u64)),
        (
            "plans".into(),
            Json::Arr(
                outcomes
                    .iter()
                    .map(|o| {
                        Json::Obj(vec![
                            ("plan".into(), Json::str(&o.plan)),
                            ("faults_fired".into(), Json::uint(o.faults_fired as u64)),
                            ("crashed".into(), Json::Bool(o.crashed)),
                            ("recovered".into(), Json::Bool(o.recovered)),
                            ("digests_match".into(), Json::Bool(o.digests_match)),
                            ("answers_match".into(), Json::Bool(o.answers_match)),
                            ("bound_respected".into(), Json::Bool(o.bound_respected)),
                            ("stale_answers".into(), Json::uint(o.stale_answers)),
                            (
                                "expected_failure".into(),
                                match &o.expected_failure {
                                    None => Json::Null,
                                    Some(k) => Json::str(k),
                                },
                            ),
                            ("ok".into(), Json::Bool(o.ok)),
                            ("detail".into(), Json::str(&o.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "ok".into(),
            Json::Bool(outcomes.iter().all(|o| o.ok) && !outcomes.is_empty()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{generate_trace, ServeAlgebra, TraceSpec};
    use crate::spec::TopologySpec;
    use dbf_telemetry::NoopSink;

    fn trace() -> ChurnTrace {
        generate_trace(&TraceSpec {
            topology: TopologySpec::Ring { n: 10 },
            algebra: ServeAlgebra::Hopcount { limit: 20 },
            events: 200,
            seed: 5,
            query_permille: 150,
            weight_permille: 100,
        })
        .expect("spec is valid")
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("dbf-chaos-mod-{}-{tag}", std::process::id()))
    }

    #[test]
    fn plan_files_round_trip_the_fault_vocabulary() {
        let plan = load_plan(
            "seed = 9\n\n[[fault]]\nkind = \"kill_worker\"\nat = 2\nworker = 1\n\n\
             [[fault]]\nkind = \"crash\"\nat = 40\n\n\
             [[fault]]\nkind = \"truncate_wal\"\nbytes = 16\n",
        )
        .expect("plan parses");
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.faults().len(), 3);
        assert_eq!(plan.faults()[0].kind, FaultKind::KillWorker { worker: 1 });
        assert_eq!(plan.faults()[1].at, 40);
        assert!(load_plan("[[fault]]\nkind = \"warp\"\n").is_err());
    }

    #[test]
    fn every_builtin_plan_has_a_name_and_parses() {
        for name in builtin_plan_names() {
            assert!(builtin_plan(name, 100).is_some(), "{name}");
        }
        assert!(builtin_plan("no-such-plan", 100).is_none());
    }

    #[test]
    fn process_crash_plan_recovers_to_identical_digests() {
        let trace = trace();
        let dir = temp_dir("crash");
        let plan = builtin_plan("process-crash", trace.events.len()).unwrap();
        let outcome = run_chaos(&trace, "process-crash", plan, 2, 16, &dir, &mut NoopSink)
            .expect("harness runs");
        assert!(outcome.crashed, "{}", outcome.detail);
        assert!(outcome.ok, "{}", outcome.detail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_corrupt_plan_fails_recovery_cleanly() {
        let trace = trace();
        let dir = temp_dir("corrupt");
        let plan = builtin_plan("wal-corrupt", trace.events.len()).unwrap();
        let outcome = run_chaos(&trace, "wal-corrupt", plan, 2, 16, &dir, &mut NoopSink)
            .expect("harness runs");
        assert!(outcome.crashed);
        assert_eq!(outcome.expected_failure.as_deref(), Some("wal"));
        assert!(outcome.ok, "{}", outcome.detail);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_kill_plan_survives_with_identical_digests() {
        let trace = trace();
        let dir = temp_dir("kill");
        let plan = builtin_plan("worker-kill", trace.events.len()).unwrap();
        let outcome = run_chaos(&trace, "worker-kill", plan, 4, 16, &dir, &mut NoopSink)
            .expect("harness runs");
        assert!(!outcome.crashed);
        assert!(outcome.ok, "{}", outcome.detail);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
