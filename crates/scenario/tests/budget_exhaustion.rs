//! Regression suite for bound-derived iterate budgets.
//!
//! The σ engines no longer run on a hard-coded `4n² + 64` horizon when the
//! spec admits a convergence theorem: `run.rs` attaches the phase's
//! predicted synchronous bound as [`Problem::round_budget`] and the
//! engines iterate at most `bound + 1` times.  The failure mode this
//! pins down: a budget too small to reach the fixed point must surface as
//! `sigma_stable = false` in the phase outcome (which the checker then
//! reports like any other expectation failure) — never as a panic, an
//! infinite loop, or a silently-truncated "stable" state.

use dbf_algebra::prelude::*;
use dbf_matrix::AdjacencyMatrix;
use dbf_scenario::engine::{descriptor, run_engine, Problem};
use dbf_scenario::prelude::*;
use dbf_telemetry::NoopSink;
use dbf_topology::generators;

fn ring_problems(budget: Option<u64>) -> Vec<Problem<BoundedHopCount>> {
    let topo = generators::ring(6).with_weights(|_, _| 1u64);
    let mut problem = Problem::new(
        "ring",
        AdjacencyMatrix::from_topology(&topo),
        FaultSpec::default(),
    );
    problem.round_budget = budget;
    vec![problem]
}

#[test]
fn budget_exhausted_phases_report_instability_instead_of_panicking() {
    let alg = BoundedHopCount::new(16);
    for kind in [EngineKind::Sync, EngineKind::Incremental] {
        let run = |budget| run_engine(kind, &alg, &ring_problems(budget), 1, 1, &mut NoopSink);
        // A zero budget cannot reach the fixed point on a 6-ring…
        let starved = run(Some(0));
        assert!(
            !starved.phases[0].sigma_stable,
            "engine {kind:?}: an exhausted budget must report instability"
        );
        // …while the default (no bound ⇒ the legacy 4n² + 64 horizon) and a
        // generous bound both converge to the same digest.
        let unbounded = run(None);
        let bounded = run(Some(200));
        assert!(unbounded.phases[0].sigma_stable, "engine {kind:?}");
        assert!(bounded.phases[0].sigma_stable, "engine {kind:?}");
        assert_eq!(
            unbounded.phases[0].digest, bounded.phases[0].digest,
            "engine {kind:?}: the budget must not change the fixed point"
        );
    }
}

/// A fixed point that lands exactly on the `bound + 1` budget is stable for
/// both σ engines: a 6-ring needs three rounds, a bound of 2 allows three,
/// and one uncommitted round over the frontier decides.  The phase then
/// reads as a bound violation (3 rounds against 2), never as a spurious
/// convergence failure.
#[test]
fn a_fixed_point_on_the_budget_boundary_is_stable_for_both_sigma_engines() {
    let alg = BoundedHopCount::new(16);
    for kind in [EngineKind::Sync, EngineKind::Incremental] {
        let mut run = run_engine(kind, &alg, &ring_problems(Some(2)), 1, 1, &mut NoopSink);
        run.phases[0].predicted_bound = Some(2);
        let phase = &run.phases[0];
        assert!(phase.sigma_stable, "engine {kind:?}");
        assert_eq!(phase.digest, "f96fea0ef7a43205", "engine {kind:?}");
        assert_eq!(phase.rounds, 3, "engine {kind:?}");
        assert!(!phase.within_bound(), "engine {kind:?}");
    }
}

/// The checker-facing half of the regression: an unstable truncated phase
/// combined with a violated annotation fails `within_bound` and renders
/// as a bound violation, exactly like a differential failure.
#[test]
fn truncated_outcomes_fail_the_bound_check_downstream() {
    let alg = BoundedHopCount::new(16);
    let mut run = run_engine(
        EngineKind::Sync,
        &alg,
        &ring_problems(Some(0)),
        1,
        1,
        &mut NoopSink,
    );
    // Annotate the way `run.rs` does: the budget came from this bound.
    run.phases[0].predicted_bound = Some(0);
    let phase = &run.phases[0];
    assert!(!phase.within_bound(), "{} rounds vs bound 0", phase.rounds);
    assert!(phase.tightness().is_none(), "a zero bound has no ratio");
}

/// Every σ entry point follows one budget rule: at each budget from 0 to
/// two rounds past the 6-ring's fixed point (three changing rounds), the
/// library's whole-state, pooled, dirty-row and blocked iterations and the
/// driver's two σ engines report the same `converged`, and wherever a
/// state comes back the flag is what `is_stable` says of it.  A fixed point
/// that lands exactly on the budget (budget 3) is converged for all of
/// them.  The driver's budget is `bound + 1`, so it starts at 1.
#[test]
fn every_sigma_entry_point_reports_one_verdict_at_every_budget() {
    use dbf_matrix::prelude::*;
    let alg = BoundedHopCount::new(16);
    let adj = ring_problems(None).remove(0).adj;
    let x0 = RoutingState::identity(&alg, 6);
    for budget in 0..=5usize {
        let sync = iterate_to_fixed_point(&alg, &adj, &x0, budget);
        let par = par_iterate_to_fixed_point(&alg, &adj, &x0, budget, 2);
        let dirty = iterate_dirty_to_fixed_point(&alg, &adj, &x0, &[true; 6], budget);
        let mut verdicts = Vec::new();
        for (name, converged, state) in [
            ("sync", sync.converged, &sync.state),
            ("par2", par.converged, &par.state),
            ("dirty", dirty.converged, &dirty.state),
        ] {
            assert_eq!(
                converged,
                is_stable(&alg, &adj, state),
                "budget {budget}: {name}'s flag is not is_stable on its state"
            );
            verdicts.push((name, converged));
        }
        for width in [1, 3, 6] {
            let blocked = blocked_fixed_point(&alg, &adj, width, budget, |_, _, _| {});
            verdicts.push(("blocked", blocked.converged));
        }
        if let Some(bound) = budget.checked_sub(1) {
            for kind in [EngineKind::Sync, EngineKind::Incremental] {
                let problems = ring_problems(Some(bound as u64));
                let run = run_engine(kind, &alg, &problems, 1, 1, &mut NoopSink);
                verdicts.push((descriptor(kind).name, run.phases[0].sigma_stable));
            }
        }
        assert!(
            verdicts.iter().all(|&(_, v)| v == sync.converged),
            "budget {budget}: {verdicts:?}"
        );
        assert_eq!(sync.converged, budget >= 3, "budget {budget}");
    }
}
