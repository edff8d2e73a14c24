//! Pinned per-phase counters of the seeded engines.
//!
//! `delta`, `sim`, `bgp` and `rip` draw from a seeded RNG in an order the
//! code fixes: which peers a node announces to and in what order, which
//! imports a decision folds over.  A refactor that reorders a draw or a
//! listener list still converges to the same fixed point, so agreement
//! tests pass while every count quietly shifts.  This table was recorded
//! at the commit before the engines moved to cached export lists and
//! sparse imports (PR 15); a difference is a behaviour change, not noise.

use dbf_scenario::prelude::*;

const PINNED: &str = include_str!("fixtures/pinned_counters.txt");

#[test]
fn seeded_engine_counters_match_the_recorded_table() {
    let mut actual = String::new();
    for builtin in [
        builtins::policy_rich_bgp,
        builtins::count_to_infinity,
        builtins::bgp_wedgie,
    ] {
        for kind in [
            EngineKind::Delta,
            EngineKind::Sim,
            EngineKind::Bgp,
            EngineKind::Rip,
        ] {
            let mut spec = builtin();
            let name = spec.name.clone();
            spec.engines = vec![kind];
            spec.seeds = vec![1, 2];
            if (descriptor(kind).supports)(&spec).is_err() {
                continue;
            }
            let report = run_scenario(&spec).expect("a builtin runs");
            for run in &report.runs {
                for (k, p) in run.phases.iter().enumerate() {
                    actual.push_str(&format!(
                        "{name} {} phase={k} rounds={} work={} messages={:?} bytes={:?} digest={}\n",
                        run.engine, p.rounds, p.work, p.messages, p.bytes, p.digest
                    ));
                }
            }
        }
    }
    assert!(
        actual == PINNED,
        "seeded engine counters moved; the run produced:\n{actual}"
    );
}
