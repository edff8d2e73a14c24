//! Spec files are input from outside the program.  A value of the wrong
//! type, a negative count or a misspelled key is a `SpecError` that names
//! the key — never a wrapped number, a silent default or a panic — and a
//! spec `Scenario::validate` accepts is one that runs.

use dbf_algebra::algebra::SplitMix64;
use dbf_scenario::spec::MAX_STATE_CELLS;
use dbf_scenario::{
    builtins, load_plan, sweeps, AlgebraSpec, ChangeSpec, EngineKind, Expectation, FaultSpec,
    PhaseSpec, Scenario, SpecError, Sweep, TopologySpec,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A small valid spec; each test edits one line of it.
const SPEC: &str = r#"
name = "input"

[topology]
family = "ring"
n = 6

[algebra]
kind = "hopcount"
limit = 4
"#;

fn edited(line: &str, replacement: &str) -> Result<Scenario, SpecError> {
    assert!(SPEC.contains(line), "{line:?} is not in the spec");
    Scenario::from_toml_str(&SPEC.replacen(line, replacement, 1))
}

fn assert_names(result: Result<impl std::fmt::Debug, SpecError>, key: &str) {
    let err = result.expect_err(key);
    assert!(err.message.contains(key), "{key} not named in: {err}");
}

#[test]
fn the_unedited_spec_is_the_instance_it_describes() {
    let spec = Scenario::from_toml_str(SPEC).expect("valid");
    assert_eq!(spec.topology, TopologySpec::Ring { n: 6 });
    assert_eq!(spec.algebra, AlgebraSpec::Hopcount { limit: 4 });
}

#[test]
fn negative_and_mistyped_values_are_errors_naming_their_key() {
    // -3 used to wrap to 2⁶⁴ − 3 nodes and abort in the shape builder.
    assert_names(edited("n = 6", "n = -3"), "topology.n");
    // -1 used to wrap to u64::MAX; "4" used to fall back to the default 16.
    assert_names(edited("limit = 4", "limit = -1"), "algebra.limit");
    assert_names(edited("limit = 4", "limit = \"4\""), "algebra.limit");
    // An engine the registry does not hold (here the removed `threaded`)
    // is refused, and the error lists the six it does.
    let threaded = || {
        edited(
            "name = \"input\"",
            "name = \"input\"\nengines = [\"threaded\"]",
        )
    };
    assert_names(threaded(), "engines[0]");
    assert_names(
        threaded(),
        "not one of sync, incremental, delta, sim, rip, bgp",
    );
}

#[test]
fn a_misspelled_key_is_an_error_naming_it() {
    // The parent ignored `limt` and ran with the default limit 16.
    assert_names(edited("limit = 4", "limt = 4"), "algebra.limt");
}

#[test]
fn fault_plan_values_are_checked_like_spec_values() {
    let plan = |fault: &str| load_plan(&format!("seed = 1\n\n[[fault]]\n{fault}\n"));
    assert!(plan("kind = \"delay_flush\"\nat = 2\nmillis = 1").is_ok());
    assert_names(plan("kind = \"crash\"\nat = -1"), "fault[0].at");
    assert_names(
        plan("kind = \"delay_flush\"\nmillis = -1"),
        "fault[0].millis",
    );
}

fn ring(n: usize) -> Scenario {
    Scenario {
        name: "judged".into(),
        description: String::new(),
        topology: TopologySpec::Ring { n },
        algebra: AlgebraSpec::Hopcount { limit: 16 },
        engines: vec![EngineKind::Sync, EngineKind::Sim],
        seeds: vec![1],
        phases: vec![PhaseSpec::quiet("run")],
        expect: Expectation::default(),
    }
}

#[test]
fn validate_alone_refuses_what_run_refuses() {
    assert!(ring(3).validate().is_ok());
    let err = ring(2).validate().expect_err("a ring needs three nodes");
    assert!(err.message.contains("ring"), "{err}");

    let mut reweighed = ring(4);
    reweighed.phases.push(PhaseSpec {
        label: "reweigh".into(),
        changes: vec![ChangeSpec::SetWeight {
            from: 0,
            to: 1,
            weight: 3,
        }],
        faults: FaultSpec::default(),
    });
    let err = reweighed
        .validate()
        .expect_err("set_weight is trace-level churn");
    assert!(err.message.contains("SetWeight"), "{err}");
}

#[test]
fn a_hop_limit_the_algebra_cannot_take_is_refused_by_validate() {
    // `BoundedHopCount::new(0)` asserts, so `limit = 0` used to validate
    // and then abort `scenarios run` with a panic.
    let mut zero = ring(4);
    zero.algebra = AlgebraSpec::Hopcount { limit: 0 };
    let err = zero.validate().expect_err("limit 0");
    assert!(err.message.contains("hop-count limit 0"), "{err}");
    assert_names(edited("limit = 4", "limit = 0"), "hop-count limit 0");
}

/// Values a token mutation writes in place of a value: wrong types,
/// negatives, zero, sizes past the state cap, non-finite numbers.
const NEAR_MISSES: [&str; 16] = [
    "-1",
    "-3",
    "0",
    "2",
    "\"4\"",
    "0.5",
    "1e999",
    "true",
    "[]",
    "[0, 1]",
    "{}",
    "16385",
    "100000",
    "4000000000",
    "9223372036854775807",
    "-9223372036854775808",
];

/// One seeded mutation of a TOML document: at the byte level (flip a bit,
/// delete a byte, repeat a byte) or the token level (a value replaced by a
/// near miss, a key misspelled, a line dropped or repeated).
fn mutate(text: &str, rng: &mut SplitMix64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let at = rng.next_below(lines.len() as u64) as usize;
    let pick = |rng: &mut SplitMix64, len: usize| rng.next_below(len.max(1) as u64) as usize;
    match rng.next_below(7) {
        0 | 1 => {
            let mut bytes = std::mem::take(&mut lines[at]).into_bytes();
            if !bytes.is_empty() {
                let k = pick(rng, bytes.len());
                match rng.next_below(3) {
                    0 => bytes[k] ^= 1 << rng.next_below(7),
                    1 => drop(bytes.remove(k)),
                    _ => bytes.insert(k, bytes[k]),
                }
            }
            lines[at] = String::from_utf8_lossy(&bytes).into_owned();
        }
        2 | 3 => {
            if let Some((key, _)) = lines[at].split_once(" = ") {
                let value = NEAR_MISSES[pick(rng, NEAR_MISSES.len())];
                lines[at] = format!("{key} = {value}");
            }
        }
        4 => {
            if let Some((key, value)) = lines[at].split_once(" = ") {
                let mut key: Vec<char> = key.chars().collect();
                if !key.is_empty() {
                    key.remove(pick(rng, key.len()));
                }
                lines[at] = format!("{} = {value}", String::from_iter(key));
            }
        }
        5 if lines.len() > 1 => drop(lines.remove(at)),
        _ => {
            let line = lines[at].clone();
            lines.insert(at, line);
        }
    }
    lines.join("\n")
}

/// `cases` mutants of `text`, one to three mutations each, handed to
/// `parse` with a panic turned into a failure naming the mutant; returns
/// how many `parse` accepted.
fn mutants<T>(
    text: &str,
    seed: u64,
    cases: usize,
    mut parse: impl FnMut(&str) -> Result<T, SpecError>,
    mut accepted: impl FnMut(T),
) -> usize {
    let mut rng = SplitMix64::new(seed);
    let mut count = 0;
    for case in 0..cases {
        let mut mutant = text.to_string();
        for _ in 0..=rng.next_below(3) {
            mutant = mutate(&mutant, &mut rng);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| parse(&mutant)))
            .unwrap_or_else(|_| panic!("mutant {case} of seed {seed} panicked:\n{mutant}"));
        if let Ok(value) = outcome {
            count += 1;
            accepted(value);
        }
    }
    count
}

/// What every accepted spec must be: valid, and no larger than the cap on
/// the dense `n × n` state.
fn assert_runnable(spec: &Scenario) {
    spec.validate().expect("accepted specs are valid");
    let n = spec.phase_node_counts().last().copied().unwrap_or(0) as u64;
    assert!(n * n <= MAX_STATE_CELLS, "{n} nodes accepted");
}

#[test]
fn mutated_specs_sweeps_and_fault_plans_never_panic() {
    for (k, builtin) in builtins::all().iter().enumerate() {
        let text = builtin.to_toml_string();
        let accepted = mutants(&text, k as u64, 2000, Scenario::from_toml_str, |spec| {
            assert_runnable(&spec)
        });
        // The mutations are gentle enough that both outcomes are common.
        assert!(
            (100..1900).contains(&accepted),
            "{}: {accepted}",
            builtin.name
        );
    }

    let sweep = sweeps::by_name("widest-fabric-scaling").expect("builtin");
    let accepted = mutants(
        &sweep.to_toml_string(),
        99,
        2000,
        Sweep::from_toml_str,
        |sweep| {
            for point in sweep.grid() {
                assert_runnable(&sweep.derive_scenario(&point, 0).expect("validated"));
            }
        },
    );
    assert!((100..1900).contains(&accepted), "sweep: {accepted}");

    let plan = "seed = 7\n\n\
        [[fault]]\nkind = \"crash\"\nat = 40\n\n\
        [[fault]]\nkind = \"truncate_wal\"\nbytes = 7\n\n\
        [[fault]]\nkind = \"corrupt_wal\"\nbyte = 5\n\n\
        [[fault]]\nkind = \"delay_flush\"\nat = 1\nmillis = 50\n";
    assert_eq!(load_plan(plan).expect("valid").faults().len(), 4);
    let accepted = mutants(plan, 100, 2000, load_plan, drop);
    assert!((100..1900).contains(&accepted), "plan: {accepted}");
}
