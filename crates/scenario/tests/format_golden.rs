//! The text every spec vocabulary writes is frozen: each builtin scenario
//! and sweep as TOML, `gen-trace` output, and a trace that uses every event
//! kind, pinned as `(bytes, FNV-1a)`.  The pins were recorded from the
//! hand-written encoders, before the writers were derived from the same key
//! lists as the readers; a mismatch means a writer moved — fix the writer,
//! never the table (on mismatch the test prints the table it computed).
//! The builtin and every-variant pins were re-recorded once, when the
//! `threaded` engine left the registry: each builtin that listed it lost
//! exactly the 12 bytes of that list element, and the fuzz generator lost
//! the draw that requested it.

use dbf_scenario::report::Digest;
use dbf_scenario::{
    builtins, gen, sweeps, AlgebraSpec, ChangeSpec, ChurnTrace, FaultSpec, Scenario, SppGadget,
    TopologySpec, WeightRule,
};
use std::process::Command;

fn pin(name: &str, text: &str) -> (String, usize, String) {
    let mut d = Digest::default();
    d.update(text);
    (name.to_string(), text.len(), d.finish())
}

fn check(what: &str, got: &[(String, usize, String)], want: &[(&str, usize, &str)]) {
    let want: Vec<(String, usize, String)> = want
        .iter()
        .map(|&(n, b, h)| (n.to_string(), b, h.to_string()))
        .collect();
    if got != want {
        let table: String = got
            .iter()
            .map(|(n, b, h)| format!("        ({n:?}, {b}, {h:?}),\n"))
            .collect();
        panic!("{what} moved; this build writes:\n{table}");
    }
}

#[test]
fn every_builtin_scenario_writes_the_recorded_toml() {
    let got: Vec<_> = builtins::all()
        .iter()
        .map(|s| pin(&s.name, &s.to_toml_string()))
        .collect();
    assert_eq!(got.len(), 11, "eleven builtins");
    check(
        "builtin TOML",
        &got,
        &[
            ("count-to-infinity", 821, "7454e9b6885bc7e6"),
            ("bgp-wedgie", 548, "f467760d72ee7e9e"),
            ("bad-gadget", 479, "b48ae485dc635b7e"),
            ("flapping-link", 1295, "cd2e677b5e5601e7"),
            ("partition-and-heal", 1054, "4f3afaa5d63e9b89"),
            ("adversarial-loss", 618, "2138023c4760eabc"),
            ("widest-fabric", 764, "849003222fc7c302"),
            ("growing-network", 956, "b4aa895fbeb71516"),
            ("as-hierarchy", 834, "ecb8e74f4e0e37b0"),
            ("policy-rich-bgp", 813, "668863dfe54af647"),
            ("gao-rexford-mesh", 782, "e056abbc0b50313e"),
        ],
    );
}

#[test]
fn every_builtin_sweep_writes_the_recorded_toml() {
    let got: Vec<_> = sweeps::all()
        .iter()
        .map(|s| pin(&s.name, &s.to_toml_string()))
        .collect();
    check(
        "sweep TOML",
        &got,
        &[
            ("smoke", 657, "40229e32acefbcb0"),
            ("count-to-infinity-scaling", 955, "d626962ed5ffd4f6"),
            ("loss-rate-robustness", 847, "87aeeacd1ee6f6d6"),
            ("delay-bound-stress", 749, "cd30658962f8486e"),
            ("hop-limit-scaling", 1031, "bde55f091f47c92f"),
            ("widest-fabric-scaling", 1224, "4b4df2d4deb3d56e"),
        ],
    );
}

/// One scenario per topology family, algebra, change op and schedule kind
/// the builtins leave out, then the fuzz generator's scenarios and sweeps
/// (random families, adversarial schedules, seeds of 2⁶³ and more).
fn every_variant() -> String {
    let base = builtins::by_name("count-to-infinity").expect("builtin");
    let mut out = String::new();
    let mut push = |edit: &dyn Fn(&mut Scenario)| {
        let mut s = base.clone();
        edit(&mut s);
        out.push_str(&s.to_toml_string());
    };
    for topology in [
        TopologySpec::Line { n: 4 },
        TopologySpec::Complete { n: 4 },
        TopologySpec::Grid { rows: 2, cols: 3 },
        TopologySpec::ConnectedRandom {
            n: 5,
            p: 0.25,
            seed: u64::MAX - 6,
        },
        TopologySpec::AsGraph {
            n: 9,
            m: 2,
            seed: 3,
        },
        TopologySpec::Explicit {
            nodes: 3,
            links: vec![(0, 1), (1, 2)],
        },
    ] {
        push(&|s| s.topology = topology.clone());
    }
    for algebra in [
        AlgebraSpec::Widest {
            weights: WeightRule::varied(),
        },
        AlgebraSpec::Spp {
            gadget: SppGadget::Good,
        },
    ] {
        push(&|s| s.algebra = algebra.clone());
    }
    push(&|s| {
        s.phases[0].changes = vec![
            ChangeSpec::SetEdge { from: 0, to: 2 },
            ChangeSpec::RemoveEdge { from: 2, to: 0 },
            ChangeSpec::SetWeight {
                from: 1,
                to: 2,
                weight: 7,
            },
            ChangeSpec::AddNode,
        ];
        s.phases[0].faults = FaultSpec::adversarial_stale(2, 5);
    });
    for seed in 0..200 {
        out.push_str(&gen::scenario_case(seed).to_toml_string());
    }
    for seed in 0..50 {
        out.push_str(&gen::sweep_case(seed).to_toml_string());
    }
    out
}

#[test]
fn every_variant_writes_the_recorded_toml() {
    check(
        "every-variant TOML",
        &[pin("every-variant", &every_variant())],
        &[("every-variant", 211247, "617d80d1670de520")],
    );
}

#[test]
fn gen_trace_writes_the_recorded_text() {
    let dir = std::env::temp_dir().join(format!("dbf-format-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let runs: [(&str, &[&str]); 3] = [
        ("hopcount", &[]),
        (
            "shortest-weights",
            &["--algebra", "shortest", "--weights", "100"],
        ),
        ("line-hopcount", &["--topology", "line", "--nodes", "9"]),
    ];
    let got: Vec<_> = runs
        .iter()
        .map(|(name, extra)| {
            let path = dir.join(format!("{name}.trace"));
            let run = Command::new(env!("CARGO_BIN_EXE_scenarios"))
                .args(["gen-trace", "--nodes", "24", "--events", "2000"])
                .args(["--seed", "5", "--queries", "150", "--out"])
                .arg(&path)
                .args(*extra)
                .output()
                .expect("run gen-trace");
            assert!(
                run.status.success(),
                "{name}: {}",
                String::from_utf8_lossy(&run.stderr)
            );
            pin(
                name,
                &std::fs::read_to_string(&path).expect("trace written"),
            )
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    check(
        "gen-trace text",
        &got,
        &[
            ("hopcount", 29087, "47a947c61d4d0a78"),
            ("shortest-weights", 29797, "7ef287e0f33a54f5"),
            ("line-hopcount", 26727, "7433b844dc4d416a"),
        ],
    );
}

/// Every event kind the line vocabulary has, each verb at least once.
const EVERY_EVENT: &str = "# dbf-churn-trace v2
topology star 6
algebra hopcount 9
set_link 1 2
set_edge 2 3
query 1 3
remove_edge 0 4
fail_link 0 5
add_node
set_link 6 0
set_weight 6 0 4
query 6 3
set_weight 3 2 18446744073709551614
query 3 2
";

#[test]
fn a_trace_with_every_event_kind_round_trips_to_the_recorded_text() {
    let trace = ChurnTrace::parse(EVERY_EVENT).expect("parses");
    assert_eq!(trace.events.len(), 11);
    let text = trace.to_text();
    assert_eq!(text, EVERY_EVENT, "parse/to_text round trip");
    check(
        "every-event trace",
        &[pin("every-event", &text)],
        &[("every-event", 217, "f06cac7edbdcac6a")],
    );
}
