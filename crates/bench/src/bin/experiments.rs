//! The experiment driver: prints every table and figure of the paper (and
//! the behavioural claims of its theorems).
//!
//! Usage:
//!
//! ```text
//! cargo run -p dbf-bench --bin experiments             # run everything
//! cargo run -p dbf-bench --bin experiments -- table1   # run one experiment
//! ```
//!
//! The experiments are [`dbf_bench::EXPERIMENTS`], whose output
//! `crates/bench/expected/` pins byte for byte.  An unknown name is an
//! error (exit status 2) that lists them.

use dbf_bench::{render, EXPERIMENTS};

fn main() {
    let which: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = which
        .iter()
        .find(|w| !EXPERIMENTS.iter().any(|(name, _)| name == w))
    {
        let names: Vec<_> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        eprintln!(
            "unknown experiment {unknown:?}\nusage: experiments [NAME...]   NAME one of: {}",
            names.join(", ")
        );
        std::process::exit(2);
    }
    for (name, run) in EXPERIMENTS {
        if which.is_empty() || which.iter().any(|w| w == name) {
            print!("{}", render(run));
        }
    }
}
