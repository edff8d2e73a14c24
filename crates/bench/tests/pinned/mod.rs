//! The expected files, and the check that an experiment still writes its
//! own byte for byte.

// Each test file that includes this module uses part of it.
#![allow(dead_code)]

use dbf_bench::{render, EXPERIMENTS};
use std::path::PathBuf;

/// The experiments whose rows `tests/paper_tables.rs` also reads: the
/// paper's two tables.  `tests/expected.rs` checks every other id.
pub const TABLES: [&str; 2] = ["table1", "table2"];

/// `crates/bench/expected`.
pub fn expected_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected")
}

/// What experiment `id` writes, if that is exactly `expected/<id>.txt`;
/// otherwise the output and the first line that moved.
pub fn output(id: &str) -> Result<String, String> {
    let (_, run) = EXPERIMENTS
        .iter()
        .find(|(name, _)| *name == id)
        .unwrap_or_else(|| panic!("{id} is not an experiment"));
    let expected =
        std::fs::read_to_string(expected_dir().join(format!("{id}.txt"))).expect("readable");
    let got = render(*run);
    if got == expected {
        return Ok(got);
    }
    let line = got
        .lines()
        .zip(expected.lines())
        .position(|(g, e)| g != e)
        .unwrap_or(got.lines().count().min(expected.lines().count()));
    Err(format!(
        "{id} (first difference at line {}):\n{got}",
        line + 1
    ))
}
