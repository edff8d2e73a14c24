//! Every deterministic experiment writes exactly its expected file: the
//! paper's tables and figures are pinned byte for byte.
//!
//! `expected/<id>.txt` is what `experiments <id>` prints.  A mismatch
//! means an experiment's computation moved; when that is intended, the
//! file is re-recorded from the binary (`experiments <id> >
//! crates/bench/expected/<id>.txt`) and the diff shown in review.  The two
//! tables are checked in `tests/paper_tables.rs`, which also reads their
//! rows.

mod pinned;

use dbf_bench::EXPERIMENTS;
use pinned::{expected_dir, TABLES};
use std::collections::BTreeSet;

#[test]
fn every_experiment_writes_its_expected_file() {
    let files: BTreeSet<String> = std::fs::read_dir(expected_dir())
        .expect("the expected directory")
        .map(|entry| entry.expect("a directory entry").file_name())
        .filter_map(|name| Some(name.to_str()?.strip_suffix(".txt")?.to_string()))
        .collect();
    let ids: BTreeSet<String> = EXPERIMENTS.iter().map(|(id, _)| id.to_string()).collect();
    assert_eq!(files, ids, "one expected file per deterministic experiment");

    let moved: Vec<String> = EXPERIMENTS
        .iter()
        .filter(|(id, _)| !TABLES.contains(id))
        .filter_map(|(id, _)| pinned::output(id).err())
        .collect();
    assert!(moved.is_empty(), "experiments moved:\n{}", moved.join("\n"));
}
