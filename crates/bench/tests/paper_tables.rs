//! The paper's tables, pinned and read:
//!
//! * **Table 1** — the algebraic property matrix for every bundled algebra
//!   (which laws are required, which optional ones each algebra satisfies);
//! * **Table 2** — each example algebra solves its stated path problem.
//!
//! Each test checks that its experiment writes `expected/<id>.txt` byte
//! for byte, then reads the rows for the facts the paper states, so a
//! re-recorded file cannot quietly flip one.

mod pinned;

fn table(id: &str) -> String {
    pinned::output(id).unwrap_or_else(|moved| panic!("experiment moved: {moved}"))
}

#[test]
fn table1_property_matrix_for_the_bundled_algebras() {
    let out = table("table1");
    // The marks after a row's name, routes and edges columns, in the
    // header's order: assoc comm sel 0̄ann ∞̄id ∞̄fix incr strict distr.
    let marks = |algebra: &str| -> Vec<bool> {
        let line = out
            .lines()
            .find(|line| {
                line.strip_prefix(algebra)
                    .is_some_and(|rest| rest.starts_with(' '))
            })
            .unwrap_or_else(|| panic!("no T1 row for {algebra}"));
        let cells: Vec<&str> = line[algebra.len()..].split_whitespace().skip(2).collect();
        assert_eq!(cells.len(), 9, "{algebra}: {line}");
        cells.iter().map(|cell| *cell == "✓").collect()
    };

    // (algebra, increasing, strictly increasing, distributive)
    let rows = [
        ("shortest-paths", true, true, true),
        ("longest-paths", false, false, true),
        ("widest-paths", true, false, true),
        ("most-reliable-paths", true, true, true),
        ("bounded-hop-count(15)", true, true, true),
        ("filtered-shortest-paths", true, true, false),
        ("stratified-shortest-paths", true, true, false),
        ("bgp-section7(5)", true, true, false),
        ("gao-rexford(5)", true, true, false),
        ("path-vector(shortest,5)", true, true, false),
    ];
    for (algebra, incr, strict, distr) in rows {
        let m = marks(algebra);
        assert!(
            m[..6].iter().all(|&law| law),
            "{algebra}: every bundled algebra must satisfy the Definition 1 laws"
        );
        assert_eq!(m[6], incr, "{algebra}: increasing");
        assert_eq!(m[7], strict, "{algebra}: strictly increasing");
        assert_eq!(m[8], distr, "{algebra}: distributive");
    }

    // The deliberately broken direct product is rejected by the checkers.
    let broken = marks("direct-product (broken)");
    assert!(!broken[..6].iter().all(|&law| law));
    assert!(!broken[2], "direct-product (broken): selective");
}

#[test]
fn table2_algebras_solve_their_path_problems() {
    let out = table("table2");
    // Each problem's rows, and what every one of them must read.
    let problems = [
        ("shortest paths", "oracle"),
        ("widest paths", "oracle"),
        ("most reliable paths", "oracle"),
        ("bounded hop count", "equals-unit-shortest"),
        ("longest paths", "degenerate-all-∞"),
    ];
    for (problem, claim) in problems {
        let rows: Vec<(&str, &str)> = out
            .lines()
            .filter_map(|line| line.strip_prefix(problem)?.strip_prefix(", n="))
            .map(|rest| rest.split_once(' ').expect("n, then the result"))
            .collect();
        assert_eq!(rows.len(), 3, "{problem}: one row per size");
        for (n, result) in rows {
            let field = |key: &str| {
                result
                    .split_whitespace()
                    .find_map(|kv| kv.strip_prefix(key)?.strip_prefix('='))
                    .unwrap_or_else(|| panic!("{problem}, n={n}: no {key} in {result}"))
            };
            assert_eq!(field("converged"), "true", "{problem}, n={n}");
            // The exhaustive oracle runs up to n = 8 and is skipped above.
            let expected = if claim == "oracle" && n != "6" {
                "skipped"
            } else {
                "true"
            };
            assert_eq!(field(claim), expected, "{problem}, n={n}: {claim}");
        }
    }
}
