//! Tier-1 gate: the workspace must stay clean under its own static
//! analysis pass (`simlint --explain` lists its six rules: D4, U1, O1, P1,
//! P3, S1), every file must parse, and the linter itself must stay inside
//! its size budget. Equivalent to `cargo run -p simlint` exiting 0, but
//! enforced by `cargo test` so a violating change cannot land even when
//! the CI lint job is skipped. The scan covers `crates/simlint` too, so
//! this is also the analyzer's self-lint. The determinism rules clippy
//! ships (default hashers, wall clock, `.unwrap()`, wildcard arms,
//! `thread_local!`) are CI's `cargo clippy` step, not this test; hot-path
//! allocation is `tests/alloc_budget.rs`.

use std::path::Path;

#[test]
fn workspace_has_no_simlint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let analysis = simlint::analyze_tree(root).expect("workspace tree scans");
    assert!(
        analysis.scanned > 50,
        "suspiciously few files scanned ({}) — walker broken?",
        analysis.scanned
    );
    assert!(
        analysis.parse_failures.is_empty(),
        "simlint could not parse {} file(s):\n{}",
        analysis.parse_failures.len(),
        analysis
            .parse_failures
            .iter()
            .map(|e| e.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        analysis.findings.is_empty(),
        "simlint found {} violation(s):\n{}",
        analysis.findings.len(),
        analysis
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// DESIGN.md, "Static analysis & invariant audit" → "Size budget".
const SIMLINT_SRC_LINE_BUDGET: usize = 6_900;

#[test]
fn simlint_stays_inside_its_size_budget() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/simlint/src");
    let mut lines = 0;
    for entry in std::fs::read_dir(&src).expect("crates/simlint/src exists") {
        let path = entry.expect("directory entry reads").path();
        if path.extension().is_some_and(|e| e == "rs") {
            lines += std::fs::read_to_string(&path)
                .expect("source file reads")
                .lines()
                .count();
        }
    }
    assert!(
        lines <= SIMLINT_SRC_LINE_BUDGET,
        "crates/simlint/src is {lines} lines, over its {SIMLINT_SRC_LINE_BUDGET}-line budget: \
         delete something, or raise the budget together with the DESIGN.md paragraph \
         (\"Static analysis & invariant audit\" → \"Size budget\") arguing why the linter \
         has to grow"
    );
}
