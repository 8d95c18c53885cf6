//! Self-test: one analysis of the fixture tree — exactly what CI's
//! `cargo run -p simlint -- crates/simlint/fixtures` step scans — must
//! reproduce the table below: every known-bad fixture fires its rule on
//! the listed lines (and nothing else), suppressed and clean fixtures
//! stay silent, and the unparseable one is a parse failure, not findings.

use std::collections::BTreeMap;
use std::path::Path;

use simlint::Rule;

/// `(fixture, rule, [(line, text the message must contain)])`.
type Row = (&'static str, Rule, &'static [(usize, &'static str)]);

const EXPECTED: &[Row] = &[
    (
        "bad_d4_lossy_cast.rs",
        Rule::D4,
        // Line 13: `as u64` alone on its line, the float operand above it.
        &[(3, ""), (7, ""), (13, "")],
    ),
    (
        "bad_u1_mixed_arith.rs",
        Rule::U1,
        &[
            (7, "two different units"),
            (11, "no `Add<u64>` impl"),
            (15, "wrong side"),
            (19, "escaped from `Nanos`"),
        ],
    ),
    (
        "dcsim/bad_o1_overflow.rs",
        Rule::O1,
        &[
            (8, "saturating_add"),
            (12, "saturating_mul"),
            (17, "unchecked `+=`"),
        ],
    ),
    (
        "bad_p1_shared_static.rs",
        Rule::P1,
        &[
            (8, "`static mut`"),
            // The hot-path-reachable static carries a witness call chain.
            (10, "run (bad_p1_shared_static.rs:12) → bump"),
        ],
    ),
    (
        "bad_p3_stream_context.rs",
        Rule::P3,
        &[
            // Private DetRng::new two hops below RED-marked code.
            (13, "red_mark"),
            // ECMP code borrowing RED's stream by number.
            (18, "RED_STREAM"),
            // Raw stream number where the named constant exists.
            (22, "ECMP_STREAM"),
            // Named constant of the wrong subsystem.
            (26, "RED_STREAM"),
            // The two ex-D6 cases: fault code seeding a private generator,
            // and borrowing another subsystem's stream by raw number.
            (33, "seeds a private `DetRng::new`"),
            (37, "stream 2 (RED"),
        ],
    ),
    (
        "bad_s1_stale_allow.rs",
        Rule::S1,
        &[
            (6, "stale `simlint: allow(D4)`"),
            (11, "`D1` is not a simlint rule"),
        ],
    ),
];

/// Fixtures that must produce no findings at all.
const SILENT: &[&str] = &[
    "clean_ok.rs",
    "clean_units_ok.rs",
    "suppressed_ok.rs",
    "dcsim/units.rs",
];

#[test]
fn fixture_tree_matches_the_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let analysis = simlint::analyze_tree(&root).expect("fixtures dir scans");

    let failed: Vec<&str> = analysis
        .parse_failures
        .iter()
        .map(|e| e.path.as_str())
        .collect();
    assert_eq!(failed, vec!["parse_error.rs"], "the CLI's exit-2 path");
    assert_eq!(
        analysis.scanned,
        EXPECTED.len() + SILENT.len() + failed.len(),
        "every fixture file is in the table"
    );

    let mut by_file: BTreeMap<&str, Vec<&simlint::Finding>> = BTreeMap::new();
    for f in &analysis.findings {
        by_file.entry(f.path.as_str()).or_default().push(f);
    }
    for (fixture, rule, want) in EXPECTED {
        let got = by_file.remove(fixture).unwrap_or_default();
        let got_lines: Vec<(Rule, usize)> = got.iter().map(|f| (f.rule, f.line)).collect();
        let want_lines: Vec<(Rule, usize)> = want.iter().map(|(l, _)| (*rule, *l)).collect();
        assert_eq!(got_lines, want_lines, "{fixture}: {got:#?}");
        for (f, (_, needle)) in got.iter().zip(*want) {
            assert!(f.message.contains(needle), "{fixture}:{}: {f}", f.line);
        }
    }
    assert!(
        by_file.is_empty(),
        "findings outside the table: {by_file:#?}"
    );
    assert_eq!(Rule::ALL.len(), EXPECTED.len(), "one row per rule");
}
