//! Golden digests of every figure's text, and `--json` == text.
//!
//! `repro <figure>` at seed 42, reduced scale, is pinned here as the
//! `fleet::fnv1a` digest of the text a `bench::FIGURES` row renders, so a
//! refactor of the harness cannot move a byte of any figure unnoticed.
//! The same run's JSON must name exactly the variants the text shows.
//! The 16-1 incasts and the fluid model run in tier-1; the rest are
//! `#[ignore]`d and CI runs them in release:
//! `cargo test --release --test figures -- --include-ignored`.

use bench::{Figure, FigureCtx, Scale, DEFAULT_SEED, FIGURES};
use fairness_repro::fleet::fnv1a;

/// `(figure, digest of its text)`, in `repro list` order.
const GOLDEN: &[(&str, u64)] = &[
    ("fig1", 0x6250_722f_e18f_ffa2),
    ("fig2", 0xc890_bbb8_157d_fa97),
    ("fig3", 0xc116_625f_75c3_0be2),
    ("fig4", 0x672f_1d27_0e9a_8a62),
    ("fig5", 0x261c_7f73_c832_b372),
    ("fig6", 0x16e1_0d27_4d5e_8020),
    ("fig8", 0x4c04_9313_4d01_9827),
    ("fig9", 0xf968_ffa0_444b_345c),
    ("fig10", 0x50af_f3e7_21b3_b239),
    ("fig11", 0x2c1c_b165_7ef8_3c69),
    ("fig12", 0x18cc_0298_b44f_8352),
    ("fig13", 0x59bd_6fe1_475f_cea2),
    ("ablation-mechanisms", 0x5ca7_b68f_154f_624c),
    ("ablation-sf", 0xf36c_90be_8880_30d9),
    ("ablation-dampener", 0x1d13_28e7_8617_33ed),
    ("ablation-hyper-ai", 0x493d_2cda_c333_95e2),
    ("ablation-timely", 0xbe5e_4698_b990_0c08),
    ("ablation-permutation", 0x0897_7731_4c27_a949),
    ("ablation-sf-increases", 0xbac6_3efc_0ea1_b438),
    ("ablation-degree", 0x003e_9510_4882_3a8d),
    ("ablation-pfc", 0x94a6_4ce8_d027_9b48),
    ("faults", 0xfab5_ac74_40bf_64f9),
];

/// The rows cheap enough for a debug-build tier-1 run.
const CHEAP: &[&str] = &["fig2", "fig4", "fig8", "fig9"];

/// The variant labels a figure's text shows, panel by panel: the `[..]`
/// suffixes of each panel's first table header (`jain[HPCC]`,
/// `finish(us)[Swift VAI SF]`, `p99.9[HPCC]`).
fn text_labels(text: &str) -> Vec<String> {
    let mut labels = Vec::new();
    for panel in text.split("== ").skip(1) {
        let header = panel
            .lines()
            .find(|l| l.contains('['))
            .expect("a header row");
        for cell in header.split(']') {
            if let Some((_, label)) = cell.split_once('[') {
                labels.push(label.to_string());
            }
        }
    }
    labels
}

/// Render each selected figure; compare its text's digest and, where it
/// has a JSON form, the JSON's labels with the text's. Reports every
/// mismatch at once.
fn check(select: impl Fn(&str) -> bool) {
    let ctx = FigureCtx::new(Scale::Reduced, DEFAULT_SEED);
    let mut moved = Vec::new();
    for &(name, want) in GOLDEN.iter().filter(|(name, _)| select(name)) {
        let fig = Figure::named(name).expect("a pinned figure is in the table");
        let out = fig.run(&ctx);
        let got = fnv1a(&out.text);
        if got != want {
            moved.push(format!("(\"{name}\", {got:#018x}), // was {want:#018x}"));
        }
        assert_eq!(out.json.is_some(), fig.has_json(), "{name}");
        // fig4's JSON is rows of numbers, not labelled runs.
        let runs = out
            .json
            .as_ref()
            .and_then(|v| v[0].get("label").and(v.as_array()));
        if let Some(runs) = runs {
            let json_labels: Vec<&str> = runs.iter().filter_map(|r| r["label"].as_str()).collect();
            assert_eq!(
                json_labels,
                text_labels(&out.text),
                "{name}: --json != text"
            );
        }
    }
    assert!(moved.is_empty(), "figure text moved:\n{}", moved.join("\n"));
}

#[test]
fn cheap_figures_keep_their_text() {
    check(|name| CHEAP.contains(&name));
}

#[test]
#[ignore = "runs every figure (~20 s in release); CI runs it with --include-ignored"]
fn every_figure_keeps_its_text() {
    let pinned: Vec<&str> = GOLDEN.iter().map(|&(name, _)| name).collect();
    let table: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    assert_eq!(pinned, table, "a figure without a golden digest");
    check(|name| !CHEAP.contains(&name));
}
