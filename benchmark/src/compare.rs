//! `simbench compare A.json B.json`: two result files, pair by pair.
//!
//! For every (end-to-end metric, workload) pair it prints both medians and
//! quartiles over the files' runs and B's change relative to A, and gives
//! one of three verdicts against the metric's bound in `BENCHMARK.json`:
//! *ok*, *REGRESSED* (B's median is worse than A's by more than the
//! bound), or *unresolved* (either side's run-to-run IQR is wider than the
//! bound, so the pair cannot be called unchanged). Simulated results and
//! count-type layer metrics must agree exactly.

use minijson::Value;

use crate::names::{Better, END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::suite::{e2e_runs, workload_names};

/// The contract file, as committed beside this crate's directory.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// How long one end-to-end pass measures: the contract's `run_seconds`.
pub fn run_seconds() -> u64 {
    Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses")["run_seconds"]
        .as_u64()
        .expect("run_seconds is a whole number")
}

/// The regression bound `BENCHMARK.json` fixes for an end-to-end metric.
pub fn bound_of(metric: &str) -> f64 {
    let contract = Value::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
    contract["end_to_end"]
        .as_array()
        .expect("end_to_end is an array")
        .iter()
        .find(|m| m["name"].as_str() == Some(metric))
        .and_then(|m| m["bound"].as_f64())
        .unwrap_or_else(|| panic!("BENCHMARK.json fixes no bound for {metric}"))
}

/// How one pair compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is no worse than A by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread of a side exceeds the bound.
    Unresolved,
}

/// Compare one pair's runs. Returns B's change relative to A (positive =
/// worse) and the verdict.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (f64, Verdict) {
    let (a1, a2, a3) = quartiles(a);
    let (b1, b2, b3) = quartiles(b);
    let worse = match better {
        Better::Lower => (b2 - a2) / a2,
        Better::Higher => (a2 - b2) / a2,
    };
    let spread = ((a3 - a1) / a2).max((b3 - b1) / b2);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Compare two parsed result files; prints the table and returns whether
/// every pair is ok or unresolved and every exact quantity agrees.
pub fn compare(a: &Value, b: &Value) -> bool {
    let mut clean = true;
    println!(
        "A: rev {} seed {}   B: rev {} seed {}",
        a["rev"].as_str().unwrap_or("?"),
        a["seed"].as_u64().unwrap_or(0),
        b["rev"].as_str().unwrap_or("?"),
        b["seed"].as_u64().unwrap_or(0),
    );
    if a["seed"] != b["seed"] {
        println!("note: the files were recorded on different seeds; only same-seed files compare");
    }
    println!(
        "{:<14} {:<16} {:>12} {:>23} {:>12} {:>23} {:>9} {:>7}  verdict",
        "workload",
        "metric",
        "A median",
        "A quartiles",
        "B median",
        "B quartiles",
        "B vs A",
        "bound"
    );
    for w in workload_names(a) {
        for d in END_TO_END {
            let (ra, rb) = (e2e_runs(a, &w, d.name), e2e_runs(b, &w, d.name));
            if ra.is_empty() || rb.is_empty() {
                println!("{w:<14} {:<16} missing from one file", d.name);
                clean = false;
                continue;
            }
            let bound = bound_of(d.name);
            let (worse, verdict) = judge(&ra, &rb, d.better, bound);
            let (a1, a2, a3) = quartiles(&ra);
            let (b1, b2, b3) = quartiles(&rb);
            let word = match verdict {
                Verdict::Ok => "ok",
                Verdict::Regressed => "REGRESSED",
                Verdict::Unresolved => "unresolved (spread > bound)",
            };
            println!(
                "{w:<14} {:<16} {a2:>12.5} [{a1:>10.5},{a3:>10.5}] {b2:>12.5} [{b1:>10.5},{b3:>10.5}] {:>+8.2}% {:>6.1}%  {word}{}",
                d.name,
                worse * 100.0,
                bound * 100.0,
                if ra.len() < 4 || rb.len() < 4 { " (n<4)" } else { "" },
            );
            clean &= verdict != Verdict::Regressed;
        }
        let (wa, wb) = (&a["workloads"][w.as_str()], &b["workloads"][w.as_str()]);
        if wa["sim"] != wb["sim"] {
            println!(
                "{w:<14} simulated results DIFFER: {} vs {}",
                wa["sim"], wb["sim"]
            );
            clean = false;
        }
        for d in PER_LAYER.iter().filter(|d| d.unit == "count") {
            let (va, vb) = (
                &wa["per_layer"][d.name]["value"],
                &wb["per_layer"][d.name]["value"],
            );
            if va != vb {
                println!("{w:<14} {:<34} count DIFFERS: {va} vs {vb}", d.name);
                clean = false;
            }
        }
    }
    println!(
        "{}",
        if clean {
            "compare: no pair regressed; simulated results and counts agree exactly"
        } else {
            "compare: differences above (exact ones are expected only from a change that alters \
             simulated behaviour or event structure on purpose)"
        }
    );
    clean
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [1.00, 1.01, 0.99, 1.00, 1.00];
        let slower = [1.10, 1.11, 1.09, 1.10, 1.10];
        assert_eq!(
            judge(&steady, &slower, Better::Lower, 0.05).1,
            Verdict::Regressed
        );
        assert_eq!(judge(&steady, &slower, Better::Lower, 0.15).1, Verdict::Ok);
        // For a higher-is-better metric the same numbers are an improvement.
        assert_eq!(judge(&steady, &slower, Better::Higher, 0.05).1, Verdict::Ok);
        assert_eq!(
            judge(&slower, &steady, Better::Higher, 0.05).1,
            Verdict::Regressed
        );
        let noisy = [0.8, 1.0, 1.3, 0.9, 1.2];
        assert_eq!(
            judge(&steady, &noisy, Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        let (worse, _) = judge(&steady, &slower, Better::Lower, 0.05);
        assert!((worse - 0.10).abs() < 1e-9);
    }

    #[test]
    fn every_end_to_end_metric_has_a_bound_in_the_contract() {
        for d in END_TO_END {
            let bound = bound_of(d.name);
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", d.name);
        }
    }
}
