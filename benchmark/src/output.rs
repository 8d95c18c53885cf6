//! What a pass prints: the log lines a person reads, the `sim` line two
//! commits are compared by, and the one-line JSON result the driver reads.

use minijson::{obj, Value};

use crate::names::MetricDef;
use crate::workload::{PassResult, SimBlock, Workload};

/// The driver's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics` (every metric of `table`, each `{value, unit}`).
pub fn result_json(pass: &PassResult, table: &[MetricDef]) -> Value {
    let metrics = pass
        .metrics
        .in_table_order(table)
        .into_iter()
        .map(|(def, value)| {
            let entry = obj([
                ("value", Value::from(value)),
                ("unit", Value::from(def.unit)),
            ]);
            (def.name.to_string(), entry)
        })
        .collect();
    obj([
        ("correct", Value::from(pass.checks.failed == 0)),
        ("attempted", Value::from(pass.checks.attempted)),
        ("failed", Value::from(pass.checks.failed)),
        ("metrics", Value::Obj(metrics)),
    ])
}

/// The simulated results as JSON. Digests are hex strings: a 64-bit value
/// does not survive a JSON number.
pub fn sim_json(sim: &SimBlock) -> Value {
    obj([
        ("digest", Value::from(format!("{:016x}", sim.digest))),
        ("events", Value::from(sim.events)),
        ("flows_offered", Value::from(sim.offered)),
        ("flows_completed", Value::from(sim.completed)),
        ("p999_long_slowdown", Value::from(sim.p999_long_slowdown)),
        (
            "jain09_converged_us",
            Value::Arr(
                sim.jain_converged_us
                    .iter()
                    .map(|&t| Value::from(t))
                    .collect(),
            ),
        ),
    ])
}

/// Print a finished pass: one line per metric, the problems if any, the
/// `sim` line, and last the result object on a line of its own.
pub fn print_pass(workload: Workload, seed: u64, pass: &PassResult, table: &[MetricDef]) {
    println!(
        "# {} seed {seed}: {} timed iteration(s), {} run(s) checked, {} failed",
        workload.name(),
        pass.iterations,
        pass.checks.attempted,
        pass.checks.failed
    );
    for (def, value) in pass.metrics.in_table_order(table) {
        println!("{:<34} {:>18.6} {}", def.name, value, def.unit);
    }
    for n in &pass.notes {
        println!("# {n}");
    }
    for p in &pass.checks.problems {
        println!("FAILED CHECK: {p}");
    }
    println!("sim (simulated, exact) {}", sim_json(&pass.sim));
    println!("{}", result_json(pass, table));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::names::{Metrics, END_TO_END, PER_LAYER};
    use crate::workload::Checks;

    fn pass_with(metrics: Metrics, failed: u64) -> PassResult {
        PassResult {
            metrics,
            checks: Checks {
                attempted: 7,
                failed,
                problems: Vec::new(),
            },
            notes: Vec::new(),
            sim: SimBlock {
                digest: u64::MAX,
                events: 3,
                offered: 2,
                completed: 2,
                p999_long_slowdown: None,
                jain_converged_us: vec![Some(12.5), None],
            },
            iterations: 1,
        }
    }

    #[test]
    fn result_object_has_exactly_the_contract_keys_and_every_declared_metric() {
        for table in [END_TO_END, PER_LAYER] {
            let mut m = Metrics::default();
            m.set(table[0].name, 1.25);
            let text = result_json(&pass_with(m, 0), table).to_string();
            assert!(!text.contains('\n'));
            let v = Value::parse(&text).expect("result line parses");
            let keys: Vec<&str> = v
                .as_object()
                .expect("an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(v["correct"].as_bool(), Some(true));
            assert_eq!(v["attempted"].as_u64(), Some(7));
            let got = v["metrics"].as_object().expect("metrics object");
            assert_eq!(got.len(), table.len());
            for (def, (name, entry)) in table.iter().zip(got) {
                assert_eq!(def.name, name);
                assert_eq!(entry["unit"].as_str(), Some(def.unit));
                assert!(entry["value"].as_f64().is_some());
            }
            assert_eq!(v["metrics"][table[0].name]["value"].as_f64(), Some(1.25));
        }
    }

    #[test]
    fn a_failed_check_makes_the_result_incorrect() {
        let v = result_json(&pass_with(Metrics::default(), 1), END_TO_END);
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert_eq!(v["failed"].as_u64(), Some(1));
    }

    #[test]
    fn sim_digest_survives_as_hex() {
        let v = sim_json(&pass_with(Metrics::default(), 0).sim);
        assert_eq!(v["digest"].as_str(), Some("ffffffffffffffff"));
        assert!(v["p999_long_slowdown"].is_null());
        assert_eq!(v["jain09_converged_us"][0].as_f64(), Some(12.5));
    }
}
