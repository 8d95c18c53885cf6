//! The whole benchmark in one command: every workload, both passes, each
//! pass in a fresh child process of this executable.
//!
//! A child per pass keeps `peak_rss_mb` and the allocator's state those of
//! one workload, and is exactly the process the benchmark driver starts —
//! the suite only repeats it, collects the result lines and writes them to
//! one file that [`crate::compare`] reads.

use std::path::PathBuf;
use std::process::Command;

use minijson::{obj, Value};

use crate::names::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::workload::{nproc, Workload};

/// What to run.
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    /// Workload seed.
    pub seed: u64,
    /// Timed seconds per end-to-end pass: the contract's `run_seconds`,
    /// or 0 for a smoke run.
    pub seconds: u64,
    /// End-to-end passes per workload (their spread is the noise floor).
    pub runs: usize,
    /// Revision label recorded in the results.
    pub rev: String,
    /// Where to write the results, if anywhere.
    pub out: Option<PathBuf>,
}

/// One child's parsed output.
struct ChildResult {
    result: Value,
    sim: Value,
}

const SIM_PREFIX: &str = "sim (simulated, exact) ";

/// Run one pass in a child process, echo its log, parse its result.
fn run_child(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate simbench: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start a child pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    let last = stdout.lines().last().unwrap_or("");
    let result = Value::parse(last)
        .map_err(|e| format!("{}: no result line ({})", workload.name(), e.message))?;
    let sim = stdout
        .lines()
        .find_map(|l| l.strip_prefix(SIM_PREFIX))
        .and_then(|s| Value::parse(s).ok())
        .ok_or_else(|| format!("{}: no sim line", workload.name()))?;
    if !out.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!(
            "{} (trace {}): a check failed, see the log above",
            workload.name(),
            u8::from(trace)
        ));
    }
    Ok(ChildResult { result, sim })
}

/// Run the suite; `Err` carries the first failed check or child.
pub fn run_suite(opts: &SuiteOpts) -> Result<(), String> {
    let mut workloads_out = Vec::new();
    for w in Workload::ALL {
        let mut e2e_runs: Vec<ChildResult> = Vec::new();
        for _ in 0..opts.runs {
            e2e_runs.push(run_child(w, opts.seed, opts.seconds, false)?);
        }
        let traced = run_child(w, opts.seed, opts.seconds, true)?;
        for r in &e2e_runs {
            if r.sim != traced.sim {
                return Err(format!(
                    "{}: the two passes disagree on the simulated results",
                    w.name()
                ));
            }
        }

        let end_to_end = END_TO_END
            .iter()
            .map(|d| {
                let runs: Vec<Value> = e2e_runs
                    .iter()
                    .map(|r| r.result["metrics"][d.name]["value"].clone())
                    .collect();
                let entry = obj([("unit", Value::from(d.unit)), ("runs", Value::Arr(runs))]);
                (d.name.to_string(), entry)
            })
            .collect();
        let per_layer = PER_LAYER
            .iter()
            .map(|d| {
                let entry = obj([
                    ("unit", Value::from(d.unit)),
                    ("value", traced.result["metrics"][d.name]["value"].clone()),
                ]);
                (d.name.to_string(), entry)
            })
            .collect();
        workloads_out.push((
            w.name().to_string(),
            obj([
                ("end_to_end", Value::Obj(end_to_end)),
                ("per_layer", Value::Obj(per_layer)),
                ("sim", traced.sim),
            ]),
        ));
    }

    let results = obj([
        ("schema", Value::from("simbench/v1")),
        ("rev", Value::from(opts.rev.as_str())),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("runs", Value::from(opts.runs)),
        ("nproc", Value::from(nproc())),
        ("workloads", Value::Obj(workloads_out)),
    ]);
    print_table(&results);
    if let Some(path) = &opts.out {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, results.pretty() + "\n")
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("results written to {}", path.display());
    }
    Ok(())
}

/// The recorded runs of one end-to-end metric of one workload.
pub fn e2e_runs(results: &Value, workload: &str, metric: &str) -> Vec<f64> {
    results["workloads"][workload]["end_to_end"][metric]["runs"]
        .as_array()
        .unwrap_or(&[])
        .iter()
        .filter_map(Value::as_f64)
        .collect()
}

/// Names of the workloads in a results file, in file order.
pub fn workload_names(results: &Value) -> Vec<String> {
    results["workloads"]
        .as_object()
        .unwrap_or(&[])
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

/// Print every metric of a results file by name, with its unit.
pub fn print_table(results: &Value) {
    println!(
        "\n== simbench  rev {}  seed {}  {} run(s) x {} s  {} core(s) ==",
        results["rev"].as_str().unwrap_or("?"),
        results["seed"].as_u64().unwrap_or(0),
        results["runs"].as_u64().unwrap_or(0),
        results["seconds"].as_u64().unwrap_or(0),
        results["nproc"].as_u64().unwrap_or(0),
    );
    for w in workload_names(results) {
        println!("\n-- {w}: end to end (median of runs; spread = IQR / median) --");
        for d in END_TO_END {
            let runs = e2e_runs(results, &w, d.name);
            if runs.is_empty() {
                continue;
            }
            println!(
                "{:<34} {:>18.6} {:<6} spread {:>6.2} %  n={}",
                d.name,
                median(&runs),
                d.unit,
                spread(&runs) * 100.0,
                runs.len()
            );
        }
        println!("-- {w}: per layer (one traced iteration) --");
        for d in PER_LAYER {
            if let Some(v) = results["workloads"][w.as_str()]["per_layer"][d.name]["value"].as_f64()
            {
                println!("{:<34} {:>18.6} {}", d.name, v, d.unit);
            }
        }
        println!(
            "-- {w}: simulated (exact) -- {}",
            results["workloads"][w.as_str()]["sim"]
        );
    }
}
