//! `repro` — regenerate the paper's figures.
//!
//! ```text
//! repro <figure>... [--full-scale] [--seed N] [--json]
//! repro all [--full-scale] [--seed N]
//! repro --sweep NAME_OR_FILE [--ensemble N] [--sweep-out FILE] [--seed N] [--json]
//! repro list
//! ```
//!
//! The figures are the rows of [`bench::FIGURES`] — fig1-fig6 and
//! fig8-fig13 (fig7 is the topology diagram), the ablations, and the
//! fault-injection sweep `faults` (also spelled `--faults`); `repro list`
//! prints each with its caption. `--json` emits the per-run summaries of
//! the same runs for the rows that have a JSON form.
//!
//! `--sweep NAME_OR_FILE` runs a declarative fleet sweep instead of a
//! figure: a preset name (`repro list` prints them) or a path to a
//! `fleet::SweepSpec` JSON file. The report (per-cell p50/p95/p99/p99.9
//! slowdown, ensemble medians, bootstrap 95% CIs) prints as a text table,
//! or as report JSON with `--json`; `--sweep-out FILE` also writes the
//! JSON to a file. `--ensemble N` overrides the spec's replicate count and
//! `--seed` its root seed. Exits 1 if any run stalled.
//!
//! Both modes run under one `fleet::SweepConfig`: `--jobs N` (the
//! worker-pool width; never affects a byte of output) and tracing. A flag
//! the chosen mode would ignore is an error.
//!
//! Default scale runs the incast microbenchmarks exactly as in the paper
//! and the fat-tree simulations at reduced scale (see DESIGN.md);
//! `--full-scale` switches the fat-tree runs to the paper's 320 hosts and
//! 50 ms (about 8 minutes and 1.2 GB per variant by `benchmark/README.md`'s
//! extrapolation).
//!
//! `--trace DIR` writes per-run trace artifacts under `DIR`:
//! `<figure-or-sweep>.<run>.s<seed>.trace.jsonl`, `.chrome.json` for
//! Perfetto, and `.metrics.json`, where `<run>` is the sweep cell's slug
//! (`incast-deg-16-cc-hpcc`) or, for the figures that are not sweeps, the
//! row label. `--trace-filter SUB` (repeatable) restricts event collection
//! to the named subsystems.

use bench::{Figure, FigureCtx, Scale, DEFAULT_SEED, FAULTS, FIGURES};
use fairsim::{Subsystem, TraceConfig};

/// The `--trace-filter` values, `sep`-joined.
fn subsystems(sep: &str) -> String {
    Subsystem::ALL.map(Subsystem::name).join(sep)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full_scale = false;
    let mut seed: Option<u64> = None;
    let mut json = false;
    let mut cfg = fleet::SweepConfig::new();
    let mut trace_cfg = TraceConfig::full();
    let mut figures: Vec<String> = Vec::new();
    let mut sweep: Option<String> = None;
    let mut ensemble: Option<usize> = None;
    let mut sweep_out: Option<std::path::PathBuf> = None;

    let mut i = 0;
    // The argument of the flag at `i`; `what` completes "--flag needs ...".
    let value = |i: &mut usize, what: &str| -> String {
        let flag = &args[*i];
        *i += 1;
        args.get(*i)
            .cloned()
            .unwrap_or_else(|| die(&format!("{flag} needs {what}")))
    };
    let count = |i: &mut usize, what: &str| -> usize {
        let flag = args[*i].clone();
        match value(i, what).parse() {
            Ok(n) if n >= 1 => n,
            _ => die(&format!("{flag} needs {what}")),
        }
    };
    while i < args.len() {
        match args[i].as_str() {
            "--full-scale" => full_scale = true,
            "--json" => json = true,
            "--faults" => figures.push(FAULTS.to_string()),
            "--seed" => {
                let n = value(&mut i, "an integer").parse();
                seed = Some(n.unwrap_or_else(|_| die("--seed needs an integer")));
            }
            "--trace" => {
                cfg.trace_dir = Some(value(&mut i, "a directory path").into());
            }
            "--trace-filter" => {
                let what = subsystems("|");
                let sub = value(&mut i, &what).parse();
                let sub = sub.unwrap_or_else(|_| die(&format!("--trace-filter needs {what}")));
                trace_cfg = trace_cfg.with_filter(sub);
            }
            "--sweep" => sweep = Some(value(&mut i, "a preset name or spec file")),
            "--ensemble" => ensemble = Some(count(&mut i, "a replicate count >= 1")),
            "--jobs" => cfg.workers = Some(count(&mut i, "a worker count >= 1")),
            "--sweep-out" => sweep_out = Some(value(&mut i, "a file path").into()),
            "list" => {
                for f in FIGURES {
                    println!("{:<22} {}", f.name, f.caption);
                }
                println!();
                println!("sweep presets (use with --sweep):");
                for p in fleet::preset_names() {
                    println!("{p}");
                }
                return;
            }
            "all" => figures.extend(FIGURES.iter().map(|f| f.name.to_string())),
            "-h" | "--help" => {
                print_usage();
                return;
            }
            other if other.starts_with('-') => {
                die(&format!("unknown flag {other}"));
            }
            other => figures.push(other.to_string()),
        }
        i += 1;
    }

    if figures.is_empty() && sweep.is_none() {
        print_usage();
        std::process::exit(2);
    }

    if cfg.trace_dir.is_some() {
        cfg.trace = trace_cfg;
    }

    if let Some(target) = sweep {
        if !figures.is_empty() {
            die("--sweep and figure names are mutually exclusive");
        }
        if full_scale {
            die("--full-scale does not apply to --sweep (set `full_scale` in the spec file)");
        }
        run_sweep_mode(&target, seed, ensemble, &cfg, json, sweep_out);
        return;
    }
    if ensemble.is_some() {
        die("--ensemble applies to --sweep only (figures run one seed)");
    }
    if sweep_out.is_some() {
        die("--sweep-out applies to --sweep only");
    }

    // Resolve every name before running anything.
    let rows: Vec<_> = figures
        .iter()
        .map(|f| Figure::named(f).unwrap_or_else(|msg| die(&msg)))
        .collect();
    if let Some(f) = rows.iter().find(|f| json && !f.has_json()) {
        die(&format!("figure '{}' has no JSON form", f.name));
    }
    let ctx = FigureCtx {
        scale: if full_scale {
            Scale::Full
        } else {
            Scale::Reduced
        },
        seed: seed.unwrap_or(DEFAULT_SEED),
        sweep: cfg,
    };
    for f in rows {
        let out = f.run(&ctx);
        match out.json {
            Some(v) if json => println!("{}", v.pretty()),
            _ => println!("{}", out.text),
        }
    }
}

/// Resolve, run, and report a fleet sweep. Exits 1 if any run stalled.
fn run_sweep_mode(
    target: &str,
    seed: Option<u64>,
    ensemble: Option<usize>,
    cfg: &fleet::SweepConfig,
    json: bool,
    sweep_out: Option<std::path::PathBuf>,
) {
    let mut spec = match fleet::preset(target) {
        Some(spec) => spec,
        None => {
            let text = std::fs::read_to_string(target).unwrap_or_else(|e| {
                die(&format!(
                    "--sweep '{target}' is neither a preset (run `repro list`) \
                     nor a readable spec file: {e}"
                ))
            });
            fleet::SweepSpec::parse(&text)
                .unwrap_or_else(|e| die(&format!("cannot parse sweep spec {target}: {e}")))
        }
    };
    if let Some(seed) = seed {
        spec.ensemble.root_seed = seed;
    }
    if let Some(n) = ensemble {
        spec.ensemble.replicates = n;
    }

    let outcome = fleet::run_sweep(&spec, cfg);
    let report = outcome.report();
    if json {
        println!("{}", report.to_json());
    } else {
        println!("{}", report.render_text());
    }
    if let Some(path) = sweep_out {
        std::fs::write(&path, format!("{}\n", report.to_json()))
            .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", path.display())));
    }
    if outcome.any_stalled() {
        eprintln!(
            "repro: sweep '{}' had stalled runs (see outcomes)",
            spec.name
        );
        std::process::exit(1);
    }
}

fn print_usage() {
    eprintln!(
        "usage: repro <figure>... [--full-scale] [--faults] | repro all | \
         repro --sweep NAME_OR_FILE [--ensemble N] [--sweep-out FILE] | repro list\n\
         either mode: [--seed N] [--json] [--jobs N] [--trace DIR] [--trace-filter SUB]..."
    );
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("figures: {}", names.join(" "));
    eprintln!("sweep presets: {}", fleet::preset_names().join(" "));
    eprintln!("trace subsystems: {}", subsystems(" "));
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    std::process::exit(2);
}
