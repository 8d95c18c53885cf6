//! Command line of the benchmark; see `README.md` for the three forms.

use std::path::PathBuf;
use std::process::ExitCode;

use minijson::Value;
use simbench::alloc::CountingAlloc;
use simbench::names::{END_TO_END, PER_LAYER};
use simbench::suite::{run_suite, SuiteOpts};
use simbench::workload::{end_to_end, Workload};
use simbench::{compare, output, traced};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  simbench --workload NAME --seed N --seconds S --trace 0|1
      one pass over one workload; the last line of output is the result object
  simbench suite [--seed N] [--runs K] [--smoke] [--rev LABEL] [--out FILE]
      every workload, both passes, each in a child process
  simbench compare A.json B.json
      two result files of `suite`, pair by pair against the bounds
workloads: incast96 fattree32 fattree320 faults32 sweep-incast";

/// `--flag value` pairs and bare words of a command line.
struct Args {
    flags: Vec<(String, String)>,
    words: Vec<String>,
}

impl Args {
    fn parse(argv: &[String], switches: &[&str]) -> Result<Args, String> {
        let mut args = Args {
            flags: Vec::new(),
            words: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if switches.contains(&a.as_str()) {
                args.flags.push((a.clone(), String::new()));
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                args.flags.push((a.clone(), v.clone()));
            } else {
                args.words.push(a.clone());
            }
        }
        Ok(args)
    }

    /// The value of `flag` (the last one, if it is given twice).
    fn get(&self, flag: &str) -> Option<&str> {
        self.flags
            .iter()
            .rfind(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }

    fn number(&self, flag: &str, default: Option<u64>) -> Result<u64, String> {
        match self.get(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag} needs a whole number, got `{v}`")),
            None => default.ok_or_else(|| format!("{flag} is required")),
        }
    }

    fn only_known(&self, known: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(f, _)| !known.contains(&f.as_str()))
        {
            Some((f, _)) => Err(format!("unknown argument {f}")),
            None => Ok(()),
        }
    }
}

/// One pass over one workload: the driver's contract.
fn one_pass(args: &Args) -> Result<bool, String> {
    args.only_known(&["--workload", "--seed", "--seconds", "--trace"])?;
    let name = args.get("--workload").unwrap_or("");
    let workload = Workload::from_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = args.number("--seed", None)?;
    let seconds = args.number("--seconds", None)?;
    let (pass, table) = match args.number("--trace", None)? {
        0 => (end_to_end(workload, seed, seconds as f64)?, END_TO_END),
        1 => (traced::traced(workload, seed), PER_LAYER),
        other => return Err(format!("--trace is 0 or 1, got {other}")),
    };
    output::print_pass(workload, seed, &pass, table);
    Ok(pass.checks.failed == 0)
}

fn suite(args: &Args) -> Result<bool, String> {
    args.only_known(&["--seed", "--runs", "--smoke", "--rev", "--out"])?;
    let smoke = args.get("--smoke").is_some();
    let opts = SuiteOpts {
        seed: args.number("--seed", Some(42))?,
        // A smoke run times one iteration: the loop always runs once.
        seconds: if smoke { 0 } else { compare::run_seconds() },
        runs: if smoke {
            1
        } else {
            args.number("--runs", Some(1))?.max(1) as usize
        },
        rev: args.get("--rev").unwrap_or("unknown").to_string(),
        out: args.get("--out").map(PathBuf::from),
    };
    run_suite(&opts).map(|()| true)
}

fn compare_files(args: &Args) -> Result<bool, String> {
    args.only_known(&[])?;
    let [_, a, b] = args.words.as_slice() else {
        return Err("compare takes two result files".to_string());
    };
    let load = |path: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Value::parse(&text).map_err(|e| format!("{path}: {}", e.message))
    };
    Ok(compare::compare(&load(a)?, &load(b)?))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = Args::parse(&argv, &["--smoke"]).and_then(|args| {
        match args.words.first().map(String::as_str) {
            None => one_pass(&args),
            Some("suite") if args.words.len() == 1 => suite(&args),
            Some("compare") => compare_files(&args),
            Some(other) => Err(format!("unknown command `{other}`")),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("simbench: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
