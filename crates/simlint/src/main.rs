//! `cargo run -p simlint [-- <flags>] [ROOT]` — walk a source tree and
//! report lossy-cast, unit-safety, overflow, shared-state and RNG-stream
//! rule violations.
//!
//! Exit codes:
//!   0  clean (no findings after suppression)
//!   1  one or more findings reported
//!   2  a file could not be parsed, or the invocation itself was invalid

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use simlint::{analyze_tree, emit, Rule};

const HELP: &str = "\
simlint — static analysis for the simulator workspace

usage: simlint [OPTIONS] [ROOT]

  ROOT             directory to scan (default: the workspace root / cwd)

options:
  --emit FORMAT    output format: text (default) or sarif
  --explain [RULE] print the rule table and exit; with a rule id (e.g.
                   `--explain P3`), print that rule's full rationale
  -h, --help       print this help and exit

exit codes:
  0  clean — no findings
  1  findings reported
  2  parse error (a scanned file could not be parsed) or bad usage

Suppress a finding with `// simlint: allow(RULE) — reason` on (or above)
the offending line. Unused allows are themselves reported (rule S1).
";

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("simlint: {msg}");
    eprintln!("run `simlint --help` for usage");
    ExitCode::from(2)
}

/// Default scan root: the workspace root when invoked via `cargo run -p
/// simlint` (two levels up from this crate), else the cwd.
fn default_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(|crates| crates.parent())
        .filter(|ws| ws.join("Cargo.toml").is_file())
        .map(|ws| ws.to_path_buf())
        .unwrap_or_else(|| PathBuf::from("."))
}

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut sarif = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--explain" => {
                // Optional rule-id operand: `--explain P3` prints the full
                // rationale for one rule; bare `--explain` prints the table.
                if let Some(next) = args.next() {
                    let Some(r) = Rule::parse(&next) else {
                        return usage_error(&format!(
                            "unknown rule `{next}` for --explain (try `--explain` \
                             for the full table)"
                        ));
                    };
                    println!("{}", r.explain());
                    return ExitCode::SUCCESS;
                }
                for r in Rule::ALL {
                    println!("{}", r.title());
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{HELP}");
                return ExitCode::SUCCESS;
            }
            "--emit" => {
                sarif = match args.next().as_deref() {
                    Some("text") => false,
                    Some("sarif") => true,
                    Some(other) => {
                        return usage_error(&format!(
                            "unknown --emit format `{other}` (expected text or sarif)"
                        ));
                    }
                    None => return usage_error("--emit needs a value: text or sarif"),
                };
            }
            _ if arg.starts_with('-') => {
                return usage_error(&format!("unknown option `{arg}`"));
            }
            _ if root.is_none() => root = Some(PathBuf::from(arg)),
            _ => return usage_error("more than one ROOT given"),
        }
    }
    let root = root.unwrap_or_else(default_root);

    let analysis = match analyze_tree(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("simlint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if sarif {
        print!(
            "{}",
            emit::to_sarif(&analysis.findings, &analysis.parse_failures)
        );
    } else {
        for f in &analysis.findings {
            println!("{f}");
        }
        for e in &analysis.parse_failures {
            eprintln!("{e}");
        }
        if analysis.findings.is_empty() && analysis.parse_failures.is_empty() {
            println!(
                "simlint: clean — {} files scanned under {}",
                analysis.scanned,
                root.display()
            );
        } else {
            println!(
                "simlint: {} finding(s), {} parse error(s) in {} files scanned under {} \
                 (suppress with `// simlint: allow(RULE) — reason`)",
                analysis.findings.len(),
                analysis.parse_failures.len(),
                analysis.scanned,
                root.display()
            );
        }
    }

    if !analysis.parse_failures.is_empty() {
        ExitCode::from(2)
    } else if analysis.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
