//! `simlint` — the workspace's determinism/invariant static-analysis pass.
//!
//! The paper's claims are paired comparisons on the same seeds, so every
//! run must be bit-deterministic. The golden-fingerprint tests catch a
//! regression *after* it changed results; this crate keeps the usual
//! sources out of the tree in the first place. It is hermetic and
//! dependency-free, in the spirit of the in-repo `minijson`.
//!
//! # Pipeline
//!
//! One pass over the file set, with one of everything:
//!
//! 1. [`lex`] tokenizes each file exactly once: tokens with lines and byte
//!    spans, comments as first-class records (the `allow` directives live
//!    in them).
//! 2. [`parse`] shapes the tokens into a tolerant AST ([`ast`]). Only
//!    lexer errors and unbalanced delimiters are fatal — such a file is
//!    reported as a parse failure (exit code 2) and contributes no
//!    findings; everything else degrades to opaque nodes.
//! 3. [`sym`] builds the workspace symbol table from every parsed file.
//! 4. Per-file checks: [`tokens`] scans the token stream for D4 (a
//!    spelling rule that needs no types), and [`sem`] walks the AST with
//!    local type inference ([`infer`]) for U1 and O1, recording
//!    per-function facts as it goes.
//! 5. [`callgraph`] links those facts into a workspace call graph;
//!    [`flow`] (P1, P3) runs on it and attaches witness chains from an
//!    engine hot root.
//! 6. Suppression, once, over all findings of a file — then S1 reports
//!    every `allow` that suppressed nothing or names no rule.
//!
//! # Rules
//!
//! [`Rule::explain`] is the single source of the rule table
//! (`cargo run -p simlint -- --explain [RULE]`). DESIGN.md records what
//! each rule has caught and which guard replaced each retired rule —
//! default hashers, wall-clock reads, `.unwrap()`, wildcard arms and
//! `thread_local!` are clippy's (the workspace `[lints]` table and
//! `clippy.toml`), hot-path allocation is measured by
//! `tests/alloc_budget.rs`.
//!
//! *Sim scope* is `dcsim`, `netsim`, `core` (faircc), `cc-*`, `fairsim`,
//! `fleet`, `simtrace`, the workspace root's `src/`, `tests/` and
//! `examples/`, and anything else outside `crates/` (the self-test
//! fixtures). The support crates (`minijson`, `workloads`, `metrics`,
//! `fluid`, `bench`, `simlint` itself) only answer to P1, for statics the
//! engine hot paths reach. The benchmark (`benchmark/`, a timing harness
//! and a package of its own) is not scanned.
//!
//! # Suppression
//!
//! A finding is suppressed by a comment on the same line, or on a
//! comment-only line directly above:
//!
//! ```text
//! let k = (us / interval).ceil() as usize; // simlint: allow(D4) — bounded count
//! ```
//!
//! Multiple ids separate with commas: `simlint: allow(U1, O1)`. Doc
//! comments are documentation, not directives.
//!
//! # Heuristics, stated plainly
//!
//! This is not a type checker. The token rules see spelling, not
//! meaning: D4 flags an integer cast whose operand *visibly* involves a
//! float (a literal, an `f64`/`f32` token, `.round()`/`.ceil()`/
//! `.floor()`), so a float hidden behind a variable evades it. The
//! semantic rules fire only on positively identified types, so
//! incomplete inference means silence rather than noise. The runtime
//! `sim-audit` layer is the backstop for what static analysis cannot see.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod emit;
pub mod flow;
pub mod infer;
pub mod lex;
pub mod parse;
pub mod sem;
pub mod sym;
pub mod tokens;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One of the determinism/invariant rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    /// Lossy float→integer casts outside `units.rs`.
    D4,
    /// Arithmetic mixing unit newtypes with raw integers or each other.
    U1,
    /// Unchecked `+`/`*`/`+=` on u64 quantities in dcsim/netsim.
    O1,
    /// Shared mutable state in sim code or reachable from engine hot paths.
    P1,
    /// DetRng stream discipline violated across call chains.
    P3,
    /// `simlint: allow(...)` comments that suppress nothing or name no rule.
    S1,
}

impl Rule {
    /// Every rule, in id order.
    pub const ALL: [Rule; 6] = [Rule::D4, Rule::U1, Rule::O1, Rule::P1, Rule::P3, Rule::S1];

    /// The short id used in reports and suppression comments.
    pub fn id(self) -> &'static str {
        match self {
            Rule::D4 => "D4",
            Rule::U1 => "U1",
            Rule::O1 => "O1",
            Rule::P1 => "P1",
            Rule::P3 => "P3",
            Rule::S1 => "S1",
        }
    }

    /// The rule table's single source: a title line (`ID — what`, also
    /// the `--explain` table row and the SARIF short description), then
    /// what the rule catches, where it applies, and how to fix findings.
    pub fn explain(self) -> &'static str {
        match self {
            Rule::D4 => {
                "D4 — lossy float→integer casts.\n\n\
                 `as u64` on a float-valued time/byte expression truncates, and the \
                 result can differ across platforms when the float computation does. \
                 The cast is flagged when its operand visibly involves a float: a \
                 float literal, an f64/f32 token, or .round()/.ceil()/.floor() — on \
                 whichever lines the operand spans.\n\n\
                 Scope: sim code, except units.rs (the audited conversion helpers).\n\n\
                 Fix: route conversions through BitRate::from_bps_f64 / \
                 Nanos::from_ns_f64, or carry an allow with the reason."
            }
            Rule::U1 => {
                "U1 — unit-mixing arithmetic.\n\n\
                 Adding Nanos to Bytes, or a unit newtype to a raw integer without \
                 an operator impl, bypasses the type discipline the newtypes exist \
                 for; so does mixing u64s escaped from two different units.\n\n\
                 Scope: sim code, except units.rs/time.rs.\n\n\
                 Fix: convert explicitly via named constructors or .as_u64() at an \
                 audited boundary."
            }
            Rule::O1 => {
                "O1 — unchecked u64 arithmetic in hot paths.\n\n\
                 dcsim/netsim hot paths multiply byte counts by rates; silent \
                 wraparound on +, *, += or *= corrupts schedules rather than \
                 crashing.\n\n\
                 Scope: dcsim/netsim non-test code, on u64s escaped from a unit \
                 newtype (inside units.rs/time.rs: all integer + and *).\n\n\
                 Fix: saturating_*/checked_*, or an allow naming the bound that \
                 makes overflow impossible."
            }
            Rule::P1 => {
                "P1 — shared mutable global state.\n\n\
                 A `static mut` or a static Cell/RefCell/Mutex/OnceLock/atomic is \
                 run-to-run state outside the simulation context: it survives \
                 between runs in one process and makes results depend on which \
                 thread ran what. (thread_local! is clippy's disallowed_macros.)\n\n\
                 Scope: every such static declared in sim code, and any declared \
                 elsewhere that the engine hot paths (run*/step, scheduler push/pop, \
                 port enqueue/dequeue) reach; findings carry the witness call \
                 chain.\n\n\
                 Fix: thread the state through &mut self / function parameters."
            }
            Rule::P3 => {
                "P3 — DetRng stream discipline across call chains.\n\n\
                 Each subsystem owns one stream: 0 workload, 1 ECMP, 2 RED, \
                 3 feedback, 4 faults. A subsystem-named function (fault, ecmp, \
                 red, workload/arrival, feedback — or anything it calls) that \
                 constructs DetRng::new(seed) or calls .stream(n) with another \
                 subsystem's n couples draw sequences between subsystems, so \
                 enabling one perturbs the others (the zero-cost-when-off \
                 contract of fault injection). A raw `.stream(2)` is flagged \
                 anywhere.\n\n\
                 Scope: sim non-test code. Functions that fan out two or more \
                 streams are distributors and exempt from subsystem context.\n\n\
                 Fix: accept a DetRng handle from the caller, and name streams via \
                 the *_STREAM constants instead of raw numbers."
            }
            Rule::S1 => {
                "S1 — dead allow comments.\n\n\
                 A `simlint: allow(RULE)` whose rule does not fire on the lines it \
                 covers suppresses nothing today and a real finding tomorrow; one \
                 naming an id that is not a rule (a typo, a retired rule) was never \
                 a suppression at all.\n\n\
                 Scope: every non-doc comment.\n\n\
                 Fix: delete the comment or correct the id."
            }
        }
    }

    /// The title line of [`Rule::explain`].
    pub fn title(self) -> &'static str {
        self.explain().lines().next().unwrap_or_default()
    }

    /// Parse a rule id.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = s.trim();
        Rule::ALL.into_iter().find(|r| r.id() == s)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path as displayed (relative to the scan root).
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// 1-based column (byte offset within the line); 1 when the
    /// producing rule is line-granular.
    pub col: usize,
    /// The violated rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A finding at byte offset `pos` of the lexed file.
    pub(crate) fn at(
        path: &str,
        lexed: &lex::Lexed,
        pos: usize,
        rule: Rule,
        message: String,
    ) -> Finding {
        let (line, col) = lexed.line_col(pos);
        Finding {
            path: path.to_string(),
            line,
            col,
            rule,
            message,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: error[{}]: {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Which rule set a file gets, derived from its workspace path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Full rule set: the deterministic simulation stack.
    Sim,
    /// Support code (minijson, workloads, metrics, fluid, bench,
    /// simlint): P1 for statics the engine hot paths reach.
    Support,
}

/// Classify a workspace-relative path into a rule scope.
///
/// Anything not recognizably inside a support crate — including the root
/// package's `src/`, `tests/`, and `examples/`, and out-of-tree files such
/// as the self-test fixtures — gets the full sim rule set.
pub fn scope_of(path: &str) -> Scope {
    let norm = path.replace('\\', "/");
    if let Some(rest) = norm.split("crates/").nth(1) {
        let krate = rest.split('/').next().unwrap_or("");
        return match krate {
            "minijson" | "workloads" | "metrics" | "fluid" | "bench" | "simlint" => Scope::Support,
            _ => Scope::Sim,
        };
    }
    Scope::Sim
}

/// Directories never descended into during a tree walk. `benchmark` is
/// the timing harness, a package of its own that `cargo clippy
/// --workspace` does not cover either.
const SKIP_DIRS: [&str; 5] = ["target", ".git", "fixtures", "node_modules", "benchmark"];

/// Recursively collect the `.rs` files under `root`, sorted for
/// deterministic report order.
fn collect_rust_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_str()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// The result of running the pipeline over a set of files.
#[derive(Debug, Default)]
pub struct Analysis {
    /// Post-suppression findings, sorted by (path, line, col, rule).
    pub findings: Vec<Finding>,
    /// Files that could not be analyzed (lexer error or unbalanced
    /// delimiters); they contribute no findings.
    pub parse_failures: Vec<parse::ParseFailure>,
    /// Number of files analyzed.
    pub scanned: usize,
}

/// One `simlint: allow(...)` directive found in a file's comments.
struct AllowSite {
    line: usize,
    end_line: usize,
    /// The listed ids that name a rule.
    rules: Vec<Rule>,
    /// The listed ids that do not.
    unknown: Vec<String>,
    /// Byte offset of the comment.
    pos: usize,
    comment_only: bool,
    used: bool,
}

impl AllowSite {
    fn covers(&self, line: usize) -> bool {
        (self.line <= line && line <= self.end_line)
            || (self.comment_only && line == self.end_line + 1)
    }
}

/// The ids listed by every `simlint: allow(U1, D4)` directive in a
/// comment, as written.
fn allow_ids(comment: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find("simlint: allow(") {
        let args = &rest[at + "simlint: allow(".len()..];
        let Some(close) = args.find(')') else { break };
        out.extend(args[..close].split(',').map(str::trim));
        rest = &args[close..];
    }
    out
}

/// Collect allow directives from lexed comments. Doc comments (`///`,
/// `//!`) are documentation, not directives — example allow text inside
/// them neither suppresses nor goes stale.
fn allows_from_lexed(lexed: &lex::Lexed) -> Vec<AllowSite> {
    let mut out = Vec::new();
    for c in lexed.comments.iter().filter(|c| !c.doc) {
        let ids = allow_ids(&c.text);
        if ids.is_empty() {
            continue;
        }
        let comment_only =
            (c.line..=c.end_line).all(|l| !lexed.line_has_code.get(l).copied().unwrap_or(false));
        let (mut rules, mut unknown) = (Vec::new(), Vec::new());
        for id in ids {
            match Rule::parse(id) {
                Some(r) => rules.push(r),
                None => unknown.push(id.to_string()),
            }
        }
        out.push(AllowSite {
            line: c.line,
            end_line: c.end_line,
            rules,
            unknown,
            pos: c.span.lo,
            comment_only,
            used: false,
        });
    }
    out
}

/// Drop the findings an allow covers, then report the dead allows (S1):
/// unknown ids, and directives none of whose rules fired.
fn apply_allows(path: &str, lexed: &lex::Lexed, raw: &mut Vec<Finding>) {
    let mut allows = allows_from_lexed(lexed);
    raw.retain(|f| {
        let mut keep = true;
        for a in allows.iter_mut() {
            if a.covers(f.line) && a.rules.contains(&f.rule) {
                a.used = true;
                keep = false;
            }
        }
        keep
    });
    for a in &allows {
        for id in &a.unknown {
            let message = format!(
                "`{id}` is not a simlint rule (`simlint --explain` lists them), so \
                 this allow suppresses nothing; correct the id or delete it"
            );
            raw.push(Finding::at(path, lexed, a.pos, Rule::S1, message));
        }
        if !a.used && !a.rules.is_empty() {
            let ids: Vec<&str> = a.rules.iter().map(|r| r.id()).collect();
            let message = format!(
                "stale `simlint: allow({})` — it suppresses nothing on this or the \
                 next line; delete it",
                ids.join(", ")
            );
            raw.push(Finding::at(path, lexed, a.pos, Rule::S1, message));
        }
    }
}

/// Run the pipeline over an in-memory set of `(display_path, source)`
/// files. `display_path` drives both scope classification and the paths
/// embedded in findings. The workspace symbol table and call graph are
/// built from every file that parses, so cross-file resolution works.
pub fn analyze_files(files: &[(String, String)]) -> Analysis {
    // Lex + parse, each file once.
    let mut parse_failures = Vec::new();
    let mut parsed: Vec<(ast::File, lex::Lexed)> = Vec::with_capacity(files.len());
    for (path, src) in files {
        match parse::parse_file(path, src) {
            Ok(p) => parsed.push(p),
            Err(e) => parse_failures.push(e),
        }
    }
    let symbols = sym::Symbols::build(parsed.iter().map(|(f, _)| f));

    // Per-file checks: the token rule and the semantic rules, collecting
    // the call-graph facts the interprocedural pass consumes.
    let mut raws: Vec<Vec<Finding>> = Vec::with_capacity(parsed.len());
    let mut facts: Vec<callgraph::FileFacts> = Vec::with_capacity(parsed.len());
    for (file, lexed) in &parsed {
        let mut raw = tokens::check(&file.path, lexed);
        let (sem_findings, file_facts) = sem::check_file(file, lexed, &symbols);
        raw.extend(sem_findings);
        raws.push(raw);
        facts.push(file_facts);
    }

    // Interprocedural pass over the workspace call graph. Runs before
    // suppression so P findings can be allowed and S1 accounts for them.
    let graph = callgraph::CallGraph::build(facts);
    for f in flow::check(&graph) {
        if let Some(i) = parsed.iter().position(|(file, _)| file.path == f.path) {
            raws[i].push(f);
        }
    }

    let mut findings = Vec::new();
    for ((file, lexed), mut raw) in parsed.iter().zip(raws) {
        apply_allows(&file.path, lexed, &mut raw);
        findings.extend(raw);
    }

    findings
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    parse_failures.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Analysis {
        findings,
        parse_failures,
        scanned: files.len(),
    }
}

/// Read every `.rs` file under `root` into memory, with root-relative
/// display paths.
pub fn read_tree(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for path in collect_rust_files(root)? {
        let display = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        out.push((display, src));
    }
    Ok(out)
}

/// Run the pipeline over every `.rs` file under `root`.
pub fn analyze_tree(root: &Path) -> io::Result<Analysis> {
    Ok(analyze_files(&read_tree(root)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings_in(path: &str, src: &str) -> Vec<Finding> {
        let a = analyze_files(&[(path.to_string(), src.to_string())]);
        assert!(a.parse_failures.is_empty(), "{:?}", a.parse_failures);
        a.findings
    }

    fn rules_in(path: &str, src: &str) -> Vec<Rule> {
        let mut r: Vec<Rule> = findings_in(path, src).into_iter().map(|f| f.rule).collect();
        r.sort();
        r.dedup();
        r
    }

    #[test]
    fn every_rule_has_a_title_and_round_trips_its_id() {
        for r in Rule::ALL {
            assert!(r.title().starts_with(r.id()), "{}", r.title());
            assert!(r.explain().contains("Fix:"), "{r} explains its fix");
            assert_eq!(Rule::parse(r.id()), Some(r));
        }
        assert_eq!(Rule::parse("D6"), None, "retired ids are not rules");
    }

    #[test]
    fn suppression_same_line_and_line_above() {
        let same = "fn f(x: f64) { let k = x.ceil() as usize; } // simlint: allow(D4) — bounded\n";
        assert!(rules_in("crates/fairsim/src/a.rs", same).is_empty());
        let above =
            "// simlint: allow(D4) — bounded count\nfn f(x: f64) { let k = x.ceil() as usize; }\n";
        assert!(rules_in("crates/fairsim/src/a.rs", above).is_empty());
        // The wrong rule id does not suppress (and is itself stale).
        let wrong = "fn f(x: f64) { let k = x.ceil() as usize; } // simlint: allow(U1)\n";
        assert_eq!(
            rules_in("crates/fairsim/src/a.rs", wrong),
            vec![Rule::D4, Rule::S1]
        );
        // A suppression only reaches one line down.
        let far = "// simlint: allow(D4)\n\nfn f(x: f64) { let k = x.ceil() as usize; }\n";
        assert_eq!(
            rules_in("crates/fairsim/src/a.rs", far),
            vec![Rule::D4, Rule::S1]
        );
    }

    #[test]
    fn suppression_lists_multiple_rules() {
        let src =
            "fn f(x: f64, t: Nanos) -> Nanos { t + x.ceil() as u64 } // simlint: allow(D4, U1)\n";
        assert!(rules_in("crates/dcsim/src/a.rs", src).is_empty());
        let bare = "fn f(x: f64, t: Nanos) -> Nanos { t + x.ceil() as u64 }\n";
        assert_eq!(
            rules_in("crates/dcsim/src/a.rs", bare),
            vec![Rule::D4, Rule::U1]
        );
    }

    #[test]
    fn unknown_allow_ids_are_reported_even_beside_a_used_one() {
        let src = "fn f(x: f64) -> u64 { x.ceil() as u64 } // simlint: allow(D4, D55)\n";
        let f = findings_in("crates/dcsim/src/a.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::S1);
        assert!(
            f[0].message.contains("`D55` is not a simlint rule"),
            "{}",
            f[0].message
        );
    }

    #[test]
    fn doc_comment_allows_are_documentation() {
        let src = "/// e.g. `// simlint: allow(D4)`\nfn f() {}\n";
        assert!(rules_in("crates/dcsim/src/a.rs", src).is_empty());
    }

    #[test]
    fn finding_display_format() {
        let f = findings_in(
            "crates/dcsim/src/a.rs",
            "fn f(x: f64) -> u64 { x.ceil() as u64 }\n",
        );
        let line = format!("{}", f[0]);
        assert!(
            line.starts_with("crates/dcsim/src/a.rs:1: error[D4]:"),
            "{line}"
        );
    }

    #[test]
    fn unparseable_files_fail_without_findings() {
        let a = analyze_files(&[(
            "crates/dcsim/src/a.rs".to_string(),
            "fn f() { let v = x.unwrap(; }\n".to_string(),
        )]);
        assert_eq!(a.parse_failures.len(), 1);
        assert!(a.findings.is_empty(), "{:?}", a.findings);
    }

    #[test]
    fn scope_classification() {
        assert_eq!(scope_of("crates/dcsim/src/engine.rs"), Scope::Sim);
        assert_eq!(scope_of("crates/cc-hpcc/src/lib.rs"), Scope::Sim);
        assert_eq!(scope_of("crates/bench/src/lib.rs"), Scope::Support);
        assert_eq!(scope_of("crates/minijson/src/lib.rs"), Scope::Support);
        assert_eq!(scope_of("crates/simlint/src/lib.rs"), Scope::Support);
        assert_eq!(scope_of("tests/determinism.rs"), Scope::Sim);
        assert_eq!(scope_of("examples/quickstart.rs"), Scope::Sim);
    }

    #[test]
    fn tree_walk_never_enters_the_benchmark() {
        let root = std::env::temp_dir().join(format!("simlint-walk-{}", std::process::id()));
        let lossy = "fn f(x: f64) -> u64 { x.ceil() as u64 }\n";
        for dir in ["benchmark/src", "crates/dcsim/src"] {
            fs::create_dir_all(root.join(dir)).expect("temp dir is writable");
        }
        fs::write(root.join("benchmark/src/clock.rs"), lossy).expect("write");
        fs::write(root.join("crates/dcsim/src/a.rs"), lossy).expect("write");
        let a = analyze_tree(&root);
        fs::remove_dir_all(&root).expect("temp dir removable");
        let a = a.expect("tree scans");
        assert_eq!(a.scanned, 1);
        let paths: Vec<&str> = a.findings.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths, vec!["crates/dcsim/src/a.rs"]);
    }
}
