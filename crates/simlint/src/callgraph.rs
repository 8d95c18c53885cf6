//! Workspace call graph for the interprocedural rules (P1, P3).
//!
//! The semantic walker ([`crate::sem`]) already infers a receiver type at
//! every call site; this module records those observations as per-function
//! [`FnFacts`], links them into a [`CallGraph`], and defines which
//! functions count as sim code ([`CallGraph::sim_nontest`]) and where the
//! engine's hot paths start ([`CallGraph::hot_roots`]).
//!
//! Resolution is deliberately an over-approximation in the same spirit as
//! the rest of simlint:
//!
//! - a qualified call (`Nanos::from_ns`, or a method whose receiver type
//!   was positively inferred) resolves to the unique `(type, name)` target;
//! - a method call whose receiver type is unknown resolves to *every*
//!   workspace method of that name — this is how dispatch through trait
//!   impls is covered (`s.push(..)` on a `&mut dyn Scheduler` reaches both
//!   `EventQueue::push` and `TimingWheel::push`) — capped at
//!   [`DISPATCH_FANOUT_CAP`] candidates so ubiquitous names (`new`, `len`)
//!   do not glue the whole graph together;
//! - recursion is handled by ordinary visited-set BFS, so cycles are safe.

use std::collections::BTreeMap;

use crate::{scope_of, Scope};

/// Above this many candidates an unresolved method name is considered too
/// ambiguous to produce edges (it would connect everything to everything).
pub const DISPATCH_FANOUT_CAP: usize = 8;

/// Identity of a function: the owning type (impl/trait) and its name.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct FnKey {
    /// `Some(type or trait name)` for methods/associated fns, `None` for
    /// free functions.
    pub owner: Option<String>,
    /// Function name as written.
    pub name: String,
}

impl FnKey {
    /// Render for diagnostics: `Type::name` or `name`.
    pub fn display(&self) -> String {
        match &self.owner {
            Some(o) => format!("{o}::{}", self.name),
            None => self.name.clone(),
        }
    }
}

/// One outgoing call observed inside a function body.
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Resolved owner type when the receiver/path was identified.
    pub owner: Option<String>,
    /// Callee name.
    pub name: String,
    /// True for `recv.name(..)` method syntax (enables the trait-dispatch
    /// over-approximation when `owner` is `None`).
    pub via_method: bool,
    /// 1-based line of the call site.
    pub line: usize,
}

/// How the argument of a `.stream(..)` call was written.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum StreamArg {
    /// A numeric literal: `rng.stream(2)`.
    Num(u64),
    /// A named constant: `rng.stream(FAULT_STREAM)`.
    Named(String),
    /// Anything else (derived labels, variables).
    Other,
}

/// Everything the graph rules need to know about one function body.
#[derive(Debug, Clone, Default)]
pub struct FnFacts {
    /// Owner + name.
    pub key: FnKey,
    /// Display path of the defining file.
    pub path: String,
    /// 1-based line of the `fn` name.
    pub line: usize,
    /// `#[cfg(test)]` / `#[test]` code, or a tests/examples/benches path.
    pub is_test: bool,
    /// Outgoing calls in body order.
    pub calls: Vec<CallRef>,
    /// Lines of `DetRng::new(..)` sites.
    pub rng_news: Vec<usize>,
    /// `.stream(..)` sites: argument shape and line.
    pub stream_calls: Vec<(StreamArg, usize)>,
    /// SCREAMING_CASE path references (candidate static/const reads),
    /// with their lines.
    pub caps_refs: Vec<(String, usize)>,
}

/// A `static` item declaration.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Name as declared.
    pub name: String,
    /// Display path of the defining file.
    pub path: String,
    /// 1-based declaration line.
    pub line: usize,
    /// Declared `static mut`.
    pub is_mut: bool,
    /// The declared type mentions an interior-mutability cell
    /// (`Cell`/`RefCell`/`Mutex`/`Atomic*`/…).
    pub interior: bool,
    /// Declared inside `#[cfg(test)]` code or a test path.
    pub is_test: bool,
}

/// Facts collected from one file: its functions and statics.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Per-function facts, in declaration order.
    pub fns: Vec<FnFacts>,
    /// Static items.
    pub statics: Vec<StaticItem>,
}

/// The linked workspace call graph.
#[derive(Debug, Default)]
pub struct CallGraph {
    /// Every function, flattened across files.
    pub fns: Vec<FnFacts>,
    /// Every static, flattened across files.
    pub statics: Vec<StaticItem>,
    /// Forward edges: `edges[i]` are the fn indices `fns[i]` may call.
    pub edges: Vec<Vec<usize>>,
}

/// Hot-root selection: the once-per-run drivers (`run`, `run_with`,
/// `run_watched`), `step` and owner-qualified `handle` (the dispatcher),
/// `push`/`pop` on scheduler-shaped owners only (the bare names would
/// match every `Vec` helper in the workspace), and `enqueue`/`dequeue` on
/// any method owner (they are not std names).
fn is_hot_root(key: &FnKey) -> bool {
    match key.name.as_str() {
        "run" | "run_with" | "run_watched" | "step" => true,
        "handle" => key.owner.is_some(),
        "push" | "pop" => key
            .owner
            .as_deref()
            .is_some_and(|o| o.ends_with("Queue") || o.ends_with("Wheel")),
        "enqueue" | "dequeue" => key.owner.is_some(),
        _ => false,
    }
}

impl CallGraph {
    /// Link per-file facts into a graph.
    pub fn build(files: Vec<FileFacts>) -> CallGraph {
        let mut fns = Vec::new();
        let mut statics = Vec::new();
        for f in files {
            fns.extend(f.fns);
            statics.extend(f.statics);
        }

        // Name indices for resolution.
        let mut by_exact: BTreeMap<(Option<&str>, &str), Vec<usize>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        let mut free_by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_exact
                .entry((f.key.owner.as_deref(), f.key.name.as_str()))
                .or_default()
                .push(i);
            if f.key.owner.is_some() {
                methods_by_name.entry(&f.key.name).or_default().push(i);
            } else {
                free_by_name.entry(&f.key.name).or_default().push(i);
            }
        }

        let mut edges: Vec<Vec<usize>> = vec![Vec::new(); fns.len()];
        for (i, f) in fns.iter().enumerate() {
            for c in &f.calls {
                let targets: &[usize] = match (&c.owner, c.via_method) {
                    (Some(owner), _) => by_exact
                        .get(&(Some(owner.as_str()), c.name.as_str()))
                        .map_or(&[], Vec::as_slice),
                    (None, true) => methods_by_name
                        .get(c.name.as_str())
                        .map(Vec::as_slice)
                        .filter(|cands| cands.len() <= DISPATCH_FANOUT_CAP)
                        .unwrap_or(&[]),
                    (None, false) => free_by_name.get(c.name.as_str()).map_or(&[], Vec::as_slice),
                };
                edges[i].extend(targets.iter().copied().filter(|&t| t != i));
            }
            edges[i].sort_unstable();
            edges[i].dedup();
        }

        CallGraph {
            fns,
            statics,
            edges,
        }
    }

    /// Whether `fns[i]` is sim-scope, non-test code — what the graph
    /// rules police.
    pub fn sim_nontest(&self, i: usize) -> bool {
        !self.fns[i].is_test && scope_of(&self.fns[i].path) == Scope::Sim
    }

    /// Where the engine's hot paths start: the once-per-run drivers and
    /// the per-event roots.
    pub fn hot_roots(&self) -> Vec<usize> {
        (0..self.fns.len())
            .filter(|&i| self.sim_nontest(i) && is_hot_root(&self.fns[i].key))
            .collect()
    }

    /// Forward BFS from `roots` over every edge, keeping parents for
    /// witness chains. Recursion is handled by the visited set.
    pub fn reach(&self, roots: &[usize]) -> Reach {
        let mut parent: BTreeMap<usize, Option<usize>> = BTreeMap::new();
        let mut queue: Vec<usize> = Vec::new();
        for &r in roots {
            if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(r) {
                e.insert(None);
                queue.push(r);
            }
        }
        let mut at = 0;
        while at < queue.len() {
            let cur = queue[at];
            at += 1;
            for &next in &self.edges[cur] {
                if let std::collections::btree_map::Entry::Vacant(e) = parent.entry(next) {
                    e.insert(Some(cur));
                    queue.push(next);
                }
            }
        }
        Reach { parent }
    }

    /// Render a witness chain from `from` back to whichever root reached
    /// it, as `a → b → c` with file:line anchors.
    pub fn witness(&self, reach: &Reach, from: usize) -> String {
        let mut hops = Vec::new();
        let mut cur = Some(from);
        let mut guard = 0;
        while let Some(i) = cur {
            hops.push(i);
            cur = reach.parent.get(&i).copied().flatten();
            guard += 1;
            if guard > self.fns.len() + 1 {
                break;
            }
        }
        hops.reverse();
        hops.iter()
            .map(|&i| {
                let f = &self.fns[i];
                format!("{} ({}:{})", f.key.display(), f.path, f.line)
            })
            .collect::<Vec<_>>()
            .join(" → ")
    }
}

/// A reachability closure with BFS parents.
#[derive(Debug, Default)]
pub struct Reach {
    /// fn index → the BFS parent it was discovered from (`None` at roots).
    pub parent: BTreeMap<usize, Option<usize>>,
}

impl Reach {
    /// Whether `i` is in the closure.
    pub fn contains(&self, i: usize) -> bool {
        self.parent.contains_key(&i)
    }
}

/// Test helper for the graph rules: parse `(path, src)` files through the
/// full fact-collection pipeline and link the graph.
#[cfg(test)]
pub(crate) fn graph_of(srcs: &[(&str, &str)]) -> CallGraph {
    use crate::{parse, sem, sym};
    let parsed: Vec<(crate::ast::File, crate::lex::Lexed)> = srcs
        .iter()
        .map(|(p, s)| parse::parse_file(p, s).expect("test source parses"))
        .collect();
    let symbols = sym::Symbols::build(parsed.iter().map(|(f, _)| f));
    let facts = parsed
        .iter()
        .map(|(file, lexed)| sem::check_file(file, lexed, &symbols).1)
        .collect();
    CallGraph::build(facts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx(g: &CallGraph, name: &str) -> usize {
        g.fns
            .iter()
            .position(|f| f.key.name == name)
            .unwrap_or_else(|| panic!("fn {name} in graph"))
    }

    #[test]
    fn free_and_qualified_calls_resolve_to_edges() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "fn outer() { helper(); Widget::assemble(); }\n\
             fn helper() {}\n\
             struct Widget;\n\
             impl Widget { fn assemble() {} }\n",
        )]);
        let outer = idx(&g, "outer");
        let assemble = idx(&g, "assemble");
        assert!(g.edges[outer].contains(&idx(&g, "helper")), "free call");
        assert!(g.edges[outer].contains(&assemble), "qualified call");
        assert_eq!(g.fns[assemble].key.owner.as_deref(), Some("Widget"));
    }

    #[test]
    fn unresolved_method_calls_dispatch_to_every_trait_impl() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "trait Sched { fn push_event(&mut self); }\n\
             struct Heap;\n\
             impl Sched for Heap { fn push_event(&mut self) {} }\n\
             struct Wheel;\n\
             impl Sched for Wheel { fn push_event(&mut self) {} }\n\
             fn drive() { let s = mystery(); s.push_event(); }\n\
             fn mystery() {}\n",
        )]);
        let drive = idx(&g, "drive");
        // The receiver's type is unknown, so the call over-approximates to
        // every same-name method: both impls plus the trait's own
        // declaration (kept so trait *default* bodies resolve too).
        let dispatched: Vec<usize> = g.edges[drive]
            .iter()
            .copied()
            .filter(|&t| g.fns[t].key.name == "push_event")
            .collect();
        assert_eq!(dispatched.len(), 3, "impls + trait decl targeted");
        let owners: Vec<&str> = dispatched
            .iter()
            .filter_map(|&t| g.fns[t].key.owner.as_deref())
            .collect();
        assert!(
            owners.contains(&"Heap") && owners.contains(&"Wheel"),
            "{owners:?}"
        );
    }

    #[test]
    fn recursive_and_mutually_recursive_graphs_terminate() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn step() { ping(); looper(); }\n\
             fn ping() { pong(); }\n\
             fn pong() { ping(); }\n\
             fn looper() { looper(); helper(); }\n\
             fn helper() {}\n",
        )]);
        let reach = g.reach(&g.hot_roots());
        assert!(reach.contains(idx(&g, "pong")));
        // Self-edges are dropped at build time; the cycle still terminates
        // and reaches past itself.
        let looper = idx(&g, "looper");
        assert!(!g.edges[looper].contains(&looper), "self-edge skipped");
        assert!(reach.contains(idx(&g, "helper")));
    }

    #[test]
    fn hot_roots_are_sim_nontest_drivers_and_event_roots() {
        let g = graph_of(&[
            (
                "crates/dcsim/src/engine.rs",
                "pub fn run() { prepare(); }\n\
                 pub fn step() { shared(); }\n\
                 fn prepare() { shared(); }\n\
                 fn shared() {}\n\
                 #[test]\n\
                 fn run_with() {}\n",
            ),
            ("crates/metrics/src/lib.rs", "pub fn run() {}\n"),
        ]);
        let roots = g.hot_roots();
        assert_eq!(
            roots,
            vec![idx(&g, "run"), idx(&g, "step")],
            "test and support fns are no roots"
        );
        assert!(g.reach(&roots).contains(idx(&g, "shared")));
    }

    #[test]
    fn witness_renders_the_hot_chain() {
        let g = graph_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn run() { middle(); }\n\
             fn middle() { leaf(); }\n\
             fn leaf() {}\n",
        )]);
        let reach = g.reach(&g.hot_roots());
        let w = g.witness(&reach, idx(&g, "leaf"));
        assert!(
            w.contains("run") && w.contains("middle") && w.contains("leaf"),
            "{w}"
        );
        assert!(w.contains("engine.rs:1"), "hop sites carry file:line — {w}");
    }
}
