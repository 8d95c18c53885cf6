//! Interprocedural dataflow rules: P1 and P3.
//!
//! - **P1** — shared mutable statics / interior-mutability cells: state
//!   that outlives a run and is shared across threads. Every such static
//!   in sim code fires; one declared elsewhere fires when anything the
//!   engine's hot roots can reach references it — over every call edge,
//!   setup callees and name-only dispatch included.
//! - **P3** — DetRng stream discipline: subsystem context propagates down
//!   the call graph, so a helper that seeds a private `DetRng::new` three
//!   calls below fault code is still caught.
//!
//! Both consume the [`CallGraph`] built from the semantic walker's
//! per-function facts; suppression and S1 staleness are applied later by
//! the pipeline, which sees these findings alongside the per-file ones.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{CallGraph, StreamArg};
use crate::{scope_of, Finding, Rule, Scope};

/// Type names that carry interior mutability when they appear anywhere in
/// a static's declared type.
pub(crate) const INTERIOR_CELLS: [&str; 10] = [
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "Mutex",
    "RwLock",
    "OnceLock",
    "LazyLock",
    "SyncUnsafeCell",
];

/// The RNG stream assignments documented on `DetRng::stream`.
const STREAMS: [(u64, &str, &str); 5] = [
    (0, "workload", "WORKLOAD_STREAM"),
    (1, "ECMP", "ECMP_STREAM"),
    (2, "RED", "RED_STREAM"),
    (3, "feedback", "FEEDBACK_STREAM"),
    (4, "fault", "FAULT_STREAM"),
];

fn stream_desc(n: u64) -> String {
    match STREAMS.iter().find(|(v, ..)| *v == n) {
        Some((_, what, name)) => format!("stream {n} ({what}, `{name}`)"),
        None => format!("stream {n}"),
    }
}

fn stream_const(n: u64) -> &'static str {
    STREAMS
        .iter()
        .find(|(v, ..)| *v == n)
        .map(|(_, _, name)| *name)
        .unwrap_or("a named *_STREAM constant")
}

fn named_stream_value(name: &str) -> Option<u64> {
    STREAMS
        .iter()
        .find(|(_, _, c)| *c == name)
        .map(|(v, ..)| *v)
}

/// The subsystem a function name claims, from its `_`-separated segments.
fn fn_marker(name: &str) -> Option<u64> {
    for seg in name.split('_') {
        let seg = seg.to_ascii_lowercase();
        let hit = match seg.as_str() {
            "fault" | "faults" => Some(4),
            "ecmp" => Some(1),
            "red" => Some(2),
            "workload" | "arrival" | "arrivals" => Some(0),
            "feedback" => Some(3),
            _ => None,
        };
        if hit.is_some() {
            return hit;
        }
    }
    None
}

/// Run both rules over the linked graph.
pub fn check(g: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    check_p1(g, &mut out);
    check_p3(g, &mut out);
    out
}

fn push(out: &mut Vec<Finding>, path: &str, line: usize, rule: Rule, message: String) {
    out.push(Finding {
        path: path.to_string(),
        line,
        col: 1,
        rule,
        message,
    });
}

// ----- P1: shared mutable global state -----------------------------------

fn check_p1(g: &CallGraph, out: &mut Vec<Finding>) {
    let hot = &g.reach(&g.hot_roots());

    for s in &g.statics {
        if s.is_test || !(s.is_mut || s.interior) {
            continue;
        }
        // Who reads/writes it from a hot path?
        let mut hot_ref: Option<(usize, usize)> = None; // (fn, ref line)
        for (i, f) in g.fns.iter().enumerate() {
            if f.is_test || !hot.contains(i) {
                continue;
            }
            if let Some((_, line)) = f.caps_refs.iter().find(|(n, _)| n == &s.name) {
                hot_ref = Some((i, *line));
                break;
            }
        }
        let what = if s.is_mut {
            "a `static mut`"
        } else {
            "a static with interior mutability"
        };
        let in_sim = scope_of(&s.path) == Scope::Sim;
        if in_sim {
            let reach_note = match hot_ref {
                Some((i, line)) => format!(
                    " It is reachable from an engine hot path: {} touches it at line {line}.",
                    g.witness(hot, i)
                ),
                None => String::new(),
            };
            push(
                out,
                &s.path,
                s.line,
                Rule::P1,
                format!(
                    "`{}` is {what}: shared mutable global state outlives a run and \
                     is shared by every thread that simulates, so results depend on \
                     what ran before and beside; thread the state through the \
                     simulation context instead.{reach_note}",
                    s.name
                ),
            );
        } else if let Some((i, line)) = hot_ref {
            push(
                out,
                &s.path,
                s.line,
                Rule::P1,
                format!(
                    "`{}` is {what} and is referenced from an engine hot path \
                     ({} at line {line}); shared mutable global state breaks \
                     run-to-run determinism — thread it through the simulation \
                     context instead.",
                    s.name,
                    g.witness(hot, i)
                ),
            );
        }
    }
}

// ----- P3: interprocedural DetRng stream discipline -----------------------

fn check_p3(g: &CallGraph, out: &mut Vec<Finding>) {
    // A distributor derives several streams from a root RNG (or names a
    // *_STREAM constant); it legitimately touches many subsystems and
    // neither receives nor propagates a single-subsystem context.
    let is_distributor = |i: usize| -> bool {
        let f = &g.fns[i];
        let caps: BTreeSet<&str> = f
            .caps_refs
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| n.ends_with("_STREAM"))
            .collect();
        if caps.len() >= 2 {
            return true;
        }
        let distinct: BTreeSet<&StreamArg> = f.stream_calls.iter().map(|(a, _)| a).collect();
        distinct.len() >= 2
    };

    // Seed contexts from function-name markers, then flow them down call
    // edges; a function claimed by two different subsystems is shared
    // infrastructure and gets no context.
    let mut ctx: BTreeMap<usize, (u64, Option<usize>)> = BTreeMap::new(); // i -> (stream, caller)
    let mut mixed: BTreeSet<usize> = BTreeSet::new();
    let mut queue = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !g.sim_nontest(i) || is_distributor(i) {
            continue;
        }
        if let Some(s) = fn_marker(&f.key.name) {
            ctx.insert(i, (s, None));
            queue.push(i);
        }
    }
    let mut at = 0;
    while at < queue.len() {
        let cur = queue[at];
        at += 1;
        // A queued function may have lost its context since (second,
        // conflicting subsystem reached it → `mixed`).
        let Some(&(stream, _)) = ctx.get(&cur) else {
            continue;
        };
        for &callee in &g.edges[cur] {
            if !g.sim_nontest(callee) || is_distributor(callee) || mixed.contains(&callee) {
                continue;
            }
            if fn_marker(&g.fns[callee].key.name).is_some() {
                continue; // its own marker wins
            }
            match ctx.get(&callee) {
                Some((s, _)) if *s == stream => {}
                Some(_) => {
                    ctx.remove(&callee);
                    mixed.insert(callee);
                }
                None => {
                    ctx.insert(callee, (stream, Some(cur)));
                    queue.push(callee);
                }
            }
        }
    }

    let chain = |i: usize| -> String {
        let mut hops = vec![i];
        let mut cur = ctx.get(&i).and_then(|(_, p)| *p);
        while let Some(n) = cur {
            hops.push(n);
            cur = ctx.get(&n).and_then(|(_, p)| *p);
        }
        hops.reverse();
        hops.iter()
            .map(|&h| {
                let f = &g.fns[h];
                format!("{} ({}:{})", f.key.display(), f.path, f.line)
            })
            .collect::<Vec<_>>()
            .join(" → ")
    };

    for (i, f) in g.fns.iter().enumerate() {
        if !g.sim_nontest(i) {
            continue;
        }
        let fctx = ctx.get(&i).map(|(s, _)| *s);

        if let Some(s) = fctx {
            for line in &f.rng_news {
                push(
                    out,
                    &f.path,
                    *line,
                    Rule::P3,
                    format!(
                        "`{}` is {} subsystem code (chain: {}) but seeds a private \
                         `DetRng::new`; derive the generator from the root RNG with \
                         `.stream({})` so subsystem draws stay decoupled",
                        f.key.display(),
                        stream_desc(s),
                        chain(i),
                        stream_const(s)
                    ),
                );
            }
        }

        for (arg, line) in &f.stream_calls {
            match arg {
                StreamArg::Num(n) => {
                    if let Some(s) = fctx {
                        if *n != s {
                            push(
                                out,
                                &f.path,
                                *line,
                                Rule::P3,
                                format!(
                                    "`{}` is {} subsystem code (chain: {}) but draws \
                                     {}; each subsystem must stay on its assigned stream",
                                    f.key.display(),
                                    stream_desc(s),
                                    chain(i),
                                    stream_desc(*n),
                                ),
                            );
                            continue;
                        }
                    }
                    push(
                        out,
                        &f.path,
                        *line,
                        Rule::P3,
                        format!(
                            "raw stream number in `.stream({n})`; use the named \
                             constant ({}) so the stream assignment is auditable",
                            stream_const(*n)
                        ),
                    );
                }
                StreamArg::Named(name) => {
                    if let (Some(s), Some(v)) = (fctx, named_stream_value(name)) {
                        if v != s {
                            push(
                                out,
                                &f.path,
                                *line,
                                Rule::P3,
                                format!(
                                    "`{}` is {} subsystem code (chain: {}) but draws \
                                     from `{name}` ({}); each subsystem must stay on \
                                     its assigned stream",
                                    f.key.display(),
                                    stream_desc(s),
                                    chain(i),
                                    stream_desc(v),
                                ),
                            );
                        }
                    }
                }
                StreamArg::Other => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::graph_of;

    fn p1_lines(srcs: &[(&str, &str)]) -> Vec<(String, usize)> {
        let g = graph_of(srcs);
        check(&g)
            .into_iter()
            .filter(|f| f.rule == Rule::P1)
            .map(|f| (f.path, f.line))
            .collect()
    }

    const ENGINE: &str = "crates/dcsim/src/engine.rs";
    const SUPPORT: &str = "crates/metrics/src/table.rs";

    #[test]
    fn p1_reaches_support_statics_through_setup_callees_and_untyped_receivers() {
        // `init_table` is setup, and `r.record_hit()` resolves by name
        // only; P1 follows both.
        let hits = p1_lines(&[
            (
                ENGINE,
                "pub fn run() { init_table(); let r = mystery(); r.record_hit(); }\n\
                 fn mystery() {}\n",
            ),
            (
                SUPPORT,
                "static TABLE: OnceLock<u64> = OnceLock::new();\n\
                 static HITS: AtomicU64 = AtomicU64::new(0);\n\
                 static UNREACHED: AtomicU64 = AtomicU64::new(0);\n\
                 pub fn init_table() { TABLE.get_or_init(|| 7); }\n\
                 pub struct Recorder;\n\
                 impl Recorder {\n\
                     pub fn record_hit(&self) { HITS.fetch_add(1, Ordering::Relaxed); }\n\
                 }\n\
                 pub fn cold() { UNREACHED.fetch_add(1, Ordering::Relaxed); }\n",
            ),
        ]);
        assert_eq!(
            hits,
            vec![(SUPPORT.to_string(), 1), (SUPPORT.to_string(), 2)],
            "both reached statics fire, the unreached one does not"
        );
    }

    #[test]
    fn p1_fires_on_every_sim_static_and_never_on_test_ones() {
        let hits = p1_lines(&[(
            ENGINE,
            "static mut COUNT: u64 = 0;\n\
             static FROZEN: u64 = 5;\n\
             #[cfg(test)]\n\
             mod tests { static SCRATCH: Mutex<u64> = Mutex::new(0); }\n",
        )]);
        assert_eq!(hits, vec![(ENGINE.to_string(), 1)]);
    }
}
