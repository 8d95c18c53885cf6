//! Hot-path cost analysis: rule A1.
//!
//! Per-event overhead — boxing, transient `Vec`s, clones — was measured
//! overtaking algorithmic order on the incast cell. A1 finds that cost
//! statically on the call graph: the hot set — a pruned walk from
//! [`CallGraph::hot_roots`] — marks every function whose body runs per
//! event (or per run-loop iteration), and the allocation facts recorded
//! by the semantic walker
//! ([`crate::sem`]) are reported inside it with a witness chain back to
//! the root: `Box::new`, growing `Vec`/`String`, `format!`, `.clone()`
//! of heap-owning workspace types. Sites inside loops escalate (they
//! allocate every iteration); `with_capacity`/`reserve` anywhere in the
//! same function amortizes its `Vec` growth and silences those sites.
//!
//! The pruning is A1's own and says nothing about what the hot paths can
//! *touch* (P1 walks every edge): the walk does not descend into
//! constructor/builder-named callees (their cost is amortized setup, not
//! per-event traffic) or along name-only dispatch edges (a guess is too
//! weak to call a site hot), and inside the once-per-run driver roots only
//! sites inside loops fire — a one-shot allocation in a driver *is* setup.

use std::collections::BTreeSet;

use crate::callgraph::{AllocKind, CallGraph, HotRoots};
use crate::{Finding, Rule};

/// Callee names whose cost is amortized setup — the hot walk stops at
/// them rather than descending.
fn is_amortized(name: &str) -> bool {
    matches!(name, "new" | "default" | "build")
        || name.starts_with("with_")
        || name.starts_with("from_")
        || name.starts_with("build_")
        || name.starts_with("setup")
        || name.starts_with("init")
}

/// Run A1 over the linked graph.
pub fn check(g: &CallGraph, roots: &HotRoots) -> Vec<Finding> {
    let costly = |from: usize, to: usize| {
        !g.fns[to].is_test
            && !is_amortized(&g.fns[to].key.name)
            && !g.name_only.contains(&(from, to))
    };
    let reach = g.reach(&roots.all(), costly);
    // What only the run drivers reach is loop-gated: one-shot work there
    // is setup, not per-event cost. Anything a per-event root reaches
    // pays on every event.
    let event_reach = g.reach(&roots.event, costly);
    let mut out = Vec::new();
    for (i, f) in g.fns.iter().enumerate() {
        if !reach.contains(i) || !g.sim_nontest(i) {
            continue;
        }
        let loop_gated = !event_reach.contains(i);
        for s in &f.alloc_sites {
            if loop_gated && !s.in_loop {
                continue;
            }
            if matches!(s.kind, AllocKind::VecGrowth | AllocKind::VecPush) && f.reserves {
                continue;
            }
            let loop_note = if s.in_loop {
                " inside a loop — it allocates every iteration"
            } else {
                ""
            };
            let advice = match s.kind {
                AllocKind::BoxNew => "allocate from a pool/slab or inline the payload",
                AllocKind::VecGrowth | AllocKind::VecPush => {
                    "pre-size with `with_capacity`/`reserve` outside the hot path"
                }
                AllocKind::StringAlloc => {
                    "precompute labels or reuse a buffer; per-event string building \
                     dominates dispatch cost"
                }
                AllocKind::CloneHeap => {
                    "borrow the data or pass a pool handle instead of cloning heap storage"
                }
            };
            out.push(Finding {
                path: f.path.clone(),
                line: s.line,
                col: 1,
                rule: Rule::A1,
                message: format!(
                    "{} in `{}` on the engine hot path{loop_note}; {advice} \
                     (hot chain: {})",
                    s.what,
                    f.key.display(),
                    g.witness(&reach, i)
                ),
            });
        }
    }
    // Distinct sites can collapse onto one line (nested `vec![..]`); one
    // report per (line, message) is enough.
    let mut seen: BTreeSet<(String, usize, String)> = BTreeSet::new();
    out.retain(|f| seen.insert((f.path.clone(), f.line, f.message.clone())));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::graph_of;

    fn findings_of(srcs: &[(&str, &str)]) -> Vec<Finding> {
        let g = graph_of(srcs);
        check(&g, &g.hot_roots())
    }

    #[test]
    fn a1_fires_on_boxed_alloc_reachable_from_step() {
        let f = findings_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn step() { dispatch(); }\n\
             fn dispatch() { deliver(); }\n\
             fn deliver() { let _b = Box::new(5u64); }\n",
        )]);
        let a1: Vec<_> = f.iter().filter(|x| x.rule == Rule::A1).collect();
        assert_eq!(a1.len(), 1, "{f:?}");
        assert_eq!(a1[0].line, 3);
        assert!(
            a1[0].message.contains("step"),
            "witness chain: {}",
            a1[0].message
        );
        assert!(a1[0].message.contains("dispatch"), "{}", a1[0].message);
    }

    #[test]
    fn a1_run_only_subtree_is_loop_gated_but_event_reach_is_not() {
        // `helper` is reachable from both the run driver and the per-event
        // dispatcher — the event path wins and the one-shot alloc fires.
        let f = findings_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn run() { prep_chain(); }\n\
             fn prep_chain() { let _s = String::from(\"x\"); }\n\
             pub fn step() { helper(); }\n\
             fn helper() { let _b = Box::new(1u64); }\n",
        )]);
        let a1: Vec<_> = f.iter().filter(|x| x.rule == Rule::A1).collect();
        assert_eq!(a1.len(), 1, "{f:?}");
        assert_eq!(a1[0].line, 4, "only the event-reachable alloc fires: {f:?}");
    }

    #[test]
    fn a1_skips_amortized_constructors_and_one_shot_run_setup() {
        let f = findings_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn run() { let _v: Vec<u64> = Vec::new(); let _p = Pool::new(); }\n\
             struct Pool;\n\
             impl Pool { fn new() -> Pool { let _b = Box::new(1u64); Pool } }\n",
        )]);
        assert!(
            f.iter().all(|x| x.rule != Rule::A1),
            "one-shot setup in a run root and constructor bodies are exempt: {f:?}"
        );
    }

    #[test]
    fn a1_does_not_follow_name_only_dispatch() {
        // `r`'s type is unknown, so `r.refill()` resolves by name alone —
        // too weak a reason to call `Pool::refill` hot.
        let f = findings_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn step() { let r = mystery(); r.refill(); }\n\
             fn mystery() {}\n\
             struct Pool;\n\
             impl Pool { fn refill(&self) { let _b = Box::new(1u64); } }\n",
        )]);
        assert!(f.iter().all(|x| x.rule != Rule::A1), "{f:?}");
    }

    #[test]
    fn a1_escalates_loop_allocations_even_in_run_roots() {
        let f = findings_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn run(items: Vec<u64>) {\n\
                 for it in items {\n\
                     let _b = Box::new(it);\n\
                 }\n\
             }\n",
        )]);
        let a1: Vec<_> = f.iter().filter(|x| x.rule == Rule::A1).collect();
        assert_eq!(a1.len(), 1, "{f:?}");
        assert!(
            a1[0].message.contains("every iteration"),
            "{}",
            a1[0].message
        );
    }

    #[test]
    fn a1_vec_growth_suppressed_by_reserve() {
        let f = findings_of(&[(
            "crates/dcsim/src/engine.rs",
            "pub fn step(n: usize) {\n\
                 let mut v: Vec<u64> = Vec::new();\n\
                 v.reserve(n);\n\
                 v.push(1);\n\
             }\n",
        )]);
        assert!(f.iter().all(|x| x.rule != Rule::A1), "{f:?}");
    }
}
