//! Semantic rule checkers: U1 (unit safety) and O1 (overflow policy),
//! plus the per-function facts the graph rules use.
//!
//! [`check_file`] walks one parsed file with a scoped type environment
//! (see [`crate::infer`]) and the workspace symbol table, emitting raw
//! findings — suppression and the S1 staleness pass are applied by the
//! pipeline in `lib.rs`, which sees all files.
//!
//! Every check fires only on a *positively identified* type: anything
//! the walker cannot prove degrades to `Ty::Unknown`, which no rule
//! matches, so incomplete inference produces silence, never noise.

use crate::ast::{BinOp, Block, Expr, ExprKind, File, FnItem, Item, Lit, Pat, Stmt, TypeRef};
use crate::callgraph::{CallRef, FileFacts, FnFacts, FnKey, StaticItem, StreamArg};
use crate::infer::{elem_of, method_ret, named_of, Env, Ty};
use crate::lex::{Lexed, Span};
use crate::sym::{Symbols, UnitKind};
use crate::{scope_of, Finding, Rule, Scope};

/// Run the semantic checkers over one parsed file and, in the same walk,
/// collect the per-function facts the interprocedural pass consumes.
pub fn check_file(file: &File, lexed: &Lexed, sym: &Symbols) -> (Vec<Finding>, FileFacts) {
    let norm = file.path.replace('\\', "/");
    let file_name = norm.rsplit('/').next().unwrap_or("").to_string();
    let mut chk = Checker {
        path: file.path.clone(),
        lexed,
        sym,
        env: Env::new(),
        findings: Vec::new(),
        in_test: false,
        sim: scope_of(&file.path) == Scope::Sim,
        unit_def_file: matches!(file_name.as_str(), "units.rs" | "time.rs"),
        test_path: norm.contains("/tests/")
            || norm.starts_with("tests/")
            || norm.contains("/examples/")
            || norm.starts_with("examples/")
            || norm.contains("/benches/"),
        o1_zone: norm.contains("dcsim/") || norm.contains("netsim/"),
        facts: FileFacts::default(),
        fn_stack: Vec::new(),
    };
    chk.bind_consts(&file.items);
    chk.walk_items(&file.items, None, false);
    (chk.findings, chk.facts)
}

struct Checker<'a> {
    path: String,
    lexed: &'a Lexed,
    sym: &'a Symbols,
    env: Env,
    findings: Vec<Finding>,
    in_test: bool,
    sim: bool,
    unit_def_file: bool,
    test_path: bool,
    o1_zone: bool,
    facts: FileFacts,
    /// Indices into `facts.fns` of the enclosing (possibly nested) fns.
    fn_stack: Vec<usize>,
}

impl<'a> Checker<'a> {
    // ----- rule scoping ---------------------------------------------------

    /// U1 applies: sim code outside the unit-definition files.
    fn u_on(&self) -> bool {
        self.sim && !self.unit_def_file
    }

    /// O1 applies in the dcsim/netsim hot paths, non-test only.
    fn o1_on(&self) -> bool {
        self.o1_zone && !self.test_path && !self.in_test
    }

    /// Inside `units.rs`/`time.rs` *all* integer `+`/`*` counts for O1
    /// (that is where the unit impls themselves live).
    fn o1_all(&self) -> bool {
        self.unit_def_file
    }

    // ----- helpers --------------------------------------------------------

    fn push(&mut self, rule: Rule, span: Span, message: String) {
        self.findings
            .push(Finding::at(&self.path, self.lexed, span.lo, rule, message));
    }

    // ----- declaration walk -----------------------------------------------

    /// Pre-bind module-level consts so expressions can resolve them.
    fn bind_consts(&mut self, items: &[Item]) {
        for item in items {
            match item {
                Item::Const { name, ty, .. } => {
                    self.env.bind(name, Ty::from_typeref(ty));
                }
                Item::Mod { items, .. } => self.bind_consts(items),
                _ => {}
            }
        }
    }

    fn walk_items(&mut self, items: &[Item], self_ty: Option<&Ty>, in_test: bool) {
        for item in items {
            match item {
                Item::Fn(f) => self.walk_fn(f, self_ty, in_test),
                Item::Impl {
                    self_ty: st,
                    items,
                    cfg_test,
                    ..
                } => {
                    let ty = Ty::from_typeref(st);
                    self.walk_items(items, Some(&ty), in_test || *cfg_test);
                }
                Item::Mod {
                    cfg_test, items, ..
                } => self.walk_items(items, None, in_test || *cfg_test),
                Item::Trait { name, items } => {
                    // Default trait methods are owned by the trait, so
                    // dispatch through the trait name resolves to them.
                    let ty = Ty::Named {
                        name: name.clone(),
                        args: Vec::new(),
                    };
                    self.walk_items(items, Some(&ty), in_test);
                }
                Item::Const {
                    name,
                    ty,
                    init,
                    is_static,
                    is_mut,
                    line,
                } => {
                    if *is_static {
                        self.facts.statics.push(StaticItem {
                            name: name.clone(),
                            path: self.path.clone(),
                            line: *line,
                            is_mut: *is_mut,
                            interior: type_has_interior_mutability(ty),
                            is_test: in_test || self.test_path,
                        });
                    }
                    if let Some(e) = init {
                        let saved = self.in_test;
                        self.in_test = in_test;
                        self.expr_ty(e);
                        self.in_test = saved;
                    }
                }
                _ => {}
            }
        }
    }

    fn walk_fn(&mut self, f: &FnItem, self_ty: Option<&Ty>, in_test: bool) {
        let owner = self_ty.and_then(named_of).map(|s| s.to_string());
        let fact_idx = self.facts.fns.len();
        self.facts.fns.push(FnFacts {
            key: FnKey {
                owner,
                name: f.name.clone(),
            },
            path: self.path.clone(),
            line: f.line,
            is_test: in_test || f.cfg_test || self.test_path,
            ..FnFacts::default()
        });
        let Some(body) = &f.body else { return };
        self.fn_stack.push(fact_idx);
        let saved = self.in_test;
        self.in_test = in_test || f.cfg_test;
        self.env.push();
        if f.self_param.is_some() {
            if let Some(ty) = self_ty {
                self.env.bind("self", ty.clone());
            }
        }
        for (pat, ty) in &f.params {
            let t = Ty::from_typeref(ty);
            self.bind_pat(pat, &t);
        }
        self.block_ty(body);
        self.env.pop();
        self.in_test = saved;
        self.fn_stack.pop();
    }

    // ----- interprocedural fact recording ---------------------------------

    /// The facts record of the innermost enclosing function, if any.
    fn fact(&mut self) -> Option<&mut FnFacts> {
        let &i = self.fn_stack.last()?;
        self.facts.fns.get_mut(i)
    }

    /// Record everything the interprocedural pass wants to know about a
    /// method call: the call edge and `.stream(..)` discipline facts.
    fn note_method_call(&mut self, name: &str, args: &[Expr], rt: &Ty, e: &Expr) {
        let call = CallRef {
            owner: named_of(rt).map(|s| s.to_string()),
            name: name.to_string(),
            via_method: true,
            line: e.line,
        };
        if let Some(f) = self.fact() {
            f.calls.push(call);
        }

        if name == "stream" && args.len() == 1 {
            let arg = match &args[0].kind {
                ExprKind::Lit(l @ Lit::Int(_)) => l
                    .int_value()
                    .map(StreamArg::Num)
                    .unwrap_or(StreamArg::Other),
                ExprKind::Path(segs) => match segs.last() {
                    Some(last) if is_screaming_case(last) => StreamArg::Named(last.clone()),
                    _ => StreamArg::Other,
                },
                _ => StreamArg::Other,
            };
            let line = e.line;
            if let Some(f) = self.fact() {
                f.stream_calls.push((arg, line));
            }
        }
    }

    /// Record free / qualified-path calls (`helper(..)`, `DetRng::new(..)`)
    /// as call edges and RNG-construction sites.
    fn note_path_call(&mut self, callee: &Expr, e: &Expr) {
        let ExprKind::Path(segs) = &callee.kind else {
            return;
        };
        let Some(last) = segs.last() else { return };
        // Uppercase heads are constructors / enum variants, not functions.
        if !last
            .chars()
            .next()
            .is_some_and(|c| c.is_lowercase() || c == '_')
        {
            return;
        }
        let owner = (segs.len() >= 2).then(|| segs[segs.len() - 2].clone());
        let is_rng_new = owner.as_deref() == Some("DetRng") && last == "new";
        let call = CallRef {
            owner,
            name: last.clone(),
            via_method: false,
            line: e.line,
        };
        if let Some(f) = self.fact() {
            if is_rng_new {
                f.rng_news.push(call.line);
            }
            f.calls.push(call);
        }
    }

    // ----- bindings -------------------------------------------------------

    fn bind_pat(&mut self, pat: &Pat, ty: &Ty) {
        match pat {
            Pat::Path(segs) if segs.len() == 1 => {
                let name = &segs[0];
                if name
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    self.env.bind(name, ty.clone());
                }
            }
            Pat::TupleStruct { path, elems } => {
                let last = path.last().map(|s| s.as_str()).unwrap_or("");
                if let (Some(k), 1) = (UnitKind::from_name(last), elems.len()) {
                    self.bind_pat(&elems[0], &Ty::Int { from: Some(k) });
                } else if matches!(last, "Some" | "Ok") && elems.len() == 1 {
                    let inner = match ty {
                        Ty::Named { name, args } if name == "Option" || name == "Result" => {
                            args.first().cloned().unwrap_or(Ty::Unknown)
                        }
                        _ => Ty::Unknown,
                    };
                    self.bind_pat(&elems[0], &inner);
                } else if let Some(info) = self.sym.structs.get(last) {
                    let fields = info.tuple_fields.clone();
                    for (i, elem) in elems.iter().enumerate() {
                        let t = fields.get(i).map(Ty::from_typeref).unwrap_or(Ty::Unknown);
                        self.bind_pat(elem, &t);
                    }
                } else {
                    // Unknown payloads still shadow outer bindings.
                    for elem in elems {
                        self.bind_pat(elem, &Ty::Unknown);
                    }
                }
            }
            Pat::Tuple(elems) => {
                if let Ty::Tuple(ts) = ty {
                    for (i, elem) in elems.iter().enumerate() {
                        let t = ts.get(i).cloned().unwrap_or(Ty::Unknown);
                        self.bind_pat(elem, &t);
                    }
                } else {
                    for elem in elems {
                        self.bind_pat(elem, &Ty::Unknown);
                    }
                }
            }
            Pat::Or(ps) => {
                for p in ps {
                    self.bind_pat(p, ty);
                }
            }
            _ => {}
        }
    }

    // ----- expressions ----------------------------------------------------

    fn block_ty(&mut self, block: &Block) -> Ty {
        self.env.push();
        let mut last = Ty::Unknown;
        for stmt in &block.stmts {
            last = Ty::Unknown;
            match stmt {
                Stmt::Let { pat, ty, init } => {
                    let ity = init.as_ref().map(|e| self.expr_ty(e));
                    let t = ty
                        .as_ref()
                        .map(Ty::from_typeref)
                        .or(ity)
                        .unwrap_or(Ty::Unknown);
                    self.bind_pat(pat, &t);
                }
                Stmt::Expr(e) => last = self.expr_ty(e),
                Stmt::Item(item) => {
                    self.walk_items(std::slice::from_ref(item), None, self.in_test);
                }
            }
        }
        self.env.pop();
        last
    }

    fn expr_ty(&mut self, e: &Expr) -> Ty {
        match &e.kind {
            ExprKind::Lit(l) => match l {
                Lit::Int(_) => Ty::RAW_INT,
                Lit::Float => Ty::Float,
                Lit::Bool(_) => Ty::Bool,
                _ => Ty::Unknown,
            },
            ExprKind::Path(segs) => {
                if let Some(last) = segs.last() {
                    if is_screaming_case(last) {
                        let name = last.clone();
                        let line = e.line;
                        if let Some(f) = self.fact() {
                            f.caps_refs.push((name, line));
                        }
                    }
                }
                self.path_ty(segs)
            }
            ExprKind::Unary(inner) => self.expr_ty(inner),
            ExprKind::Binary { op, lhs, rhs } => {
                let lt = self.expr_ty(lhs);
                let rt = self.expr_ty(rhs);
                self.arith_check(*op, false, &lt, &rt, e.span);
                match op {
                    BinOp::Cmp | BinOp::Logic => Ty::Bool,
                    BinOp::Range => Ty::Unknown,
                    BinOp::Bit => {
                        if lt.is_int() {
                            lt
                        } else {
                            Ty::Unknown
                        }
                    }
                    _ => Self::arith_result(&lt, &rt),
                }
            }
            ExprKind::Assign { op, lhs, rhs } => {
                let lt = self.expr_ty(lhs);
                let rt = self.expr_ty(rhs);
                if let Some(op) = op {
                    self.arith_check(*op, true, &lt, &rt, e.span);
                }
                Ty::Unknown
            }
            ExprKind::Call { callee, args } => {
                self.note_path_call(callee, e);
                self.call_ty(callee, args)
            }
            ExprKind::MethodCall { recv, name, args } => {
                let rt = self.expr_ty(recv);
                let ats: Vec<Ty> = args.iter().map(|a| self.expr_ty(a)).collect();
                self.note_method_call(name, args, &rt, e);
                method_ret(self.sym, &rt, name, &ats)
            }
            ExprKind::Field { recv, name } => self.field_ty(recv, name),
            ExprKind::Cast { expr, ty } => {
                let et = self.expr_ty(expr);
                match Ty::from_typeref(ty) {
                    Ty::Int { .. } => Ty::Int { from: et.taint() },
                    other => other,
                }
            }
            ExprKind::Paren(inner) => self.expr_ty(inner),
            ExprKind::Tuple(es) => Ty::Tuple(es.iter().map(|x| self.expr_ty(x)).collect()),
            ExprKind::Array(es) => {
                for x in es {
                    self.expr_ty(x);
                }
                Ty::Unknown
            }
            ExprKind::Index { recv, idx } => {
                let rt = self.expr_ty(recv);
                self.expr_ty(idx);
                elem_of(&rt)
            }
            ExprKind::Block(b) => self.block_ty(b),
            ExprKind::If { cond, then, else_ } => {
                self.expr_ty(cond);
                self.block_ty(then);
                if let Some(e2) = else_ {
                    self.expr_ty(e2);
                }
                Ty::Unknown
            }
            ExprKind::Match { scrutinee, arms } => {
                let st = self.expr_ty(scrutinee);
                for arm in arms {
                    self.env.push();
                    self.bind_pat(&arm.pat, &st);
                    if let Some(g) = &arm.guard {
                        self.expr_ty(g);
                    }
                    self.expr_ty(&arm.body);
                    self.env.pop();
                }
                Ty::Unknown
            }
            ExprKind::Loop { pat, head, body } => {
                let ht = head.as_ref().map(|h| self.expr_ty(h));
                self.env.push();
                if let (Some(p), Some(h)) = (pat, &ht) {
                    let elem = elem_of(h);
                    self.bind_pat(p, &elem);
                }
                self.block_ty(body);
                self.env.pop();
                Ty::Unknown
            }
            ExprKind::Closure { params, body } => {
                self.env.push();
                for (pat, ty) in params {
                    let t = ty.as_ref().map(Ty::from_typeref).unwrap_or(Ty::Unknown);
                    self.bind_pat(pat, &t);
                }
                self.expr_ty(body);
                self.env.pop();
                Ty::Unknown
            }
            ExprKind::StructLit { path, fields, rest } => {
                for (_, v) in fields {
                    if let Some(v) = v {
                        self.expr_ty(v);
                    }
                }
                if let Some(r) = rest {
                    self.expr_ty(r);
                }
                match path.last().map(|s| s.as_str()) {
                    Some(last) => match UnitKind::from_name(last) {
                        Some(k) => Ty::Unit(k),
                        None => Ty::Named {
                            name: last.to_string(),
                            args: Vec::new(),
                        },
                    },
                    None => Ty::Unknown,
                }
            }
            ExprKind::MacroCall { args } => {
                for a in args {
                    self.expr_ty(a);
                }
                Ty::Unknown
            }
            ExprKind::Jump(v) => {
                if let Some(v) = v {
                    self.expr_ty(v);
                }
                Ty::Unknown
            }
            ExprKind::Try(inner) => {
                let t = self.expr_ty(inner);
                match t {
                    Ty::Named { ref name, ref args } if name == "Option" || name == "Result" => {
                        args.first().cloned().unwrap_or(Ty::Unknown)
                    }
                    _ => Ty::Unknown,
                }
            }
            ExprKind::RangeLit { lo, hi } => {
                if let Some(l) = lo {
                    self.expr_ty(l);
                }
                if let Some(h) = hi {
                    self.expr_ty(h);
                }
                Ty::Unknown
            }
            ExprKind::Opaque => Ty::Unknown,
        }
    }

    fn path_ty(&mut self, segs: &[String]) -> Ty {
        match segs {
            [one] => {
                if one
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_lowercase() || c == '_')
                {
                    self.env.lookup(one)
                } else if let Some(en) = self.sym.enum_of_variant(one) {
                    Ty::Named {
                        name: en.to_string(),
                        args: Vec::new(),
                    }
                } else {
                    self.env.lookup(one)
                }
            }
            [.., t, last] => {
                if let Some(ty) = self.sym.assoc_consts.get(&(t.clone(), last.clone())) {
                    return Ty::from_typeref(ty);
                }
                if let Some(info) = self.sym.enums.get(t) {
                    if info.variants.iter().any(|v| v == last) {
                        return Ty::Named {
                            name: t.clone(),
                            args: Vec::new(),
                        };
                    }
                }
                if matches!(
                    t.as_str(),
                    "u8" | "u16"
                        | "u32"
                        | "u64"
                        | "u128"
                        | "usize"
                        | "i8"
                        | "i16"
                        | "i32"
                        | "i64"
                        | "i128"
                        | "isize"
                ) {
                    return Ty::RAW_INT;
                }
                Ty::Unknown
            }
            _ => Ty::Unknown,
        }
    }

    fn call_ty(&mut self, callee: &Expr, args: &[Expr]) -> Ty {
        let ats: Vec<Ty> = args.iter().map(|a| self.expr_ty(a)).collect();
        let ExprKind::Path(segs) = &callee.kind else {
            self.expr_ty(callee);
            return Ty::Unknown;
        };
        let last = segs.last().map(|s| s.as_str()).unwrap_or("");

        // Unit tuple-struct construction: `Nanos(80)`.
        if let Some(k) = UnitKind::from_name(last) {
            return Ty::Unit(k);
        }

        // `Some(x)` / `Ok(x)` wrap their argument.
        if matches!(last, "Some" | "Ok") && ats.len() == 1 {
            let name = if last == "Some" { "Option" } else { "Result" };
            return Ty::Named {
                name: name.to_string(),
                args: vec![ats[0].clone()],
            };
        }

        if segs.len() >= 2 {
            let t = &segs[segs.len() - 2];
            // Associated function: `Nanos::from_micros(5)`.
            if let Some(info) = self.sym.methods.get(&(t.clone(), last.to_string())) {
                if !info.has_self {
                    return Ty::from_typeref(&info.ret);
                }
            }
            // Enum variant constructor: `Event::Arrival(f)`.
            if let Some(info) = self.sym.enums.get(t) {
                if info.variants.iter().any(|v| v == last) {
                    return Ty::Named {
                        name: t.clone(),
                        args: Vec::new(),
                    };
                }
            }
        } else {
            // Other tuple-struct constructors: `NodeId(3)`.
            if let Some(info) = self.sym.structs.get(last) {
                if !info.tuple_fields.is_empty() {
                    return Ty::Named {
                        name: last.to_string(),
                        args: Vec::new(),
                    };
                }
            }
            if let Some(Some(ret)) = self.sym.free_fns.get(last) {
                return Ty::from_typeref(ret);
            }
        }
        Ty::Unknown
    }

    fn field_ty(&mut self, recv: &Expr, name: &str) -> Ty {
        let rt = self.expr_ty(recv);
        if name.bytes().all(|b| b.is_ascii_digit()) {
            let idx: usize = name.parse().unwrap_or(usize::MAX);
            return match rt {
                // `.0` on a unit newtype (legal only inside dcsim): the raw
                // u64 stays tainted with its unit for U1/O1.
                Ty::Unit(k) => Ty::Int { from: Some(k) },
                Ty::Named { name: n, .. } => self
                    .sym
                    .structs
                    .get(&n)
                    .and_then(|s| s.tuple_fields.get(idx))
                    .map(Ty::from_typeref)
                    .unwrap_or(Ty::Unknown),
                Ty::Tuple(ts) => ts.get(idx).cloned().unwrap_or(Ty::Unknown),
                _ => Ty::Unknown,
            };
        }
        match rt {
            Ty::Named { name: n, .. } => self
                .sym
                .structs
                .get(&n)
                .and_then(|s| s.fields.get(name))
                .map(Ty::from_typeref)
                .unwrap_or(Ty::Unknown),
            _ => Ty::Unknown,
        }
    }

    // ----- the rules ------------------------------------------------------

    /// U1 (unit mixing) and O1 (overflow policy) on one binary or
    /// compound-assignment (`is_assign`) arithmetic operation.
    fn arith_check(&mut self, op: BinOp, is_assign: bool, lt: &Ty, rt: &Ty, span: Span) {
        if !op.is_arith() {
            return;
        }
        let trait_name = op.trait_name().map(|t| {
            if is_assign {
                format!("{t}Assign")
            } else {
                t.to_string()
            }
        });

        // U1: unit/raw mixing.
        if self.u_on() {
            let mix: Option<String> = match (lt, rt) {
                (Ty::Unit(a), Ty::Unit(b)) if a != b => Some(format!(
                    "`{}` {} `{}` mixes two different units",
                    a.name(),
                    op.describe(),
                    b.name()
                )),
                (Ty::Unit(a), Ty::Int { .. }) => {
                    let tn = trait_name.as_deref().unwrap_or("");
                    if self.sym.has_op_impl(tn, a.name(), true) {
                        None
                    } else {
                        Some(format!(
                            "`{}` {} raw integer has no `{}<u64>` impl; convert \
                             explicitly (named constructor or `.as_u64()`)",
                            a.name(),
                            op.describe(),
                            tn
                        ))
                    }
                }
                (Ty::Int { .. }, Ty::Unit(a)) => Some(format!(
                    "raw integer {} `{}` puts the unit on the wrong side; no \
                     such operator impl exists",
                    op.describe(),
                    a.name()
                )),
                (Ty::Int { from: Some(a) }, Ty::Int { from: Some(b) }) if a != b => Some(format!(
                    "mixes a u64 escaped from `{}` with one escaped from `{}`; \
                     convert to a single unit before doing arithmetic",
                    a.name(),
                    b.name()
                )),
                _ => None,
            };
            if let Some(msg) = mix {
                self.push(Rule::U1, span, msg);
            }
        }

        // O1: unchecked `+` / `*` / `+=` / `*=` on u64 quantities.
        if matches!(op, BinOp::Add | BinOp::Mul) && self.o1_on() {
            let both_int = lt.is_int() && rt.is_int();
            let tainted = lt.taint().is_some() || rt.taint().is_some();
            if both_int && (self.o1_all() || tainted) {
                let method = match op {
                    BinOp::Add => "saturating_add",
                    _ => "saturating_mul",
                };
                let what = lt
                    .taint()
                    .or(rt.taint())
                    .map(|k| format!("u64 {} quantity", k.name()))
                    .unwrap_or_else(|| "u64 quantity".to_string());
                self.push(
                    Rule::O1,
                    span,
                    format!(
                        "unchecked `{}{}` on a {} can overflow and corrupt the \
                         simulation silently; use `{}`/`checked_{}` or add a \
                         justified `simlint: allow(O1)`",
                        op.describe(),
                        if is_assign { "=" } else { "" },
                        what,
                        method,
                        match op {
                            BinOp::Add => "add",
                            _ => "mul",
                        },
                    ),
                );
            }
        }
    }

    fn arith_result(lt: &Ty, rt: &Ty) -> Ty {
        match (lt, rt) {
            (Ty::Unit(a), Ty::Unit(b)) if a == b => Ty::Unit(*a),
            (Ty::Unit(a), Ty::Int { .. }) | (Ty::Int { .. }, Ty::Unit(a)) => Ty::Unit(*a),
            (Ty::Int { from: a }, Ty::Int { from: b }) => Ty::Int { from: a.or(*b) },
            (Ty::Float, _) | (_, Ty::Float) => Ty::Float,
            _ => Ty::Unknown,
        }
    }
}

// ----- free helpers for fact collection -----------------------------------

/// `SCREAMING_SNAKE_CASE` identifier: a likely named constant.
pub(crate) fn is_screaming_case(s: &str) -> bool {
    s.len() > 1
        && s.bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
        && s.bytes().any(|b| b.is_ascii_uppercase())
}

/// Whether a type mentions an interior-mutability cell (or an atomic)
/// anywhere in its structure.
pub(crate) fn type_has_interior_mutability(ty: &TypeRef) -> bool {
    match ty {
        TypeRef::Path { segs, args } => {
            segs.last().is_some_and(|s| {
                crate::flow::INTERIOR_CELLS.contains(&s.as_str()) || s.starts_with("Atomic")
            }) || args.iter().any(type_has_interior_mutability)
        }
        TypeRef::Ref(inner) => type_has_interior_mutability(inner),
        TypeRef::Tuple(ts) => ts.iter().any(type_has_interior_mutability),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;
    use crate::sym::Symbols;

    /// A self-contained prelude defining the unit types the way the
    /// workspace does, so single-file tests exercise real resolution.
    const PRELUDE: &str = "\
pub struct Nanos(pub u64);
pub struct Bytes(pub u64);
pub struct BitRate(pub u64);
impl Nanos {
    pub const ZERO: Nanos = Nanos(0);
    pub fn as_u64(self) -> u64 { self.0 }
    pub fn from_ns(ns: u64) -> Nanos { Nanos(ns) }
}
impl Bytes {
    pub fn as_u64(self) -> u64 { self.0 }
    pub fn new(b: u64) -> Bytes { Bytes(b) }
}
impl Mul<u64> for Nanos { fn mul(self, rhs: u64) -> Nanos { Nanos(self.0 * rhs) } }
impl Add for Nanos { fn add(self, rhs: Nanos) -> Nanos { Nanos(self.0 + rhs.0) } }
";

    fn check(path: &str, body: &str) -> Vec<Finding> {
        // The prelude lives in `units.rs` exactly like the workspace's
        // real unit definitions, so it is exempt from U/O checks itself.
        let (pf, _) = parse_file("crates/dcsim/src/units.rs", PRELUDE).expect("prelude parses");
        let (bf, lexed) = parse_file(path, body).expect("test source parses");
        let files = [pf, bf];
        let sym = Symbols::build(&files);
        check_file(&files[1], &lexed, &sym).0
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        let mut r: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
        r.sort();
        r.dedup();
        r
    }

    #[test]
    fn u1_flags_unit_plus_raw_int() {
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos) -> Nanos { t + 5 }\n",
        );
        assert_eq!(rules_of(&f), vec![Rule::U1]);
    }

    #[test]
    fn u1_allows_impl_backed_scalar_ops() {
        // `Nanos * u64` exists (`impl Mul<u64> for Nanos`), `Nanos + Nanos` too.
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos, n: u64) -> Nanos { t * n + t }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn u1_flags_cross_unit_taint() {
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos, b: Bytes) -> u64 { t.as_u64() + b.as_u64() }\n",
        );
        assert!(f.iter().any(|x| x.rule == Rule::U1), "{f:?}");
    }

    #[test]
    fn o1_flags_tainted_add() {
        let f = check(
            "crates/dcsim/src/wheel.rs",
            "fn f(t: Nanos, d: u64) -> u64 { t.as_u64() + d }\n",
        );
        let o1: Vec<_> = f.iter().filter(|x| x.rule == Rule::O1).collect();
        assert_eq!(o1.len(), 1, "{f:?}");
        assert!(
            o1[0].message.contains("saturating_add"),
            "{}",
            o1[0].message
        );
    }

    #[test]
    fn o1_ignores_untainted_counters_outside_unit_files() {
        let f = check(
            "crates/dcsim/src/wheel.rs",
            "fn f(i: u64) -> u64 { i + 1 }\n",
        );
        assert!(f.iter().all(|x| x.rule != Rule::O1), "{f:?}");
    }

    #[test]
    fn o1_flags_compound_assign_and_dot_zero_escapes() {
        let f = check(
            "crates/netsim/src/port.rs",
            "fn f(total: u64, t: Nanos) -> u64 { let mut x = total; x += t.as_u64(); x *= t.0; x }\n",
        );
        let o1: Vec<_> = f.iter().filter(|x| x.rule == Rule::O1).collect();
        assert_eq!(o1.len(), 2, "{f:?}");
        assert!(o1[0].message.contains("`+=`"), "{}", o1[0].message);
        assert!(o1[1].message.contains("`*=`"), "{}", o1[1].message);
    }

    #[test]
    fn o1_not_outside_hot_zone() {
        let f = check(
            "crates/cc-hpcc/src/lib.rs",
            "fn f(t: Nanos, d: u64) -> u64 { t.as_u64() + d }\n",
        );
        assert!(f.iter().all(|x| x.rule != Rule::O1), "{f:?}");
    }

    #[test]
    fn shadowing_clears_unit_types() {
        // `t` rebound by a pattern must not keep its outer Nanos type.
        let f = check(
            "crates/dcsim/src/engine.rs",
            "fn f(t: Nanos, o: Option<u64>) -> u64 {\n\
                 match o { Some(t) => t + 1, None => 0 }\n\
             }\n",
        );
        assert!(f.iter().all(|x| x.rule != Rule::U1), "{f:?}");
    }
}
