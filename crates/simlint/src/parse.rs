//! Recursive-descent parser for the Rust subset the workspace uses.
//!
//! Design rules, in priority order:
//!
//! 1. **Never fail a file.** The only hard parse errors come from the
//!    lexer (unterminated literals) and from unbalanced delimiters; both
//!    are detected before item parsing starts. Everything else degrades:
//!    an unrecognized item becomes [`Item::Other`], an unrecognized
//!    expression becomes [`ExprKind::Opaque`], and the semantic rules are
//!    written to stay silent on what the parser could not shape.
//! 2. **Always make progress.** Every loop either consumes a token or
//!    breaks; top-level recovery force-bumps when a production consumed
//!    nothing.
//! 3. **Keep spans honest.** Expression spans cover the original source
//!    text exactly: findings are located by them.

use crate::ast::*;
use crate::lex::{lex, LexError, Lexed, Span, TokKind, Token};

/// A file that could not be parsed at all (lexer or delimiter failure).
/// These map to the CLI's exit code 2.
#[derive(Debug, Clone)]
pub struct ParseFailure {
    /// Workspace-relative display path.
    pub path: String,
    /// 1-based line of the failure.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ParseFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: parse error: {}",
            self.path, self.line, self.message
        )
    }
}

/// Parse one file. Returns the lexed stream too (the caller reuses the
/// comments for suppression handling) or a fatal failure.
pub fn parse_file(path: &str, src: &str) -> Result<(File, Lexed), ParseFailure> {
    let lexed = lex(src).map_err(|e: LexError| ParseFailure {
        path: path.to_string(),
        line: e.line,
        message: e.message,
    })?;
    check_balance(path, &lexed.tokens)?;
    let mut p = Parser {
        toks: &lexed.tokens,
        pos: 0,
    };
    let items = p.parse_items(false);
    Ok((
        File {
            path: path.to_string(),
            items,
        },
        lexed,
    ))
}

/// Verify delimiters balance; the parser assumes they do.
fn check_balance(path: &str, toks: &[Token]) -> Result<(), ParseFailure> {
    let mut stack: Vec<(char, usize)> = Vec::new();
    for t in toks {
        match t.kind {
            TokKind::Open(c) => stack.push((c, t.line)),
            TokKind::Close(c) => {
                let want = match c {
                    ')' => '(',
                    ']' => '[',
                    _ => '{',
                };
                match stack.pop() {
                    Some((open, _)) if open == want => {}
                    _ => {
                        return Err(ParseFailure {
                            path: path.to_string(),
                            line: t.line,
                            message: format!("unbalanced `{c}`"),
                        })
                    }
                }
            }
            _ => {}
        }
    }
    if let Some((open, line)) = stack.pop() {
        return Err(ParseFailure {
            path: path.to_string(),
            line,
            message: format!("unclosed `{open}`"),
        });
    }
    Ok(())
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
}

/// Longest-match operator table, scanned in order.
const OPS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
    "+=", "-=", "*=", "/=", "%=", "^=", "&=", "|=", "..", "<", ">", "+", "-", "*", "/", "%", "^",
    "&", "|", "=", ".", ":", ";", ",", "#", "?", "@", "!",
];

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Token> {
        self.toks.get(self.pos)
    }

    fn nth(&self, n: usize) -> Option<&'a Token> {
        self.toks.get(self.pos + n)
    }

    fn bump(&mut self) -> Option<&'a Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn span_here(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .or_else(|| self.toks.last().map(|t| t.span))
            .unwrap_or(Span { lo: 0, hi: 0 })
    }

    fn line_here(&self) -> usize {
        self.peek()
            .map(|t| t.line)
            .or_else(|| self.toks.last().map(|t| t.line))
            .unwrap_or(1)
    }

    fn is_kw(&self, kw: &str) -> bool {
        self.peek().and_then(|t| t.ident()) == Some(kw)
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// The operator starting at `pos`, if any, using joint flags so that
    /// `> >` (split generics) never reads as `>>`.
    fn op_at(&self, n: usize) -> Option<&'static str> {
        'outer: for op in OPS {
            let chars: Vec<char> = op.chars().collect();
            for (k, want) in chars.iter().enumerate() {
                match self.nth(n + k).map(|t| &t.kind) {
                    Some(TokKind::Punct(c, joint)) if c == want => {
                        if k + 1 < chars.len() && !*joint {
                            continue 'outer;
                        }
                    }
                    _ => continue 'outer,
                }
            }
            return Some(op);
        }
        None
    }

    fn at_op(&self, op: &str) -> bool {
        self.op_at(0)
            == Some(match OPS.iter().find(|o| **o == op) {
                Some(o) => o,
                None => return false,
            })
    }

    fn eat_op(&mut self, op: &str) -> bool {
        if self.at_op(op) {
            self.pos += op.len();
            true
        } else {
            false
        }
    }

    /// Consume a single `>` even when it is the first half of a joint
    /// `>>`/`>=`/`>>=` sequence — closing a nested generic-argument list
    /// splits the shift token (`Vec<Vec<u64>>`).
    fn eat_gt(&mut self) -> bool {
        if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Punct('>', _))) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn at_open(&self, c: char) -> bool {
        matches!(self.peek().map(|t| &t.kind), Some(TokKind::Open(o)) if *o == c)
    }

    fn at_close(&self, c: char) -> bool {
        matches!(self.peek().map(|t| &t.kind), Some(TokKind::Close(o)) if *o == c)
    }

    fn eat_open(&mut self, c: char) -> bool {
        if self.at_open(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_close(&mut self, c: char) -> bool {
        if self.at_close(c) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// At an `Open`, skip past its matching `Close`. No-op otherwise.
    fn skip_balanced(&mut self) {
        if !matches!(self.peek().map(|t| &t.kind), Some(TokKind::Open(_))) {
            return;
        }
        let mut depth = 0usize;
        while let Some(t) = self.bump() {
            match t.kind {
                TokKind::Open(_) => depth += 1,
                TokKind::Close(_) => {
                    depth -= 1;
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Skip a generics list `<...>`, tolerating nested delimiters, `->`
    /// arrows, and const-generic braces.
    fn skip_generics(&mut self) {
        if !self.at_op("<") {
            return;
        }
        self.pos += 1;
        let mut angle = 1usize;
        while angle > 0 && !self.at_end() {
            if self.at_op("->") {
                self.pos += 2;
                continue;
            }
            match self.peek().map(|t| &t.kind) {
                Some(TokKind::Open(_)) => self.skip_balanced(),
                Some(TokKind::Punct('<', _)) => {
                    angle += 1;
                    self.pos += 1;
                }
                Some(TokKind::Punct('>', _)) => {
                    angle -= 1;
                    self.pos += 1;
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Skip until a `;` or `{` at delimiter/angle depth zero (used for
    /// where-clauses and trait bounds). Does not consume the terminator.
    fn skip_to_body(&mut self) {
        let mut angle = 0usize;
        while let Some(t) = self.peek() {
            if self.at_op("->") {
                self.pos += 2;
                continue;
            }
            match &t.kind {
                TokKind::Open('{') if angle == 0 => return,
                TokKind::Punct(';', _) if angle == 0 => return,
                TokKind::Open(_) => self.skip_balanced(),
                TokKind::Punct('<', _) => {
                    angle += 1;
                    self.pos += 1;
                }
                TokKind::Punct('>', _) => {
                    angle = angle.saturating_sub(1);
                    self.pos += 1;
                }
                TokKind::Close(_) => return,
                _ => {
                    self.pos += 1;
                }
            }
        }
    }

    /// Parse outer attributes; returns whether any mentions `test`.
    fn parse_attrs(&mut self) -> bool {
        let mut has_test = false;
        while self.at_op("#") {
            let start = self.pos;
            self.pos += 1;
            self.eat_op("!");
            if self.at_open('[') {
                let from = self.pos;
                self.skip_balanced();
                for t in &self.toks[from..self.pos] {
                    if t.ident() == Some("test") {
                        has_test = true;
                    }
                }
            } else {
                // `#` that is not an attribute — rewind and leave it.
                self.pos = start;
                break;
            }
        }
        has_test
    }

    // ----- items ---------------------------------------------------------

    /// Parse items until EOF (`in_block` false) or a closing `}`.
    fn parse_items(&mut self, in_block: bool) -> Vec<Item> {
        let mut out = Vec::new();
        loop {
            if self.at_end() || (in_block && self.at_close('}')) {
                return out;
            }
            let before = self.pos;
            self.parse_item_into(&mut out);
            if self.pos == before {
                self.pos += 1; // force progress
            }
        }
    }

    /// Parse one item (possibly expanding to several `Use` bindings).
    fn parse_item_into(&mut self, out: &mut Vec<Item>) {
        let attr_test = self.parse_attrs();
        // Visibility.
        if self.eat_kw("pub") && self.at_open('(') {
            self.skip_balanced();
        }
        // Qualifiers that may precede `fn`.
        let mut saw_const = false;
        loop {
            if self.is_kw("const") && self.nth(1).and_then(|t| t.ident()) == Some("fn") {
                self.pos += 1;
                continue;
            }
            if self.is_kw("unsafe") || self.is_kw("async") {
                self.pos += 1;
                continue;
            }
            if self.is_kw("extern")
                && matches!(self.nth(1).map(|t| &t.kind), Some(TokKind::Str))
                && self.nth(2).and_then(|t| t.ident()) == Some("fn")
            {
                self.pos += 2;
                continue;
            }
            break;
        }
        if self.is_kw("const") || self.is_kw("static") {
            saw_const = true;
        }

        match self.peek().and_then(|t| t.ident()) {
            Some("use") => {
                self.pos += 1;
                self.parse_use(Vec::new(), out);
                self.eat_op(";");
            }
            Some("struct") => {
                self.pos += 1;
                out.push(self.parse_struct());
            }
            Some("enum") => {
                self.pos += 1;
                out.push(self.parse_enum(attr_test));
            }
            Some("fn") => {
                self.pos += 1;
                out.push(Item::Fn(self.parse_fn(attr_test)));
            }
            Some("impl") => {
                self.pos += 1;
                out.push(self.parse_impl(attr_test));
            }
            Some("mod") => {
                self.pos += 1;
                let name = self.bump_ident().unwrap_or_default();
                if self.eat_open('{') {
                    let items = self.parse_items(true);
                    self.eat_close('}');
                    out.push(Item::Mod {
                        name,
                        cfg_test: attr_test,
                        items,
                    });
                } else {
                    self.eat_op(";");
                    out.push(Item::Other);
                }
            }
            Some("trait") => {
                self.pos += 1;
                let name = self.bump_ident().unwrap_or_default();
                self.skip_generics();
                self.skip_to_body();
                let mut items = Vec::new();
                if self.eat_open('{') {
                    items = self.parse_items(true);
                    self.eat_close('}');
                }
                out.push(Item::Trait { name, items });
            }
            Some("const") | Some("static") if saw_const => {
                let is_static = self.is_kw("static");
                let line = self.line_here();
                self.pos += 1;
                let is_mut = self.eat_kw("mut");
                let name = self.bump_ident().unwrap_or_default();
                let ty = if self.eat_op(":") {
                    self.parse_type()
                } else {
                    TypeRef::Other
                };
                let init = if self.eat_op("=") {
                    Some(self.parse_expr(0, false))
                } else {
                    None
                };
                self.eat_op(";");
                out.push(Item::Const {
                    name,
                    ty,
                    init,
                    is_static,
                    is_mut,
                    line,
                });
            }
            Some("type") => {
                self.pos += 1;
                self.skip_to_body();
                self.eat_op(";");
                out.push(Item::Other);
            }
            Some("macro_rules") => {
                self.pos += 1;
                self.eat_op("!");
                self.bump_ident();
                self.skip_balanced();
                out.push(Item::Other);
            }
            Some("extern") => {
                self.pos += 1;
                if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Str)) {
                    self.pos += 1;
                }
                if self.at_open('{') {
                    self.skip_balanced();
                } else {
                    self.skip_to_body();
                    self.eat_op(";");
                }
                out.push(Item::Other);
            }
            _ => {
                // Unknown item: recover to the next `;` or skip a block.
                while let Some(t) = self.peek() {
                    match &t.kind {
                        TokKind::Punct(';', _) => {
                            self.pos += 1;
                            break;
                        }
                        TokKind::Open('{') => {
                            self.skip_balanced();
                            break;
                        }
                        TokKind::Open(_) => self.skip_balanced(),
                        TokKind::Close(_) => break,
                        _ => {
                            self.pos += 1;
                        }
                    }
                }
                out.push(Item::Other);
            }
        }
    }

    fn bump_ident(&mut self) -> Option<String> {
        match self.peek().map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => {
                let s = s.clone();
                self.pos += 1;
                Some(s)
            }
            _ => None,
        }
    }

    /// Parse the tail of a `use` declaration, expanding groups and globs.
    fn parse_use(&mut self, prefix: Vec<String>, out: &mut Vec<Item>) {
        let mut path = prefix;
        loop {
            if self.at_open('{') {
                self.pos += 1;
                loop {
                    if self.eat_close('}') || self.at_end() {
                        return;
                    }
                    self.parse_use(path.clone(), out);
                    if !self.eat_op(",") {
                        self.eat_close('}');
                        return;
                    }
                }
            }
            if self.eat_op("*") {
                path.push("*".to_string());
                out.push(Item::Use {
                    alias: "*".to_string(),
                    path,
                });
                return;
            }
            let Some(seg) = self.bump_ident() else { return };
            path.push(seg);
            if self.eat_op("::") {
                continue;
            }
            let alias = if self.eat_kw("as") {
                self.bump_ident().unwrap_or_default()
            } else {
                path.last().cloned().unwrap_or_default()
            };
            out.push(Item::Use { path, alias });
            return;
        }
    }

    fn parse_struct(&mut self) -> Item {
        let name = self.bump_ident().unwrap_or_default();
        self.skip_generics();
        if self.is_kw("where") {
            self.skip_to_body();
        }
        let fields = if self.at_open('(') {
            self.pos += 1;
            let mut tys = Vec::new();
            while !self.at_close(')') && !self.at_end() {
                self.parse_attrs();
                if self.eat_kw("pub") && self.at_open('(') {
                    self.skip_balanced();
                }
                tys.push(self.parse_type());
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_close(')');
            self.eat_op(";");
            Fields::Tuple(tys)
        } else if self.at_open('{') {
            self.pos += 1;
            let mut fields = Vec::new();
            while !self.at_close('}') && !self.at_end() {
                self.parse_attrs();
                if self.eat_kw("pub") && self.at_open('(') {
                    self.skip_balanced();
                }
                let Some(fname) = self.bump_ident() else {
                    self.pos += 1;
                    continue;
                };
                if !self.eat_op(":") {
                    continue;
                }
                let ty = self.parse_type();
                fields.push((fname, ty));
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_close('}');
            Fields::Named(fields)
        } else {
            self.eat_op(";");
            Fields::Unit
        };
        Item::Struct { name, fields }
    }

    fn parse_enum(&mut self, cfg_test: bool) -> Item {
        let name = self.bump_ident().unwrap_or_default();
        self.skip_generics();
        if self.is_kw("where") {
            self.skip_to_body();
        }
        let mut variants = Vec::new();
        if self.eat_open('{') {
            while !self.at_close('}') && !self.at_end() {
                self.parse_attrs();
                let Some(vname) = self.bump_ident() else {
                    self.pos += 1;
                    continue;
                };
                variants.push(vname);
                if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Open(_))) {
                    self.skip_balanced(); // payload: no rule reads it
                }
                if self.eat_op("=") {
                    // Discriminant: skip to `,` or `}`.
                    while !self.at_op(",") && !self.at_close('}') && !self.at_end() {
                        if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Open(_))) {
                            self.skip_balanced();
                        } else {
                            self.pos += 1;
                        }
                    }
                }
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_close('}');
        } else {
            self.eat_op(";");
        }
        Item::Enum {
            name,
            variants,
            cfg_test,
        }
    }

    fn parse_fn(&mut self, cfg_test: bool) -> FnItem {
        let line = self.line_here();
        let name = self.bump_ident().unwrap_or_default();
        self.skip_generics();
        let mut self_param = None;
        let mut params = Vec::new();
        if self.eat_open('(') {
            while !self.at_close(')') && !self.at_end() {
                self.parse_attrs();
                // Receiver forms.
                let start = self.pos;
                let mut is_ref = false;
                if self.eat_op("&") {
                    is_ref = true;
                    if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Lifetime(_))) {
                        self.pos += 1;
                    }
                }
                let had_mut = self.eat_kw("mut");
                if self.eat_kw("self") {
                    self_param = Some(if is_ref {
                        SelfKind::Reference
                    } else {
                        SelfKind::Value
                    });
                    let _ = had_mut;
                } else {
                    self.pos = start;
                    let pat = self.parse_pat_or();
                    if self.eat_op(":") {
                        let ty = self.parse_type();
                        params.push((pat, ty));
                    } else {
                        params.push((pat, TypeRef::Other));
                    }
                }
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_close(')');
        }
        let ret = if self.eat_op("->") {
            self.parse_type()
        } else {
            TypeRef::Unit
        };
        if self.is_kw("where") {
            self.skip_to_body();
        }
        let body = if self.at_open('{') {
            Some(self.parse_block())
        } else {
            self.eat_op(";");
            None
        };
        FnItem {
            name,
            self_param,
            params,
            ret,
            body,
            cfg_test,
            line,
        }
    }

    fn parse_impl(&mut self, cfg_test: bool) -> Item {
        self.skip_generics();
        let first = self.parse_type();
        let (trait_, self_ty) = if self.eat_kw("for") {
            let st = self.parse_type();
            (Some(first), st)
        } else {
            (None, first)
        };
        if self.is_kw("where") {
            self.skip_to_body();
        }
        let mut items = Vec::new();
        if self.eat_open('{') {
            items = self.parse_items(true);
            self.eat_close('}');
        }
        Item::Impl {
            trait_,
            self_ty,
            items,
            cfg_test,
        }
    }

    // ----- types ---------------------------------------------------------

    fn parse_type(&mut self) -> TypeRef {
        if self.eat_op("&") {
            if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Lifetime(_))) {
                self.pos += 1;
            }
            self.eat_kw("mut");
            return TypeRef::Ref(Box::new(self.parse_type()));
        }
        if self.at_op("&&") {
            self.pos += 1; // treat && as two &
            return TypeRef::Ref(Box::new(self.parse_type()));
        }
        if self.at_open('(') {
            self.pos += 1;
            if self.eat_close(')') {
                return TypeRef::Unit;
            }
            let mut tys = vec![self.parse_type()];
            let mut tuple = false;
            while self.eat_op(",") {
                tuple = true;
                if self.at_close(')') {
                    break;
                }
                tys.push(self.parse_type());
            }
            self.eat_close(')');
            return if tuple {
                TypeRef::Tuple(tys)
            } else {
                tys.pop().unwrap_or(TypeRef::Other)
            };
        }
        if self.at_open('[') {
            self.skip_balanced();
            return TypeRef::Other;
        }
        if self.eat_kw("dyn") || self.eat_kw("impl") {
            // Take the first bound's path; skip the rest of the bounds.
            let t = self.parse_type();
            while self.eat_op("+") {
                if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Lifetime(_))) {
                    self.pos += 1;
                } else {
                    self.parse_type();
                }
            }
            return t;
        }
        if self.is_kw("fn") || self.is_kw("unsafe") || self.is_kw("extern") {
            // fn pointer: skip signature.
            while let Some(t) = self.peek() {
                match &t.kind {
                    TokKind::Open('(') => {
                        self.skip_balanced();
                        break;
                    }
                    _ => {
                        self.pos += 1;
                    }
                }
            }
            if self.eat_op("->") {
                self.parse_type();
            }
            return TypeRef::Other;
        }
        if self.eat_op("*") {
            // Raw pointer.
            let _ = self.eat_kw("const") || self.eat_kw("mut");
            self.parse_type();
            return TypeRef::Other;
        }
        if self.eat_op("!") {
            return TypeRef::Other;
        }
        if self.is_kw("_") {
            self.pos += 1;
            return TypeRef::Other;
        }
        // Path type.
        let mut segs = Vec::new();
        let mut args = Vec::new();
        self.eat_op("::");
        loop {
            let Some(seg) = self.bump_ident() else {
                return if segs.is_empty() {
                    TypeRef::Other
                } else {
                    TypeRef::Path { segs, args }
                };
            };
            segs.push(seg);
            if self.at_op("<") {
                self.pos += 1;
                // Generic argument list.
                loop {
                    if self.eat_gt() || self.at_end() {
                        break;
                    }
                    if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Lifetime(_))) {
                        self.pos += 1;
                    } else if self.at_open('{') {
                        self.skip_balanced(); // const-generic expression
                    } else if matches!(
                        self.peek().map(|t| &t.kind),
                        Some(TokKind::Int(_) | TokKind::Char | TokKind::Str)
                    ) {
                        self.pos += 1; // const-generic literal
                    } else if self.peek().and_then(|t| t.ident()).is_some()
                        && self.op_at(1) == Some("=")
                    {
                        // Associated type binding `Item = T`.
                        self.pos += 2;
                        args.push(self.parse_type());
                    } else {
                        args.push(self.parse_type());
                    }
                    if !self.eat_op(",") {
                        self.eat_gt();
                        break;
                    }
                }
            }
            if self.at_op("::") && self.nth(2).and_then(|t| t.ident()).is_some() {
                self.pos += 2;
                continue;
            }
            if self.at_op("::") && self.op_at(2) == Some("<") {
                self.pos += 2;
                continue;
            }
            break;
        }
        if self.at_open('(') {
            // Fn-trait sugar `FnMut(A) -> B`.
            self.skip_balanced();
            if self.eat_op("->") {
                self.parse_type();
            }
        }
        TypeRef::Path { segs, args }
    }

    // ----- patterns ------------------------------------------------------

    /// Parse a pattern with optional `|` alternatives.
    fn parse_pat_or(&mut self) -> Pat {
        self.eat_op("|");
        let first = self.parse_pat();
        if !self.at_op("|") || self.at_op("||") {
            return first;
        }
        let mut alts = vec![first];
        while self.eat_op("|") {
            alts.push(self.parse_pat());
        }
        Pat::Or(alts)
    }

    fn parse_pat(&mut self) -> Pat {
        // Reference and binding-mode prefixes are transparent.
        while self.eat_op("&") || self.eat_kw("ref") || self.eat_kw("mut") {
            if self.at_op("&&") {
                self.pos += 1;
            }
        }
        if self.is_kw("_") {
            self.pos += 1;
            return Pat::Other;
        }
        if self.eat_kw("box") {
            return self.parse_pat();
        }
        if self.at_op("..") || self.at_op("..=") {
            // Rest pattern or open range.
            self.pos += 2;
            if matches!(
                self.peek().map(|t| &t.kind),
                Some(TokKind::Int(_) | TokKind::Float(_) | TokKind::Char)
            ) {
                self.pos += 1;
                return Pat::Other;
            }
            return Pat::Other;
        }
        // Literals (with optional leading minus) and literal ranges.
        if self.at_op("-")
            || matches!(
                self.peek().map(|t| &t.kind),
                Some(TokKind::Int(_) | TokKind::Float(_) | TokKind::Str | TokKind::Char)
            )
        {
            self.eat_op("-");
            self.pos += 1;
            if self.eat_op("..=") || self.eat_op("..") {
                self.eat_op("-");
                if matches!(
                    self.peek().map(|t| &t.kind),
                    Some(TokKind::Int(_) | TokKind::Float(_) | TokKind::Char)
                ) {
                    self.pos += 1;
                }
            }
            return Pat::Other;
        }
        if self.at_open('(') {
            self.pos += 1;
            let mut elems = Vec::new();
            while !self.at_close(')') && !self.at_end() {
                elems.push(self.parse_pat_or());
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_close(')');
            return Pat::Tuple(elems);
        }
        if self.at_open('[') {
            self.skip_balanced();
            return Pat::Other;
        }
        // Path-ish pattern.
        let mut segs = Vec::new();
        self.eat_op("::");
        while let Some(seg) = self.bump_ident() {
            segs.push(seg);
            if self.at_op("::") && self.op_at(2) == Some("<") {
                self.pos += 2;
                self.skip_generics();
            }
            if !self.eat_op("::") {
                break;
            }
        }
        if segs.is_empty() {
            // Unknown pattern token: consume it so the caller progresses.
            self.pos += 1;
            return Pat::Other;
        }
        if self.at_op("@") {
            self.pos += 1;
            self.parse_pat();
            return Pat::Other;
        }
        if self.eat_op("..=") || self.eat_op("..") {
            self.eat_op("-");
            if matches!(
                self.peek().map(|t| &t.kind),
                Some(TokKind::Int(_) | TokKind::Float(_) | TokKind::Char | TokKind::Ident(_))
            ) {
                self.pos += 1;
            }
            return Pat::Other;
        }
        if self.at_open('(') {
            self.pos += 1;
            let mut elems = Vec::new();
            while !self.at_close(')') && !self.at_end() {
                elems.push(self.parse_pat_or());
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_close(')');
            return Pat::TupleStruct { path: segs, elems };
        }
        if self.at_open('{') {
            self.skip_balanced();
            return Pat::Other;
        }
        Pat::Path(segs)
    }

    // ----- statements and blocks -----------------------------------------

    fn parse_block(&mut self) -> Block {
        let mut block = Block::default();
        if !self.eat_open('{') {
            return block;
        }
        loop {
            if self.eat_close('}') || self.at_end() {
                return block;
            }
            let before = self.pos;
            if let Some(stmt) = self.parse_stmt() {
                block.stmts.push(stmt);
            }
            if self.pos == before {
                self.pos += 1; // force progress
            }
        }
    }

    fn parse_stmt(&mut self) -> Option<Stmt> {
        self.parse_attrs();
        if self.eat_op(";") {
            return None;
        }
        if self.is_kw("let") {
            self.pos += 1;
            let pat = self.parse_pat_or();
            let ty = if self.eat_op(":") {
                Some(self.parse_type())
            } else {
                None
            };
            let init = if self.eat_op("=") {
                Some(self.parse_expr(0, false))
            } else {
                None
            };
            if self.eat_kw("else") {
                // let-else diverging block.
                if self.at_open('{') {
                    let b = self.parse_block();
                    let _ = b;
                }
            }
            self.eat_op(";");
            return Some(Stmt::Let { pat, ty, init });
        }
        // Nested items.
        let kw = self.peek().and_then(|t| t.ident());
        let is_item_kw = matches!(
            kw,
            Some(
                "fn" | "struct"
                    | "enum"
                    | "impl"
                    | "use"
                    | "mod"
                    | "trait"
                    | "macro_rules"
                    | "type"
            )
        ) || (kw == Some("const")
            && self.nth(1).and_then(|t| t.ident()) != Some("_"))
            || kw == Some("static")
            || (kw == Some("pub"));
        // `const` can also start a const-block expression; the workspace
        // has none, so treat it as an item unconditionally above.
        if is_item_kw {
            let mut items = Vec::new();
            self.parse_item_into(&mut items);
            return items.pop().map(|i| Stmt::Item(Box::new(i)));
        }
        let expr = self.parse_expr(0, false);
        self.eat_op(";");
        Some(Stmt::Expr(expr))
    }

    // ----- expressions ---------------------------------------------------

    /// Binding power of a binary operator; `None` when `op` does not
    /// continue an expression.
    fn binary_bp(op: &str) -> Option<(u8, u8, BinOp)> {
        Some(match op {
            "*" => (20, 21, BinOp::Mul),
            "/" => (20, 21, BinOp::Div),
            "%" => (20, 21, BinOp::Rem),
            "+" => (18, 19, BinOp::Add),
            "-" => (18, 19, BinOp::Sub),
            "<<" | ">>" => (16, 17, BinOp::Bit),
            "&" => (14, 15, BinOp::Bit),
            "^" => (13, 14, BinOp::Bit),
            "|" => (12, 13, BinOp::Bit),
            "==" | "!=" | "<" | ">" | "<=" | ">=" => (10, 11, BinOp::Cmp),
            "&&" => (8, 9, BinOp::Logic),
            "||" => (6, 7, BinOp::Logic),
            ".." | "..=" => (4, 5, BinOp::Range),
            _ => return None,
        })
    }

    fn assign_op(op: &str) -> Option<Option<BinOp>> {
        Some(match op {
            "=" => None,
            "+=" => Some(BinOp::Add),
            "-=" => Some(BinOp::Sub),
            "*=" => Some(BinOp::Mul),
            "/=" => Some(BinOp::Div),
            "%=" => Some(BinOp::Rem),
            "^=" | "&=" | "|=" | "<<=" | ">>=" => Some(BinOp::Bit),
            _ => return None,
        })
    }

    /// Pratt expression parser. `no_struct` suppresses struct literals
    /// (scrutinee / condition / iterator positions).
    fn parse_expr(&mut self, min_bp: u8, no_struct: bool) -> Expr {
        let mut lhs = self.parse_prefix(no_struct);
        loop {
            if self.is_kw("as") {
                self.pos += 1;
                let ty = self.parse_type();
                let span = lhs.span.to(self.prev_span());
                let line = lhs.line;
                lhs = Expr {
                    kind: ExprKind::Cast {
                        expr: Box::new(lhs),
                        ty,
                    },
                    span,
                    line,
                };
                continue;
            }
            let Some(op) = self.op_at(0) else { break };
            if let Some(inner) = Self::assign_op(op) {
                if min_bp > 2 {
                    break;
                }
                self.pos += op.len();
                let rhs = self.parse_expr(2, no_struct); // right-assoc
                let span = lhs.span.to(rhs.span);
                let line = lhs.line;
                lhs = Expr {
                    kind: ExprKind::Assign {
                        op: inner,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                    span,
                    line,
                };
                continue;
            }
            let Some((l_bp, r_bp, bop)) = Self::binary_bp(op) else {
                break;
            };
            if l_bp < min_bp {
                break;
            }
            self.pos += op.len();
            if bop == BinOp::Range {
                // Open-ended range: `a..` with no RHS.
                let hi = if self.expr_can_start(no_struct) {
                    Some(Box::new(self.parse_expr(r_bp, no_struct)))
                } else {
                    None
                };
                let span = hi.as_ref().map(|h| lhs.span.to(h.span)).unwrap_or(lhs.span);
                let line = lhs.line;
                lhs = Expr {
                    kind: ExprKind::RangeLit {
                        lo: Some(Box::new(lhs)),
                        hi,
                    },
                    span,
                    line,
                };
                continue;
            }
            let rhs = self.parse_expr(r_bp, no_struct);
            let span = lhs.span.to(rhs.span);
            let line = lhs.line;
            lhs = Expr {
                kind: ExprKind::Binary {
                    op: bop,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                },
                span,
                line,
            };
        }
        lhs
    }

    fn prev_span(&self) -> Span {
        self.toks
            .get(self.pos.saturating_sub(1))
            .map(|t| t.span)
            .unwrap_or(Span { lo: 0, hi: 0 })
    }

    /// Can the current token begin an expression? (Used for open ranges.)
    fn expr_can_start(&self, _no_struct: bool) -> bool {
        match self.peek().map(|t| &t.kind) {
            None => false,
            Some(TokKind::Close(_)) => false,
            Some(TokKind::Punct(c, _)) => matches!(c, '-' | '!' | '&' | '*' | '|' | '.'),
            _ => true,
        }
    }

    fn parse_prefix(&mut self, no_struct: bool) -> Expr {
        let start_span = self.span_here();
        let line = self.line_here();
        let mk = |kind: ExprKind, span: Span, line: usize| Expr { kind, span, line };

        self.parse_attrs();

        // Unary operators (postfix binds tighter, so recurse into prefix).
        for op in ["-", "!", "*"] {
            if self.at_op(op) && self.op_at(0) == Some(op) {
                self.pos += op.len();
                let inner = self.parse_prefix(no_struct);
                let span = start_span.to(inner.span);
                return mk(ExprKind::Unary(Box::new(inner)), span, line);
            }
        }
        if self.at_op("&&") {
            self.pos += 1; // && as two reference ops
            let inner = self.parse_prefix(no_struct);
            let span = start_span.to(inner.span);
            return mk(ExprKind::Unary(Box::new(inner)), span, line);
        }
        if self.at_op("&") {
            self.pos += 1;
            self.eat_kw("mut");
            let inner = self.parse_prefix(no_struct);
            let span = start_span.to(inner.span);
            return mk(ExprKind::Unary(Box::new(inner)), span, line);
        }
        if self.at_op("..") || self.at_op("..=") {
            let len = if self.at_op("..=") { 3 } else { 2 };
            self.pos += len;
            let hi = if self.expr_can_start(no_struct) {
                Some(Box::new(self.parse_expr(5, no_struct)))
            } else {
                None
            };
            let span = hi
                .as_ref()
                .map(|h| start_span.to(h.span))
                .unwrap_or(start_span);
            return mk(ExprKind::RangeLit { lo: None, hi }, span, line);
        }

        let head = self.parse_primary(no_struct);
        self.parse_postfix(head)
    }

    fn parse_postfix(&mut self, mut e: Expr) -> Expr {
        loop {
            // Field / method / tuple-index access.
            if self.at_op(".") && self.op_at(0) != Some("..") && self.op_at(0) != Some("..=") {
                self.pos += 1;
                match self.peek().map(|t| t.kind.clone()) {
                    Some(TokKind::Ident(name)) => {
                        let name_span = self.span_here();
                        self.pos += 1;
                        // `.await` behaves like a field read.
                        // Turbofish: `.collect::<Vec<_>>()`.
                        if self.at_op("::") && self.op_at(2) == Some("<") {
                            self.pos += 2;
                            self.skip_generics();
                        }
                        if self.at_open('(') {
                            let args = self.parse_call_args();
                            let span = e.span.to(self.prev_span());
                            let line = e.line;
                            e = Expr {
                                kind: ExprKind::MethodCall {
                                    recv: Box::new(e),
                                    name,
                                    args,
                                },
                                span,
                                line,
                            };
                        } else {
                            let span = e.span.to(name_span);
                            let line = e.line;
                            e = Expr {
                                kind: ExprKind::Field {
                                    recv: Box::new(e),
                                    name,
                                },
                                span,
                                line,
                            };
                        }
                        continue;
                    }
                    Some(TokKind::Int(text)) => {
                        let idx_span = self.span_here();
                        self.pos += 1;
                        let span = e.span.to(idx_span);
                        let line = e.line;
                        e = Expr {
                            kind: ExprKind::Field {
                                recv: Box::new(e),
                                name: text,
                            },
                            span,
                            line,
                        };
                        continue;
                    }
                    Some(TokKind::Float(text)) => {
                        // `x.0.1` lexes the `0.1` as a float: split it into
                        // two tuple-index accesses.
                        let idx_span = self.span_here();
                        self.pos += 1;
                        let parts: Vec<&str> = text.split('.').collect();
                        let span = e.span.to(idx_span);
                        let line = e.line;
                        for part in parts {
                            e = Expr {
                                kind: ExprKind::Field {
                                    recv: Box::new(e),
                                    name: part.to_string(),
                                },
                                span,
                                line,
                            };
                        }
                        continue;
                    }
                    _ => {
                        // Stray dot: leave it unconsumed as Opaque food.
                        continue;
                    }
                }
            }
            if self.at_open('(') {
                let args = self.parse_call_args();
                let span = e.span.to(self.prev_span());
                let line = e.line;
                e = Expr {
                    kind: ExprKind::Call {
                        callee: Box::new(e),
                        args,
                    },
                    span,
                    line,
                };
                continue;
            }
            if self.at_open('[') {
                self.pos += 1;
                let idx = self.parse_expr(0, false);
                self.eat_close(']');
                let span = e.span.to(self.prev_span());
                let line = e.line;
                e = Expr {
                    kind: ExprKind::Index {
                        recv: Box::new(e),
                        idx: Box::new(idx),
                    },
                    span,
                    line,
                };
                continue;
            }
            if self.at_op("?") {
                self.pos += 1;
                let span = e.span.to(self.prev_span());
                let line = e.line;
                e = Expr {
                    kind: ExprKind::Try(Box::new(e)),
                    span,
                    line,
                };
                continue;
            }
            return e;
        }
    }

    fn parse_call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        if !self.eat_open('(') {
            return args;
        }
        while !self.at_close(')') && !self.at_end() {
            args.push(self.parse_expr(0, false));
            if !self.eat_op(",") {
                break;
            }
        }
        self.eat_close(')');
        args
    }

    fn parse_primary(&mut self, no_struct: bool) -> Expr {
        let span = self.span_here();
        let line = self.line_here();
        let mk = |kind: ExprKind, span: Span| Expr { kind, span, line };

        let Some(tok) = self.peek() else {
            return mk(ExprKind::Opaque, span);
        };

        match &tok.kind {
            TokKind::Int(text) => {
                let text = text.clone();
                self.pos += 1;
                mk(ExprKind::Lit(Lit::Int(text)), span)
            }
            TokKind::Float(_) => {
                self.pos += 1;
                mk(ExprKind::Lit(Lit::Float), span)
            }
            TokKind::Str => {
                self.pos += 1;
                mk(ExprKind::Lit(Lit::Str), span)
            }
            TokKind::Char => {
                self.pos += 1;
                mk(ExprKind::Lit(Lit::Char), span)
            }
            TokKind::Lifetime(_) => {
                // Loop label: `'outer: loop { … }`.
                self.pos += 1;
                self.eat_op(":");
                self.parse_prefix(no_struct)
            }
            TokKind::Open('(') => {
                self.pos += 1;
                if self.eat_close(')') {
                    return mk(ExprKind::Tuple(Vec::new()), span.to(self.prev_span()));
                }
                let first = self.parse_expr(0, false);
                if self.eat_op(",") {
                    let mut elems = vec![first];
                    while !self.at_close(')') && !self.at_end() {
                        elems.push(self.parse_expr(0, false));
                        if !self.eat_op(",") {
                            break;
                        }
                    }
                    self.eat_close(')');
                    mk(ExprKind::Tuple(elems), span.to(self.prev_span()))
                } else {
                    self.eat_close(')');
                    mk(ExprKind::Paren(Box::new(first)), span.to(self.prev_span()))
                }
            }
            TokKind::Open('[') => {
                self.pos += 1;
                let mut elems = Vec::new();
                while !self.at_close(']') && !self.at_end() {
                    elems.push(self.parse_expr(0, false));
                    if self.eat_op(";") {
                        elems.push(self.parse_expr(0, false));
                        break;
                    }
                    if !self.eat_op(",") {
                        break;
                    }
                }
                self.eat_close(']');
                mk(ExprKind::Array(elems), span.to(self.prev_span()))
            }
            TokKind::Open('{') => {
                let b = self.parse_block();
                mk(ExprKind::Block(b), span.to(self.prev_span()))
            }
            TokKind::Punct('|', _) => self.parse_closure(span, line),
            TokKind::Ident(id) => {
                let id = id.clone();
                match id.as_str() {
                    "true" => {
                        self.pos += 1;
                        mk(ExprKind::Lit(Lit::Bool(true)), span)
                    }
                    "false" => {
                        self.pos += 1;
                        mk(ExprKind::Lit(Lit::Bool(false)), span)
                    }
                    "if" => self.parse_if(span, line),
                    "match" => self.parse_match(span, line),
                    "while" => {
                        self.pos += 1;
                        let (pat, head) = if self.eat_kw("let") {
                            let p = self.parse_pat_or();
                            self.eat_op("=");
                            (Some(p), Some(Box::new(self.parse_expr(0, true))))
                        } else {
                            (None, Some(Box::new(self.parse_expr(0, true))))
                        };
                        let body = self.parse_block();
                        mk(
                            ExprKind::Loop { pat, head, body },
                            span.to(self.prev_span()),
                        )
                    }
                    "for" => {
                        self.pos += 1;
                        let pat = self.parse_pat_or();
                        self.eat_kw("in");
                        let head = Box::new(self.parse_expr(0, true));
                        let body = self.parse_block();
                        mk(
                            ExprKind::Loop {
                                pat: Some(pat),
                                head: Some(head),
                                body,
                            },
                            span.to(self.prev_span()),
                        )
                    }
                    "loop" => {
                        self.pos += 1;
                        let body = self.parse_block();
                        mk(
                            ExprKind::Loop {
                                pat: None,
                                head: None,
                                body,
                            },
                            span.to(self.prev_span()),
                        )
                    }
                    "unsafe" => {
                        self.pos += 1;
                        let b = self.parse_block();
                        mk(ExprKind::Block(b), span.to(self.prev_span()))
                    }
                    "return" | "break" => {
                        self.pos += 1;
                        if id == "break"
                            && matches!(self.peek().map(|t| &t.kind), Some(TokKind::Lifetime(_)))
                        {
                            self.pos += 1;
                        }
                        let val = if self.expr_can_start(no_struct)
                            && !self.at_op(";")
                            && !self.at_op(",")
                        {
                            Some(Box::new(self.parse_expr(0, no_struct)))
                        } else {
                            None
                        };
                        let sp = val.as_ref().map(|v| span.to(v.span)).unwrap_or(span);
                        mk(ExprKind::Jump(val), sp)
                    }
                    "continue" => {
                        self.pos += 1;
                        if matches!(self.peek().map(|t| &t.kind), Some(TokKind::Lifetime(_))) {
                            self.pos += 1;
                        }
                        mk(ExprKind::Jump(None), span)
                    }
                    "move" => {
                        self.pos += 1;
                        self.parse_closure(span, line)
                    }
                    "_" => {
                        self.pos += 1;
                        mk(ExprKind::Opaque, span)
                    }
                    _ => self.parse_path_expr(no_struct, span, line),
                }
            }
            _ => {
                // Unrecognized token: consume it, return opaque.
                self.pos += 1;
                mk(ExprKind::Opaque, span)
            }
        }
    }

    fn parse_closure(&mut self, span: Span, line: usize) -> Expr {
        let mut params = Vec::new();
        if self.eat_op("||") {
            // No parameters.
        } else if self.eat_op("|") {
            while !self.at_op("|") && !self.at_end() {
                // Closure params use `parse_pat`, not `parse_pat_or`: the
                // closing `|` of the header must terminate the list, not
                // read as an or-pattern separator.
                let pat = self.parse_pat();
                let ty = if self.eat_op(":") {
                    Some(self.parse_type())
                } else {
                    None
                };
                params.push((pat, ty));
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_op("|");
        }
        if self.eat_op("->") {
            self.parse_type();
        }
        let body = self.parse_expr(0, false);
        let sp = span.to(body.span);
        Expr {
            kind: ExprKind::Closure {
                params,
                body: Box::new(body),
            },
            span: sp,
            line,
        }
    }

    fn parse_if(&mut self, span: Span, line: usize) -> Expr {
        self.pos += 1; // `if`
        let cond = if self.eat_kw("let") {
            let _pat = self.parse_pat_or();
            self.eat_op("=");
            self.parse_expr(0, true)
        } else {
            self.parse_expr(0, true)
        };
        let then = self.parse_block();
        let else_ = if self.eat_kw("else") {
            if self.is_kw("if") {
                let sp = self.span_here();
                let ln = self.line_here();
                Some(Box::new(self.parse_if(sp, ln)))
            } else {
                let sp = self.span_here();
                let ln = self.line_here();
                let b = self.parse_block();
                Some(Box::new(Expr {
                    kind: ExprKind::Block(b),
                    span: sp.to(self.prev_span()),
                    line: ln,
                }))
            }
        } else {
            None
        };
        Expr {
            kind: ExprKind::If {
                cond: Box::new(cond),
                then,
                else_,
            },
            span: span.to(self.prev_span()),
            line,
        }
    }

    fn parse_match(&mut self, span: Span, line: usize) -> Expr {
        self.pos += 1; // `match`
        let scrutinee = self.parse_expr(0, true);
        let mut arms = Vec::new();
        if self.eat_open('{') {
            loop {
                if self.eat_close('}') || self.at_end() {
                    break;
                }
                self.parse_attrs();
                let before = self.pos;
                let pat = self.parse_pat_or();
                let guard = if self.eat_kw("if") {
                    Some(self.parse_expr(0, true))
                } else {
                    None
                };
                if !self.eat_op("=>") {
                    // Could not shape this arm; recover to the next `,` at
                    // depth zero or the closing brace.
                    self.pos = before;
                    let mut depth = 0usize;
                    while let Some(t) = self.peek() {
                        match &t.kind {
                            TokKind::Open(_) => {
                                depth += 1;
                                self.pos += 1;
                            }
                            TokKind::Close('}') if depth == 0 => break,
                            TokKind::Close(_) => {
                                depth = depth.saturating_sub(1);
                                self.pos += 1;
                            }
                            TokKind::Punct(',', _) if depth == 0 => {
                                self.pos += 1;
                                break;
                            }
                            _ => {
                                self.pos += 1;
                            }
                        }
                    }
                    continue;
                }
                let body = self.parse_expr(0, false);
                self.eat_op(",");
                arms.push(Arm { pat, guard, body });
            }
        }
        Expr {
            kind: ExprKind::Match {
                scrutinee: Box::new(scrutinee),
                arms,
            },
            span: span.to(self.prev_span()),
            line,
        }
    }

    /// A path head: plain path, macro call, call, or struct literal.
    fn parse_path_expr(&mut self, no_struct: bool, span: Span, line: usize) -> Expr {
        let mut segs = Vec::new();
        self.eat_op("::");
        while let Some(seg) = self.bump_ident() {
            segs.push(seg);
            if self.at_op("::") && self.op_at(2) == Some("<") {
                // Turbofish in path position.
                self.pos += 2;
                self.skip_generics();
                if !self.eat_op("::") {
                    break;
                }
                continue;
            }
            if !self.at_op("::") {
                break;
            }
            if self.nth(2).and_then(|t| t.ident()).is_none() {
                break;
            }
            self.pos += 2;
        }
        let path_span = span.to(self.prev_span());

        // Macro invocation.
        if self.at_op("!")
            && matches!(
                self.nth(1).map(|t| &t.kind),
                Some(TokKind::Open('(') | TokKind::Open('[') | TokKind::Open('{'))
            )
        {
            self.pos += 1;
            let args = self.parse_macro_args();
            return Expr {
                kind: ExprKind::MacroCall { args },
                span: span.to(self.prev_span()),
                line,
            };
        }

        // Struct literal.
        if self.at_open('{') && !no_struct {
            self.pos += 1;
            let mut fields = Vec::new();
            let mut rest = None;
            while !self.at_close('}') && !self.at_end() {
                self.parse_attrs();
                if self.eat_op("..") {
                    rest = Some(Box::new(self.parse_expr(0, false)));
                    break;
                }
                let Some(fname) = self.bump_ident() else {
                    self.pos += 1;
                    continue;
                };
                if self.eat_op(":") {
                    let v = self.parse_expr(0, false);
                    fields.push((fname, Some(v)));
                } else {
                    fields.push((fname, None));
                }
                if !self.eat_op(",") {
                    break;
                }
            }
            self.eat_close('}');
            return Expr {
                kind: ExprKind::StructLit {
                    path: segs,
                    fields,
                    rest,
                },
                span: span.to(self.prev_span()),
                line,
            };
        }

        Expr {
            kind: ExprKind::Path(segs),
            span: path_span,
            line,
        }
    }

    /// Parse macro arguments as comma-separated expressions, tolerantly:
    /// whatever does not shape as an expression is skipped to the next
    /// top-level comma.
    fn parse_macro_args(&mut self) -> Vec<Expr> {
        let close = match self.peek().map(|t| &t.kind) {
            Some(TokKind::Open('(')) => ')',
            Some(TokKind::Open('[')) => ']',
            Some(TokKind::Open('{')) => '}',
            _ => return Vec::new(),
        };
        self.pos += 1;
        let mut args = Vec::new();
        loop {
            if self.eat_close(close) || self.at_end() {
                return args;
            }
            let before = self.pos;
            let e = self.parse_expr(0, false);
            args.push(e);
            if self.pos == before {
                self.pos += 1;
            }
            // Skip any unconsumed residue to the next top-level comma or
            // the closing delimiter.
            let mut depth = 0usize;
            loop {
                match self.peek().map(|t| &t.kind) {
                    None => return args,
                    Some(TokKind::Open(_)) => {
                        depth += 1;
                        self.pos += 1;
                    }
                    Some(TokKind::Close(c)) => {
                        if depth == 0 {
                            if *c == close {
                                self.pos += 1;
                                return args;
                            }
                            self.pos += 1;
                        } else {
                            depth -= 1;
                            self.pos += 1;
                        }
                    }
                    Some(TokKind::Punct(',', _)) if depth == 0 => {
                        self.pos += 1;
                        break;
                    }
                    Some(_) => {
                        self.pos += 1;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> File {
        parse_file("test.rs", src).expect("parses").0
    }

    fn first_fn(file: &File) -> &FnItem {
        file.items
            .iter()
            .find_map(|i| match i {
                Item::Fn(f) => Some(f),
                _ => None,
            })
            .expect("a fn item")
    }

    #[test]
    fn parses_struct_enum_use() {
        let f = parse(
            "use std::collections::{BTreeMap, BTreeSet as Set};\n\
             pub struct Nanos(pub u64);\n\
             pub enum Kind { A, B(u32), C { x: u64 } }\n",
        );
        let uses: Vec<_> = f
            .items
            .iter()
            .filter_map(|i| match i {
                Item::Use { alias, .. } => Some(alias.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(uses, vec!["BTreeMap", "Set"]);
        assert!(f.items.iter().any(|i| matches!(
            i,
            Item::Struct { name, fields: Fields::Tuple(t) } if name == "Nanos" && t.len() == 1
        )));
        assert!(f.items.iter().any(|i| matches!(
            i,
            Item::Enum { name, variants, .. } if name == "Kind" && variants == &["A", "B", "C"]
        )));
    }

    #[test]
    fn parses_fn_signature_and_body() {
        let f = parse("fn f(a: Nanos, b: &mut u64) -> Nanos { let c = a; c }\n");
        let func = first_fn(&f);
        assert_eq!(func.name, "f");
        assert_eq!(func.params.len(), 2);
        assert_eq!(func.ret.last_seg(), Some("Nanos"));
        let body = func.body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 2);
    }

    #[test]
    fn parses_impl_with_trait_args() {
        let f = parse("impl Mul<u64> for Nanos { fn mul(self, rhs: u64) -> Nanos { self } }\n");
        let Some(Item::Impl {
            trait_,
            self_ty,
            items,
            ..
        }) = f.items.first()
        else {
            panic!("impl item");
        };
        let t = trait_.as_ref().expect("trait");
        assert_eq!(t.last_seg(), Some("Mul"));
        assert!(matches!(t, TypeRef::Path { args, .. } if args.len() == 1));
        assert_eq!(self_ty.last_seg(), Some("Nanos"));
        assert_eq!(items.len(), 1);
    }

    #[test]
    fn binary_precedence_and_spans() {
        let src = "fn f() { let x = a + b * c; }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        let Stmt::Let { init: Some(e), .. } = &body.stmts[0] else {
            panic!("let stmt");
        };
        let ExprKind::Binary {
            op: BinOp::Add,
            rhs,
            ..
        } = &e.kind
        else {
            panic!("add at top: {e:?}");
        };
        assert!(matches!(rhs.kind, ExprKind::Binary { op: BinOp::Mul, .. }));
        assert_eq!(&src[e.span.lo..e.span.hi], "a + b * c");
    }

    #[test]
    fn match_arms_and_wildcard() {
        let src = "fn f(k: Kind) -> u32 { match k { Kind::A => 1, Kind::B(x) => x, _ => 0 } }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        let Stmt::Expr(e) = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::Match { arms, .. } = &e.kind else {
            panic!("match: {e:?}")
        };
        assert_eq!(arms.len(), 3);
        assert!(matches!(&arms[0].pat, Pat::Path(p) if p == &["Kind", "A"]));
        assert!(matches!(&arms[1].pat, Pat::TupleStruct { path, .. } if path == &["Kind", "B"]));
        assert!(matches!(arms[2].pat, Pat::Other));
    }

    #[test]
    fn method_chain_tuple_index_and_cast() {
        let src = "fn f() { let v = x.at.0.max(y) as u64; }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        let Stmt::Let { init: Some(e), .. } = &body.stmts[0] else {
            panic!()
        };
        let ExprKind::Cast { expr, ty } = &e.kind else {
            panic!("cast: {e:?}")
        };
        assert_eq!(ty.last_seg(), Some("u64"));
        let ExprKind::MethodCall { recv, name, .. } = &expr.kind else {
            panic!("method: {expr:?}")
        };
        assert_eq!(name, "max");
        let ExprKind::Field { name, recv: r2, .. } = &recv.kind else {
            panic!("field: {recv:?}")
        };
        assert_eq!(name, "0");
        assert!(matches!(&r2.kind, ExprKind::Field { name, .. } if name == "at"));
    }

    #[test]
    fn struct_literal_vs_match_scrutinee() {
        // `match self.prob { … }` must not read the brace as a struct lit.
        let src = "fn f() { match x { A { .. } => 1, _ => 0 }; let p = Point { x: 1, ..base }; }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 2);
        let Stmt::Let { init: Some(e), .. } = &body.stmts[1] else {
            panic!()
        };
        let ExprKind::StructLit { fields, rest, .. } = &e.kind else {
            panic!("struct lit: {e:?}")
        };
        assert_eq!(fields.len(), 1);
        assert!(rest.is_some());
    }

    #[test]
    fn closures_generics_macros() {
        let src = "fn f() { let s: Vec<Nanos> = v.iter().map(|e| e.at).collect::<Vec<_>>(); \
                   assert!(a + b <= c, \"msg {x}\", q); }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 2);
        let Stmt::Let { ty: Some(t), .. } = &body.stmts[0] else {
            panic!()
        };
        assert_eq!(t.last_seg(), Some("Vec"));
        let Stmt::Expr(e) = &body.stmts[1] else {
            panic!()
        };
        let ExprKind::MacroCall { args } = &e.kind else {
            panic!("macro: {e:?}")
        };
        assert!(args.len() >= 2, "{args:?}");
        assert!(matches!(
            args[0].kind,
            ExprKind::Binary { op: BinOp::Cmp, .. }
        ));
    }

    #[test]
    fn shift_and_generics_disambiguate() {
        let src = "fn f() { let a: Vec<Vec<u64>> = q; let b = x >> 3; }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 2);
        let Stmt::Let { init: Some(e), .. } = &body.stmts[1] else {
            panic!()
        };
        assert!(matches!(e.kind, ExprKind::Binary { op: BinOp::Bit, .. }));
    }

    #[test]
    fn if_let_while_let_for() {
        let src = "fn f() { if let Some(x) = m.get(&k) { g(x); } \
                   while let Some(t) = q.pop() { h(t); } \
                   for e in 0..n { i(e); } }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        assert_eq!(body.stmts.len(), 3);
        assert!(matches!(
            &body.stmts[0],
            Stmt::Expr(Expr {
                kind: ExprKind::If { .. },
                ..
            })
        ));
        assert!(matches!(
            &body.stmts[2],
            Stmt::Expr(Expr {
                kind: ExprKind::Loop { pat: Some(_), .. },
                ..
            })
        ));
    }

    #[test]
    fn unbalanced_delimiters_fail() {
        assert!(parse_file("t.rs", "fn f() { (").is_err());
        assert!(parse_file("t.rs", "fn f() }").is_err());
    }

    #[test]
    fn fn_local_items_are_statements() {
        let src = "fn f() { enum Rx { Keep, Drop } let r = Rx::Keep; }";
        let f = parse(src);
        let body = first_fn(&f).body.as_ref().expect("body");
        assert!(matches!(&body.stmts[0], Stmt::Item(b) if matches!(**b, Item::Enum { .. })));
    }
}
