//! AST for the Rust subset the workspace uses.
//!
//! This is deliberately *much* smaller than a real Rust AST: it keeps
//! exactly what the semantic rules consume — item shells with signatures,
//! struct/enum definitions, use-paths, and expression trees with spans so
//! findings point at the offending expression.
//! Anything the parser cannot confidently shape degrades to
//! [`ExprKind::Opaque`] / [`Item::Other`] rather than failing the file.

use crate::lex::Span;

/// A parsed source file.
#[derive(Debug, Default)]
pub struct File {
    /// Display path (workspace-relative) the file was parsed under.
    pub path: String,
    /// Top-level items in source order.
    pub items: Vec<Item>,
}

/// Simplified type reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TypeRef {
    /// Path type with optional generic arguments: `Vec<Entry>`, `u64`.
    Path {
        /// Path segments (`["std", "time", "Instant"]` or `["u64"]`).
        segs: Vec<String>,
        /// Generic arguments, types only (lifetimes/consts dropped).
        args: Vec<TypeRef>,
    },
    /// `&T` / `&mut T` — the reference is transparent to every rule.
    Ref(Box<TypeRef>),
    /// Tuple type.
    Tuple(Vec<TypeRef>),
    /// `()`.
    Unit,
    /// `_`, `impl Trait`, `dyn Trait`, fn pointers, or anything else the
    /// rules never need to distinguish.
    Other,
}

impl TypeRef {
    /// Convenience constructor for a bare single-segment path type.
    pub fn name(s: &str) -> TypeRef {
        TypeRef::Path {
            segs: vec![s.to_string()],
            args: Vec::new(),
        }
    }

    /// The terminal segment of a path type, seen through references.
    pub fn last_seg(&self) -> Option<&str> {
        match self {
            TypeRef::Path { segs, .. } => segs.last().map(|s| s.as_str()),
            TypeRef::Ref(inner) => inner.last_seg(),
            _ => None,
        }
    }
}

/// Struct field shapes.
#[derive(Debug, Clone)]
pub enum Fields {
    /// `struct S { a: T, … }`
    Named(Vec<(String, TypeRef)>),
    /// `struct S(T, …);`
    Tuple(Vec<TypeRef>),
    /// `struct S;`
    Unit,
}

/// Receiver form of a method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelfKind {
    /// `self` / `mut self`.
    Value,
    /// `&self` / `&mut self`.
    Reference,
}

/// A function or method, with body when present.
#[derive(Debug)]
pub struct FnItem {
    /// Name as written.
    pub name: String,
    /// Receiver, when this is a method.
    pub self_param: Option<SelfKind>,
    /// Non-self parameters: pattern and declared type.
    pub params: Vec<(Pat, TypeRef)>,
    /// Return type; [`TypeRef::Unit`] when omitted.
    pub ret: TypeRef,
    /// Body block (absent for trait method declarations).
    pub body: Option<Block>,
    /// Inside `#[cfg(test)]` / `#[test]` code.
    pub cfg_test: bool,
    /// 1-based source line of the function name.
    pub line: usize,
}

/// A top-level or nested item.
#[derive(Debug)]
pub enum Item {
    /// One expanded `use` binding: `alias` names `path` in this file.
    Use {
        /// Full path segments, `*` kept literally for globs.
        path: Vec<String>,
        /// The name this import binds locally.
        alias: String,
    },
    /// Struct definition.
    Struct {
        /// Type name.
        name: String,
        /// Field shapes.
        fields: Fields,
    },
    /// Enum definition.
    Enum {
        /// Type name.
        name: String,
        /// Variant names in declaration order.
        variants: Vec<String>,
        /// Declared inside `#[cfg(test)]` code.
        cfg_test: bool,
    },
    /// Free function or method.
    Fn(FnItem),
    /// Impl block.
    Impl {
        /// Trait being implemented, with its generic args, when any.
        trait_: Option<TypeRef>,
        /// The implementing type.
        self_ty: TypeRef,
        /// Items inside (functions and consts matter).
        items: Vec<Item>,
        /// Inside `#[cfg(test)]`.
        cfg_test: bool,
    },
    /// Inline module.
    Mod {
        /// Module name.
        name: String,
        /// `#[cfg(test)]` on the module (scopes every nested item).
        cfg_test: bool,
        /// Nested items.
        items: Vec<Item>,
    },
    /// Trait definition (default method bodies are analyzed).
    Trait {
        /// Trait name.
        name: String,
        /// Nested items.
        items: Vec<Item>,
    },
    /// `const NAME: Ty = …;` (also used for statics).
    Const {
        /// Constant name.
        name: String,
        /// Declared type.
        ty: TypeRef,
        /// Initializer, when parsed.
        init: Option<Expr>,
        /// Declared with `static` rather than `const`.
        is_static: bool,
        /// `static mut` (always a P1 finding when it is).
        is_mut: bool,
        /// 1-based source line of the declaration keyword.
        line: usize,
    },
    /// Anything else (type aliases, extern blocks, macro_rules, …).
    Other,
}

/// A block: statements plus an optional tail expression.
#[derive(Debug, Default)]
pub struct Block {
    /// Statements in order; a trailing expression statement without `;`
    /// is simply the last [`Stmt::Expr`].
    pub stmts: Vec<Stmt>,
}

/// A statement.
#[derive(Debug)]
pub enum Stmt {
    /// `let pat: ty = init;` (with optional `else` block dropped).
    Let {
        /// Binding pattern.
        pat: Pat,
        /// Declared type, when annotated.
        ty: Option<TypeRef>,
        /// Initializer.
        init: Option<Expr>,
    },
    /// Expression statement (with or without `;`).
    Expr(Expr),
    /// Nested item.
    Item(Box<Item>),
}

/// Literal kinds (payload only where a rule consumes it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lit {
    /// Integer, raw text including `_` separators and suffix.
    Int(String),
    /// Float.
    Float,
    /// String.
    Str,
    /// Char/byte.
    Char,
    /// `true` / `false`.
    Bool(bool),
}

impl Lit {
    /// Parse an integer literal's value, ignoring `_` and any suffix.
    pub fn int_value(&self) -> Option<u64> {
        let Lit::Int(text) = self else { return None };
        let t: String = text.chars().filter(|c| *c != '_').collect();
        if let Some(hex) = t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
            return u64::from_str_radix(hex.trim_end_matches(|c: char| !c.is_ascii_hexdigit()), 16)
                .ok();
        }
        let digits: String = t.chars().take_while(|c| c.is_ascii_digit()).collect();
        digits.parse().ok()
    }

    /// The type suffix on an integer literal, if any (`u64` in `8u64`).
    pub fn int_suffix(&self) -> Option<&str> {
        let Lit::Int(text) = self else { return None };
        let at = text.find(|c: char| c.is_ascii_alphabetic() && c != 'x' && c != 'X')?;
        Some(&text[at..])
    }
}

/// Binary operators the rules care to distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Rem,
    /// `<< >> & | ^`
    Bit,
    /// `== != < <= > >=`
    Cmp,
    /// `&& ||`
    Logic,
    /// `.. ..=`
    Range,
}

impl BinOp {
    /// Whether this is `+ - * / %` (the operators unit rules police).
    pub fn is_arith(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Rem
        )
    }

    /// The `std::ops` trait name implementing this operator.
    pub fn trait_name(self) -> Option<&'static str> {
        Some(match self {
            BinOp::Add => "Add",
            BinOp::Sub => "Sub",
            BinOp::Mul => "Mul",
            BinOp::Div => "Div",
            BinOp::Rem => "Rem",
            _ => return None,
        })
    }

    /// Spelled-out name for diagnostics.
    pub fn describe(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Rem => "%",
            BinOp::Bit => "bitwise op",
            BinOp::Cmp => "comparison",
            BinOp::Logic => "logical op",
            BinOp::Range => "range",
        }
    }
}

/// An expression with its source span.
#[derive(Debug)]
pub struct Expr {
    /// Shape.
    pub kind: ExprKind,
    /// Byte range in the original source.
    pub span: Span,
    /// 1-based source line of the expression's first token.
    pub line: usize,
}

/// Expression shapes.
#[derive(Debug)]
pub enum ExprKind {
    /// Literal.
    Lit(Lit),
    /// Path: `x`, `Nanos::ZERO`, `SchedulerKind::Heap`.
    Path(Vec<String>),
    /// Unary `- ! * &`.
    Unary(Box<Expr>),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `lhs = rhs` or `lhs op= rhs`.
    Assign {
        /// The compound operator, `None` for plain `=`.
        op: Option<BinOp>,
        /// Assignment target.
        lhs: Box<Expr>,
        /// Value.
        rhs: Box<Expr>,
    },
    /// Function or tuple-struct call.
    Call {
        /// Callee (usually a path).
        callee: Box<Expr>,
        /// Arguments.
        args: Vec<Expr>,
    },
    /// Method call.
    MethodCall {
        /// Receiver.
        recv: Box<Expr>,
        /// Method name.
        name: String,
        /// Arguments (excluding the receiver).
        args: Vec<Expr>,
    },
    /// Field or tuple-index access; `name` is `"0"` for `.0`.
    Field {
        /// Receiver.
        recv: Box<Expr>,
        /// Field name or tuple index.
        name: String,
    },
    /// `expr as Ty`.
    Cast {
        /// The value being cast.
        expr: Box<Expr>,
        /// Target type.
        ty: TypeRef,
    },
    /// Parenthesized expression.
    Paren(Box<Expr>),
    /// Tuple literal.
    Tuple(Vec<Expr>),
    /// Array literal (`[a, b]` or `[x; n]`).
    Array(Vec<Expr>),
    /// Indexing.
    Index {
        /// Receiver.
        recv: Box<Expr>,
        /// Index expression.
        idx: Box<Expr>,
    },
    /// Block expression.
    Block(Block),
    /// `if cond { .. } else { .. }` (`if let` folds its scrutinee into
    /// `cond` as an opaque).
    If {
        /// Condition.
        cond: Box<Expr>,
        /// Then block.
        then: Block,
        /// Else branch (block or nested if).
        else_: Option<Box<Expr>>,
    },
    /// Match expression.
    Match {
        /// Scrutinee.
        scrutinee: Box<Expr>,
        /// Arms.
        arms: Vec<Arm>,
    },
    /// Loops (`while`/`for`/`loop`), bodies analyzed, shape collapsed.
    Loop {
        /// `for` loop binding pattern, when any.
        pat: Option<Pat>,
        /// Condition / iterator expression, when any.
        head: Option<Box<Expr>>,
        /// Loop body.
        body: Block,
    },
    /// Closure.
    Closure {
        /// Parameters (type annotations usually absent).
        params: Vec<(Pat, Option<TypeRef>)>,
        /// Body.
        body: Box<Expr>,
    },
    /// Struct literal `Path { field: expr, ..rest }`.
    StructLit {
        /// Struct path.
        path: Vec<String>,
        /// Explicit fields (shorthand fields carry `None`).
        fields: Vec<(String, Option<Expr>)>,
        /// `..base` functional-update expression.
        rest: Option<Box<Expr>>,
    },
    /// Macro invocation; arguments parsed as expressions when they are.
    MacroCall {
        /// Inner expressions the parser could shape.
        args: Vec<Expr>,
    },
    /// `return` / `break` with optional value.
    Jump(Option<Box<Expr>>),
    /// `expr?`.
    Try(Box<Expr>),
    /// `lo..hi` range with optional endpoints.
    RangeLit {
        /// Lower bound.
        lo: Option<Box<Expr>>,
        /// Upper bound.
        hi: Option<Box<Expr>>,
    },
    /// Tokens the parser could not shape into anything above.
    Opaque,
}

/// A match arm.
#[derive(Debug)]
pub struct Arm {
    /// Arm pattern.
    pub pat: Pat,
    /// `if` guard.
    pub guard: Option<Expr>,
    /// Arm body.
    pub body: Expr,
}

/// Patterns, shaped only as far as the rules read them.
#[derive(Debug, Clone)]
pub enum Pat {
    /// Path pattern: a bare binding (`x`), a unit variant (`Heap`), or a
    /// qualified variant (`SchedulerKind::Heap`) — resolution happens in
    /// the checker, which knows the enums.
    Path(Vec<String>),
    /// Tuple-struct pattern `Path(p, …)`.
    TupleStruct {
        /// Constructor path.
        path: Vec<String>,
        /// Element patterns.
        elems: Vec<Pat>,
    },
    /// Tuple pattern.
    Tuple(Vec<Pat>),
    /// `p1 | p2 | …`
    Or(Vec<Pat>),
    /// `_`, literals and ranges, struct patterns, `ident @ pat`, slices,
    /// rests, and anything else: binds nothing the checker tracks.
    Other,
}
