//! Workspace symbol table.
//!
//! One pass over every parsed file collects what the semantic rules need
//! to resolve names without a real module system:
//!
//! - the **unit newtypes** (`Nanos`, `Bytes`, `BitRate`) and where they
//!   are defined;
//! - struct field types (so `pkt.size` resolves to `Bytes`);
//! - enum variant lists (so `Variant::Sf` resolves to the `Variant`
//!   enum);
//! - inherent methods and associated constants per type name, with
//!   return types (so `rate.serialization_delay(b)` infers `Nanos`);
//! - operator-trait impls (so `Nanos * 3` is known-legal because
//!   `impl Mul<u64> for Nanos` exists, while `Nanos + 3` is not).
//!
//! Resolution is by *bare type name*, which is unambiguous in this
//! workspace (and checked: colliding method signatures degrade to
//! unknown rather than guessing).

use std::collections::BTreeMap;

use crate::ast::{Fields, File, Item, Stmt, TypeRef};

/// The unit newtypes policed by the U/O rule families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum UnitKind {
    /// `dcsim::Nanos` — simulation time.
    Nanos,
    /// `dcsim::Bytes` — byte counts.
    Bytes,
    /// `dcsim::BitRate` — link/injection rates.
    BitRate,
}

impl UnitKind {
    /// All unit kinds.
    pub const ALL: [UnitKind; 3] = [UnitKind::Nanos, UnitKind::Bytes, UnitKind::BitRate];

    /// The type name as written in source.
    pub fn name(self) -> &'static str {
        match self {
            UnitKind::Nanos => "Nanos",
            UnitKind::Bytes => "Bytes",
            UnitKind::BitRate => "BitRate",
        }
    }

    /// Parse a type name.
    pub fn from_name(s: &str) -> Option<UnitKind> {
        match s {
            "Nanos" => Some(UnitKind::Nanos),
            "Bytes" => Some(UnitKind::Bytes),
            "BitRate" => Some(UnitKind::BitRate),
            _ => None,
        }
    }
}

/// A struct's recorded shape.
#[derive(Debug, Default, Clone)]
pub struct StructInfo {
    /// Named field types.
    pub fields: BTreeMap<String, TypeRef>,
    /// Tuple field types (`.0`, `.1`, …).
    pub tuple_fields: Vec<TypeRef>,
}

/// An enum's recorded shape.
#[derive(Debug, Clone)]
pub struct EnumInfo {
    /// Variant names in declaration order.
    pub variants: Vec<String>,
    /// Defined inside `#[cfg(test)]` code.
    pub cfg_test: bool,
}

/// One method or associated function's signature summary.
#[derive(Debug, Clone)]
pub struct MethodInfo {
    /// Return type as declared (with `Self` already substituted).
    pub ret: TypeRef,
    /// Whether the method takes a receiver (method vs associated fn).
    pub has_self: bool,
}

/// The workspace-wide symbol table.
#[derive(Debug, Default)]
pub struct Symbols {
    /// Struct name → shape. Name collisions keep the first definition
    /// seen outside `#[cfg(test)]` code, which is sufficient here.
    pub structs: BTreeMap<String, StructInfo>,
    /// Enum name → shape.
    pub enums: BTreeMap<String, EnumInfo>,
    /// `(type name, method name)` → signature summary.
    pub methods: BTreeMap<(String, String), MethodInfo>,
    /// `(type name, const name)` → declared type.
    pub assoc_consts: BTreeMap<(String, String), TypeRef>,
    /// Operator impls: `(trait name, self type, rhs type)` present?
    /// Rhs is the trait's first generic argument, defaulting to self.
    pub op_impls: BTreeMap<(String, String), Vec<TypeRef>>,
    /// Free fn name → return type (`None` recorded for collisions).
    pub free_fns: BTreeMap<String, Option<TypeRef>>,
    /// Per-file use-paths: display path → (local alias → full path).
    pub uses: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

impl Symbols {
    /// Build the table from every parsed file.
    pub fn build<'a, I>(files: I) -> Symbols
    where
        I: IntoIterator<Item = &'a File>,
    {
        let mut sym = Symbols::default();
        for file in files {
            collect_items(&mut sym, &file.path, &file.items, false);
        }
        sym
    }

    /// Resolve a single-segment name through a file's use-paths.
    pub fn resolve_use<'a>(&'a self, file: &str, alias: &'a str) -> &'a [String] {
        static EMPTY: [String; 0] = [];
        self.uses
            .get(file)
            .and_then(|m| m.get(alias))
            .map(|v| v.as_slice())
            .unwrap_or(&EMPTY)
    }

    /// Whether `Trait<rhs> for self_ty` exists (operator legality).
    pub fn has_op_impl(&self, trait_name: &str, self_ty: &str, rhs_is_int: bool) -> bool {
        let Some(rhss) = self
            .op_impls
            .get(&(trait_name.to_string(), self_ty.to_string()))
        else {
            return false;
        };
        rhss.iter().any(|r| {
            let Some(seg) = r.last_seg() else {
                return false;
            };
            if rhs_is_int {
                matches!(
                    seg,
                    "u64" | "u32" | "u16" | "u8" | "usize" | "i64" | "i32" | "i16" | "i8" | "isize"
                )
            } else {
                seg == self_ty
            }
        })
    }

    /// The enum owning variant `name`, when exactly one workspace enum
    /// declares it.
    pub fn enum_of_variant(&self, variant: &str) -> Option<&str> {
        let mut found = None;
        for (ename, info) in &self.enums {
            if info.variants.iter().any(|v| v == variant) {
                if found.is_some() {
                    return None; // ambiguous
                }
                found = Some(ename.as_str());
            }
        }
        found
    }
}

fn collect_items(sym: &mut Symbols, path: &str, items: &[Item], in_test: bool) {
    for item in items {
        match item {
            Item::Use { path: upath, alias } => {
                sym.uses
                    .entry(path.to_string())
                    .or_default()
                    .insert(alias.clone(), upath.clone());
            }
            Item::Struct { name, fields } => {
                let entry = sym.structs.entry(name.clone()).or_default();
                match fields {
                    Fields::Named(fs) => {
                        if entry.fields.is_empty() {
                            for (f, t) in fs {
                                entry.fields.insert(f.clone(), t.clone());
                            }
                        }
                    }
                    Fields::Tuple(ts) => {
                        if entry.tuple_fields.is_empty() {
                            entry.tuple_fields = ts.clone();
                        }
                    }
                    Fields::Unit => {}
                }
            }
            Item::Enum {
                name,
                variants,
                cfg_test,
            } => {
                let is_test = in_test || *cfg_test;
                // Prefer non-test definitions on collision.
                let replace = match sym.enums.get(name) {
                    None => true,
                    Some(old) => old.cfg_test && !is_test,
                };
                if replace {
                    sym.enums.insert(
                        name.clone(),
                        EnumInfo {
                            variants: variants.clone(),
                            cfg_test: is_test,
                        },
                    );
                }
            }
            Item::Fn(f) => {
                if f.self_param.is_none() {
                    sym.free_fns
                        .entry(f.name.clone())
                        .and_modify(|old| {
                            if old.as_ref() != Some(&f.ret) {
                                *old = None;
                            }
                        })
                        .or_insert_with(|| Some(f.ret.clone()));
                }
                if let Some(body) = &f.body {
                    collect_block(sym, path, body, in_test || f.cfg_test);
                }
            }
            Item::Impl {
                trait_,
                self_ty,
                items,
                cfg_test,
            } => {
                let tname = self_ty.last_seg().unwrap_or("").to_string();
                if let Some(tr) = trait_ {
                    if let (Some(trait_name), TypeRef::Path { args, .. }) = (tr.last_seg(), tr) {
                        if matches!(trait_name, "Add" | "Sub" | "Mul" | "Div" | "Rem")
                            || trait_name.starts_with("Add")
                            || trait_name.starts_with("Sub")
                            || trait_name.starts_with("Mul")
                            || trait_name.starts_with("Div")
                            || trait_name.starts_with("Rem")
                        {
                            let rhs = args
                                .first()
                                .cloned()
                                .unwrap_or_else(|| TypeRef::name(&tname));
                            sym.op_impls
                                .entry((trait_name.to_string(), tname.clone()))
                                .or_default()
                                .push(rhs);
                        }
                    }
                }
                for sub in items {
                    match sub {
                        Item::Fn(m) => {
                            let ret = substitute_self(&m.ret, &tname);
                            sym.methods.insert(
                                (tname.clone(), m.name.clone()),
                                MethodInfo {
                                    ret,
                                    has_self: m.self_param.is_some(),
                                },
                            );
                            if let Some(body) = &m.body {
                                collect_block(sym, path, body, in_test || *cfg_test || m.cfg_test);
                            }
                        }
                        Item::Const { name, ty, .. } => {
                            let ty = substitute_self(ty, &tname);
                            sym.assoc_consts.insert((tname.clone(), name.clone()), ty);
                        }
                        _ => {}
                    }
                }
            }
            Item::Mod {
                cfg_test, items, ..
            } => {
                collect_items(sym, path, items, in_test || *cfg_test);
            }
            Item::Trait { items, .. } => {
                // Default method bodies may define local items.
                for sub in items {
                    if let Item::Fn(m) = sub {
                        if let Some(body) = &m.body {
                            collect_block(sym, path, body, in_test);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Recurse into blocks for fn-local items (`enum Rx { … }` inside a fn).
fn collect_block(sym: &mut Symbols, path: &str, block: &crate::ast::Block, in_test: bool) {
    for stmt in &block.stmts {
        if let Stmt::Item(item) = stmt {
            collect_items(sym, path, std::slice::from_ref(item), in_test);
        }
    }
}

/// Replace a bare `Self` return type with the impl's type name.
fn substitute_self(ty: &TypeRef, self_name: &str) -> TypeRef {
    match ty {
        TypeRef::Path { segs, args } if segs.len() == 1 && segs[0] == "Self" => TypeRef::Path {
            segs: vec![self_name.to_string()],
            args: args.clone(),
        },
        TypeRef::Ref(inner) => TypeRef::Ref(Box::new(substitute_self(inner, self_name))),
        other => other.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_file;

    fn build(src: &str) -> Symbols {
        let (file, _) = parse_file("crates/dcsim/src/x.rs", src).expect("parses");
        Symbols::build(std::slice::from_ref(&file))
    }

    #[test]
    fn collects_structs_enums_methods() {
        let sym = build(
            "pub struct Nanos(pub u64);\n\
             pub struct Pkt { pub size: Bytes, pub at: Nanos }\n\
             pub enum SchedulerKind { Heap, Wheel }\n\
             impl Nanos {\n\
                 pub const ZERO: Nanos = Nanos(0);\n\
                 pub fn as_u64(self) -> u64 { self.0 }\n\
                 pub fn max(self, rhs: Nanos) -> Nanos { self }\n\
             }\n\
             impl Mul<u64> for Nanos { fn mul(self, rhs: u64) -> Nanos { self } }\n\
             impl Add for Nanos { fn add(self, rhs: Nanos) -> Nanos { self } }\n",
        );
        assert_eq!(sym.structs["Nanos"].tuple_fields.len(), 1);
        assert_eq!(sym.structs["Pkt"].fields["size"].last_seg(), Some("Bytes"));
        assert_eq!(sym.enums["SchedulerKind"].variants, vec!["Heap", "Wheel"]);
        assert_eq!(
            sym.methods[&("Nanos".into(), "max".into())].ret.last_seg(),
            Some("Nanos")
        );
        assert_eq!(
            sym.assoc_consts[&("Nanos".into(), "ZERO".into())].last_seg(),
            Some("Nanos")
        );
        assert!(sym.has_op_impl("Mul", "Nanos", true));
        assert!(!sym.has_op_impl("Add", "Nanos", true));
        assert!(sym.has_op_impl("Add", "Nanos", false));
    }

    #[test]
    fn variant_resolution() {
        let sym = build("enum A { X, Y }\nenum B { Y, Z }\n");
        assert_eq!(sym.enum_of_variant("X"), Some("A"));
        assert_eq!(sym.enum_of_variant("Y"), None); // ambiguous
        assert_eq!(sym.enum_of_variant("Z"), Some("B"));
    }

    #[test]
    fn fn_local_enums_are_collected() {
        let sym = build("fn f() { enum Rx { Keep, Drop } }\n");
        assert_eq!(sym.enums["Rx"].variants, vec!["Keep", "Drop"]);
    }
}
