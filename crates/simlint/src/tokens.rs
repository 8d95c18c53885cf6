//! The token-level rule: D4.
//!
//! D4 needs spelling, not types, so it scans the token stream of
//! [`crate::lex`] directly: strings and comments are already out of the
//! way, and a cast whose operand starts on an earlier line is the same
//! token sequence as on one line. Suppression is applied later by the
//! pipeline.

use crate::lex::{Lexed, TokKind, Token};
use crate::{scope_of, Finding, Rule, Scope};

const INT_CAST_TARGETS: [&str; 10] = [
    "u64", "u32", "u16", "u8", "usize", "i64", "i32", "i16", "i8", "isize",
];

/// Whether `toks[i]` follows a `.` (a method name, a field, a tuple index).
fn after_dot(toks: &[Token], i: usize) -> bool {
    i > 0 && matches!(toks[i - 1].kind, TokKind::Punct('.', _))
}

/// Whether `toks[i]` calls method `name`: `. name (`.
fn is_method_call(toks: &[Token], i: usize, name: &str) -> bool {
    toks[i].ident() == Some(name)
        && after_dot(toks, i)
        && matches!(toks.get(i + 1).map(|t| &t.kind), Some(TokKind::Open('(')))
}

/// Whether `t` glues the pieces of one cast operand together: `.`, `::`,
/// `?`, or the `as` of an earlier cast in a chain (`x as f64 as u64`).
fn is_connector(t: &Token) -> bool {
    matches!(t.kind, TokKind::Punct('.' | ':' | '?', _)) || t.ident() == Some("as")
}

/// Index of the opener matching the closing delimiter at `toks[close]`.
/// Delimiters balance (the parser checked).
fn group_open(toks: &[Token], close: usize) -> usize {
    let mut depth = 0usize;
    let mut i = close;
    loop {
        match toks[i].kind {
            TokKind::Close(_) => depth += 1,
            TokKind::Open(_) => depth -= 1,
            _ => {}
        }
        if depth == 0 || i == 0 {
            return i;
        }
        i -= 1;
    }
}

/// If the `>` at `toks[gt]` closes a turbofish (`::<f64>`), the index of
/// its `<`; `None` when it is a comparison.
fn turbofish_open(toks: &[Token], gt: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut i = gt;
    loop {
        match toks[i].kind {
            TokKind::Punct('>', _) => depth += 1,
            TokKind::Punct('<', _) => depth -= 1,
            TokKind::Close(_) => i = group_open(toks, i),
            TokKind::Open(_) | TokKind::Punct(';', _) => return None,
            _ => {}
        }
        if depth == 0 {
            let colon = |k: usize| matches!(toks[k].kind, TokKind::Punct(':', _));
            return (i >= 2 && colon(i - 1) && colon(i - 2)).then_some(i);
        }
        i = i.checked_sub(1)?;
    }
}

/// Index of the first token of the postfix expression that ends just
/// before `end` — the operand of the `as` cast at `toks[end]`. Walks back
/// over connectors, and over an atom, a delimited group or a turbofish
/// only while the token after it continues the same expression: a
/// connector, or the argument group of the callee/indexee it names. Two
/// atoms side by side (`return n`, `} n`) are a boundary, as is any other
/// operator.
fn operand_start(toks: &[Token], end: usize) -> usize {
    let mut i = end;
    while i > 0 {
        let continues = is_connector(&toks[i]) || matches!(toks[i].kind, TokKind::Open('(' | '['));
        let prev = &toks[i - 1];
        i = match prev.kind {
            _ if is_connector(prev) => i - 1,
            TokKind::Close(_) if continues => group_open(toks, i - 1),
            TokKind::Punct('>', _) if continues => match turbofish_open(toks, i - 1) {
                Some(lt) => lt,
                None => break,
            },
            TokKind::Ident(_)
            | TokKind::Int(_)
            | TokKind::Float(_)
            | TokKind::Str
            | TokKind::Char
                if continues =>
            {
                i - 1
            }
            _ => break,
        };
    }
    i
}

/// D4 evidence: does `toks[i]` show a floating-point value? A float
/// literal (but not the tail of `x.0.1`, which lexes as one), an
/// identifier mentioning `f64`/`f32`, or a rounding-method call.
fn is_float_evidence(toks: &[Token], i: usize) -> bool {
    match &toks[i].kind {
        TokKind::Float(_) => !after_dot(toks, i),
        TokKind::Ident(s) => {
            s.contains("f64")
                || s.contains("f32")
                || ["round", "ceil", "floor"]
                    .iter()
                    .any(|m| is_method_call(toks, i, m))
        }
        _ => false,
    }
}

/// Run D4 over one lexed file.
pub fn check(path: &str, lexed: &Lexed) -> Vec<Finding> {
    let units_file = path.replace('\\', "/").rsplit('/').next() == Some("units.rs");
    if scope_of(path) != Scope::Sim || units_file {
        return Vec::new();
    }
    let toks = &lexed.tokens;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let int_cast = t.ident() == Some("as")
            && toks
                .get(i + 1)
                .and_then(Token::ident)
                .is_some_and(|ty| INT_CAST_TARGETS.contains(&ty));
        if int_cast && (operand_start(toks, i)..i).any(|k| is_float_evidence(toks, k)) {
            out.push(Finding::at(
                path,
                lexed,
                t.span.lo,
                Rule::D4,
                "lossy float→integer cast on a unit quantity; use the allowlisted \
                 units.rs helpers (BitRate::from_bps_f64 / Nanos::from_ns_f64)"
                    .to_string(),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn findings(path: &str, src: &str) -> Vec<(Rule, usize)> {
        check(path, &lex(src).expect("test source lexes"))
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    fn rules_in(path: &str, src: &str) -> Vec<Rule> {
        let mut r: Vec<Rule> = findings(path, src).into_iter().map(|(r, _)| r).collect();
        r.sort();
        r.dedup();
        r
    }

    #[test]
    fn strings_and_comments_never_trip_rules() {
        let src = "let x = \"1.5 as u64\"; // 2.0 as u64 in a comment\n\
                   let y = r#\"f64 as usize\"#;\nlet z = b\"0.5 as u8\";\n";
        assert!(rules_in("crates/dcsim/src/a.rs", src).is_empty());
    }

    #[test]
    fn multiline_strings_and_block_comments_keep_line_numbers() {
        let src = "let s = \"line one\nline two\";\n/* block\n comment */\nlet k = 2.5 as u64;\n";
        assert_eq!(findings("crates/netsim/src/a.rs", src), vec![(Rule::D4, 5)]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        // A naive char-literal scanner would swallow from 'a to the next
        // quote and hide the cast behind it.
        let src = "fn f<'a>(x: &'a u32) {}\nlet k = 2.5 as u64;\n";
        assert_eq!(findings("crates/dcsim/src/a.rs", src), vec![(Rule::D4, 2)]);
    }

    #[test]
    fn d4_flags_float_casts_in_sim_scope_and_allows_units_rs() {
        let src = "let r = BitRate::from_bps((x * 8.0 / secs).round() as u64);\n";
        assert_eq!(rules_in("crates/core/src/cc.rs", src), vec![Rule::D4]);
        assert!(rules_in("crates/dcsim/src/units.rs", src).is_empty());
        assert!(rules_in("crates/metrics/src/lib.rs", src).is_empty());
        // Integer-only casts carry no float evidence; `t.0.1` is a tuple
        // index, not a float literal.
        let ok = "let slot = (t >> shift) as usize; let k = t.0.1 as u64;\n";
        assert!(rules_in("crates/dcsim/src/wheel.rs", ok).is_empty());
    }

    #[test]
    fn d4_sees_an_operand_that_starts_on_an_earlier_line() {
        let src = "let ns = (secs\n    * 1e9)\n    as u64;\n";
        assert_eq!(findings("crates/core/src/cc.rs", src), vec![(Rule::D4, 3)]);
        // Evidence outside the cast operand is not evidence: an earlier
        // statement, or a block that merely precedes `return n`.
        let ok = "let half = 0.5; let n = count as u64;\n\
                  if c { x = 0.5; }\nreturn n as u64;\n\
                  let small = a < b && c > (d) as u64;\n";
        assert!(rules_in("crates/core/src/cc.rs", ok).is_empty());
    }

    #[test]
    fn d4_operand_spans_turbofish_calls_and_cast_chains() {
        let at = "crates/core/src/cc.rs";
        let src = "let a = xs.iter().sum::<f64>() as u64;\n\
                   let b = s.parse::<f64>()? as u64;\n\
                   let c = n as f64 as u64;\n\
                   let d = table[k](2.5) as usize;\n";
        assert_eq!(
            findings(at, src),
            vec![(Rule::D4, 1), (Rule::D4, 2), (Rule::D4, 3), (Rule::D4, 4)]
        );
    }
}
