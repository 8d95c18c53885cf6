//! The one lexer: every file is tokenized here exactly once per analysis.
//!
//! The token rules scan the stream directly and the parser shapes it into
//! an AST, so tokens carry byte spans and line numbers; comments are kept
//! as first-class records because the suppression directives live in them.
//!
//! Punctuation is emitted one character at a time with a `joint` flag
//! (true when the next byte continues a multi-character operator), in the
//! style of `proc_macro2`: the parser composes `::`, `->`, `>>=` itself and
//! can equally split `>>` into two closing angle brackets inside generics.

use std::fmt;

/// Half-open byte range into the original source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Start byte offset (inclusive).
    pub lo: usize,
    /// End byte offset (exclusive).
    pub hi: usize,
}

impl Span {
    /// A span covering both inputs.
    pub fn to(self, other: Span) -> Span {
        Span {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// Token kind. Literal payloads keep their raw source text (numeric
/// suffixes included); string/char literals drop their contents — no rule
/// looks inside them, and dropping them keeps the stream cheap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `Nanos`, `r#type`).
    Ident(String),
    /// Lifetime or loop label, without the leading `'`.
    Lifetime(String),
    /// Integer literal, raw text (`1_000u64`, `0x3F`).
    Int(String),
    /// Float literal, raw text (`8.0`, `1e9`, `2.5f32`).
    Float(String),
    /// String / raw string / byte-string literal.
    Str,
    /// Char or byte literal.
    Char,
    /// Single punctuation character; `joint` is true when the following
    /// byte is punctuation that may continue the operator.
    Punct(char, bool),
    /// `(`, `[`, `{`.
    Open(char),
    /// `)`, `]`, `}`.
    Close(char),
}

/// One lexed token with its location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokKind,
    /// Byte range in the source.
    pub span: Span,
    /// 1-based line of the token's first byte.
    pub line: usize,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

/// One comment (line or block), kept verbatim for directive scanning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Comment {
    /// Raw text including the `//` / `/*` markers.
    pub text: String,
    /// Byte range in the source.
    pub span: Span,
    /// 1-based line the comment starts on.
    pub line: usize,
    /// 1-based line the comment ends on (same as `line` for `//`).
    pub end_line: usize,
    /// Doc comment (`///`, `//!`, `/**`, `/*!`): documentation, not a
    /// place for suppression directives.
    pub doc: bool,
}

/// Lexer failure: the file cannot be tokenized at all.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LexError {
    /// 1-based line of the offending byte.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// The lexed file: tokens, comments, and per-line token presence (line k,
/// 1-based, has code iff `line_has_code[k]`; used to decide whether an
/// `allow` comment sits on a code line or on a line of its own).
#[derive(Debug, Default)]
pub struct Lexed {
    /// Token stream in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
    /// Indexed by 1-based line number; `[0]` is unused padding.
    pub line_has_code: Vec<bool>,
    /// Byte offset at which each line starts; `[k]` is line `k + 1`.
    pub line_starts: Vec<usize>,
}

impl Lexed {
    /// 1-based (line, column) of a byte offset.
    pub fn line_col(&self, pos: usize) -> (usize, usize) {
        let line = self.line_starts.partition_point(|&s| s <= pos);
        (line, pos - self.line_starts[line - 1] + 1)
    }
}

struct Lexer<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
    line_starts: Vec<usize>,
}

impl<'a> Lexer<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_starts.push(self.pos);
        }
        Some(b)
    }

    fn err(&self, message: impl Into<String>) -> LexError {
        LexError {
            line: self.line,
            message: message.into(),
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize `src`. The only hard failures are unterminated strings, chars,
/// and block comments — everything else lexes to *some* token.
pub fn lex(src: &str) -> Result<Lexed, LexError> {
    let mut lx = Lexer {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
        line_starts: vec![0],
    };
    let mut out = Lexed::default();

    // Shebang line.
    if src.starts_with("#!") && !src.starts_with("#![") {
        while lx.peek().is_some_and(|b| b != b'\n') {
            lx.bump();
        }
    }

    while let Some(b) = lx.peek() {
        let lo = lx.pos;
        let line = lx.line;

        // Whitespace.
        if b.is_ascii_whitespace() {
            lx.bump();
            continue;
        }

        // Comments.
        if b == b'/' && lx.peek2() == Some(b'/') {
            while lx.peek().is_some_and(|x| x != b'\n') {
                lx.bump();
            }
            let text = &src[lo..lx.pos];
            let doc = text.starts_with("///") || text.starts_with("//!");
            out.comments.push(Comment {
                text: text.to_string(),
                span: Span { lo, hi: lx.pos },
                line,
                end_line: line,
                doc,
            });
            continue;
        }
        if b == b'/' && lx.peek2() == Some(b'*') {
            lx.bump();
            lx.bump();
            let mut depth = 1usize;
            while depth > 0 {
                match (lx.peek(), lx.peek2()) {
                    (Some(b'/'), Some(b'*')) => {
                        lx.bump();
                        lx.bump();
                        depth += 1;
                    }
                    (Some(b'*'), Some(b'/')) => {
                        lx.bump();
                        lx.bump();
                        depth -= 1;
                    }
                    (Some(_), _) => {
                        lx.bump();
                    }
                    (None, _) => return Err(lx.err("unterminated block comment")),
                }
            }
            let text = &src[lo..lx.pos];
            let doc = text.starts_with("/**") || text.starts_with("/*!");
            out.comments.push(Comment {
                text: text.to_string(),
                span: Span { lo, hi: lx.pos },
                line,
                end_line: lx.line,
                doc,
            });
            continue;
        }

        // Raw identifiers and raw/byte string literal prefixes.
        if b == b'r' || b == b'b' {
            if let Some(tok) = lex_prefixed(&mut lx, src, lo, line)? {
                out.tokens.push(tok);
                continue;
            }
        }

        // Identifiers / keywords.
        if is_ident_start(b) {
            while lx.peek().is_some_and(is_ident_cont) {
                lx.bump();
            }
            out.tokens.push(Token {
                kind: TokKind::Ident(src[lo..lx.pos].to_string()),
                span: Span { lo, hi: lx.pos },
                line,
            });
            continue;
        }

        // Numbers.
        if b.is_ascii_digit() {
            let kind = lex_number(&mut lx, src, lo);
            out.tokens.push(Token {
                kind,
                span: Span { lo, hi: lx.pos },
                line,
            });
            continue;
        }

        // Strings.
        if b == b'"' {
            lx.bump();
            lex_str_body(&mut lx, false, 0)?;
            out.tokens.push(Token {
                kind: TokKind::Str,
                span: Span { lo, hi: lx.pos },
                line,
            });
            continue;
        }

        // Char literal vs lifetime.
        if b == b'\'' {
            let next = lx.peek2();
            let is_char = match next {
                Some(b'\\') => true,
                Some(c) if is_ident_start(c) => {
                    // 'a' is a char, 'a is a lifetime: decide by the byte
                    // after the single identifier-ish character.
                    lx.src.get(lx.pos + 2) == Some(&b'\'')
                }
                Some(_) => true, // '(' etc. can only open a char literal
                None => return Err(lx.err("dangling single quote")),
            };
            if is_char {
                lx.bump(); // opening '
                if lx.peek() == Some(b'\\') {
                    lx.bump();
                    lx.bump(); // escape head: n, u, x, ...
                    while lx.peek().is_some_and(|x| x != b'\'') {
                        lx.bump(); // \u{...} tail
                    }
                } else {
                    // One (possibly multi-byte) character.
                    while lx.peek().is_some_and(|x| x != b'\'') {
                        lx.bump();
                    }
                }
                if lx.bump() != Some(b'\'') {
                    return Err(lx.err("unterminated char literal"));
                }
                out.tokens.push(Token {
                    kind: TokKind::Char,
                    span: Span { lo, hi: lx.pos },
                    line,
                });
            } else {
                lx.bump(); // '
                while lx.peek().is_some_and(is_ident_cont) {
                    lx.bump();
                }
                out.tokens.push(Token {
                    kind: TokKind::Lifetime(src[lo + 1..lx.pos].to_string()),
                    span: Span { lo, hi: lx.pos },
                    line,
                });
            }
            continue;
        }

        // Delimiters.
        if matches!(b, b'(' | b'[' | b'{') {
            lx.bump();
            out.tokens.push(Token {
                kind: TokKind::Open(b as char),
                span: Span { lo, hi: lx.pos },
                line,
            });
            continue;
        }
        if matches!(b, b')' | b']' | b'}') {
            lx.bump();
            out.tokens.push(Token {
                kind: TokKind::Close(b as char),
                span: Span { lo, hi: lx.pos },
                line,
            });
            continue;
        }

        // Punctuation.
        lx.bump();
        const OP_CHARS: &[u8] = b"+-*/%^!&|<>=.:;,#?@~$";
        if OP_CHARS.contains(&b) {
            let joint = lx.peek().is_some_and(|n| OP_CHARS.contains(&n));
            out.tokens.push(Token {
                kind: TokKind::Punct(b as char, joint),
                span: Span { lo, hi: lx.pos },
                line,
            });
            continue;
        }
        return Err(LexError {
            line,
            message: format!("unexpected byte 0x{b:02x}"),
        });
    }

    // Per-line code presence.
    let total_lines = lx.line + 1;
    out.line_has_code = vec![false; total_lines + 1];
    for t in &out.tokens {
        if t.line < out.line_has_code.len() {
            out.line_has_code[t.line] = true;
        }
    }
    out.line_starts = lx.line_starts;
    Ok(out)
}

/// Handle tokens that start with `r` or `b`: raw identifiers (`r#type`),
/// raw strings (`r"…"`, `r#"…"#`), byte strings (`b"…"`, `br#"…"#`), and
/// byte char literals (`b'x'`). Returns `None` when it is just a plain
/// identifier starting with that letter.
fn lex_prefixed(
    lx: &mut Lexer<'_>,
    src: &str,
    lo: usize,
    line: usize,
) -> Result<Option<Token>, LexError> {
    let b = lx.peek().expect("caller saw a byte");
    let mut j = lx.pos + 1;
    if b == b'b' && lx.src.get(j) == Some(&b'r') {
        j += 1;
    }
    let is_raw = b == b'r' || (b == b'b' && lx.src.get(lx.pos + 1) == Some(&b'r'));
    let mut hashes = 0usize;
    while lx.src.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }

    // r#ident — a raw identifier, not a string.
    if b == b'r' && hashes == 1 && lx.src.get(j).copied().is_some_and(is_ident_start) {
        lx.bump(); // r
        lx.bump(); // #
        let istart = lx.pos;
        while lx.peek().is_some_and(is_ident_cont) {
            lx.bump();
        }
        return Ok(Some(Token {
            kind: TokKind::Ident(src[istart..lx.pos].to_string()),
            span: Span { lo, hi: lx.pos },
            line,
        }));
    }

    // b'x' byte char.
    if b == b'b' && !is_raw && lx.src.get(lx.pos + 1) == Some(&b'\'') {
        lx.bump(); // b
        lx.bump(); // '
        if lx.peek() == Some(b'\\') {
            lx.bump();
            lx.bump();
            while lx.peek().is_some_and(|x| x != b'\'') {
                lx.bump();
            }
        } else {
            while lx.peek().is_some_and(|x| x != b'\'') {
                lx.bump();
            }
        }
        if lx.bump() != Some(b'\'') {
            return Err(lx.err("unterminated byte literal"));
        }
        return Ok(Some(Token {
            kind: TokKind::Char,
            span: Span { lo, hi: lx.pos },
            line,
        }));
    }

    // String forms: the quote must follow the prefix/hashes directly, and
    // bare `b#`/`r` followed by non-quote is an identifier.
    if lx.src.get(j) == Some(&b'"') && (is_raw || hashes == 0) {
        // Consume prefix, hashes, and quote.
        while lx.pos < j + 1 {
            lx.bump();
        }
        lex_str_body(lx, is_raw, hashes)?;
        return Ok(Some(Token {
            kind: TokKind::Str,
            span: Span { lo, hi: lx.pos },
            line,
        }));
    }
    Ok(None)
}

/// Consume a string body up to and including its closing quote (plus
/// `hashes` trailing `#` for raw strings). The opening quote has already
/// been consumed. Returns whether the body was non-empty.
fn lex_str_body(lx: &mut Lexer<'_>, raw: bool, hashes: usize) -> Result<(), LexError> {
    loop {
        match lx.peek() {
            None => return Err(lx.err("unterminated string literal")),
            Some(b'\\') if !raw => {
                lx.bump();
                lx.bump();
            }
            Some(b'"') => {
                let all = (1..=hashes).all(|h| lx.src.get(lx.pos + h) == Some(&b'#'));
                if all {
                    lx.bump();
                    for _ in 0..hashes {
                        lx.bump();
                    }
                    return Ok(());
                }
                lx.bump();
            }
            Some(_) => {
                lx.bump();
            }
        }
    }
}

/// Lex a numeric literal starting at a digit; classifies int vs float.
fn lex_number(lx: &mut Lexer<'_>, src: &str, lo: usize) -> TokKind {
    // Radix prefixes.
    if lx.peek() == Some(b'0')
        && matches!(lx.peek2(), Some(b'x' | b'X' | b'o' | b'O' | b'b' | b'B'))
    {
        lx.bump();
        lx.bump();
        while lx.peek().is_some_and(is_ident_cont) {
            lx.bump();
        }
        return TokKind::Int(src[lo..lx.pos].to_string());
    }

    let mut float = false;
    while lx.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
        lx.bump();
    }
    // Fraction: a dot followed by a digit (`1.max()` and `1..2` stay ints).
    if lx.peek() == Some(b'.') && lx.peek2().is_some_and(|b| b.is_ascii_digit()) {
        float = true;
        lx.bump();
        while lx.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
            lx.bump();
        }
    } else if lx.peek() == Some(b'.')
        && lx.peek2() != Some(b'.')
        && !lx.peek2().is_some_and(is_ident_start)
    {
        // Trailing-dot float `1.`.
        float = true;
        lx.bump();
    }
    // Exponent.
    if matches!(lx.peek(), Some(b'e' | b'E')) {
        let mut k = lx.pos + 1;
        if matches!(lx.src.get(k), Some(b'+' | b'-')) {
            k += 1;
        }
        if lx.src.get(k).is_some_and(|b| b.is_ascii_digit()) {
            float = true;
            while lx.pos < k {
                lx.bump();
            }
            while lx.peek().is_some_and(|b| b.is_ascii_digit() || b == b'_') {
                lx.bump();
            }
        }
    }
    // Suffix (u64, f32, usize…). An `f` suffix makes it a float.
    if lx.peek().is_some_and(is_ident_start) {
        let sstart = lx.pos;
        while lx.peek().is_some_and(is_ident_cont) {
            lx.bump();
        }
        if src[sstart..lx.pos].starts_with('f') {
            float = true;
        }
    }
    let text = src[lo..lx.pos].to_string();
    if float {
        TokKind::Float(text)
    } else {
        TokKind::Int(text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        lex(src)
            .expect("lexes")
            .tokens
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn idents_numbers_ops() {
        let ks = kinds("let x = 1_000u64 + 2.5;");
        assert_eq!(ks[0], TokKind::Ident("let".into()));
        assert_eq!(ks[2], TokKind::Punct('=', false));
        assert_eq!(ks[3], TokKind::Int("1_000u64".into()));
        assert_eq!(ks[5], TokKind::Float("2.5".into()));
    }

    #[test]
    fn float_vs_method_vs_range() {
        assert!(matches!(kinds("1.0")[0], TokKind::Float(_)));
        assert!(matches!(kinds("1.max(2)")[0], TokKind::Int(_)));
        assert!(matches!(kinds("1..2")[0], TokKind::Int(_)));
        assert!(matches!(kinds("1e9")[0], TokKind::Float(_)));
        assert!(matches!(kinds("0x1F")[0], TokKind::Int(_)));
        assert!(matches!(kinds("3f64")[0], TokKind::Float(_)));
    }

    #[test]
    fn lifetimes_and_chars() {
        let ks = kinds("fn f<'a>(x: &'a u32) { let c = 'z'; let n = '\\n'; }");
        assert!(ks.contains(&TokKind::Lifetime("a".into())));
        assert_eq!(ks.iter().filter(|k| **k == TokKind::Char).count(), 2);
    }

    #[test]
    fn strings_raw_and_byte() {
        let ks = kinds(r##"let a = "hi"; let b = r#"raw"#; let c = b"x"; let d = "";"##);
        assert_eq!(ks.iter().filter(|k| **k == TokKind::Str).count(), 4);
    }

    #[test]
    fn raw_identifier() {
        let ks = kinds("let r#type = 1;");
        assert_eq!(ks[1], TokKind::Ident("type".into()));
    }

    #[test]
    fn comments_recorded_with_doc_flag() {
        let lexed = lex("/// doc\n// plain\nlet x = 1; /* block */\n").expect("lexes");
        assert_eq!(lexed.comments.len(), 3);
        assert!(lexed.comments[0].doc);
        assert!(!lexed.comments[1].doc);
        assert_eq!(lexed.comments[1].line, 2);
        assert!(!lexed.comments[2].doc);
        assert!(!lexed.line_has_code[2]);
        assert!(lexed.line_has_code[3]);
    }

    #[test]
    fn joint_puncts() {
        let lexed = lex("a::b -> c >>= d").expect("lexes");
        let puncts: Vec<(char, bool)> = lexed
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Punct(c, j) => Some((c, j)),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts,
            vec![
                (':', true),
                (':', false),
                ('-', true),
                ('>', false),
                ('>', true),
                ('>', true),
                ('=', false),
            ]
        );
    }

    #[test]
    fn unterminated_string_errors() {
        assert!(lex("let s = \"oops").is_err());
        assert!(lex("/* never closed").is_err());
    }

    #[test]
    fn line_col_maps_offsets_back_to_positions() {
        let src = "ab\ncd e\n";
        let lexed = lex(src).expect("lexes");
        assert_eq!(lexed.line_col(0), (1, 1));
        assert_eq!(lexed.line_col(src.find('e').expect("present")), (2, 4));
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let lexed = lex("let s = \"a\nb\";\nlet t = 1;\n").expect("lexes");
        let t_tok = lexed
            .tokens
            .iter()
            .find(|t| t.ident() == Some("t"))
            .expect("t token present");
        assert_eq!(t_tok.line, 3);
    }
}
