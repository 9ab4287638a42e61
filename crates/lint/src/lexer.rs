//! A small hand-rolled Rust lexer, just precise enough for invariant
//! linting.
//!
//! The rules in [`crate::rules`] only need to see *identifiers and
//! punctuation that are really code*: an `f64` inside a string literal,
//! a commented-out `.unwrap()`, or a stat-field write in a doc example
//! must not trip a lint. So the lexer's job is exact classification of
//! the token-boundary cases that naive `grep` gets wrong:
//!
//! * line comments and **nested** block comments,
//! * string literals with escapes, raw strings (`r"…"`, `r#"…"#`, any
//!   hash depth) and their byte variants (`b"…"`, `br#"…"#`),
//! * char literals vs. lifetimes (`'a'` vs. `'a`, including escaped
//!   chars like `'\''` and `'\u{1F600}'`),
//! * raw identifiers (`r#fn` is an identifier, not the keyword),
//! * numeric literals (so `0..10` still yields two `.` symbols), with
//!   float-shaped ones marked (the `float-determinism` rule needs them).
//!
//! Output is a flat token stream with line numbers, plus the per-line
//! comment text (the rules look there for `lint: allow(...)` waivers)
//! and the set of lines that contain any non-comment code (so "directly
//! above" checks can walk over pure comment lines).

use std::collections::{BTreeMap, BTreeSet};

/// What a token is. String and numeric literals are emitted as opaque
/// [`TokKind::Str`]/[`TokKind::Num`] tokens: the `doc-drift` rule reads
/// string contents and `float-determinism` needs float-literal
/// positions. Char literals and lifetimes still vanish — no rule
/// needs them, only the code-line fact (tracked in
/// [`Lexed::code_lines`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`unsafe`, `HashMap`, `static`, …).
    /// Raw identifiers keep their sigil (`r#fn`), so keyword checks
    /// like `is_ident("fn")` never match them.
    Ident(String),
    /// A single punctuation character (`{`, `.`, `!`, …).
    Sym(char),
    /// A string literal's contents (escape sequences left verbatim;
    /// covers `"…"`, `r"…"`/`r#"…"#`, and the byte variants).
    Str(String),
    /// A numeric literal; `float` marks decimal-float shape (a
    /// fractional part, an exponent, or an `f32`/`f64` suffix).
    Num {
        /// True for float-shaped literals.
        float: bool,
    },
}

/// One token with its 1-based source line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: u32,
    /// The token itself.
    pub kind: TokKind,
}

impl Tok {
    /// The identifier text, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The string-literal contents, if this is a string literal.
    pub fn str_lit(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Str(s) => Some(s),
            _ => None,
        }
    }

    /// True iff this token is a float-shaped numeric literal.
    pub fn is_float_lit(&self) -> bool {
        matches!(self.kind, TokKind::Num { float: true })
    }

    /// True iff this token is the given punctuation character.
    pub fn is_sym(&self, c: char) -> bool {
        self.kind == TokKind::Sym(c)
    }

    /// True iff this token is the given identifier.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(t) if t == s)
    }
}

/// The result of lexing one file.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub toks: Vec<Tok>,
    /// Comment text per line: every line a comment spans gets an entry
    /// with that line's share of the text (block comments contribute one
    /// entry per spanned line).
    pub comments: BTreeMap<u32, String>,
    /// Lines on which at least one non-comment token or literal starts
    /// or continues. A line with a comment entry but absent here is a
    /// pure comment line.
    pub code_lines: BTreeSet<u32>,
}

impl Lexed {
    /// True iff `line` contains only comments/whitespace (and at least
    /// one comment).
    pub fn is_comment_only(&self, line: u32) -> bool {
        self.comments.contains_key(&line) && !self.code_lines.contains(&line)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src` (one Rust file) into tokens, comments and code-line facts.
///
/// The lexer never fails: malformed input (unterminated strings or
/// comments) is consumed to end-of-file, which is the useful behaviour
/// for a linter that must keep scanning the rest of the tree.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Lexed::default();

    while let Some(b) = cur.peek() {
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => lex_line_comment(&mut cur, &mut out),
            b'/' if cur.peek_at(1) == Some(b'*') => lex_block_comment(&mut cur, &mut out),
            b'"' => lex_string(&mut cur, &mut out),
            b'\'' => lex_char_or_lifetime(&mut cur, &mut out),
            b if b.is_ascii_digit() => lex_number(&mut cur, &mut out),
            b if is_ident_start(b) => lex_ident_or_prefixed_string(&mut cur, &mut out),
            _ => {
                let line = cur.line;
                out.code_lines.insert(line);
                let c = cur.bump().unwrap_or(b' ') as char;
                out.toks.push(Tok {
                    line,
                    kind: TokKind::Sym(c),
                });
            }
        }
    }
    out
}

fn push_comment(out: &mut Lexed, line: u32, text: &str) {
    let entry = out.comments.entry(line).or_default();
    if !entry.is_empty() {
        entry.push(' ');
    }
    entry.push_str(text);
}

fn lex_line_comment(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let line = cur.line;
    let start = cur.pos;
    while let Some(b) = cur.peek() {
        if b == b'\n' {
            break;
        }
        cur.bump();
    }
    let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
    push_comment(out, line, text.trim());
}

fn lex_block_comment(cur: &mut Cursor<'_>, out: &mut Lexed) {
    cur.bump(); // '/'
    cur.bump(); // '*'
    let mut depth = 1usize;
    let mut line = cur.line;
    let mut piece: Vec<u8> = b"/*".to_vec();
    let flush = |piece: &mut Vec<u8>, line: u32, out: &mut Lexed| {
        let text = String::from_utf8_lossy(piece).trim().to_string();
        if !text.is_empty() || !out.comments.contains_key(&line) {
            push_comment(out, line, &text);
        }
        piece.clear();
    };
    while depth > 0 {
        match (cur.peek(), cur.peek_at(1)) {
            (Some(b'/'), Some(b'*')) => {
                depth += 1;
                cur.bump();
                cur.bump();
                piece.extend_from_slice(b"/*");
            }
            (Some(b'*'), Some(b'/')) => {
                depth -= 1;
                cur.bump();
                cur.bump();
                piece.extend_from_slice(b"*/");
            }
            (Some(b'\n'), _) => {
                flush(&mut piece, line, out);
                cur.bump();
                line = cur.line;
            }
            (Some(b), _) => {
                piece.push(b);
                cur.bump();
            }
            (None, _) => break, // unterminated: swallow to EOF
        }
    }
    flush(&mut piece, line, out);
}

/// Consume a `"…"` string (escapes honoured), marking every spanned
/// line as code and emitting its contents (escapes verbatim) as a
/// [`TokKind::Str`] token.
fn lex_string(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let line = cur.line;
    out.code_lines.insert(line);
    cur.bump(); // opening quote
    let mut content = Vec::new();
    while let Some(b) = cur.bump() {
        out.code_lines.insert(cur.line);
        match b {
            b'\\' => {
                content.push(b);
                if let Some(e) = cur.bump() {
                    content.push(e); // the escaped byte (covers \" and \\)
                }
            }
            b'"' => break,
            _ => content.push(b),
        }
    }
    out.toks.push(Tok {
        line,
        kind: TokKind::Str(String::from_utf8_lossy(&content).into_owned()),
    });
}

/// Consume a raw string `r"…"` / `r#"…"#` (any hash depth), marking
/// every spanned line as code and emitting its contents as a
/// [`TokKind::Str`] token. `cur` is positioned on the `r`'s following
/// character (the `#` or `"`), which the caller has verified opens a
/// real raw string (raw *identifiers* like `r#fn` never get here).
fn lex_raw_string(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let line = cur.line;
    out.code_lines.insert(line);
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek() != Some(b'"') {
        return; // malformed (caller screens `r#ident`); swallow the hashes
    }
    cur.bump(); // opening quote
    let mut content = Vec::new();
    'scan: while let Some(b) = cur.bump() {
        out.code_lines.insert(cur.line);
        if b == b'"' {
            for i in 0..hashes {
                if cur.peek_at(i) != Some(b'#') {
                    content.push(b);
                    continue 'scan;
                }
            }
            for _ in 0..hashes {
                cur.bump();
            }
            break;
        }
        content.push(b);
    }
    out.toks.push(Tok {
        line,
        kind: TokKind::Str(String::from_utf8_lossy(&content).into_owned()),
    });
}

/// `'a'` vs `'a`: a quote followed by an identifier is a lifetime unless
/// the identifier is immediately followed by a closing quote; anything
/// else after the quote is a char literal.
fn lex_char_or_lifetime(cur: &mut Cursor<'_>, out: &mut Lexed) {
    out.code_lines.insert(cur.line);
    cur.bump(); // opening '
    match cur.peek() {
        Some(b) if is_ident_start(b) => {
            // scan the identifier, then decide
            let mut off = 0usize;
            while cur.peek_at(off).is_some_and(is_ident_cont) {
                off += 1;
            }
            if cur.peek_at(off) == Some(b'\'') {
                // char literal like 'a' or '字'
                for _ in 0..=off {
                    cur.bump();
                }
            } else {
                // lifetime: consume the identifier, emit nothing
                for _ in 0..off {
                    cur.bump();
                }
            }
        }
        Some(b'\\') => {
            // escaped char literal: consume until the closing quote
            cur.bump();
            cur.bump(); // the escaped byte (or `u` of \u{…})
            while let Some(b) = cur.peek() {
                cur.bump();
                if b == b'\'' {
                    break;
                }
            }
        }
        Some(_) => {
            // plain one-char literal (covers ASCII punctuation chars)
            cur.bump();
            if cur.peek() == Some(b'\'') {
                cur.bump();
            }
        }
        None => {}
    }
}

fn lex_number(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let line = cur.line;
    out.code_lines.insert(line);
    // 0x/0o/0b literals never carry a fraction or signed exponent (an
    // `e` inside them is a hex digit, not an exponent marker)
    let prefixed = cur.peek() == Some(b'0')
        && matches!(
            cur.peek_at(1),
            Some(b'x' | b'o' | b'b' | b'X' | b'O' | b'B')
        );
    let start = cur.pos;
    cur.bump();
    loop {
        match cur.peek() {
            // `1.5` continues the number; `0..10` and `1.method()` do not
            Some(b'.') if cur.peek_at(1).is_some_and(|b| b.is_ascii_digit()) => {
                cur.bump();
            }
            // signed exponent: `1e-3`, `2.5E+7`
            Some(b'e' | b'E')
                if !prefixed
                    && matches!(cur.peek_at(1), Some(b'+' | b'-'))
                    && cur.peek_at(2).is_some_and(|b| b.is_ascii_digit()) =>
            {
                cur.bump();
                cur.bump();
            }
            Some(b) if b.is_ascii_alphanumeric() || b == b'_' => {
                cur.bump();
            }
            _ => break,
        }
    }
    let text = &cur.src[start..cur.pos];
    // an exponent is an `e`/`E` followed by a digit or sign (`9usize`
    // contains an `e` that is not one)
    let has_exponent = text.windows(2).any(|w| {
        matches!(w[0], b'e' | b'E') && (w[1].is_ascii_digit() || matches!(w[1], b'+' | b'-'))
    });
    let float = !prefixed
        && (text.contains(&b'.')
            || has_exponent
            || text.ends_with(b"f32")
            || text.ends_with(b"f64"));
    out.toks.push(Tok {
        line,
        kind: TokKind::Num { float },
    });
}

fn lex_ident_or_prefixed_string(cur: &mut Cursor<'_>, out: &mut Lexed) {
    let line = cur.line;
    // raw/byte string prefixes: r" r#" b" b' br" br#" rb is not a thing
    let b0 = cur.peek();
    let b1 = cur.peek_at(1);
    let b2 = cur.peek_at(2);
    match (b0, b1, b2) {
        // `r#ident` is a raw identifier, not a raw string: `#` followed
        // by an identifier start (another `#` or `"` means raw string)
        (Some(b'r'), Some(b'#'), Some(c)) if c != b'#' && c != b'"' && is_ident_start(c) => {
            out.code_lines.insert(line);
            let start = cur.pos;
            cur.bump(); // r
            cur.bump(); // #
            while cur.peek().is_some_and(is_ident_cont) {
                cur.bump();
            }
            let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
            out.toks.push(Tok {
                line,
                kind: TokKind::Ident(text),
            });
            return;
        }
        (Some(b'r'), Some(b'"' | b'#'), _) => {
            cur.bump();
            lex_raw_string(cur, out);
            return;
        }
        (Some(b'b'), Some(b'r'), Some(b'"' | b'#')) => {
            cur.bump();
            cur.bump();
            lex_raw_string(cur, out);
            return;
        }
        (Some(b'b'), Some(b'"'), _) => {
            cur.bump();
            lex_string(cur, out);
            return;
        }
        (Some(b'b'), Some(b'\''), _) => {
            cur.bump();
            lex_char_or_lifetime(cur, out);
            return;
        }
        _ => {}
    }
    out.code_lines.insert(line);
    let start = cur.pos;
    while cur.peek().is_some_and(is_ident_cont) {
        cur.bump();
    }
    let text = String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned();
    out.toks.push(Tok {
        line,
        kind: TokKind::Ident(text),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(l: &Lexed) -> Vec<&str> {
        l.toks.iter().filter_map(|t| t.ident()).collect()
    }

    fn syms(l: &Lexed) -> String {
        l.toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Sym(c) => Some(c),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn raw_string_hides_unsafe() {
        // `unsafe` inside raw strings of any hash depth must not tokenize.
        let l = lex(r####"let s = r#"unsafe { HashMap }"#; let t = r"unsafe";"####);
        assert_eq!(idents(&l), ["let", "s", "let", "t"]);
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let l = lex(r####"let a = b"unsafe"; let b2 = br#"HashMap"#; let c = b'x';"####);
        assert_eq!(idents(&l), ["let", "a", "let", "b2", "let", "c"]);
    }

    #[test]
    fn commented_out_hashmap_is_comment_not_code() {
        let src = "// use std::collections::HashMap;\nlet x = 1;\n";
        let l = lex(src);
        assert_eq!(idents(&l), ["let", "x"]);
        assert!(l.comments[&1].contains("HashMap"));
        assert!(l.is_comment_only(1));
        assert!(!l.is_comment_only(2));
    }

    #[test]
    fn nested_block_comments() {
        // Rust block comments nest; `unsafe` below is all comment.
        let src = "/* outer /* unsafe inner */ still comment */ fn f() {}\n";
        let l = lex(src);
        assert_eq!(idents(&l), ["fn", "f"]);
        assert!(l.comments[&1].contains("unsafe"));
        // the line also holds code, so it is not comment-only
        assert!(!l.is_comment_only(1));
    }

    #[test]
    fn multiline_block_comment_spans_lines() {
        let src = "/* a\n   b\n   c */\nfn g() {}\n";
        let l = lex(src);
        assert!(l.is_comment_only(1) && l.is_comment_only(2) && l.is_comment_only(3));
        assert_eq!(l.toks[0].line, 4);
    }

    #[test]
    fn char_literal_vs_lifetime() {
        // 'a' is a char literal (no tokens); <'a> is a lifetime (no tokens);
        // the identifiers around them still come through.
        let l = lex("fn h<'a>(x: &'a str) { let c = 'a'; let q = '\\''; }");
        assert_eq!(idents(&l), ["fn", "h", "x", "str", "let", "c", "let", "q"]);
    }

    #[test]
    fn unicode_escape_char_literal() {
        let l = lex(r"let e = '\u{1F600}'; let nl = '\n';");
        assert_eq!(idents(&l), ["let", "e", "let", "nl"]);
    }

    fn nums(l: &Lexed) -> Vec<bool> {
        l.toks
            .iter()
            .filter_map(|t| match t.kind {
                TokKind::Num { float } => Some(float),
                _ => None,
            })
            .collect()
    }

    fn strs(l: &Lexed) -> Vec<&str> {
        l.toks.iter().filter_map(|t| t.str_lit()).collect()
    }

    #[test]
    fn numbers_do_not_eat_range_dots() {
        // `0..10` must yield two `.` symbols, `1.5` none, `1.max(2)` one.
        assert_eq!(syms(&lex("0..10")), "..");
        assert_eq!(syms(&lex("let x = 1.5;")), "=;");
        assert_eq!(syms(&lex("1.max(2)")), ".()");
        // a signed exponent is part of the literal, not a `-` symbol
        assert_eq!(syms(&lex("0xff_u32 + 1e-3")), "+");
    }

    #[test]
    fn float_literals_are_marked() {
        assert_eq!(nums(&lex("0..10")), [false, false]);
        assert_eq!(nums(&lex("1.5 2.0f32 1e-3 7E+2 2e9 3f64")), vec![true; 6]);
        assert_eq!(
            nums(&lex("1 0xff 0o7 0b1 10_000u64 9usize")),
            vec![false; 6]
        );
        // hex digits that happen to be `e` are not exponents
        assert_eq!(nums(&lex("0x1e + 0x1E")), [false, false]);
    }

    #[test]
    fn string_literal_contents_are_captured() {
        let l = lex(r####"let a = "t1-space"; let b = r#"skew "quoted""#; let c = b"bytes";"####);
        assert_eq!(strs(&l), ["t1-space", "skew \"quoted\"", "bytes"]);
        // escapes stay verbatim — substring search still works
        assert_eq!(strs(&lex(r#""a\"b\n""#)), ["a\\\"b\\n"]);
    }

    #[test]
    fn raw_identifiers_keep_their_sigil() {
        // `r#fn` must not lex as the keyword `fn` (nor start a raw string)
        let l = lex("let r#fn = 1; let x = r#type;");
        assert_eq!(idents(&l), ["let", "r#fn", "let", "x", "r#type"]);
        assert!(!l.toks.iter().any(|t| t.is_ident("fn")));
        // …while raw strings with hashes still lex as strings
        assert_eq!(strs(&lex(r###"r#"fn"#"###)), ["fn"]);
    }

    #[test]
    fn block_comment_markers_inside_raw_strings_are_inert() {
        // `/*` inside a raw string must not open a comment (and the
        // `unsafe` beyond the string must still tokenize)
        let l = lex(r###"let s = r#"/* not a comment"#; unsafe { }"###);
        assert_eq!(idents(&l), ["let", "s", "unsafe"]);
        assert!(l.comments.is_empty());
        // …and a raw-string-looking span inside a block comment stays comment
        let l = lex("/* r#\" still a comment */ fn f() {}");
        assert_eq!(idents(&l), ["fn", "f"]);
    }

    #[test]
    fn byte_string_escapes() {
        // `\x` escapes and escaped quotes must not end the byte string early
        let l = lex(r#"let a = b"\xff\"unsafe\""; fn k() {}"#);
        assert_eq!(idents(&l), ["let", "a", "fn", "k"]);
        // escaped backslash right before the closing quote
        let l = lex(r#"let p = b"tail\\"; unsafe { }"#);
        assert_eq!(idents(&l), ["let", "p", "unsafe"]);
    }

    #[test]
    fn static_lifetime_vs_char_at_expression_start() {
        // `&'static str` in type position: lifetime, no tokens, and the
        // `static` keyword must NOT be reported as an ident
        let l = lex("fn f(s: &'static str) -> &'static str { s }");
        assert!(!l.toks.iter().any(|t| t.is_ident("static")));
        // expression-start char literals right after `{`, `(`, `=`, `match`
        let l = lex("let c = 's'; match c { 's' => 1, _ => 0 };");
        assert_eq!(idents(&l), ["let", "c", "match", "c", "_"]);
        // lifetime then char on the same line
        let l = lex("fn g<'a>(x: &'a u8) -> char { 'a' }");
        assert_eq!(idents(&l), ["fn", "g", "x", "u8", "char"]);
    }

    #[test]
    fn string_escapes() {
        // an escaped quote must not end the string early
        let l = lex(r#"let s = "a\"unsafe\""; fn k() {}"#);
        assert_eq!(idents(&l), ["let", "s", "fn", "k"]);
    }

    #[test]
    fn line_numbers_track_newlines_in_literals() {
        let src = "let s = \"line\nbreak\";\nunsafe {}\n";
        let l = lex(src);
        let u = l.toks.iter().find(|t| t.is_ident("unsafe")).unwrap();
        assert_eq!(u.line, 3);
        // both spanned lines count as code
        assert!(l.code_lines.contains(&1) && l.code_lines.contains(&2));
    }

    #[test]
    fn unterminated_input_is_swallowed() {
        // the lexer must not loop or panic on malformed input
        lex("/* never closed");
        lex("\"never closed");
        lex("r#\"never closed");
        let l = lex("let x = 1; /* tail");
        assert_eq!(idents(&l), ["let", "x"]);
    }
}
