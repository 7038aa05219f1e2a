//! The one Rust lexer in `fae-lint`, over *raw* source text.
//!
//! [`tokenize`] splits a file into code tokens and comment spans, each
//! with a byte span and a 1-based line. Everything else the linter
//! knows about what is code is derived from that one scan:
//!
//! * the token tree and items ([`crate::tree`]), which the flow passes
//!   and the test-region exemption read;
//! * the *code view* ([`code_view`]) the line rules in [`crate::rules`]
//!   match on: the source with comment bytes and literal bodies blanked
//!   to spaces, same length, newlines kept, so byte offsets and line
//!   numbers carry over unchanged;
//! * the `// fae-lint: allow(...)` pragmas ([`pragmas`]), read from
//!   plain `//` comments only.
//!
//! Deliberately *not* a full lexer: multi-byte operators (`::`, `=>`,
//! `->`, `..`) come out as adjacent single-byte [`TokKind::Punct`]
//! tokens, which the tree/flow layers reassemble by adjacency where it
//! matters. That keeps the scanner small enough to audit by eye.

use std::ops::Range;

/// What a token is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (`fn`, `HashMap`, `self`, ...).
    Ident,
    /// Numeric literal (integers, floats, prefixed forms).
    Num,
    /// String literal, including the quotes (`"..."`, `b"..."` body).
    Str,
    /// Raw string literal, including `r`/`br`, hashes and quotes.
    RawStr,
    /// Char literal, including the quotes.
    Char,
    /// Lifetime (`'a`) — the tick plus the identifier.
    Lifetime,
    /// Any other single byte of punctuation.
    Punct,
    /// A `//` or `/* */` comment. Only ever in [`Lexed::comments`],
    /// never in the code token stream.
    Comment,
}

/// One token: kind plus its byte span and 1-based line number.
#[derive(Clone, Copy, Debug)]
pub struct Tok {
    /// What it is.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line the token starts on.
    pub line: usize,
}

impl Tok {
    /// The token's text within `source`.
    pub fn text<'s>(&self, source: &'s str) -> &'s str {
        source.get(self.start..self.end).unwrap_or("")
    }

    /// Byte range of a literal's body: everything between its opening
    /// delimiter (`"`, `'`, `r#"`, `br"`) and its closing one, which is
    /// absent when the literal runs to the end of the file. `None` for
    /// tokens that are not literals.
    pub fn body(&self, source: &str) -> Option<Range<usize>> {
        let s = source.as_bytes().get(self.start..self.end)?;
        let (open, close) = match self.kind {
            TokKind::Str | TokKind::Char => {
                // Escapes pair a `\` with the next byte, so the last
                // quote closes only after an even run of backslashes.
                let quote = *s.first()?;
                let closed = s.len() >= 2
                    && s[s.len() - 1] == quote
                    && s[1..s.len() - 1].iter().rev().take_while(|&&b| b == b'\\').count() % 2 == 0;
                (1, usize::from(closed))
            }
            TokKind::RawStr => {
                let open = s.iter().position(|&b| b == b'"')? + 1;
                let hashes = s[..open].iter().filter(|&&b| b == b'#').count();
                let closed = s.len() > open + hashes
                    && s[s.len() - 1 - hashes] == b'"'
                    && s[s.len() - hashes..].iter().all(|&b| b == b'#');
                (open, if closed { hashes + 1 } else { 0 })
            }
            _ => return None,
        };
        Some(self.start + open..self.end - close)
    }
}

/// Tokenizer output: code tokens and comment spans, each in file order.
pub struct Lexed {
    /// Code tokens (no comments, no whitespace).
    pub toks: Vec<Tok>,
    /// Comment spans, kind [`TokKind::Comment`]. A line comment ends
    /// before its newline; a block comment includes its `*/`.
    pub comments: Vec<Tok>,
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

/// If `rest` begins a raw-string opener (`#*"`), returns the hash count.
fn raw_string_hashes(rest: &[u8]) -> Option<usize> {
    let mut n = 0;
    while n < rest.len() && rest[n] == b'#' {
        n += 1;
    }
    if rest.get(n) == Some(&b'"') {
        Some(n)
    } else {
        None
    }
}

/// Tokenizes `source` into code tokens and comment spans.
///
/// Line comments run to the newline, block comments nest, ordinary
/// strings honour `\\` escapes, raw strings (`r"…"`, `br#"…"#`) honour
/// their hash count, and a `'` starts a char literal (bounded at 12
/// bytes) unless it is followed by an identifier that is not itself
/// closed by a `'`, which makes it a lifetime.
pub fn tokenize(source: &str) -> Lexed {
    let src = source.as_bytes();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut line = 1usize;
    let mut i = 0usize;

    while i < src.len() {
        let b = src[i];
        if b == b'\n' {
            line += 1;
            i += 1;
            continue;
        }
        if b.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let prev_ident = i > 0 && is_ident(src[i - 1]);
        let start = i;
        let start_line = line;
        if b == b'/' && i + 1 < src.len() && src[i + 1] == b'/' {
            while i < src.len() && src[i] != b'\n' {
                i += 1;
            }
            comments.push(Tok { kind: TokKind::Comment, start, end: i, line });
            continue;
        }
        if b == b'/' && i + 1 < src.len() && src[i + 1] == b'*' {
            let mut depth = 0usize;
            while i < src.len() {
                if src[i] == b'/' && i + 1 < src.len() && src[i + 1] == b'*' {
                    depth += 1;
                    i += 2;
                } else if src[i] == b'*' && i + 1 < src.len() && src[i + 1] == b'/' {
                    depth -= 1;
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    if src[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            comments.push(Tok { kind: TokKind::Comment, start, end: i, line: start_line });
            continue;
        }
        if b == b'"' {
            i += 1;
            while i < src.len() {
                if src[i] == b'\\' && i + 1 < src.len() {
                    if src[i + 1] == b'\n' {
                        line += 1;
                    }
                    i += 2;
                } else if src[i] == b'"' {
                    i += 1;
                    break;
                } else {
                    if src[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
            }
            toks.push(Tok { kind: TokKind::Str, start, end: i, line: start_line });
            continue;
        }
        // `r"`, `r#"`, `br"`, `br#"` — but not the `r` ending `for`, nor
        // a raw identifier `r#name`.
        let prefix = match (b, src.get(i + 1)) {
            (b'r', _) => 1,
            (b'b', Some(&b'r')) => 2,
            _ => 0,
        };
        if prefix > 0 && !prev_ident {
            if let Some(hashes) = raw_string_hashes(&src[i + prefix..]) {
                i += prefix + hashes + 1; // prefix, hashes, opening quote
                while i < src.len() {
                    let closer = src.get(i + 1..i + 1 + hashes);
                    if src[i] == b'"' && closer.is_some_and(|c| c.iter().all(|&c| c == b'#')) {
                        i += 1 + hashes;
                        break;
                    }
                    if src[i] == b'\n' {
                        line += 1;
                    }
                    i += 1;
                }
                toks.push(Tok { kind: TokKind::RawStr, start, end: i, line: start_line });
                continue;
            }
        }
        if b == b'\'' {
            let next = src.get(i + 1).copied().unwrap_or(0);
            let after = src.get(i + 2).copied().unwrap_or(0);
            if next == b'\\' || (!is_ident(next) && next != b'\'') || after == b'\'' {
                i += 1;
                let mut n = 0;
                while i < src.len() && n < 12 {
                    if src[i] == b'\\' && i + 1 < src.len() {
                        i += 2;
                        n += 2;
                    } else if src[i] == b'\'' {
                        i += 1;
                        break;
                    } else {
                        if src[i] == b'\n' {
                            line += 1;
                        }
                        i += 1;
                        n += 1;
                    }
                }
                toks.push(Tok { kind: TokKind::Char, start, end: i, line: start_line });
            } else {
                // Lifetime: tick plus identifier run.
                i += 1;
                while i < src.len() && is_ident(src[i]) {
                    i += 1;
                }
                toks.push(Tok { kind: TokKind::Lifetime, start, end: i, line });
            }
            continue;
        }
        if is_ident_start(b) {
            while i < src.len() && is_ident(src[i]) {
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Ident, start, end: i, line });
            continue;
        }
        if b.is_ascii_digit() {
            while i < src.len() && (is_ident(src[i]) || src[i] == b'.') {
                // `0..n` is a range, not a float: stop before `..`.
                if src[i] == b'.'
                    && (src.get(i + 1) == Some(&b'.')
                        || !src.get(i + 1).copied().unwrap_or(b' ').is_ascii_digit())
                {
                    break;
                }
                i += 1;
            }
            toks.push(Tok { kind: TokKind::Num, start, end: i, line });
            continue;
        }
        toks.push(Tok { kind: TokKind::Punct, start: i, end: i + 1, line });
        i += 1;
    }
    Lexed { toks, comments }
}

/// The code view of `source`: the same bytes, except that comments and
/// literal bodies are blanked to spaces. Newlines survive everywhere,
/// so the view has the source's length, lines and byte offsets, and a
/// line rule can never fire on text inside a comment or a literal.
/// Literals keep their delimiters (`"`, `'`, `r#"`…`"#`), so shapes
/// like a string-key index `m["k"]` stay visible.
pub fn code_view(source: &str, toks: &[Tok], comments: &[Tok]) -> String {
    let mut out = source.as_bytes().to_vec();
    let bodies = toks.iter().filter_map(|t| t.body(source));
    for span in comments.iter().map(|c| c.start..c.end).chain(bodies) {
        for b in &mut out[span] {
            if *b != b'\n' {
                *b = b' ';
            }
        }
    }
    // Spans start and end on ASCII delimiters, except a char literal cut
    // at its 12-byte bound, which can split a multi-byte character; fall
    // back to a lossy conversion rather than failing the whole file.
    String::from_utf8(out).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// A parsed `fae-lint: allow(<rules>, reason = "...")` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// 1-based line the pragma comment sits on.
    pub line: usize,
    /// Rule ids the pragma suppresses.
    pub rules: Vec<String>,
    /// The mandatory human-readable justification.
    pub reason: String,
}

/// A pragma that contained `fae-lint:` but did not parse.
#[derive(Debug, Clone)]
pub struct PragmaError {
    /// 1-based line of the malformed pragma.
    pub line: usize,
    /// What was wrong with it.
    pub message: String,
}

/// The pragmas in `comments`, in file order: well-formed ones, and the
/// malformed ones (reported as `bad-pragma`). Pragmas live in plain
/// `//` comments only — doc comments (`///`, `//!`) and block comments
/// may legitimately *describe* the syntax.
pub fn pragmas(source: &str, comments: &[Tok]) -> (Vec<Pragma>, Vec<PragmaError>) {
    let mut ok = Vec::new();
    let mut errors = Vec::new();
    for c in comments {
        let text = c.text(source);
        let Some(body) = text.strip_prefix("//") else { continue };
        if body.starts_with(['/', '!']) {
            continue;
        }
        match parse_pragma(text, c.line) {
            Some(Ok(p)) => ok.push(p),
            Some(Err(e)) => errors.push(e),
            None => {}
        }
    }
    (ok, errors)
}

/// Parses a pragma out of a line-comment's text, if it claims to be one.
///
/// Returns `None` for ordinary comments, `Some(Ok(_))` for a well-formed
/// pragma and `Some(Err(_))` when the comment says `fae-lint:` but the
/// rest does not match `allow(<rule>[, <rule>...], reason = "...")`.
fn parse_pragma(comment: &str, line: usize) -> Option<Result<Pragma, PragmaError>> {
    let idx = comment.find("fae-lint:")?;
    let rest = comment[idx + "fae-lint:".len()..].trim();
    let err = |message: &str| Some(Err(PragmaError { line, message: message.to_string() }));
    let Some(inner) = rest.strip_prefix("allow(") else {
        return err("expected `allow(<rule>[, <rule>...], reason = \"...\")`");
    };
    let Some(inner) = inner.trim_end().strip_suffix(')') else {
        return err("missing closing `)`");
    };
    // The reason clause is last and its text may contain commas, so split
    // on the `reason` keyword rather than naively on `,`.
    let Some(reason_at) = inner.find("reason") else {
        return err("missing `reason = \"...\"` clause");
    };
    let rule_part = inner[..reason_at].trim().trim_end_matches(',').trim();
    let reason_part = inner[reason_at + "reason".len()..].trim();
    let Some(reason_part) = reason_part.strip_prefix('=') else {
        return err("expected `=` after `reason`");
    };
    let reason_part = reason_part.trim();
    let reason = reason_part.strip_prefix('"').and_then(|r| r.strip_suffix('"'));
    let Some(reason) = reason else {
        return err("reason must be a quoted string");
    };
    if reason.trim().is_empty() {
        return err("reason must not be empty");
    }
    if rule_part.is_empty() {
        return err("at least one rule id is required");
    }
    let rules: Vec<String> = rule_part.split(',').map(|r| r.trim().to_string()).collect();
    if rules.iter().any(|r| r.is_empty() || !r.bytes().all(|b| is_ident(b) || b == b'-')) {
        return err("rule ids must be kebab-case identifiers");
    }
    Some(Ok(Pragma { line, rules, reason: reason.to_string() }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        tokenize(src).toks.iter().map(|t| (t.kind, t.text(src).to_string())).collect()
    }

    fn view(src: &str) -> String {
        let lexed = tokenize(src);
        let code = code_view(src, &lexed.toks, &lexed.comments);
        assert_eq!(code.len(), src.len(), "the code view keeps every offset");
        code
    }

    #[test]
    fn idents_numbers_puncts() {
        let got = kinds("let x = 42;");
        assert_eq!(got[0], (TokKind::Ident, "let".into()));
        assert_eq!(got[1], (TokKind::Ident, "x".into()));
        assert_eq!(got[2], (TokKind::Punct, "=".into()));
        assert_eq!(got[3], (TokKind::Num, "42".into()));
        assert_eq!(got[4], (TokKind::Punct, ";".into()));
    }

    #[test]
    fn comments_vanish_and_lines_advance() {
        let src = "a // HashMap\n/* b\nc */ d";
        let lexed = tokenize(src);
        let t = &lexed.toks;
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].text(src), "a");
        assert_eq!(t[0].line, 1);
        assert_eq!(t[1].text(src), "d");
        assert_eq!(t[1].line, 3);
        let spans: Vec<_> = lexed.comments.iter().map(|c| (c.text(src), c.line)).collect();
        assert_eq!(spans, vec![("// HashMap", 1), ("/* b\nc */", 2)]);
        assert_eq!(view(src), "a           \n    \n     d");

        // String and comment bodies are blanked; code and newlines stay.
        let code = view("let x = \"HashMap\"; // HashMap\nlet y = 1;");
        assert!(!code.contains("HashMap"));
        assert!(code.starts_with("let x = \"       \";"));
        assert!(code.ends_with("\nlet y = 1;"));

        // Block comments nest.
        let code = view("a /* x /* panic!() */ y */ b");
        assert!(!code.contains("panic"));
        assert!(code.starts_with('a') && code.ends_with('b'));

        // Pragmas are read from plain `//` comments: doc and block
        // comments may describe the syntax without being pragmas.
        let src = "// fae-lint: allow(no-panic, reason = \"checked, above, twice\")\nx\n\
                   // fae-lint: allow(wall-clock, ambient-rng, reason = \"bench only\")\n\
                   // fae-lint: allow(no-panic)\n\
                   /// fae-lint: allow(no-panic) documents the syntax\n\
                   /* fae-lint: allow(no-panic) */\n";
        let lexed = tokenize(src);
        let (ok, errors) = pragmas(src, &lexed.comments);
        assert_eq!(ok.len(), 2);
        assert_eq!((ok[0].line, ok[0].rules.clone()), (1, vec!["no-panic".to_string()]));
        assert_eq!(ok[0].reason, "checked, above, twice");
        assert_eq!(ok[1].rules, vec!["wall-clock", "ambient-rng"]);
        assert_eq!(errors.len(), 1, "only the plain `//` malformed pragma is an error");
        assert_eq!(errors[0].line, 4);
    }

    #[test]
    fn strings_are_single_tokens() {
        let src = "f(\"a b\", r#\"c \" d\"#, 'x', '\\n')";
        let t = tokenize(src).toks;
        let texts: Vec<_> = t.iter().map(|t| t.text(src)).collect();
        assert!(texts.contains(&"\"a b\""));
        assert!(texts.contains(&"r#\"c \" d\"#"));
        assert!(texts.contains(&"'x'"));
        assert!(texts.contains(&"'\\n'"));
        assert_eq!(view(src), "f(\"   \", r#\"     \"#, ' ', '  ')");
    }

    #[test]
    fn lifetimes_vs_chars() {
        let src = "fn f<'a>(x: &'a str) { let c = 'y'; }";
        let t = tokenize(src).toks;
        let lifes: Vec<_> =
            t.iter().filter(|t| t.kind == TokKind::Lifetime).map(|t| t.text(src)).collect();
        assert_eq!(lifes, vec!["'a", "'a"]);
        assert!(t.iter().any(|t| t.kind == TokKind::Char && t.text(src) == "'y'"));

        // Raw strings, chars and lifetimes side by side: literal bodies
        // go, lifetimes are code and survive.
        let code = view("let r = r#\"unwrap()\"#; let c = '\\n'; fn f<'a>(x: &'a str) {}");
        assert!(!code.contains("unwrap"));
        assert!(code.contains("fn f<'a>(x: &'a str)"));
    }

    #[test]
    fn floats_and_ranges() {
        let src = "a(1.5, 0..8, x.0)";
        let t = tokenize(src).toks;
        let nums: Vec<_> =
            t.iter().filter(|t| t.kind == TokKind::Num).map(|t| t.text(src)).collect();
        assert_eq!(nums, vec!["1.5", "0", "8", "0"]);
    }

    #[test]
    fn raw_ident_prefix_is_not_a_raw_string() {
        // `prev_ident` guard: `for r in ..` must not treat `r` + later
        // quote as a raw-string opener.
        let src = "for r in v { g(r, \"s\") }";
        let t = tokenize(src).toks;
        assert!(t.iter().any(|t| t.kind == TokKind::Str && t.text(src) == "\"s\""));
    }

    #[test]
    fn byte_raw_strings_are_raw() {
        // A `\` before the closing quote is not an escape in a raw
        // string, so the code after `br"C:\"` stays code.
        let src = "const P: &[u8] = br\"C:\\\"; x.unwrap(); br#\"a\"b\"#";
        let t = tokenize(src).toks;
        let raws: Vec<_> =
            t.iter().filter(|t| t.kind == TokKind::RawStr).map(|t| t.text(src)).collect();
        assert_eq!(raws, vec!["br\"C:\\\"", "br#\"a\"b\"#"]);
        assert_eq!(view(src), "const P: &[u8] = br\"   \"; x.unwrap(); br#\"   \"#");
    }
}
