//! Property tests for the one lexer (`fae_lint::tokens`): on arbitrary
//! interleavings of the tricky fragments below, the token stream, the
//! comment spans and the code view the line rules read must describe
//! the same file.
//!
//! * tokens and comments are ordered and never overlap;
//! * a token's line is one plus the newlines before it;
//! * every non-whitespace byte is inside a token or a comment;
//! * the code view has the source's length and newlines, and differs
//!   from the source exactly on comment bytes and literal bodies, which
//!   it blanks to spaces.

use proptest::prelude::*;

use fae_lint::tokens::{code_view, pragmas, tokenize};

/// Source fragments chosen to stress every scanner rule: nested block
/// comments, escapes inside strings, raw-string hash counts, byte
/// strings, char-vs-lifetime ticks, and comment markers nested inside
/// literals (and vice versa).
const FRAGMENTS: &[&str] = &[
    "fn f() { g(); }",
    "let x = 1;",
    "0x1f ",
    "1.5e3 ",
    "ident_2 ",
    "// line comment\n",
    "/// doc comment\n",
    "//! inner doc\n",
    "// fae-lint: allow(no-panic, reason = \"test\")\n",
    "/* block */",
    "/* nested /* deeper */ still out */",
    "/* unterminated-newline \n */",
    "\"plain string\"",
    "\"has // not a comment\"",
    "\"has /* not a comment\"",
    "\"escaped \\\" quote\"",
    "\"trailing backslash \\\\\"",
    "b\"byte string\"",
    "r\"raw string\"",
    "r#\"raw with \" inside\"#",
    "r##\"raw with \"# inside\"##",
    "br\"C:\\\"",
    "br#\"a\"b\"#",
    "'a'",
    "'\\n'",
    "'\\''",
    "'x' ",
    "'static ",
    "'a, 'b>",
    "<'a>",
    "\n",
    "\n\n",
    "  \t ",
    "x.y::z",
    "=> -> ..",
];

/// Picks one fragment (the vendored proptest shim has no `prop_oneof`,
/// so this indexes the table instead).
fn fragment() -> impl Strategy<Value = &'static str> {
    (0usize..FRAGMENTS.len()).prop_map(|i| FRAGMENTS[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn tokens_comments_and_code_view_agree(frags in prop::collection::vec(fragment(), 0..40)) {
        let source: String = frags.concat();
        let src = source.as_bytes();
        let lexed = tokenize(&source);

        // Tokens and comments, merged in file order, tile part of the
        // file without overlap.
        let mut spans: Vec<_> = lexed.toks.iter().chain(&lexed.comments).collect();
        spans.sort_by_key(|t| t.start);
        let mut covered = vec![false; src.len()];
        let mut prev_end = 0;
        for t in &spans {
            prop_assert!(prev_end <= t.start && t.start < t.end && t.end <= src.len(),
                "span {}..{} overlaps or is empty (previous ended at {})", t.start, t.end, prev_end);
            prev_end = t.end;
            covered[t.start..t.end].fill(true);
            let line = 1 + src[..t.start].iter().filter(|&&b| b == b'\n').count();
            prop_assert_eq!(t.line, line, "span at byte {} line mismatch", t.start);
        }
        for (i, &b) in src.iter().enumerate() {
            prop_assert!(b.is_ascii_whitespace() || covered[i],
                "byte {} ({:?}) is in no token or comment", i, b as char);
        }

        // The code view blanks exactly comment bytes and literal bodies.
        let mut blank = vec![false; src.len()];
        for c in &lexed.comments {
            blank[c.start..c.end].fill(true);
        }
        for t in &lexed.toks {
            if let Some(body) = t.body(&source) {
                prop_assert!(t.start < body.start && body.end <= t.end,
                    "literal at byte {} keeps no opening delimiter", t.start);
                blank[body].fill(true);
            }
        }
        let code = code_view(&source, &lexed.toks, &lexed.comments);
        prop_assert_eq!(code.len(), src.len());
        for (i, (&c, &s)) in code.as_bytes().iter().zip(src).enumerate() {
            let want = if blank[i] && s != b'\n' { b' ' } else { s };
            prop_assert_eq!(c, want, "code view byte {} of {:?}", i, source);
        }
    }

    /// Pragma line numbers are real lines of the file.
    #[test]
    fn pragma_lines_are_real_lines(frags in prop::collection::vec(fragment(), 0..30)) {
        let source: String = frags.concat();
        let lexed = tokenize(&source);
        let (ok, errors) = pragmas(&source, &lexed.comments);
        let total_lines = 1 + source.bytes().filter(|&b| b == b'\n').count();
        for line in ok.iter().map(|p| p.line).chain(errors.iter().map(|e| e.line)) {
            prop_assert!(line >= 1 && line <= total_lines);
        }
    }
}
