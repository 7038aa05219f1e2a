//! `fae-lint` — the workspace invariant checker.
//!
//! Walks every first-party crate's `src/` tree and reports violations of
//! the project contracts that keep same-seed runs byte-identical and
//! library code panic-free:
//!
//! * **determinism** (`wall-clock`, `ambient-rng`, `hash-container`,
//!   `timeline-phase`) in the five determinism-critical crates
//!   (`fae-core`, `fae-embed`, `fae-models`, `fae-serve`, `fae-sysmodel`);
//! * **no-panic** (`no-panic`) in library code of every first-party
//!   crate (binary targets are exempt);
//! * **float-fuse** (`float-fuse`) in library code of every first-party
//!   crate: 8-lane f32 unroll sites (`chunks_exact(8)`) must pragma
//!   their bit-identity contract, and the pragma's reason must cite
//!   `DESIGN.md §14` (else it is a `bad-pragma`);
//! * **net-deadline** (`net-deadline`) in the networking crate
//!   (`fae-net`): blocking socket I/O must carry an explicit deadline;
//! * **metric-name** (`metric-name`) in every first-party crate except
//!   fae-lint itself: metric names at telemetry emission sites must be
//!   stable lowercase dotted literals, so the Prometheus exposition's
//!   `fae_*` mapping stays collision-free.
//!
//! Violations are suppressed site-by-site with an explicit pragma:
//!
//! ```text
//! // fae-lint: allow(no-panic, reason = "mutex poisoning is unreachable: no panics under lock")
//! ```
//!
//! A pragma covers its own line and the next line. Pragmas that do not
//! parse (`bad-pragma`) or suppress nothing (`unused-pragma`) are
//! themselves violations, so stale annotations cannot accumulate.
//!
//! Items gated by `#[test]`, `#[cfg(test)]` or `#[cfg(all(test, ..))]`
//! are exempt from every rule — tests may time things, hash things and
//! unwrap freely. `cfg(not(test))` and `cfg(any(test, ..))` gate live
//! code and are linted.
//!
//! Each file is parsed once ([`parse`]) and every rule reads the result:
//!
//! * [`tokens`] — the one lexer: code tokens, comment spans, the code
//!   view the line rules match on, and pragmas;
//! * [`tree`] — the token tree, item extraction and test regions;
//! * [`rules`] — the rule table and the line matchers;
//! * [`flow`] — the per-file determinism-taint analysis;
//! * [`passes`] — the cross-file passes (phase-balance, lock-order,
//!   wire-compat).
//!
//! Run it with `cargo run -p fae-lint` from the workspace root; see
//! DESIGN.md §11 for the rule table and the documented lexical gaps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod flow;
pub mod passes;
pub mod rules;
pub mod tokens;
pub mod tree;

pub use rules::{RuleInfo, Scope, RULES};

/// The determinism-critical crates: rules in [`Scope::Deterministic`]
/// apply only here.
pub const DET_CRATES: &[&str] =
    &["fae-core", "fae-embed", "fae-models", "fae-serve", "fae-sysmodel"];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Path as walked (workspace-relative when walking a workspace).
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule id (one of [`RULES`], or `bad-pragma`/`unused-pragma`).
    pub rule: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file.display(), self.line, self.rule, self.message)
    }
}

/// I/O failure while walking or reading source files.
#[derive(Debug)]
pub struct WalkError {
    /// The path that failed.
    pub path: PathBuf,
    /// The underlying error.
    pub source: io::Error,
}

impl fmt::Display for WalkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for WalkError {}

/// How a single file should be linted.
#[derive(Debug, Clone, Copy)]
pub struct FileClass {
    /// Apply the [`Scope::Deterministic`] rules.
    pub deterministic: bool,
    /// The file belongs to a binary target (`src/bin/`, `src/main.rs`):
    /// the no-panic rule does not apply.
    pub binary: bool,
    /// Apply the [`Scope::Net`] rules (the fae-net crate: blocking
    /// socket I/O must carry a deadline).
    pub net: bool,
    /// Apply the [`Scope::Metrics`] rule (every first-party crate
    /// except fae-lint itself, whose matchers quote the trigger
    /// tokens): metric names at emission sites must be stable
    /// lowercase dotted literals.
    pub metrics: bool,
}

/// One rule hit before suppression. `offset` is the absolute byte
/// offset of the match in the file, so `#[cfg(test)]` regions apply
/// uniformly to line-rule matches, per-file flow findings, and
/// workspace pass findings alike.
#[derive(Debug, Clone)]
struct Candidate {
    line: usize,
    offset: usize,
    rule: String,
    message: String,
}

/// Tokenizes and tree-builds one file. This is the only place a file is
/// parsed: the line rules, the flow analysis, the workspace passes,
/// pragmas and test regions all read the returned [`passes::PassFile`].
pub fn parse(rel: PathBuf, source: &str, class: FileClass) -> passes::PassFile<'_> {
    let view = tree::TreeView::new(source);
    let items = tree::items(&view);
    passes::PassFile { rel, view, items, class }
}

/// The per-file rule hits: line rules over the code view plus (for
/// determinism-scope files) the flow-aware determinism-taint pass.
fn file_candidates(file: &passes::PassFile<'_>) -> Vec<Candidate> {
    let (view, class) = (&file.view, file.class);
    let code = tokens::code_view(view.source, &view.toks, &view.comments);
    let mut cands = Vec::new();
    let mut offset = 0usize;
    // The code view keeps every byte offset, so code and raw lines pair
    // up one-to-one; the metric-name rule needs both (the code line to
    // locate real call sites, the raw line to read the literal's body,
    // which the code view blanks).
    for (idx, (line, raw_line)) in code.lines().zip(view.source.lines()).enumerate() {
        let line_no = idx + 1;
        let mut matches = Vec::new();
        if class.deterministic {
            rules::deterministic_matches(line, &mut matches);
        }
        if !class.binary {
            rules::no_panic_matches(line, &mut matches);
            rules::float_fuse_matches(line, &mut matches);
        }
        if class.net {
            rules::net_deadline_matches(line, &mut matches);
        }
        if class.metrics {
            rules::metric_name_matches(line, raw_line, &mut matches);
        }
        for m in matches {
            cands.push(Candidate {
                line: line_no,
                offset: offset + m.col,
                rule: m.rule.to_string(),
                message: m.message,
            });
        }
        offset += line.len() + 1;
    }
    if class.deterministic {
        for d in flow::det_taint_file(view, &file.items) {
            cands.push(Candidate {
                line: d.line,
                offset: d.offset,
                rule: d.rule.to_string(),
                message: d.message,
            });
        }
    }
    cands
}

/// Lints one parsed file: its own rule hits plus the workspace-pass
/// findings routed to it (`extra`), through pragma and test-region
/// suppression, followed by the pragma-hygiene diagnostics
/// (`bad-pragma`, `unused-pragma`).
fn lint_file(file: &passes::PassFile<'_>, extra: Vec<Candidate>) -> Vec<Diagnostic> {
    let mut cands = file_candidates(file);
    cands.extend(extra);
    let diag = |line: usize, rule: &str, message: String| Diagnostic {
        file: file.rel.clone(),
        line,
        rule: rule.to_string(),
        message,
    };
    let source = file.view.source;
    let (pragmas, errors) = tokens::pragmas(source, &file.view.comments);
    let regions = file.view.test_regions();
    let mut diags = Vec::new();

    for e in errors {
        diags.push(diag(e.line, "bad-pragma", e.message));
    }
    for p in &pragmas {
        for r in &p.rules {
            if !rules::is_known_rule(r) {
                diags.push(diag(p.line, "bad-pragma", format!("unknown rule `{r}` in pragma")));
            } else if r == "float-fuse" && !p.reason.contains("DESIGN.md §14") {
                // The unroll carve-out is a documented numeric contract;
                // every suppression must point readers at its anchor.
                let message = "float-fuse pragma reason must cite the bit-identity \
                               contract anchor `DESIGN.md §14`";
                diags.push(diag(p.line, "bad-pragma", message.to_string()));
            }
        }
    }

    let mut used_pragmas: BTreeSet<usize> = BTreeSet::new();
    let mut seen: BTreeSet<(usize, String)> = BTreeSet::new();
    for c in cands {
        if regions.contains(c.offset) {
            continue;
        }
        // A pragma on this line or the line above suppresses the rule.
        let allowed = pragmas.iter().enumerate().find(|(_, p)| {
            (p.line == c.line || p.line + 1 == c.line) && p.rules.iter().any(|r| r == &c.rule)
        });
        if let Some((pi, _)) = allowed {
            used_pragmas.insert(pi);
            continue;
        }
        // Line-rule and flow findings can coincide (same line, same
        // rule); report each (line, rule) pair once.
        if !seen.insert((c.line, c.rule.clone())) {
            continue;
        }
        diags.push(diag(c.line, &c.rule, c.message));
    }

    for (pi, p) in pragmas.iter().enumerate() {
        let well_formed = p.rules.iter().all(|r| rules::is_known_rule(r));
        if well_formed
            && !used_pragmas.contains(&pi)
            && !regions.contains(line_offset(source, p.line))
        {
            let message =
                format!("pragma allows [{}] but suppresses nothing; remove it", p.rules.join(", "));
            diags.push(diag(p.line, "unused-pragma", message));
        }
    }

    diags.sort();
    diags
}

/// Lints one file's source text. `label` is used in diagnostics.
pub fn lint_source(label: &Path, source: &str, class: FileClass) -> Vec<Diagnostic> {
    lint_file(&parse(label.to_path_buf(), source, class), Vec::new())
}

/// Byte offset of the start of 1-based `line` in `source`.
fn line_offset(source: &str, line: usize) -> usize {
    let mut off = 0usize;
    for (idx, l) in source.lines().enumerate() {
        if idx + 1 == line {
            return off;
        }
        off += l.len() + 1;
    }
    off
}

/// Classifies a workspace-relative `.rs` path, or `None` when the file
/// is outside the linted set (tests/, benches/, examples/, vendor/,
/// the fixture tree, generated code under target/).
pub fn classify(rel: &Path) -> Option<FileClass> {
    let mut comps = rel.components().map(|c| c.as_os_str().to_string_lossy().into_owned());
    let first = comps.next()?;
    let crate_name = if first == "src" {
        "fae".to_string()
    } else if first == "crates" {
        let name = comps.next()?;
        let src = comps.next()?;
        if src != "src" {
            return None;
        }
        name
    } else {
        return None;
    };
    if crate_name == "fae-lint" && rel.components().any(|c| c.as_os_str() == "fixtures") {
        return None;
    }
    let binary = rel.components().any(|c| c.as_os_str() == "bin")
        || rel.file_name().is_some_and(|f| f == "main.rs");
    Some(FileClass {
        deterministic: DET_CRATES.contains(&crate_name.as_str()),
        binary,
        net: crate_name == "fae-net",
        metrics: crate_name != "fae-lint",
    })
}

/// Recursively collects `.rs` files under `dir`, sorted, so diagnostics
/// come out in a stable order on every platform.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), WalkError> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|source| WalkError { path: dir.to_path_buf(), source })?
        .map(|e| e.map(|e| e.path()))
        .collect::<Result<_, _>>()
        .map_err(|source| WalkError { path: dir.to_path_buf(), source })?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

impl From<passes::PassDiag> for Candidate {
    fn from(d: passes::PassDiag) -> Self {
        Candidate { line: d.line, offset: d.offset, rule: d.rule.to_string(), message: d.message }
    }
}

/// Routes workspace-pass findings into per-file candidate lists, keyed
/// by the path the pass saw.
fn route_pass_diags(
    pass_diags: Vec<passes::PassDiag>,
    extra: &mut BTreeMap<PathBuf, Vec<Candidate>>,
) {
    for d in pass_diags {
        extra.entry(d.file.clone()).or_default().push(Candidate::from(d));
    }
}

/// Lints a set of already-read files: each is parsed once, the
/// cross-file passes (phase-balance, lock-order, and — when `design`
/// text is supplied — wire-compat on the wire file) run over the parsed
/// set, then every file's own rules, with every finding funneled
/// through the same pragma/test-region suppression.
fn lint_file_set(
    files: Vec<(PathBuf, String, FileClass)>,
    design: Option<&str>,
) -> Vec<Diagnostic> {
    let parsed: Vec<passes::PassFile<'_>> =
        files.iter().map(|(rel, source, class)| parse(rel.clone(), source, *class)).collect();
    let mut extra = BTreeMap::new();
    route_pass_diags(passes::phase_balance::run(&parsed), &mut extra);
    route_pass_diags(passes::lock_order::run(&parsed), &mut extra);
    if let Some(design) = design {
        if let Some(wire) =
            parsed.iter().find(|f| f.class.net && f.rel.file_name().is_some_and(|n| n == "wire.rs"))
        {
            route_pass_diags(passes::wire_compat::run(wire, design), &mut extra);
        }
    }

    let mut diags = Vec::new();
    for file in &parsed {
        diags.extend(lint_file(file, extra.remove(&file.rel).unwrap_or_default()));
    }
    diags.sort();
    diags
}

/// Lints a whole workspace rooted at `root`: the root package's `src/`
/// plus every `crates/*/src/`, per-file rules plus the cross-file
/// passes (wire-compat reads the tag ranges out of `root/DESIGN.md`).
/// Returns sorted diagnostics.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, WalkError> {
    let mut files = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        walk(&root_src, &mut files)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut members: Vec<PathBuf> = fs::read_dir(&crates)
            .map_err(|source| WalkError { path: crates.clone(), source })?
            .map(|e| e.map(|e| e.path()))
            .collect::<Result<_, _>>()
            .map_err(|source| WalkError { path: crates.clone(), source })?;
        members.sort();
        for member in members {
            let src = member.join("src");
            if src.is_dir() {
                walk(&src, &mut files)?;
            }
        }
    }

    let mut set = Vec::new();
    for file in files {
        let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
        let Some(class) = classify(&rel) else { continue };
        let source =
            fs::read_to_string(&file).map_err(|source| WalkError { path: file.clone(), source })?;
        set.push((rel, source, class));
    }
    let design = fs::read_to_string(root.join("DESIGN.md")).ok();
    Ok(lint_file_set(set, design.as_deref()))
}

/// Lints every `.rs` file under `dir` with a fixed [`FileClass`] —
/// used for the seeded-violation fixture trees, where the files are not
/// workspace members. The cross-file passes (phase-balance, lock-order)
/// run over the tree too, so fixture trees can seed their violations;
/// wire-compat needs a DESIGN.md and is exercised via [`lint_wire`].
pub fn lint_tree(dir: &Path, class: FileClass) -> Result<Vec<Diagnostic>, WalkError> {
    let mut files = Vec::new();
    walk(dir, &mut files)?;
    let mut set = Vec::new();
    for file in files {
        let source =
            fs::read_to_string(&file).map_err(|source| WalkError { path: file.clone(), source })?;
        set.push((file, source, class));
    }
    Ok(lint_file_set(set, None))
}

/// Runs the wire-compat pass on a fixture directory holding `wire.rs`
/// (the message module) and `design.md` (the declared tag ranges).
/// Pragmas and test regions in `wire.rs` apply as usual.
pub fn lint_wire(dir: &Path) -> Result<Vec<Diagnostic>, WalkError> {
    let wire_path = dir.join("wire.rs");
    let design_path = dir.join("design.md");
    let source = fs::read_to_string(&wire_path)
        .map_err(|source| WalkError { path: wire_path.clone(), source })?;
    let design = fs::read_to_string(&design_path)
        .map_err(|source| WalkError { path: design_path.clone(), source })?;
    let class = FileClass { deterministic: false, binary: false, net: true, metrics: false };
    let wire = parse(wire_path, &source, class);
    let extra = passes::wire_compat::run(&wire, &design).into_iter().map(Candidate::from).collect();
    Ok(lint_file(&wire, extra))
}

#[cfg(test)]
mod tests {
    use super::*;

    const LIB: FileClass =
        FileClass { deterministic: true, binary: false, net: false, metrics: true };

    #[test]
    fn clean_source_is_clean() {
        let d =
            lint_source(Path::new("x.rs"), "pub fn f(x: Option<u8>) -> u8 { x.unwrap_or(0) }", LIB);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn pragma_suppresses_and_is_used() {
        let src = "// fae-lint: allow(no-panic, reason = \"len checked above\")\nlet x = v.first().unwrap();\n";
        let d = lint_source(Path::new("x.rs"), src, LIB);
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn unused_pragma_fires() {
        let src = "// fae-lint: allow(no-panic, reason = \"nothing here\")\nlet x = 1;\n";
        let d = lint_source(Path::new("x.rs"), src, LIB);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unused-pragma");
    }

    #[test]
    fn test_code_is_exempt() {
        let exempt = [
            "#[cfg(test)]\nmod tests {\n use std::time::Instant;\n fn t() { x.unwrap(); }\n}\n",
            "#[test]\n#[should_panic]\nfn t() { x.unwrap() }\n",
            "#[cfg(all(test, unix))]\nmod m { fn t() { x.unwrap() } }\n",
            "#[cfg(test)]\nfn t(a: [u8; 2]) -> u8 { a.first().unwrap() }\n",
        ];
        for src in exempt {
            let d = lint_source(Path::new("x.rs"), src, LIB);
            assert!(d.is_empty(), "{src:?}: {d:?}");
        }
        // Gates that do not make an item test-only leave it live: a
        // `testing` feature, a negated or optional `test`, `cfg_attr`.
        // Code after a test region is live again.
        let live = [
            "#[cfg(feature = \"testing\")]\nmod m { fn t() { x.unwrap() } }\n",
            "#[cfg(not(test))]\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            "#[cfg(any(test, feature = \"x\"))]\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
            "#[cfg_attr(test, derive(Debug))]\npub struct S { f: u8 }\nfn g() { x.unwrap() }\n",
            "#[cfg(test)]\nmod tests {}\npub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n",
        ];
        for src in live {
            let d = lint_source(Path::new("x.rs"), src, LIB);
            assert_eq!(d.len(), 1, "{src:?}: {d:?}");
            assert_eq!(d[0].rule, "no-panic");
        }
    }

    #[test]
    fn binary_skips_no_panic_keeps_determinism() {
        let bin = FileClass { deterministic: true, binary: true, net: false, metrics: true };
        // The unwrap is exempt (binary target); the clock read flowing
        // into the public return is not.
        let src = "pub fn run() -> u64 {\n    args.next().unwrap();\n    let t = Instant::now();\n    t.elapsed().as_nanos() as u64\n}\n";
        let d = lint_source(Path::new("bin.rs"), src, bin);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "wall-clock");
        assert_eq!(d[0].line, 3, "reported at the clock read, not the return");
    }

    #[test]
    fn net_rule_applies_only_with_the_net_classification() {
        let net = FileClass { deterministic: false, binary: false, net: true, metrics: false };
        let src = "fn f(s: &mut TcpStream) { s.read_exact(&mut b).ok(); }\n";
        let d = lint_source(Path::new("x.rs"), src, net);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "net-deadline");
        assert!(lint_source(Path::new("x.rs"), src, LIB).is_empty(), "scope is fae-net only");
    }

    #[test]
    fn metric_name_rule_applies_only_with_the_metrics_classification() {
        let src = "pub fn f(t: &T) { t.counter_add(\"Bad Name\", 1); }\n";
        let d = lint_source(Path::new("x.rs"), src, LIB);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "metric-name");
        let unmetered = FileClass { metrics: false, ..LIB };
        assert!(
            lint_source(Path::new("x.rs"), src, unmetered).is_empty(),
            "metric-name must stay inside its scope"
        );
    }

    #[test]
    fn float_fuse_pragma_must_cite_the_design_anchor() {
        // A citing pragma suppresses the unroll site cleanly.
        let good = "// fae-lint: allow(float-fuse, reason = \"elementwise; DESIGN.md §14\")\nlet mut d = dst.chunks_exact_mut(8);\n";
        assert!(lint_source(Path::new("x.rs"), good, LIB).is_empty());
        // A pragma without the citation is itself a violation (and the
        // site stays suppressed, so exactly one diagnostic comes out).
        let bad = "// fae-lint: allow(float-fuse, reason = \"it is fine\")\nlet mut d = dst.chunks_exact_mut(8);\n";
        let d = lint_source(Path::new("x.rs"), bad, LIB);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "bad-pragma");
        assert!(d[0].message.contains("DESIGN.md §14"));
        // A naked unroll site fires the rule itself.
        let naked = "let mut d = dst.chunks_exact_mut(8);\n";
        let d = lint_source(Path::new("x.rs"), naked, LIB);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "float-fuse");
        // Binary targets are exempt (Scope::AllLibs, like no-panic).
        let bin = FileClass { binary: true, ..LIB };
        assert!(lint_source(Path::new("bin.rs"), naked, bin).is_empty());
    }

    #[test]
    fn classify_paths() {
        assert!(classify(Path::new("crates/fae-core/src/trainer.rs")).is_some_and(|c| c
            .deterministic
            && !c.binary
            && !c.net
            && c.metrics));
        assert!(classify(Path::new("crates/fae-telemetry/src/lib.rs"))
            .is_some_and(|c| !c.deterministic && !c.binary && c.metrics));
        assert!(
            classify(Path::new("crates/fae-lint/src/rules.rs")).is_some_and(|c| !c.metrics),
            "fae-lint's own matchers quote the trigger tokens; exempt"
        );
        assert!(classify(Path::new("crates/fae-net/src/deadline.rs"))
            .is_some_and(|c| c.net && !c.deterministic && !c.binary));
        assert!(classify(Path::new("src/bin/fae.rs")).is_some_and(|c| c.binary));
        assert!(classify(Path::new("src/main.rs")).is_some_and(|c| c.binary));
        assert!(classify(Path::new("crates/fae-core/tests/t.rs")).is_none());
        assert!(classify(Path::new("crates/fae-lint/fixtures/violations/src/lib.rs")).is_none());
        assert!(classify(Path::new("vendor/rand/src/lib.rs")).is_none());
    }
}
