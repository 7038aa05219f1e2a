//! Proves fae-lint fails when it should: the seeded-violation fixture
//! tree must produce exactly the pinned diagnostics, and the suppressed/
//! exempt fixture must come back clean. CI additionally runs the binary
//! over the same trees and asserts the exit codes (see ci.yml).

use std::path::{Path, PathBuf};

use fae_lint::tree::TreeView;
use fae_lint::{lint_tree, FileClass};

const STRICT: FileClass =
    FileClass { deterministic: true, binary: false, net: false, metrics: false };
const NET: FileClass = FileClass { deterministic: false, binary: false, net: true, metrics: false };
const METRICS: FileClass =
    FileClass { deterministic: false, binary: false, net: false, metrics: true };

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name)
}

#[test]
fn seeded_violations_are_all_caught() {
    let diags = lint_tree(&fixture("violations"), STRICT).expect("fixture tree readable");
    let got: Vec<(String, usize, String)> = diags
        .iter()
        .map(|d| {
            let file = d.file.file_name().expect("file name").to_string_lossy().into_owned();
            (file, d.line, d.rule.clone())
        })
        .collect();
    let want: &[(&str, usize, &str)] = &[
        // The flow-aware pass reports the *source line* of each flow
        // that escapes (10: Instant::now into a pub return; 15:
        // thread_rng into a pub return). `use` lines and the pure
        // construction/lookup of the HashMap in `tally` no longer fire
        // — returning a map is fine, iterating it would not be.
        ("determinism.rs", 10, "wall-clock"),
        ("determinism.rs", 15, "ambient-rng"),
        ("determinism.rs", 30, "timeline-phase"),
        ("float_fuse.rs", 5, "float-fuse"),
        ("float_fuse.rs", 11, "bad-pragma"),
        ("panics.rs", 5, "no-panic"),
        ("panics.rs", 10, "no-panic"),
        ("panics.rs", 15, "no-panic"),
        ("panics.rs", 20, "no-panic"),
        ("panics.rs", 25, "no-panic"),
        ("panics.rs", 31, "no-panic"),
        ("panics.rs", 38, "no-panic"),
        ("pragmas.rs", 5, "unused-pragma"),
        ("pragmas.rs", 10, "bad-pragma"),
        ("pragmas.rs", 15, "bad-pragma"),
        ("pragmas.rs", 16, "no-panic"),
    ];
    let want: Vec<(String, usize, String)> =
        want.iter().map(|(f, l, r)| (f.to_string(), *l, r.to_string())).collect();
    assert_eq!(got, want, "fixture diagnostics drifted");
}

#[test]
fn suppressed_and_exempt_code_is_clean() {
    let diags = lint_tree(&fixture("clean"), STRICT).expect("fixture tree readable");
    assert!(diags.is_empty(), "clean fixture reported: {diags:?}");
}

#[test]
fn every_diagnostic_renders_file_line_rule() {
    let diags = lint_tree(&fixture("violations"), STRICT).expect("fixture tree readable");
    assert!(!diags.is_empty());
    for d in &diags {
        let s = d.to_string();
        assert!(s.contains(&format!(":{}: [{}]", d.line, d.rule)), "bad rendering: {s}");
    }
}

#[test]
fn binary_classification_exempts_no_panic_only() {
    let bin = FileClass { deterministic: true, binary: true, net: false, metrics: false };
    let diags = lint_tree(&fixture("violations"), bin).expect("fixture tree readable");
    assert!(diags.iter().all(|d| d.rule != "no-panic"), "no-panic must not fire on binaries");
    assert!(
        diags.iter().any(|d| d.rule == "wall-clock"),
        "determinism rules must still fire on binaries"
    );
}

#[test]
fn net_fixture_catches_blocking_io() {
    let diags = lint_tree(&fixture("net"), NET).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[(usize, &str)] = &[
        (6, "net-deadline"),  // naked read_exact
        (10, "net-deadline"), // naked write_all
        (14, "net-deadline"), // read_to_end
        (18, "net-deadline"), // read_until
        (22, "net-deadline"), // bare TcpStream::connect
        (26, "net-deadline"), // set_read_timeout(None)
        (27, "net-deadline"), // set_write_timeout(None)
    ];
    let want: Vec<(usize, String)> = want.iter().map(|(l, r)| (*l, r.to_string())).collect();
    assert_eq!(got, want, "net fixture diagnostics drifted");
}

#[test]
fn net_fixture_is_silent_outside_the_net_scope() {
    // The same tree under a non-net classification must fire no
    // net-deadline diagnostics; the only residue is the now-pointless
    // pragma, which unused-pragma rightly calls out.
    let diags = lint_tree(&fixture("net"), STRICT).expect("fixture tree readable");
    assert!(diags.iter().all(|d| d.rule != "net-deadline"), "scope leak: {diags:?}");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    assert_eq!(got, vec![(37, "unused-pragma".to_string())], "unexpected residue");
}

#[test]
fn metrics_fixture_catches_loose_names() {
    let diags = lint_tree(&fixture("metrics"), METRICS).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[(usize, &str)] = &[
        (5, "metric-name"),  // uppercase
        (7, "metric-name"),  // spaces
        (9, "metric-name"),  // dashes
        (11, "metric-name"), // doubled separator
    ];
    let want: Vec<(usize, String)> = want.iter().map(|(l, r)| (*l, r.to_string())).collect();
    assert_eq!(got, want, "metrics fixture diagnostics drifted");
}

#[test]
fn metrics_fixture_is_silent_outside_the_metrics_scope() {
    // Under a non-metrics classification the only residue is the
    // now-pointless pragma, which unused-pragma rightly calls out.
    let diags = lint_tree(&fixture("metrics"), STRICT).expect("fixture tree readable");
    assert!(diags.iter().all(|d| d.rule != "metric-name"), "scope leak: {diags:?}");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    assert_eq!(got, vec![(17, "unused-pragma".to_string())], "unexpected residue");
}

#[test]
fn taint_fixture_pins() {
    let diags = lint_tree(&fixture("taint"), STRICT).expect("fixture tree readable");
    let got: Vec<(String, usize, String)> = diags
        .iter()
        .map(|d| {
            let file = d.file.file_name().expect("file name").to_string_lossy().into_owned();
            (file, d.line, d.rule.clone())
        })
        .collect();
    // clean.rs contributes nothing; every violations.rs finding lands
    // on the *source* line of the flow.
    let want: &[(&str, usize, &str)] = &[
        ("violations.rs", 9, "wall-clock"), // Instant::now into pub return
        ("violations.rs", 16, "hash-container"), // keys() collected, returned
        ("violations.rs", 22, "hash-container"), // ... via a renamed import
        ("violations.rs", 33, "ambient-rng"), // thread_rng into self.seed
        ("violations.rs", 38, "wall-clock"), // clock taints an if header
        ("violations.rs", 46, "wall-clock"), // source inside a private helper
        ("violations.rs", 55, "det-taint"), // pointer address escapes
    ];
    let want: Vec<(String, usize, String)> =
        want.iter().map(|(f, l, r)| (f.to_string(), *l, r.to_string())).collect();
    assert_eq!(got, want, "taint fixture diagnostics drifted");
}

#[test]
fn phase_fixture_pins() {
    let diags = lint_tree(&fixture("phases/bad"), STRICT).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[usize] = &[
        8,  // Drain missing from ALL (at the variant declaration)
        13, // ALL declares length 2, enum has 3
        16, // index maps Work outside 0..3
        25, // label match does not cover Drain
        35, // Timeline.seconds is [f64; 2]
        39, // Phase::Cooldown is not a declared variant
    ];
    let want: Vec<(usize, String)> =
        want.iter().map(|l| (*l, "phase-balance".to_string())).collect();
    assert_eq!(got, want, "phase fixture diagnostics drifted");

    let clean = lint_tree(&fixture("phases/clean"), STRICT).expect("fixture tree readable");
    assert!(clean.is_empty(), "clean phase fixture reported: {clean:?}");
}

#[test]
fn lock_fixture_pins() {
    let diags = lint_tree(&fixture("locks/bad"), STRICT).expect("fixture tree readable");
    let got: Vec<(usize, String)> = diags.iter().map(|d| (d.line, d.rule.clone())).collect();
    let want: &[usize] = &[
        13, // right acquired while holding left (cycle edge)
        19, // left acquired while holding right (cycle edge)
        25, // left re-acquired while held (self-deadlock)
    ];
    let want: Vec<(usize, String)> = want.iter().map(|l| (*l, "lock-order".to_string())).collect();
    assert_eq!(got, want, "lock fixture diagnostics drifted");

    let clean = lint_tree(&fixture("locks/clean"), STRICT).expect("fixture tree readable");
    assert!(clean.is_empty(), "clean lock fixture reported: {clean:?}");
}

#[test]
fn wire_fixture_pins() {
    // Pre-suppression pass output, so findings sharing a line stay
    // visible individually.
    let dir = fixture("wire/bad");
    let source = std::fs::read_to_string(dir.join("wire.rs")).expect("wire fixture readable");
    let design = std::fs::read_to_string(dir.join("design.md")).expect("design fixture readable");
    let wire = fae_lint::parse(PathBuf::from("wire.rs"), &source, NET);
    let mut got: Vec<(usize, String)> = fae_lint::passes::wire_compat::run(&wire, &design)
        .into_iter()
        .map(|d| (d.line, d.message))
        .collect();
    got.sort();
    let want: &[(usize, &str)] = &[
        (6, "ranges `core` (0-4) and `aux` (4-6) overlap"),
        (6, "decode accepts undeclared tag 3"),
        (6, "tag 1 is shared by variants Data, Poll"),
        (8, "tag 1 encodes `Data` but decodes to `Poll`"),
        (10, "tag 7 (`Stats`) falls outside every declared wire-tags range"),
        (10, "never decoded"),
        (10, "missing from `name`"),
    ];
    assert_eq!(got.len(), want.len(), "wire fixture count drifted: {got:#?}");
    for ((gl, gm), (wl, wm)) in got.iter().zip(want) {
        assert_eq!(gl, wl, "wire finding moved: {gm}");
        assert!(gm.contains(wm), "wire finding drifted: got `{gm}`, want `{wm}`");
    }

    // The post-suppression entry point used by the CLI must fail on
    // the bad pair and accept the clean pair.
    let bad = fae_lint::lint_wire(&dir).expect("bad wire fixture readable");
    assert!(!bad.is_empty());
    assert!(bad.iter().all(|d| d.rule == "wire-compat"));
    let clean = fae_lint::lint_wire(&fixture("wire/clean")).expect("clean wire fixture readable");
    assert!(clean.is_empty(), "clean wire fixture reported: {clean:?}");
}

#[test]
fn flow_analysis_retires_legacy_lexical_pragmas() {
    // The retired mention-based rule fired on every `HashMap`/`HashSet`
    // identifier, so each of the converted lookup-only maps (trainer
    // cost caches, serve frequency table, overlap scheduler state) would
    // have needed a pragma. Count those mentions on exactly these files
    // — outside test regions — and require the flow-aware lint to accept
    // the same files pragma-free. That difference is the "retires ≥5
    // pragmas" acceptance criterion.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent);
    let root = root.expect("workspace root above crates/fae-lint");
    let converted = [
        "crates/fae-core/src/trainer.rs",
        "crates/fae-serve/src/cache.rs",
        "crates/fae-sysmodel/src/overlap.rs",
    ];
    let mut hash_mentions = 0usize;
    for rel in converted {
        let source = std::fs::read_to_string(root.join(rel)).expect("converted file readable");
        let view = TreeView::new(&source);
        let regions = view.test_regions();
        hash_mentions += (0..view.toks.len())
            .filter(|&i| view.is_ident(i, "HashMap") || view.is_ident(i, "HashSet"))
            .filter(|&i| !regions.contains(view.toks[i].start))
            .count();

        let class = fae_lint::classify(Path::new(rel)).expect("converted file is linted");
        assert!(class.deterministic, "{rel} must be in the det scope for this to mean anything");
        let diags = fae_lint::lint_source(Path::new(rel), &source, class);
        assert!(
            diags.iter().all(|d| d.rule != "hash-container"),
            "flow-aware lint should accept the lookup-only maps in {rel}: {diags:?}"
        );
        let (pragmas, _) = fae_lint::tokens::pragmas(&source, &view.comments);
        assert!(
            !pragmas.iter().any(|p| p.rules.iter().any(|r| r == "hash-container")),
            "{rel} must need no hash-container pragmas under the flow-aware lint"
        );
    }
    assert!(
        hash_mentions >= 5,
        "expected the mention-based rule to have demanded >= 5 suppressions, got {hash_mentions}"
    );
}

#[test]
fn workspace_is_clean() {
    // The tentpole's end state: the real workspace carries zero
    // violations. Walk up from this crate to the workspace root.
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().and_then(Path::parent);
    let root = root.expect("workspace root above crates/fae-lint");
    let diags = fae_lint::lint_workspace(root).expect("workspace walkable");
    assert!(diags.is_empty(), "workspace violations:\n{diags:#?}");
}
