//! Phase-balance: static accounting for the ±1e-6 journal invariant.
//!
//! The runtime invariant (fae-telemetry `merge::check_invariant`) only
//! sees charge sites that executed. This pass closes the gap statically:
//!
//! 1. the `Phase` enum, `Phase::ALL`, and `Phase::index` must agree —
//!    every variant in `ALL` exactly once, `index` a bijection onto
//!    `0..n`, every `match` over `Phase` either wildcarded or total;
//! 2. every phase-indexed array (`seconds: [f64; N]` in `Timeline`,
//!    `PhaseSeconds(pub [f64; N])` in the journal) must have
//!    `N == variant count`, so a 9th phase cannot silently truncate;
//! 3. every `Timeline` charge site (`.add(Phase::X, ..)`) in the
//!    deterministic and net crates must name a declared variant.
//!
//! Rule id: `phase-balance`. Findings land on the offending line and
//! respect pragmas/test regions like every other rule.

use std::collections::{BTreeMap, BTreeSet};

use super::{PassDiag, PassFile};
use crate::tokens::TokKind;

/// Runs the pass over the workspace file set.
pub fn run(files: &[PassFile<'_>]) -> Vec<PassDiag> {
    let mut out = Vec::new();

    // Locate the canonical Phase enum: the one in the file that also
    // declares `ALL`. Fixture trees without one skip the pass.
    let mut phase_file: Option<&PassFile<'_>> = None;
    let mut variants: Vec<(String, usize)> = Vec::new();
    for f in files {
        if let Some(e) = f.items.enums.iter().find(|e| e.name == "Phase") {
            let declares_all = (0..f.view.toks.len()).any(|i| f.view.is_ident(i, "ALL"));
            if declares_all {
                phase_file = Some(f);
                variants = e.variants.clone();
                break;
            }
        }
    }
    let Some(pf) = phase_file else { return out };
    let names: BTreeSet<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();

    check_all_const(pf, &variants, &mut out);
    check_matches(pf, &variants, &mut out);
    check_arrays(files, variants.len(), &mut out);
    check_charge_sites(files, &names, &mut out);
    out
}

/// `Phase::ALL` must list every variant exactly once, and its declared
/// length `[Phase; N]` must equal the variant count.
fn check_all_const(pf: &PassFile<'_>, variants: &[(String, usize)], out: &mut Vec<PassDiag>) {
    let view = &pf.view;
    let toks = &view.toks;
    let mut all_entries: Vec<String> = Vec::new();
    let mut all_line = 0usize;
    let mut all_offset = 0usize;
    let mut declared_len: Option<usize> = None;
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].kind == TokKind::Ident && view.text(i) == "ALL" {
            all_line = view.line(i);
            all_offset = toks[i].start;
            // `ALL: [Phase; N] = [Phase::A, ...];` — scan to the `;`
            // ending the item, collecting `Phase :: V` pairs and the
            // first `[Phase ; N]` length.
            let mut depth = 0i32;
            let mut j = i + 1;
            while j < toks.len() {
                match view.punct(j) {
                    Some(b'[') | Some(b'(') | Some(b'{') => depth += 1,
                    Some(b']') | Some(b')') | Some(b'}') => depth -= 1,
                    Some(b';') if depth == 0 => break,
                    Some(b';') if depth == 1 && declared_len.is_none() => {
                        if let Some(n) = toks.get(j + 1).and_then(|t| {
                            if t.kind == TokKind::Num {
                                view.text(j + 1).parse::<usize>().ok()
                            } else {
                                None
                            }
                        }) {
                            declared_len = Some(n);
                        }
                    }
                    _ => {}
                }
                if let Some(v) = view.path_segment(j, "Phase") {
                    all_entries.push(v.to_string());
                    j += 4;
                    continue;
                }
                j += 1;
            }
            break;
        }
        i += 1;
    }
    if all_line == 0 {
        out.push(diag(pf, 1, 0, "`Phase` enum found but no `ALL` constant to account it"));
        return;
    }
    if let Some(n) = declared_len {
        if n != variants.len() {
            out.push(diag(
                pf,
                all_line,
                all_offset,
                &format!(
                    "`Phase::ALL` declares length {n} but the enum has {} variants",
                    variants.len()
                ),
            ));
        }
    }
    let mut seen = BTreeMap::new();
    for v in &all_entries {
        *seen.entry(v.clone()).or_insert(0usize) += 1;
    }
    for (name, line) in variants {
        match seen.get(name).copied().unwrap_or(0) {
            0 => out.push(diag(
                pf,
                *line,
                0,
                &format!("variant `{name}` is missing from `Phase::ALL` — its charges would escape the journal invariant"),
            )),
            1 => {}
            k => out.push(diag(
                pf,
                all_line,
                all_offset,
                &format!("variant `{name}` appears {k} times in `Phase::ALL`"),
            )),
        }
    }
    for name in seen.keys() {
        if !variants.iter().any(|(v, _)| v == name) {
            out.push(diag(
                pf,
                all_line,
                all_offset,
                &format!("`Phase::ALL` lists `{name}`, which is not a variant"),
            ));
        }
    }
}

/// Every `match` in the Phase file with `Phase::V =>` arms must either
/// carry a wildcard or cover all variants; `index` arm values must be a
/// bijection onto `0..n`.
fn check_matches(pf: &PassFile<'_>, variants: &[(String, usize)], out: &mut Vec<PassDiag>) {
    let view = &pf.view;
    for f in &pf.items.fns {
        if f.body == (0, 0) {
            continue;
        }
        let (lo, hi) = f.body;
        let mut covered: BTreeSet<String> = BTreeSet::new();
        let mut wildcard = false;
        let mut index_map: BTreeMap<String, usize> = BTreeMap::new();
        let mut j = lo;
        while j < hi.min(view.toks.len()) {
            // Pattern position: `Phase :: V` followed (after optional
            // `{..}`/`(..)`) by `=>`.
            if let Some(v) = view.path_segment(j, "Phase") {
                let vname = v.to_string();
                let mut k = j + 4;
                // Skip a struct/tuple sub-pattern.
                let mut depth = 0i32;
                while k < view.toks.len() {
                    match view.punct(k) {
                        Some(b'{') | Some(b'(') => depth += 1,
                        Some(b'}') | Some(b')') => {
                            if depth == 0 {
                                break;
                            }
                            depth -= 1;
                        }
                        _ if depth > 0 => {}
                        _ => break,
                    }
                    k += 1;
                }
                let is_arrow = view.punct(k) == Some(b'=')
                    && view.punct(k + 1) == Some(b'>')
                    && view.toks.get(k + 1).is_some_and(|t| t.start == view.toks[k].end);
                if is_arrow {
                    covered.insert(vname.clone());
                    if f.name == "index" {
                        if let Some(t) = view.toks.get(k + 2) {
                            if t.kind == TokKind::Num {
                                if let Ok(n) = view.text(k + 2).parse::<usize>() {
                                    index_map.insert(vname, n);
                                }
                            }
                        }
                    }
                    j = k + 2;
                    continue;
                }
            }
            if view.toks[j].kind == TokKind::Ident
                && view.text(j) == "_"
                && view.punct(j + 1) == Some(b'=')
                && view.punct(j + 2) == Some(b'>')
            {
                wildcard = true;
            }
            j += 1;
        }
        if !covered.is_empty() && !wildcard {
            for (name, _) in variants {
                if !covered.contains(name) {
                    out.push(diag(
                        pf,
                        f.line,
                        view.toks[f.body.0.min(view.toks.len() - 1)].start,
                        &format!(
                            "match over `Phase` in `{}` does not cover variant `{name}`",
                            f.name
                        ),
                    ));
                }
            }
        }
        if f.name == "index" && !index_map.is_empty() {
            let mut used = BTreeSet::new();
            for (v, n) in &index_map {
                if *n >= variants.len() {
                    out.push(diag(
                        pf,
                        f.line,
                        0,
                        &format!("`Phase::index` maps `{v}` to {n}, outside 0..{}", variants.len()),
                    ));
                }
                if !used.insert(*n) {
                    out.push(diag(
                        pf,
                        f.line,
                        0,
                        &format!("`Phase::index` maps two variants to slot {n}"),
                    ));
                }
            }
        }
    }
}

/// Phase-indexed arrays: `[f64; N]` fields of `Timeline` and
/// `PhaseSeconds` must have `N == variant count`.
fn check_arrays(files: &[PassFile<'_>], n_variants: usize, out: &mut Vec<PassDiag>) {
    for f in files {
        for field in &f.items.fields {
            if field.strukt != "Timeline" && field.strukt != "PhaseSeconds" {
                continue;
            }
            // Flattened type text looks like `[ f64 ; 8 ]`.
            let words: Vec<&str> = field.ty.split_whitespace().collect();
            let Some(fpos) = words.iter().position(|w| *w == "f64") else { continue };
            if words.get(fpos + 1) != Some(&";") {
                continue;
            }
            let Some(n) = words.get(fpos + 2).and_then(|w| w.parse::<usize>().ok()) else {
                continue;
            };
            if n != n_variants {
                out.push(diag(
                    f,
                    field.line,
                    0,
                    &format!(
                        "`{}.{}` is `[f64; {n}]` but `Phase` has {n_variants} variants — \
                         a phase would be unaccounted",
                        field.strukt, field.field
                    ),
                ));
            }
        }
    }
}

/// Every `.add(Phase::X, ..)` charge site in det/net files must name a
/// declared variant (`Phase::ALL` and other UPPER_CASE associated items
/// are not charges).
fn check_charge_sites(files: &[PassFile<'_>], names: &BTreeSet<&str>, out: &mut Vec<PassDiag>) {
    for f in files {
        if !(f.class.deterministic || f.class.net) {
            continue;
        }
        let view = &f.view;
        for (i, tok) in view.toks.iter().enumerate() {
            let Some(name) = view.path_segment(i, "Phase") else { continue };
            let is_assoc_const = name.chars().all(|c| c.is_ascii_uppercase() || c == '_');
            let is_method = name.chars().next().is_some_and(|c| c.is_ascii_lowercase());
            if is_assoc_const || is_method {
                continue;
            }
            if !names.contains(name) {
                out.push(diag(
                    f,
                    tok.line,
                    tok.start,
                    &format!("`Phase::{name}` is not a declared `Phase` variant"),
                ));
            }
        }
    }
}

fn diag(f: &PassFile<'_>, line: usize, offset: usize, message: &str) -> PassDiag {
    PassDiag {
        file: f.rel.clone(),
        line,
        offset,
        rule: "phase-balance",
        message: message.to_string(),
    }
}
