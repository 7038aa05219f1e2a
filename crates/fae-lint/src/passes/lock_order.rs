//! Lock-order: acquisition-graph analysis across the workspace.
//!
//! Lock *classes* are struct fields typed `Mutex<..>`/`RwLock<..>`
//! (collections of locks, `Vec<RwLock<..>>`, are one class). For every
//! function, the pass tracks which guards are held at each statement —
//! plain `let g = ..lock()` guards live to the end of their enclosing
//! block (or an explicit `drop(g)`); guards consumed inside a
//! `match`/`if let` live only for that statement — and records an edge
//! A→B whenever B is acquired while A is held.
//!
//! Findings:
//! * acquiring the *same* class while held is reported unless both
//!   sides are `read()` (the sharded-table pattern: all shard read
//!   guards taken in one statement can't deadlock with each other);
//! * a cycle in the cross-class graph (A→B somewhere, B→A elsewhere)
//!   is reported at every edge on the cycle.
//!
//! Interprocedural holds (fn A calls fn B while holding a lock B also
//! takes) are out of reach — DESIGN.md §16 lists this caveat.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use super::{PassDiag, PassFile};
use crate::tokens::TokKind;
use crate::tree::{find_group, flatten, Node, TreeView};

#[derive(Clone, Debug)]
struct Acq {
    class: String,
    is_read: bool,
    binding: Option<String>,
    file: PathBuf,
    line: usize,
    offset: usize,
}

#[derive(Clone, Debug)]
struct Edge {
    from: String,
    to: String,
    file: PathBuf,
    line: usize,
    offset: usize,
}

/// Runs the pass over the workspace file set.
pub fn run(files: &[PassFile<'_>]) -> Vec<PassDiag> {
    // Lock classes: field name → "Struct.field". Collected workspace-
    // wide so a file using a lock declared in a sibling module resolves.
    let mut classes: BTreeMap<String, String> = BTreeMap::new();
    for f in files {
        for field in &f.items.fields {
            let locky =
                field.ty.split_whitespace().any(|w| w.contains("Mutex") || w.contains("RwLock"));
            if locky {
                classes
                    .entry(field.field.clone())
                    .or_insert_with(|| format!("{}.{}", field.strukt, field.field));
            }
        }
    }
    if classes.is_empty() {
        return Vec::new();
    }

    let mut out = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    for f in files {
        let view = &f.view;
        for func in &f.items.fns {
            if func.body == (0, 0) || func.body.0 == 0 {
                continue;
            }
            let Some(body) = find_group(&view.nodes, func.body.0 - 1) else { continue };
            let mut held: Vec<Acq> = Vec::new();
            let mut aliases: BTreeMap<String, String> = BTreeMap::new();
            walk(view, f, &classes, body, &mut held, &mut aliases, &mut edges, &mut out);
        }
    }

    // Cycle detection over the cross-class digraph.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in &edges {
        if e.from != e.to {
            adj.entry(e.from.as_str()).or_default().insert(e.to.as_str());
        }
    }
    let cyclic = cyclic_nodes(&adj);
    for e in &edges {
        if e.from != e.to && cyclic.contains(e.from.as_str()) && cyclic.contains(e.to.as_str()) {
            out.push(PassDiag {
                file: e.file.clone(),
                line: e.line,
                offset: e.offset,
                rule: "lock-order",
                message: format!(
                    "acquiring `{}` while holding `{}` participates in a lock-order cycle; \
                     pick one global order and stick to it",
                    e.to, e.from
                ),
            });
        }
    }
    out
}

/// Nodes on at least one directed cycle (strongly-connected components
/// of size > 1, or with a self loop).
fn cyclic_nodes<'a>(adj: &BTreeMap<&'a str, BTreeSet<&'a str>>) -> BTreeSet<&'a str> {
    // Small graphs: for each node, DFS to see if it can reach itself.
    let mut out = BTreeSet::new();
    for &start in adj.keys() {
        let mut stack: Vec<&str> = adj[start].iter().copied().collect();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if n == start {
                out.insert(start);
                break;
            }
            if seen.insert(n) {
                if let Some(next) = adj.get(n) {
                    stack.extend(next.iter().copied());
                }
            }
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn walk(
    view: &TreeView<'_>,
    f: &PassFile<'_>,
    classes: &BTreeMap<String, String>,
    nodes: &[Node],
    held: &mut Vec<Acq>,
    aliases: &mut BTreeMap<String, String>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<PassDiag>,
) {
    let entry_held = held.len();
    let entry_aliases = aliases.clone();
    let mut start = 0usize;
    let mut i = 0usize;
    while i < nodes.len() {
        let end_stmt = match &nodes[i] {
            Node::Leaf(k) => view.is_punct(*k, b';'),
            Node::Group { delim, .. } => {
                *delim == b'{'
                    && !matches!(
                        nodes.get(i + 1),
                        Some(Node::Leaf(k)) if view.is_ident(*k, "else")
                    )
            }
        };
        if end_stmt {
            let stmt = &nodes[start..=i];
            process(view, f, classes, stmt, held, aliases, edges, out);
            start = i + 1;
        }
        i += 1;
    }
    if start < nodes.len() {
        process(view, f, classes, &nodes[start..], held, aliases, edges, out);
    }
    held.truncate(entry_held);
    *aliases = entry_aliases;
}

#[allow(clippy::too_many_arguments)]
fn process(
    view: &TreeView<'_>,
    f: &PassFile<'_>,
    classes: &BTreeMap<String, String>,
    stmt: &[Node],
    held: &mut Vec<Acq>,
    aliases: &mut BTreeMap<String, String>,
    edges: &mut Vec<Edge>,
    out: &mut Vec<PassDiag>,
) {
    if stmt.is_empty() {
        return;
    }
    let head_word = match stmt.first() {
        Some(Node::Leaf(k)) if view.toks[*k].kind == TokKind::Ident => view.text(*k),
        _ => "",
    };
    let is_control = matches!(head_word, "if" | "while" | "for" | "match" | "loop" | "unsafe");

    // `drop(g)` releases a held guard.
    if head_word == "drop" {
        let toks = flatten(stmt);
        if let Some(&arg) = toks.get(2) {
            if view.toks[arg].kind == TokKind::Ident {
                let name = view.text(arg);
                held.retain(|a| a.binding.as_deref() != Some(name));
            }
        }
        return;
    }

    // Header/expression tokens: everything outside the brace blocks.
    let mut header: Vec<usize> = Vec::new();
    let mut blocks: Vec<&[Node]> = Vec::new();
    for n in stmt {
        match n {
            Node::Group { delim: b'{', children, .. } if is_control => blocks.push(children),
            other => header.extend(flatten(std::slice::from_ref(other))),
        }
    }

    // `for pat in ..lock-collection..` aliases the loop variable(s).
    let mut local_aliases: Vec<(String, String)> = Vec::new();
    if head_word == "for" {
        let field_in_header = header.iter().find_map(|&k| {
            if view.toks[k].kind == TokKind::Ident {
                classes.get(view.text(k)).cloned()
            } else {
                None
            }
        });
        if let Some(class) = field_in_header {
            let mut active = false;
            for &k in &header {
                if view.toks[k].kind == TokKind::Ident {
                    let w = view.text(k);
                    if w == "for" {
                        active = true;
                        continue;
                    }
                    if w == "in" {
                        break;
                    }
                    if active {
                        local_aliases.push((w.to_string(), class.clone()));
                    }
                }
            }
        }
    }

    // Acquisitions in the header/expression, left to right.
    let statement_scoped =
        is_control || header.iter().any(|&k| view.is_ident(k, "match")) || head_word != "let";
    let binding = if head_word == "let" {
        header.iter().skip(1).find_map(|&k| {
            if view.toks[k].kind == TokKind::Ident && view.text(k) != "mut" {
                Some(view.text(k).to_string())
            } else {
                None
            }
        })
    } else {
        None
    };
    let mut acquired_here: Vec<Acq> = Vec::new();
    for (pos, &k) in header.iter().enumerate() {
        if view.toks[k].kind != TokKind::Ident {
            continue;
        }
        let m = view.text(k);
        if !matches!(m, "read" | "write" | "lock") {
            continue;
        }
        let prev_dot = pos > 0 && view.is_punct(header[pos - 1], b'.');
        let next_paren = header.get(pos + 1).is_some_and(|&j| view.is_punct(j, b'('));
        if !prev_dot || !next_paren {
            continue;
        }
        // Class: nearest known lock field (or alias) to the left.
        let class =
            header[..pos].iter().rev().find_map(|&j| {
                if view.toks[j].kind == TokKind::Ident {
                    let w = view.text(j);
                    classes.get(w).cloned().or_else(|| aliases.get(w).cloned()).or_else(|| {
                        local_aliases.iter().find(|(n, _)| n == w).map(|(_, c)| c.clone())
                    })
                } else {
                    None
                }
            });
        let Some(class) = class else { continue };
        let acq = Acq {
            class,
            is_read: m == "read",
            binding: binding.clone(),
            file: f.rel.clone(),
            line: view.line(k),
            offset: view.toks[k].start,
        };
        for prior in held.iter().chain(acquired_here.iter()) {
            if prior.class == acq.class {
                if !(prior.is_read && acq.is_read) {
                    out.push(PassDiag {
                        file: acq.file.clone(),
                        line: acq.line,
                        offset: acq.offset,
                        rule: "lock-order",
                        message: format!(
                            "`{}` is re-acquired (non-read) while already held — \
                             self-deadlock on the same lock class",
                            acq.class
                        ),
                    });
                }
            } else {
                edges.push(Edge {
                    from: prior.class.clone(),
                    to: acq.class.clone(),
                    file: acq.file.clone(),
                    line: acq.line,
                    offset: acq.offset,
                });
            }
        }
        acquired_here.push(acq);
    }

    let held_before = held.len();
    held.extend(acquired_here);
    for (n, c) in &local_aliases {
        aliases.insert(n.clone(), c.clone());
    }
    for b in &blocks {
        walk(view, f, classes, b, held, aliases, edges, out);
    }
    for (n, _) in &local_aliases {
        aliases.remove(n);
    }
    if statement_scoped {
        // Temporary/consumed guards do not outlive the statement.
        held.truncate(held_before);
    }
}
