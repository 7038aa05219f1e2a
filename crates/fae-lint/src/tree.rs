//! Brace-matched token trees and item extraction.
//!
//! Sits between the flat token stream ([`crate::tokens`]) and the flow
//! passes: groups `()`/`[]`/`{}` into nested nodes, then walks the tree
//! pulling out the items the passes reason about — functions (with
//! their body groups), enums (with variant names and lines), struct
//! fields (with flattened type text), `use` aliases, and `const`
//! array initializers. This is *use-resolution light*: `use
//! std::collections::HashMap as FastMap` makes `FastMap` resolve to the
//! full path, so renamed imports cannot dodge the determinism rules.
//!
//! Not a parser: generics are skipped by angle-depth counting, patterns
//! are treated as token runs, and macro bodies are walked like ordinary
//! code. DESIGN.md §16 lists the resulting soundness caveats.

use crate::tokens::{Tok, TokKind};

/// One node of the token tree.
#[derive(Debug)]
pub enum Node {
    /// A leaf: index into the token slice.
    Leaf(usize),
    /// A delimited group. `open`/`close` index the delimiter tokens
    /// (close may equal open for an unterminated group at EOF).
    Group {
        /// Opening delimiter byte: `(`, `[` or `{`.
        delim: u8,
        /// Token index of the opening delimiter.
        open: usize,
        /// Token index of the closing delimiter (or the last token).
        close: usize,
        /// Nodes between the delimiters.
        children: Vec<Node>,
    },
}

fn closer_for(open: u8) -> u8 {
    match open {
        b'(' => b')',
        b'[' => b']',
        _ => b'}',
    }
}

/// One parsed file: source, tokens, comment spans and token tree, with
/// the helpers every pass shares.
pub struct TreeView<'s> {
    /// The raw source text.
    pub source: &'s str,
    /// The code token stream.
    pub toks: Vec<Tok>,
    /// Comment spans (see [`crate::tokens::Lexed::comments`]).
    pub comments: Vec<Tok>,
    /// The token tree over `toks`.
    pub nodes: Vec<Node>,
}

impl<'s> TreeView<'s> {
    /// Tokenizes and tree-builds `source`.
    pub fn new(source: &'s str) -> Self {
        let crate::tokens::Lexed { toks, comments } = crate::tokens::tokenize(source);
        let mut view = TreeView { source, toks, comments, nodes: Vec::new() };
        view.nodes = view.build(&mut 0, None);
        view
    }

    /// Text of token `i`.
    pub fn text(&self, i: usize) -> &'s str {
        self.toks[i].text(self.source)
    }

    /// 1-based line of token `i`.
    pub fn line(&self, i: usize) -> usize {
        self.toks[i].line
    }

    /// True when token `i` is the identifier `word`.
    pub fn is_ident(&self, i: usize, word: &str) -> bool {
        self.toks[i].kind == TokKind::Ident && self.text(i) == word
    }

    /// The punctuation byte of token `i`; `None` when `i` is past the
    /// end or the token is not punctuation.
    pub fn punct(&self, i: usize) -> Option<u8> {
        let t = self.toks.get(i)?;
        (t.kind == TokKind::Punct).then(|| self.source.as_bytes()[t.start])
    }

    /// True when token `i` is the punctuation byte `b`.
    pub fn is_punct(&self, i: usize, b: u8) -> bool {
        self.punct(i) == Some(b)
    }

    /// The `name` of a path `head :: name` starting at token `i`.
    pub fn path_segment(&self, i: usize, head: &str) -> Option<&'s str> {
        let path = self.is_ident(i, head)
            && self.is_punct(i + 1, b':')
            && self.is_punct(i + 2, b':')
            && self.toks.get(i + 3)?.kind == TokKind::Ident;
        path.then(|| self.text(i + 3))
    }

    fn build(&self, pos: &mut usize, until: Option<u8>) -> Vec<Node> {
        let mut out = Vec::new();
        while *pos < self.toks.len() {
            if let Some(b) = self.punct(*pos) {
                if Some(b) == until {
                    return out;
                }
                if b == b'(' || b == b'[' || b == b'{' {
                    let open = *pos;
                    *pos += 1;
                    let children = self.build(pos, Some(closer_for(b)));
                    let close = (*pos).min(self.toks.len().saturating_sub(1));
                    out.push(Node::Group { delim: b, open, close, children });
                    if *pos < self.toks.len() {
                        *pos += 1;
                    }
                    continue;
                }
            }
            out.push(Node::Leaf(*pos));
            *pos += 1;
        }
        out
    }

    /// The test-only regions of the file: every item carrying `#[test]`,
    /// `#[cfg(test)]` or `#[cfg(all(.., test, ..))]` (possibly among
    /// further attributes), from its `#` through the end of its `{}`
    /// body or its `;`. `cfg(not(test))`, `cfg(any(test, ..))` and
    /// `cfg_attr(test, ..)` gate live code and do not count.
    pub fn test_regions(&self) -> TestRegions {
        let mut out = TestRegions::default();
        self.collect_test_regions(&self.nodes, &mut out.0);
        out
    }

    fn collect_test_regions(&self, nodes: &[Node], out: &mut Vec<(usize, usize)>) {
        let mut i = 0usize;
        while i < nodes.len() {
            let gate = self.attr_at(nodes, i).filter(|&(_, attr)| self.is_test_gate(attr));
            if let Some((hash, _)) = gate {
                let mut j = i + 2;
                while self.attr_at(nodes, j).is_some() {
                    j += 2;
                }
                let end = nodes[j..].iter().position(|n| match n {
                    Node::Group { delim, .. } => *delim == b'{',
                    Node::Leaf(k) => self.is_punct(*k, b';'),
                });
                if let Some(e) = end {
                    let (Node::Leaf(last) | Node::Group { close: last, .. }) = &nodes[j + e];
                    out.push((self.toks[hash].start, self.toks[*last].end));
                    i = j + e + 1;
                    continue;
                }
            }
            if let Node::Group { children, .. } = &nodes[i] {
                self.collect_test_regions(children, out);
            }
            i += 1;
        }
    }

    /// The `#` token and the bracket contents of an attribute `#[...]`
    /// starting at `nodes[i]`.
    fn attr_at<'n>(&self, nodes: &'n [Node], i: usize) -> Option<(usize, &'n [Node])> {
        match (nodes.get(i)?, nodes.get(i + 1)?) {
            (Node::Leaf(h), Node::Group { delim: b'[', children, .. })
                if self.is_punct(*h, b'#') =>
            {
                Some((*h, children))
            }
            _ => None,
        }
    }

    /// `test`, `cfg(test)`, or `cfg(all(..))` with `test` as a direct
    /// argument.
    fn is_test_gate(&self, attr: &[Node]) -> bool {
        let word = |n: &Node, w: &str| matches!(n, Node::Leaf(k) if self.is_ident(*k, w));
        match attr {
            [t] => word(t, "test"),
            [cfg, Node::Group { delim: b'(', children, .. }] if word(cfg, "cfg") => {
                match children.as_slice() {
                    [t] => word(t, "test"),
                    [all, Node::Group { delim: b'(', children: args, .. }] if word(all, "all") => {
                        args.iter().any(|a| word(a, "test"))
                    }
                    _ => false,
                }
            }
            _ => false,
        }
    }
}

/// Half-open byte ranges `[start, end)` of test-only code, which every
/// rule exempts.
#[derive(Debug, Default)]
pub struct TestRegions(Vec<(usize, usize)>);

impl TestRegions {
    /// True when byte offset `pos` lies inside a test-only region.
    pub fn contains(&self, pos: usize) -> bool {
        self.0.iter().any(|&(s, e)| pos >= s && pos < e)
    }
}

/// The children of the group whose opening token index is `open`,
/// searched depth-first through `nodes`.
pub fn find_group(nodes: &[Node], open: usize) -> Option<&[Node]> {
    for n in nodes {
        if let Node::Group { open: o, children, .. } = n {
            if *o == open {
                return Some(children);
            }
            if let Some(found) = find_group(children, open) {
                return Some(found);
            }
        }
    }
    None
}

/// A function found in the tree.
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// `Type` when defined inside `impl Type` (or `impl Trait for Type`).
    pub owner: Option<String>,
    /// True when any ancestor item or the fn itself is `pub`.
    pub is_pub: bool,
    /// Token index of the `fn` keyword.
    pub fn_tok: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter names (pattern identifiers, `self` included).
    pub params: Vec<String>,
    /// Indices into the flat token stream covering the body group's
    /// interior (between, not including, the braces).
    pub body: (usize, usize),
}

/// An enum found in the tree.
pub struct EnumItem {
    /// Enum name.
    pub name: String,
    /// 1-based line of the `enum` keyword.
    pub line: usize,
    /// Variant names with their 1-based lines.
    pub variants: Vec<(String, usize)>,
}

/// A struct field with a flattened type string (tokens joined by one
/// space), e.g. `Vec < RwLock < Tensor > >`.
pub struct FieldItem {
    /// Owning struct name.
    pub strukt: String,
    /// Field name (tuple fields are `0`, `1`, ...).
    pub field: String,
    /// Flattened type text.
    pub ty: String,
    /// 1-based line of the field name.
    pub line: usize,
}

/// A `use` alias: local name → full path (`::`-joined).
pub struct UseItem {
    /// The name visible in this file.
    pub name: String,
    /// The full path it resolves to.
    pub path: String,
}

/// Everything the passes need from one file.
pub struct Items {
    /// Functions, including those nested in `impl`/`mod` blocks.
    pub fns: Vec<FnItem>,
    /// Enums.
    pub enums: Vec<EnumItem>,
    /// Struct fields.
    pub fields: Vec<FieldItem>,
    /// Use aliases.
    pub uses: Vec<UseItem>,
}

/// Extracts items from a [`TreeView`].
pub fn items(view: &TreeView<'_>) -> Items {
    let mut out =
        Items { fns: Vec::new(), enums: Vec::new(), fields: Vec::new(), uses: Vec::new() };
    scan_items(view, &view.nodes, None, false, &mut out);
    out
}

fn flat_leaves(nodes: &[Node], out: &mut Vec<usize>) {
    for n in nodes {
        match n {
            Node::Leaf(i) => out.push(*i),
            Node::Group { open, close, children, .. } => {
                out.push(*open);
                flat_leaves(children, out);
                out.push(*close);
            }
        }
    }
}

/// All token indices under `nodes`, delimiters included, in order.
pub fn flatten(nodes: &[Node]) -> Vec<usize> {
    let mut out = Vec::new();
    flat_leaves(nodes, &mut out);
    out
}

fn scan_items(
    view: &TreeView<'_>,
    nodes: &[Node],
    owner: Option<&str>,
    outer_pub: bool,
    out: &mut Items,
) {
    let n = nodes.len();
    let mut idx = 0usize;
    let mut last_pub = false;
    while idx < n {
        let node = &nodes[idx];
        let leaf = match node {
            Node::Leaf(i) => Some(*i),
            Node::Group { .. } => None,
        };
        let Some(i) = leaf else {
            idx += 1;
            continue;
        };
        if view.is_ident(i, "pub") {
            last_pub = true;
            idx += 1;
            continue;
        }
        if view.is_ident(i, "use") {
            scan_use(view, nodes, &mut idx, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "fn") {
            scan_fn(view, nodes, &mut idx, owner, outer_pub || last_pub, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "enum") {
            scan_enum(view, nodes, &mut idx, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "struct") {
            scan_struct(view, nodes, &mut idx, out);
            last_pub = false;
            continue;
        }
        if view.is_ident(i, "impl") || view.is_ident(i, "mod") || view.is_ident(i, "trait") {
            // Recurse into the block with the owner type name (for impl).
            let is_impl = view.is_ident(i, "impl");
            let mut j = idx + 1;
            let mut impl_owner: Option<String> = None;
            let mut seen_for = false;
            while j < n {
                match &nodes[j] {
                    Node::Leaf(k) => {
                        if view.is_ident(*k, "for") {
                            seen_for = true;
                            impl_owner = None;
                        } else if view.toks[*k].kind == TokKind::Ident
                            && is_impl
                            && (impl_owner.is_none() || seen_for)
                        {
                            let w = view.text(*k);
                            if w != "for" && w != "where" && w != "dyn" && w != "const" {
                                impl_owner = Some(w.to_string());
                                seen_for = false;
                            }
                        }
                        if view.is_punct(*k, b';') {
                            break;
                        }
                        j += 1;
                    }
                    Node::Group { delim, children, .. } => {
                        if *delim == b'{' {
                            let owner_name = if is_impl { impl_owner.as_deref() } else { owner };
                            scan_items(view, children, owner_name, outer_pub || last_pub, out);
                            break;
                        }
                        j += 1;
                    }
                }
            }
            idx = j + 1;
            last_pub = false;
            continue;
        }
        last_pub = false;
        idx += 1;
    }
}

fn scan_use(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items) {
    // Collect tokens up to `;`, handling `use a::b::{C, D as E};` one
    // level deep (the only shapes in this workspace).
    let mut prefix: Vec<String> = Vec::new();
    let mut j = *idx + 1;
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.is_punct(*i, b';') {
                    break;
                }
                if view.toks[*i].kind == TokKind::Ident {
                    prefix.push(view.text(*i).to_string());
                }
                j += 1;
            }
            Node::Group { children, .. } => {
                // Brace group: each comma-separated entry extends prefix.
                let leaves = flatten(children);
                let mut entry: Vec<String> = Vec::new();
                let mut alias: Option<String> = None;
                let mut in_alias = false;
                let push_entry =
                    |entry: &mut Vec<String>, alias: &mut Option<String>, out: &mut Items| {
                        if let Some(last) = entry.last() {
                            let name = alias.clone().unwrap_or_else(|| last.clone());
                            let mut path = prefix.clone();
                            path.extend(entry.iter().cloned());
                            out.uses.push(UseItem { name, path: path.join("::") });
                        }
                        entry.clear();
                        *alias = None;
                    };
                for &k in &leaves {
                    if view.is_punct(k, b',') {
                        in_alias = false;
                        push_entry(&mut entry, &mut alias, out);
                    } else if view.is_ident(k, "as") {
                        in_alias = true;
                    } else if view.toks[k].kind == TokKind::Ident {
                        if in_alias {
                            alias = Some(view.text(k).to_string());
                        } else {
                            entry.push(view.text(k).to_string());
                        }
                    }
                }
                push_entry(&mut entry, &mut alias, out);
                prefix.clear(); // consumed by the group entries
                j += 1;
            }
        }
    }
    // Plain `use a::b::C;` or `use a::b::C as D;`
    if !prefix.is_empty() {
        let (name, path) = if let Some(pos) = prefix.iter().position(|s| s == "as") {
            let alias = prefix.get(pos + 1).cloned().unwrap_or_default();
            (alias, prefix[..pos].to_vec())
        } else {
            (prefix.last().cloned().unwrap_or_default(), prefix.clone())
        };
        if !name.is_empty() {
            out.uses.push(UseItem { name, path: path.join("::") });
        }
    }
    *idx = j + 1;
}

fn scan_fn(
    view: &TreeView<'_>,
    nodes: &[Node],
    idx: &mut usize,
    owner: Option<&str>,
    is_pub: bool,
    out: &mut Items,
) {
    let fn_tok = match &nodes[*idx] {
        Node::Leaf(i) => *i,
        Node::Group { .. } => {
            *idx += 1;
            return;
        }
    };
    let mut j = *idx + 1;
    let mut name = String::new();
    // Name is the next ident.
    while j < nodes.len() {
        if let Node::Leaf(i) = &nodes[j] {
            if view.toks[*i].kind == TokKind::Ident {
                name = view.text(*i).to_string();
                j += 1;
                break;
            }
        }
        j += 1;
    }
    // Params: first paren group at angle-depth 0 (skips generics, even
    // ones containing `Fn(..)` bounds).
    let mut angle = 0i32;
    let mut params: Vec<String> = Vec::new();
    let mut body: Option<(usize, usize)> = None;
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.is_punct(*i, b'<') {
                    angle += 1;
                } else if view.is_punct(*i, b'>') && angle > 0 {
                    // `->` must not close an angle: check the previous
                    // byte is not `-` or `=`.
                    let at = view.toks[*i].start;
                    let prev = if at == 0 { b' ' } else { view.source.as_bytes()[at - 1] };
                    if prev != b'-' && prev != b'=' {
                        angle -= 1;
                    }
                } else if view.is_punct(*i, b';') {
                    // Trait method signature without a body.
                    *idx = j + 1;
                    out.fns.push(FnItem {
                        name,
                        owner: owner.map(|s| s.to_string()),
                        is_pub,
                        fn_tok,
                        line: view.line(fn_tok),
                        params,
                        body: (0, 0),
                    });
                    return;
                }
                j += 1;
            }
            Node::Group { delim, open, close, children } => {
                if *delim == b'(' && angle == 0 && params.is_empty() && body.is_none() {
                    params = param_names(view, children);
                    j += 1;
                } else if *delim == b'{' {
                    body = Some((*open + 1, *close));
                    // Nested fns/closures inside the body: recurse.
                    scan_items(view, children, owner, false, out);
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
        }
    }
    out.fns.push(FnItem {
        name,
        owner: owner.map(|s| s.to_string()),
        is_pub,
        fn_tok,
        line: view.line(fn_tok),
        params,
        body: body.unwrap_or((0, 0)),
    });
    *idx = j;
}

/// Pattern identifiers of a parameter list: the ident before each `:`
/// at depth 0, plus `self` if present.
fn param_names(view: &TreeView<'_>, children: &[Node]) -> Vec<String> {
    let mut out = Vec::new();
    let mut current: Option<String> = None;
    for n in children {
        match n {
            Node::Leaf(i) => {
                if view.is_ident(*i, "self") {
                    out.push("self".to_string());
                    current = None;
                } else if view.is_punct(*i, b':') {
                    if let Some(name) = current.take() {
                        out.push(name);
                    }
                } else if view.is_punct(*i, b',') {
                    current = None;
                } else if view.toks[*i].kind == TokKind::Ident {
                    let w = view.text(*i);
                    if w != "mut" && w != "ref" {
                        current = Some(w.to_string());
                    }
                }
            }
            Node::Group { .. } => {}
        }
    }
    out
}

fn scan_enum(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items) {
    let mut j = *idx + 1;
    let mut name = String::new();
    let mut line = 0usize;
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.toks[*i].kind == TokKind::Ident && name.is_empty() {
                    name = view.text(*i).to_string();
                    line = view.line(*i);
                }
                if view.is_punct(*i, b';') {
                    break;
                }
                j += 1;
            }
            Node::Group { delim, children, .. } => {
                if *delim == b'{' {
                    let mut variants = Vec::new();
                    // A variant is an ident at depth 0 that is either
                    // followed by `,` / `(` / `{` / `=` or ends the list.
                    let mut expecting = true;
                    for c in children {
                        match c {
                            Node::Leaf(k) => {
                                if view.is_punct(*k, b',') {
                                    expecting = true;
                                } else if view.is_punct(*k, b'#') {
                                    // attribute start; the bracket group
                                    // is skipped as a Group below
                                } else if view.toks[*k].kind == TokKind::Ident && expecting {
                                    variants.push((view.text(*k).to_string(), view.line(*k)));
                                    expecting = false;
                                }
                            }
                            Node::Group { .. } => {}
                        }
                    }
                    out.enums.push(EnumItem { name, line, variants });
                    break;
                }
                j += 1;
            }
        }
    }
    *idx = j + 1;
}

fn scan_struct(view: &TreeView<'_>, nodes: &[Node], idx: &mut usize, out: &mut Items) {
    let mut j = *idx + 1;
    let mut name = String::new();
    while j < nodes.len() {
        match &nodes[j] {
            Node::Leaf(i) => {
                if view.toks[*i].kind == TokKind::Ident && name.is_empty() {
                    name = view.text(*i).to_string();
                }
                if view.is_punct(*i, b';') {
                    break; // unit struct or tuple struct already handled
                }
                j += 1;
            }
            Node::Group { delim, children, .. } => {
                if *delim == b'{' {
                    scan_fields_braced(view, children, &name, out);
                    break;
                }
                if *delim == b'(' {
                    scan_fields_tuple(view, children, &name, out);
                    j += 1;
                    continue;
                }
                j += 1;
            }
        }
    }
    *idx = j + 1;
}

fn scan_fields_braced(view: &TreeView<'_>, children: &[Node], strukt: &str, out: &mut Items) {
    // field: `name : <type tokens> ,`
    let mut i = 0usize;
    let n = children.len();
    while i < n {
        // Skip attributes and `pub`.
        let mut field: Option<(String, usize)> = None;
        while i < n {
            match &children[i] {
                Node::Leaf(k) => {
                    i += 1;
                    if view.toks[*k].kind == TokKind::Ident && !view.is_ident(*k, "pub") {
                        field = Some((view.text(*k).to_string(), view.line(*k)));
                        break;
                    }
                }
                // `pub(crate)` and attribute groups.
                Node::Group { .. } => i += 1,
            }
        }
        let Some((fname, fline)) = field else { break };
        // Expect `:` then type tokens until depth-0 `,`.
        let mut ty = String::new();
        let mut saw_colon = false;
        while i < n {
            let node = &children[i];
            i += 1;
            match node {
                Node::Leaf(k) if view.is_punct(*k, b',') => break,
                Node::Leaf(k) if view.is_punct(*k, b':') && !saw_colon => saw_colon = true,
                _ if saw_colon => push_type_text(view, node, &mut ty),
                _ => {}
            }
        }
        if saw_colon {
            out.fields.push(FieldItem {
                strukt: strukt.to_string(),
                field: fname,
                ty,
                line: fline,
            });
        }
    }
}

fn scan_fields_tuple(view: &TreeView<'_>, children: &[Node], strukt: &str, out: &mut Items) {
    // Tuple fields: comma-separated type runs, named 0, 1, ...
    let mut ty = String::new();
    let mut line = 0usize;
    let mut n_field = 0usize;
    let flush = |ty: &mut String, line: usize, n_field: &mut usize, out: &mut Items| {
        if !ty.is_empty() {
            out.fields.push(FieldItem {
                strukt: strukt.to_string(),
                field: n_field.to_string(),
                ty: std::mem::take(ty),
                line,
            });
            *n_field += 1;
        }
    };
    for c in children {
        if let Node::Leaf(k) = c {
            if line == 0 {
                line = view.line(*k);
            }
            if view.is_punct(*k, b',') {
                flush(&mut ty, line, &mut n_field, out);
                continue;
            }
            if view.is_ident(*k, "pub") {
                continue;
            }
        }
        push_type_text(view, c, &mut ty);
    }
    flush(&mut ty, line, &mut n_field, out);
}

/// Appends the tokens under `node`, delimiters included, to a flattened
/// type string (tokens joined by one space).
fn push_type_text(view: &TreeView<'_>, node: &Node, ty: &mut String) {
    for k in flatten(std::slice::from_ref(node)) {
        if !ty.is_empty() {
            ty.push(' ');
        }
        ty.push_str(view.text(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_nest() {
        let view = TreeView::new("fn f(a: u32) { g(a, [1, 2]); }");
        assert!(!view.nodes.is_empty());
        let it = items(&view);
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].name, "f");
        assert_eq!(it.fns[0].params, vec!["a"]);
    }

    #[test]
    fn impl_owner_and_pub() {
        let src = "pub struct S { x: u32 }\nimpl S { pub fn m(&self, k: u8) -> u8 { k } }";
        let view = TreeView::new(src);
        let it = items(&view);
        let m = it.fns.iter().find(|f| f.name == "m").expect("m found");
        assert_eq!(m.owner.as_deref(), Some("S"));
        assert!(m.is_pub);
        assert_eq!(m.params, vec!["self", "k"]);
        assert_eq!(it.fields.len(), 1);
        assert_eq!(it.fields[0].strukt, "S");
        assert_eq!(it.fields[0].field, "x");
        assert_eq!(it.fields[0].ty, "u32");
    }

    #[test]
    fn impl_trait_for_type_uses_the_type() {
        let src = "impl Display for Wire { fn fmt(&self) {} }";
        let view = TreeView::new(src);
        let it = items(&view);
        assert_eq!(it.fns[0].owner.as_deref(), Some("Wire"));
    }

    #[test]
    fn use_aliases_resolve() {
        let src =
            "use std::collections::HashMap as FastMap;\nuse std::sync::{Mutex, RwLock as RwL};\n";
        let view = TreeView::new(src);
        let it = items(&view);
        let find = |n: &str| it.uses.iter().find(|u| u.name == n).map(|u| u.path.clone());
        assert_eq!(find("FastMap").as_deref(), Some("std::collections::HashMap"));
        assert_eq!(find("Mutex").as_deref(), Some("std::sync::Mutex"));
        assert_eq!(find("RwL").as_deref(), Some("std::sync::RwLock"));
    }

    #[test]
    fn enums_and_variants() {
        let src = "pub enum Phase { A, B(u32), C { x: u8 } }";
        let view = TreeView::new(src);
        let it = items(&view);
        assert_eq!(it.enums.len(), 1);
        let names: Vec<_> = it.enums[0].variants.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "B", "C"]);
    }

    #[test]
    fn generic_fn_bounds_do_not_eat_params() {
        let src = "fn apply<F: Fn(u32) -> bool>(pred: F, x: u32) -> bool { pred(x) }";
        let view = TreeView::new(src);
        let it = items(&view);
        assert_eq!(it.fns[0].params, vec!["pred", "x"]);
    }

    #[test]
    fn tuple_struct_fields() {
        let src = "pub struct PhaseSeconds(pub [f64; 8]);";
        let view = TreeView::new(src);
        let it = items(&view);
        assert_eq!(it.fields.len(), 1);
        assert_eq!(it.fields[0].field, "0");
        assert!(it.fields[0].ty.contains("f64"));
        assert!(it.fields[0].ty.contains('8'));
    }
}
