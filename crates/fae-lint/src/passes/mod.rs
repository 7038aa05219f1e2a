//! The workspace passes: phase-balance, lock-order and wire-compat.
//!
//! They need cross-file context, so they run once per lint invocation
//! over the parsed file set, and their findings go through the same
//! pragma/test-region suppression as every other rule. Each file is
//! parsed once, by the caller ([`crate::parse`]); a pass reads the
//! [`TreeView`] and [`Items`] its [`PassFile`] carries and never
//! re-tokenizes. The per-file determinism-taint pass lives in
//! [`crate::flow`].

pub mod lock_order;
pub mod phase_balance;
pub mod wire_compat;

use std::path::PathBuf;

use crate::tree::{Items, TreeView};

/// A finding from a workspace pass, before pragma suppression.
#[derive(Debug, Clone)]
pub struct PassDiag {
    /// Workspace-relative file the finding is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// Byte offset in that file (for `#[cfg(test)]` exemption).
    pub offset: usize,
    /// Rule id.
    pub rule: &'static str,
    /// Explanation.
    pub message: String,
}

/// One parsed source file, as every rule and pass reads it.
pub struct PassFile<'s> {
    /// Workspace-relative path.
    pub rel: PathBuf,
    /// Tokens, comments and token tree over the file's source.
    pub view: TreeView<'s>,
    /// The items extracted from `view`.
    pub items: Items,
    /// How the file is classified (determinism scope, net scope, ...).
    pub class: crate::FileClass,
}
