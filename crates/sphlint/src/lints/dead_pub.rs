//! `dead-pub` — a `pub fn` that no non-test code of the workspace names.
//!
//! Public surface that nothing calls still has to compile, be documented and
//! keep its tests green, and it reads as a promise that someone relies on it.
//! This lint is the only cross-file one: the workspace driver first folds
//! every file into a [`UseIndex`] (each identifier that non-test code names
//! outside a `use` declaration and outside a `fn` signature's name), then
//! flags each non-test `pub fn` whose name the index lacks. Test code — test
//! modules, `#[test]` functions, integration tests — does not keep a function
//! alive: a function only its tests call is dead surface with a test.
//!
//! The match is by name alone. A dead function that shares its name with a
//! live one (a trait method, another type's `new`) goes unflagged, so the lint
//! can miss dead code; it never flags a function that code names, except one
//! reached only through a doc comment or a string. An explicit-file run
//! (`sphlint <file.rs>…`) sees too little of the workspace to judge, and skips
//! the lint.

use super::{is_ident, Ctx};
use crate::diag::{Diagnostic, DEAD_PUB};
use crate::lexer::{Tok, TokKind};
use crate::model::Model;
use std::collections::HashSet;

/// Every identifier that non-test code of the indexed files names, outside
/// `use` declarations and defining `fn` names.
#[derive(Debug, Default)]
pub struct UseIndex {
    names: HashSet<String>,
}

impl UseIndex {
    /// Fold one lexed file in. `test_file` marks a whole file as test code.
    pub fn add_file(&mut self, toks: &[Tok], model: &Model, test_file: bool) {
        if test_file {
            return;
        }
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident || model.in_test_code(i) {
                i += 1;
                continue;
            }
            if t.text == "use" {
                // A re-export or an import names the function without calling
                // it; every real use names it again past the `;`.
                while i < toks.len() && !(toks[i].kind == TokKind::Punct && toks[i].text == ";") {
                    i += 1;
                }
                continue;
            }
            if t.text == "fn" {
                // Skip the defined name (a `fn(..)` pointer type has none).
                i += if toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident) {
                    2
                } else {
                    1
                };
                continue;
            }
            self.names.insert(t.text.clone());
            i += 1;
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }
}

/// Item qualifiers that may stand between `pub` and `fn`.
const QUALIFIERS: &[&str] = &["const", "async", "unsafe", "extern"];

pub fn check(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    let Some(uses) = ctx.uses else {
        return;
    };
    let toks = ctx.toks;
    for i in 0..toks.len() {
        if !is_ident(&toks[i], "pub") || ctx.is_test(i) {
            continue;
        }
        let mut j = i + 1;
        while j < toks.len() && (QUALIFIERS.iter().any(|q| is_ident(&toks[j], q)) || toks[j].kind == TokKind::Str) {
            j += 1;
        }
        if !toks.get(j).is_some_and(|t| is_ident(t, "fn")) {
            continue;
        }
        let Some(name) = toks.get(j + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if uses.contains(&name.text) {
            continue;
        }
        ctx.diag(
            out,
            i,
            DEAD_PUB,
            format!(
                "`pub fn {}` is named by no non-test code of the workspace: only its tests, if any, keep it",
                name.text
            ),
            "delete it with the tests that only exercise it; while a deletion is pending, \
             `// sphlint::allow(dead-pub, pending deletion)` — the workspace test pins how many are"
                .into(),
        );
    }
}
