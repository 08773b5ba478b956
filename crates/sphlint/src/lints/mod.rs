//! The lint framework: file classification, shared token utilities, and the
//! registry that runs every lint over one lexed + modelled source file.

pub mod collective_order;
pub mod dead_pub;
pub mod float_determinism;
pub mod hot_path_alloc;
pub mod min_image;
pub mod telemetry_naming;

use crate::diag::Diagnostic;
use crate::lexer::{Tok, TokKind};
use crate::model::Model;

/// What contracts apply to a file. The workspace driver classifies real
/// paths; the fixture corpus sets these directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct FileClass {
    /// Warm-path module: the zero-steady-state-allocation contract applies
    /// (kernels, CSR builder, octree, step workspace).
    pub warm_path: bool,
    /// Pair-kernel module: every position-pair separation must go through
    /// the shared minimum-image map.
    pub pair_kernel: bool,
    /// The whole file is test code (an integration test).
    pub test_file: bool,
}

/// Everything a lint needs to inspect one file.
pub struct Ctx<'a> {
    pub file: &'a str,
    pub toks: &'a [Tok],
    pub model: &'a Model,
    pub class: FileClass,
    /// The workspace's identifier uses; `None` when the run does not cover
    /// the whole workspace, which turns the cross-file `dead-pub` lint off.
    pub uses: Option<&'a dead_pub::UseIndex>,
}

impl<'a> Ctx<'a> {
    /// Is the token at `idx` owned by test code?
    pub fn is_test(&self, idx: usize) -> bool {
        self.class.test_file || self.model.in_test_code(idx)
    }

    pub fn diag(&self, out: &mut Vec<Diagnostic>, idx: usize, lint: &'static str, message: String, suggestion: String) {
        out.push(Diagnostic {
            file: self.file.to_string(),
            line: self.toks[idx].line,
            lint,
            message,
            suggestion,
        });
    }
}

/// Run every lint over one file.
pub fn run_all(ctx: &Ctx) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    collective_order::check(ctx, &mut out);
    hot_path_alloc::check(ctx, &mut out);
    min_image::check(ctx, &mut out);
    float_determinism::check(ctx, &mut out);
    telemetry_naming::check(ctx, &mut out);
    dead_pub::check(ctx, &mut out);
    out
}

pub(crate) fn is_punct(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Punct && t.text == s
}

pub(crate) fn is_ident(t: &Tok, s: &str) -> bool {
    t.kind == TokKind::Ident && t.text == s
}

/// Is token `idx` a method call `.<name>(`? Returns true when the previous
/// token is `.` and the next is `(`.
pub(crate) fn is_method_call(toks: &[Tok], idx: usize) -> bool {
    idx > 0 && is_punct(&toks[idx - 1], ".") && idx + 1 < toks.len() && is_punct(&toks[idx + 1], "(")
}

/// Root identifier of a receiver chain ending just before the `.` at
/// `dot_idx`: `self.nodes` -> `self`, `scratch.rows[..n]` -> `scratch`,
/// `sim.comm().gather` -> `sim`. Returns `None` for literal/temporary
/// receivers (`(a + b).push(..)` etc.).
pub(crate) fn receiver_root(toks: &[Tok], dot_idx: usize) -> Option<String> {
    let mut i = dot_idx; // points at the `.`
    let mut root: Option<String> = None;
    loop {
        if i == 0 {
            break;
        }
        let prev = &toks[i - 1];
        if is_punct(prev, "]") || is_punct(prev, ")") {
            // Walk back over the bracketed group.
            let (open, close) = if prev.text == "]" { ("[", "]") } else { ("(", ")") };
            let mut depth = 0i64;
            let mut j = i - 1;
            loop {
                if is_punct(&toks[j], close) {
                    depth += 1;
                } else if is_punct(&toks[j], open) {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    return root;
                }
                j -= 1;
            }
            i = j;
            continue;
        }
        if prev.kind == TokKind::Ident {
            root = Some(prev.text.clone());
            i -= 1;
            // Keep walking if the ident is itself part of a field chain.
            if i > 0 && (is_punct(&toks[i - 1], ".") || is_punct(&toks[i - 1], "::")) {
                i -= 1;
                continue;
            }
            break;
        }
        break;
    }
    root
}

/// Render a token range as a short one-line snippet for messages.
pub(crate) fn snippet(toks: &[Tok], range: (usize, usize)) -> String {
    let mut s = String::new();
    for t in &toks[range.0..range.1.min(toks.len())] {
        if !s.is_empty()
            && (t.kind != TokKind::Punct || t.text.len() > 1)
            && !matches!(s.chars().last(), Some('(') | Some('[') | Some('.'))
        {
            s.push(' ');
        }
        match t.kind {
            TokKind::Str => {
                s.push('"');
                s.push_str(&t.text);
                s.push('"');
            }
            _ => s.push_str(&t.text),
        }
        if s.len() > 60 {
            s.push_str(" …");
            break;
        }
    }
    s
}
