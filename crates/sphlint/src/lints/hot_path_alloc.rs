//! `hot-path-alloc` — the zero-steady-state-allocation contract of the warm
//! neighbour pipeline (pinned dynamically by the `alloc_free_neighbors`
//! counting-allocator test; this lint proves the shape at the source level).
//!
//! In warm-path modules, fresh heap construction is flagged: `Vec::new()`,
//! `Vec::with_capacity`, `vec![..]`, `Box::new`, `format!`, `.collect()`,
//! `.to_vec()`, `.to_string()`, `.to_owned()`, `.clone()`.
//!
//! Growth calls (`push`/`extend*`/`resize*`/`reserve`/`append`/`insert`) are
//! allowed **only** on retained buffers — receivers rooted at `self` or at a
//! `&mut` parameter — which is the workspace reuse idiom (`clear()` +
//! `reserve()` + fill into storage that survives the call). Growth into a
//! local is a fresh allocation wearing a loop, and is flagged.
//!
//! Recognised cold constructors (`new`, `default`, `empty`, `build`,
//! `with_capacity`, `of_points`) are exempt: they run once, not per step.

use super::{is_ident, is_method_call, is_punct, receiver_root, Ctx};
use crate::diag::{Diagnostic, HOT_PATH_ALLOC};
use crate::lexer::TokKind;
use crate::model::Func;

const COLD_FNS: &[&str] = &["new", "default", "empty", "build", "with_capacity", "of_points"];
const FRESH_METHODS: &[&str] = &["to_vec", "to_string", "to_owned", "clone"];
const GROW_METHODS: &[&str] = &[
    "push",
    "extend",
    "extend_from_slice",
    "resize",
    "resize_with",
    "reserve",
    "append",
    "insert",
];

/// Names of `&mut` parameters of `func` (retained buffers owned by the
/// caller). `self` is always retained.
fn retained_params(ctx: &Ctx, func: &Func) -> Vec<String> {
    let mut out = Vec::new();
    let (start, end) = func.params;
    if end <= start + 2 {
        return out;
    }
    // Split the param list on top-level commas.
    let mut depth = 0i64;
    let mut group_start = start + 1;
    let mut groups: Vec<(usize, usize)> = Vec::new();
    for i in start + 1..end - 1 {
        let t = &ctx.toks[i];
        if is_punct(t, "(") || is_punct(t, "[") || is_punct(t, "<") {
            depth += 1;
        } else if is_punct(t, ")") || is_punct(t, "]") || is_punct(t, ">") {
            depth -= 1;
        } else if t.kind == TokKind::Punct && t.text == "<<" {
            depth += 2;
        } else if t.kind == TokKind::Punct && t.text == ">>" {
            depth -= 2;
        } else if is_punct(t, ",") && depth == 0 {
            groups.push((group_start, i));
            group_start = i + 1;
        }
    }
    if group_start < end - 1 {
        groups.push((group_start, end - 1));
    }
    for (gs, ge) in groups {
        // Name = last ident before the top-level `:`; type = tokens after it.
        let Some(colon) = (gs..ge).find(|&i| is_punct(&ctx.toks[i], ":")) else {
            continue; // a `self` receiver form; `self` is always retained
        };
        let name = ctx.toks[gs..colon]
            .iter()
            .rev()
            .find(|t| t.kind == TokKind::Ident && t.text != "mut")
            .map(|t| t.text.clone());
        // `&mut T` (allowing a lifetime between `&` and `mut`).
        let mut ty = colon + 1;
        if ty < ge && is_punct(&ctx.toks[ty], "&") {
            ty += 1;
            if ty < ge && ctx.toks[ty].kind == TokKind::Lifetime {
                ty += 1;
            }
            if ty < ge && is_ident(&ctx.toks[ty], "mut") {
                if let Some(name) = name {
                    out.push(name);
                }
            }
        }
    }
    out
}

fn flag(ctx: &Ctx, out: &mut Vec<Diagnostic>, idx: usize, what: &str) {
    ctx.diag(
        out,
        idx,
        HOT_PATH_ALLOC,
        format!(
            "{what} in a warm-path module: the neighbour pipeline must perform zero heap \
             allocations at steady state (pinned by `alloc_free_neighbors`)"
        ),
        "route the buffer through `StepWorkspace`/scratch parameters (clear + reserve + fill \
         into retained storage), or suppress a cold-path convenience with \
         `// sphlint::allow(hot-path-alloc, <why this never runs per step>)`"
            .into(),
    );
}

pub(crate) fn check(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    if !ctx.class.warm_path {
        return;
    }
    for func in &ctx.model.funcs {
        if func.is_test || COLD_FNS.contains(&func.name.as_str()) || func.body.1 <= func.body.0 {
            continue;
        }
        // Skip functions nested inside a cold constructor.
        if ctx
            .model
            .funcs
            .iter()
            .any(|f| COLD_FNS.contains(&f.name.as_str()) && f.body.0 < func.body.0 && func.body.1 < f.body.1)
        {
            continue;
        }
        let retained = retained_params(ctx, func);
        let (bs, be) = func.body;
        let mut i = bs;
        while i < be.min(ctx.toks.len()) {
            let t = &ctx.toks[i];
            if t.kind != TokKind::Ident {
                i += 1;
                continue;
            }
            // Skip tokens owned by a nested non-test fn: they get their own pass.
            if ctx.model.func_at(i).map(|f| f.body) != Some(func.body) {
                i += 1;
                continue;
            }
            let nxt = |k: usize| ctx.toks.get(i + k);
            let name = t.text.as_str();
            // Vec::new() / String::new() / Vec::with_capacity(..) / Box::new(..)
            if (name == "Vec" || name == "String" || name == "Box")
                && nxt(1).is_some_and(|t| is_punct(t, "::"))
                && nxt(2).is_some_and(|t| t.kind == TokKind::Ident)
                && nxt(3).is_some_and(|t| is_punct(t, "("))
            {
                let m = &ctx.toks[i + 2].text;
                if m == "new" || m == "with_capacity" || m == "from" {
                    flag(ctx, out, i, &format!("fresh `{name}::{m}(..)`"));
                    i += 4;
                    continue;
                }
            }
            // vec![..] / format!(..)
            if (name == "vec" || name == "format") && nxt(1).is_some_and(|t| is_punct(t, "!")) {
                flag(ctx, out, i, &format!("`{name}!` allocation"));
                i += 2;
                continue;
            }
            // .collect() / .collect::<..>()
            if name == "collect"
                && i > 0
                && is_punct(&ctx.toks[i - 1], ".")
                && nxt(1).is_some_and(|t| is_punct(t, "(") || is_punct(t, "::"))
            {
                flag(ctx, out, i, "`.collect()` into a fresh container");
                i += 1;
                continue;
            }
            if FRESH_METHODS.contains(&name) && is_method_call(ctx.toks, i) {
                flag(ctx, out, i, &format!("owning `.{name}()`"));
                i += 1;
                continue;
            }
            if GROW_METHODS.contains(&name) && is_method_call(ctx.toks, i) {
                let root = receiver_root(ctx.toks, i - 1);
                let allowed = match &root {
                    Some(r) => r == "self" || retained.contains(r),
                    None => false,
                };
                if !allowed {
                    flag(
                        ctx,
                        out,
                        i,
                        &format!(
                            "`.{name}()` grows `{}`, which is not a retained buffer (`self` \
                             field or `&mut` parameter)",
                            root.as_deref().unwrap_or("a temporary")
                        ),
                    );
                }
                i += 1;
                continue;
            }
            i += 1;
        }
    }
}
