//! `collective-order` — the "every rank the same collectives, in the same
//! order, or none" contract from the PR 4 cross-collective race and the PR 6
//! shared-sink rule.
//!
//! A `Comm` collective issued under a condition that can differ between
//! ranks (anything derived from the rank id or per-rank particle
//! populations) deadlocks or cross-matches envelopes as soon as the
//! condition splits the world. The lint flags:
//!
//! * a collective call lexically inside a branch whose condition references
//!   rank-divergent state (`rank`, `*_rank`, `n_owned`, `n_ghosts`, …);
//! * a collective call *after* a rank-divergent branch that early-exits
//!   (`return` skips the rest of the function on some ranks only;
//!   `continue`/`break` skip the rest of the enclosing loop body);
//! * a nonblocking `isend`/`irecv` post whose handle is still un-waited when
//!   a later collective in the same function runs (the PR 9 overlap
//!   contract): the collective is a synchronisation point, and a handle
//!   crossing it makes completion order rank-dependent — post, compute,
//!   `wait`, *then* collect. Handles that escape the function (returned or
//!   stored for a later step) are the caller's responsibility and not
//!   flagged.
//!
//! Conditions derived from replicated data (allgathered counts, shared
//! scenario config, a shared telemetry `Arc`) are uniform and not flagged.
//! A provably uniform use of a rank-mentioning condition can be suppressed
//! with `// sphlint::allow(collective-order, <why it is uniform>)`.

use super::{is_ident, is_method_call, is_punct, snippet, Ctx};
use crate::diag::{Diagnostic, COLLECTIVE_ORDER};
use crate::lexer::TokKind;
use crate::model::Cond;

/// Collectives with names distinctive enough to match on any receiver.
const DISTINCTIVE: &[&str] = &[
    "allgather",
    "alltoall",
    "allreduce_sum",
    "allreduce_max",
    "allreduce_min",
];
/// Collectives whose names collide with ordinary methods (`ParticleSet::gather`),
/// matched only on a `comm` receiver (`self.comm.gather`, `comm.barrier`,
/// `sim.comm().broadcast`).
const COMM_ONLY: &[&str] = &["gather", "broadcast", "barrier"];

/// Identifiers whose value differs across ranks by construction.
fn divergent_ident(name: &str) -> bool {
    name == "rank"
        || name == "rank_tag"
        || name == "n_owned"
        || name == "n_ghosts"
        || name == "is_root"
        || (name.ends_with("_rank") && name != "n_rank")
}

fn cond_divergent(ctx: &Ctx, cond: (usize, usize)) -> bool {
    ctx.toks[cond.0..cond.1.min(ctx.toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && divergent_ident(&t.text))
}

/// Does the conditional body contain an early exit of the given kinds?
fn body_has_exit(ctx: &Ctx, body: (usize, usize), kinds: &[&str]) -> bool {
    ctx.toks[body.0..body.1.min(ctx.toks.len())]
        .iter()
        .any(|t| t.kind == TokKind::Ident && kinds.contains(&t.text.as_str()))
}

fn is_collective_at(ctx: &Ctx, i: usize) -> bool {
    let t = &ctx.toks[i];
    if t.kind != TokKind::Ident || !is_method_call(ctx.toks, i) {
        return false;
    }
    let name = t.text.as_str();
    if DISTINCTIVE.contains(&name) {
        return true;
    }
    if COMM_ONLY.contains(&name) {
        // Receiver must end in `comm` or `comm()`.
        let before = &ctx.toks[..i - 1];
        if let Some(last) = before.last() {
            if is_ident(last, "comm") {
                return true;
            }
            if is_punct(last, ")")
                && before.len() >= 3
                && is_punct(&before[before.len() - 2], "(")
                && is_ident(&before[before.len() - 3], "comm")
            {
                return true;
            }
        }
        return false;
    }
    false
}

/// Case 3: a nonblocking `isend`/`irecv` post whose handle has not been
/// `wait`ed by the time a later collective in the same function runs. The
/// scan is lexical: from the post forward to the end of the enclosing
/// function, the first `.wait(...)` method call counts as completion (the
/// overlap pattern always drains every handle it posted once it drains any),
/// and a collective reached first is the violation. Posts whose handles
/// escape the function never meet a later collective here and are not
/// flagged.
fn check_unwaited_handles(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident
            || !(t.text == "isend" || t.text == "irecv")
            || !is_method_call(ctx.toks, i)
            || ctx.is_test(i)
        {
            continue;
        }
        let Some(func) = ctx.model.func_at(i) else {
            continue;
        };
        let post = t.text.clone();
        for j in i + 1..func.body.1.min(ctx.toks.len()) {
            let a = &ctx.toks[j];
            if a.kind == TokKind::Ident && a.text == "wait" && is_method_call(ctx.toks, j) {
                break; // the posted handles are drained before any collective
            }
            if is_collective_at(ctx, j) {
                ctx.diag(
                    out,
                    i,
                    COLLECTIVE_ORDER,
                    format!(
                        "nonblocking `{post}` posted here is still un-waited when the collective \
                         `{}` (line {}) runs: a collective is a synchronisation point, and an \
                         in-flight handle crossing it makes completion order rank-dependent",
                        ctx.toks[j].text, ctx.toks[j].line,
                    ),
                    "`wait` every posted handle before the collective (post, compute, wait, \
                     collect), or move the collective ahead of the post"
                        .into(),
                );
                break;
            }
        }
    }
}

pub(crate) fn check(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    check_unwaited_handles(ctx, out);
    let divergent: Vec<&Cond> = ctx.model.conds.iter().filter(|c| cond_divergent(ctx, c.cond)).collect();
    if divergent.is_empty() {
        return;
    }
    for i in 0..ctx.toks.len() {
        if !is_collective_at(ctx, i) || ctx.is_test(i) {
            continue;
        }
        let name = &ctx.toks[i].text;
        // Case 1: collective inside a rank-divergent branch.
        if let Some(c) = divergent.iter().find(|c| c.body.0 <= i && i < c.body.1) {
            ctx.diag(
                out,
                i,
                COLLECTIVE_ORDER,
                format!(
                    "collective `{name}` issued under the rank-divergent condition `{}`: ranks \
                     taking different branches issue different collective sequences, which \
                     deadlocks or cross-matches envelopes (the PR 4 gather/broadcast race)",
                    snippet(ctx.toks, c.cond)
                ),
                "hoist the collective out of the branch, or derive the condition from \
                 replicated data (allgather it first); if the condition is provably uniform, \
                 suppress with `// sphlint::allow(collective-order, <why it is uniform>)`"
                    .into(),
            );
            continue;
        }
        // Case 2: collective after a rank-divergent early exit.
        let Some(func) = ctx.model.func_at(i) else {
            continue;
        };
        for c in &divergent {
            if c.body.1 > i || c.body.0 < func.body.0 || c.body.1 > func.body.1 {
                continue; // not an earlier branch of this function
            }
            let reaches = if body_has_exit(ctx, c.body, &["return"]) {
                true // skips the rest of the function on some ranks
            } else if body_has_exit(ctx, c.body, &["continue", "break"]) {
                // Skips the rest of the enclosing loop body only.
                ctx.model.loop_at(c.body.0).is_some_and(|l| l.0 <= i && i < l.1)
            } else {
                false
            };
            if reaches {
                ctx.diag(
                    out,
                    i,
                    COLLECTIVE_ORDER,
                    format!(
                        "collective `{name}` is skipped on ranks that took the early exit under \
                         the rank-divergent condition `{}` (line {}): the world no longer agrees \
                         on the collective sequence",
                        snippet(ctx.toks, c.cond),
                        ctx.toks[c.cond.0].line,
                    ),
                    "make the early exit a collective decision (reduce the predicate first) or \
                     move the collective above the branch; if provably uniform, suppress with \
                     `// sphlint::allow(collective-order, <reason>)`"
                        .into(),
                );
                break;
            }
        }
    }
}
