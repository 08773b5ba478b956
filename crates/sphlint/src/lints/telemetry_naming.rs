//! `telemetry-naming` — every metric/span name must follow the documented
//! grammar (README "Observability"), so dashboards, the Chrome-trace
//! validator and the summary tables can parse streams from any build:
//!
//! ```text
//! comm.<kind>.<calls|messages|bytes>   kind ∈ {gather, broadcast, allreduce,
//!                                              allgather, alltoall, barrier, p2p}
//! comm.<backend>.<kind>.<field>        backend ∈ {shm, socket}; per-transport
//!                                      splits of the same counters
//! comm.overlap.<metric>                ghost-exchange overlap gauges
//! health.<metric>                      per-step conservation / neighbour gauges
//!                                      (incl. the `health.dt_bins` rung histogram)
//! sim.rank<r>.<metric>                 per-rank population gauges
//! sim.<subsystem>.events               monotonic event counters (autotune
//!                                      retunes, `sim.timestep.events` cycle plans)
//! pmt.<metric>                         power-meter internals
//! <stage>.propose | <stage>.observe    autotune decision instants
//! ```
//!
//! Segments may be format placeholders (`{rank}`, `{}`) or documentation
//! placeholders (`<kind>`). The lint checks (a) every string literal whose
//! first segment is a reserved root, wherever it appears (names are often
//! built with `format!` away from the emission site), and (b) dotted
//! literals passed directly to counter/gauge/histogram/span/instant calls,
//! whose root must be reserved (or a `<stage>.propose/observe` instant).
//! Span/instant/gauge *categories* must come from the documented set.

use super::{is_method_call, is_punct, Ctx};
use crate::diag::{Diagnostic, TELEMETRY_NAMING};
use crate::lexer::TokKind;

const RESERVED_ROOTS: &[&str] = &["comm", "health", "sim", "pmt"];
const COMM_KINDS: &[&str] = &[
    "gather",
    "broadcast",
    "allreduce",
    "allgather",
    "alltoall",
    "barrier",
    "p2p",
];
const COMM_FIELDS: &[&str] = &["calls", "messages", "bytes"];
const COMM_BACKENDS: &[&str] = &["shm", "socket"];
const CATEGORIES: &[&str] = &["step", "stage", "health", "sim", "comm", "autotune", "power"];
const METRIC_METHODS: &[&str] = &["counter", "gauge", "histogram", "counter_sample", "instant", "span"];

fn is_placeholder(seg: &str) -> bool {
    seg.contains('{') || seg.contains('<')
}

fn is_metric_ident(seg: &str) -> bool {
    !seg.is_empty() && seg.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Validate a dotted name with a reserved root; `None` means well-formed.
fn grammar_error(name: &str) -> Option<String> {
    let segs: Vec<&str> = name.split('.').collect();
    let root = segs[0];
    let ok = match root {
        "comm" => match segs.len() {
            // `comm.overlap.<metric>` gauges, or the classic
            // `comm.<kind>.<calls|messages|bytes>` counters.
            3 => {
                (segs[1] == "overlap" && (is_placeholder(segs[2]) || is_metric_ident(segs[2])))
                    || ((is_placeholder(segs[1]) || COMM_KINDS.contains(&segs[1]))
                        && (is_placeholder(segs[2]) || COMM_FIELDS.contains(&segs[2])))
            }
            // Per-transport splits: `comm.<backend>.<kind>.<field>`.
            4 => {
                (is_placeholder(segs[1]) || COMM_BACKENDS.contains(&segs[1]))
                    && (is_placeholder(segs[2]) || COMM_KINDS.contains(&segs[2]))
                    && (is_placeholder(segs[3]) || COMM_FIELDS.contains(&segs[3]))
            }
            _ => false,
        },
        "health" | "pmt" => segs.len() == 2 && (is_placeholder(segs[1]) || is_metric_ident(segs[1])),
        "sim" => {
            segs.len() == 3
                && ((segs[1].starts_with("rank")
                    && {
                        let r = &segs[1][4..];
                        !r.is_empty() && (is_placeholder(r) || r.chars().all(|c| c.is_ascii_digit()))
                    }
                    && (is_placeholder(segs[2]) || is_metric_ident(segs[2])))
                    || (segs[2] == "events" && (is_placeholder(segs[1]) || is_metric_ident(segs[1]))))
        }
        _ => return Some(format!("`{root}` is not a documented metric root")),
    };
    if ok {
        None
    } else {
        Some(match root {
            "comm" => "expected `comm.<kind>.<calls|messages|bytes>`, \
                       `comm.<shm|socket>.<kind>.<field>` or `comm.overlap.<metric>`"
                .into(),
            "health" => "expected `health.<metric>`".into(),
            "pmt" => "expected `pmt.<metric>`".into(),
            _ => "expected `sim.rank<r>.<metric>` or `sim.<subsystem>.events`".into(),
        })
    }
}

pub(crate) fn check(ctx: &Ctx, out: &mut Vec<Diagnostic>) {
    // Pass A: reserved-root literals anywhere in live code.
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Str || ctx.is_test(i) || !t.text.contains('.') {
            continue;
        }
        let root = t.text.split('.').next().unwrap_or("");
        if !RESERVED_ROOTS.contains(&root) {
            continue;
        }
        if let Some(err) = grammar_error(&t.text) {
            ctx.diag(
                out,
                i,
                TELEMETRY_NAMING,
                format!("telemetry name \"{}\" violates the documented grammar: {err}", t.text),
                "follow the README \"Observability\" naming table (the Chrome-trace validator \
                 and summary emitters parse these prefixes); a deliberate off-grammar name \
                 needs `// sphlint::allow(telemetry-naming, <consumer that expects it>)`"
                    .into(),
            );
        }
    }
    // Pass B: literals passed directly to the metric/span constructors.
    for i in 0..ctx.toks.len() {
        let t = &ctx.toks[i];
        if t.kind != TokKind::Ident
            || !METRIC_METHODS.contains(&t.text.as_str())
            || !is_method_call(ctx.toks, i)
            || ctx.is_test(i)
        {
            continue;
        }
        let open = i + 1;
        let mut depth = 0i64;
        let mut j = open;
        let mut first_arg_str: Option<usize> = None;
        while j < ctx.toks.len() {
            let a = &ctx.toks[j];
            if is_punct(a, "(") {
                depth += 1;
            } else if is_punct(a, ")") {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else {
                if j == open + 1 && a.kind == TokKind::Str {
                    first_arg_str = Some(j);
                }
                if a.kind == TokKind::Str && a.text.contains('.') {
                    let root = a.text.split('.').next().unwrap_or("");
                    if !RESERVED_ROOTS.contains(&root) {
                        // `<stage>.propose` / `<stage>.observe` instants are
                        // the one non-reserved dotted family.
                        let segs: Vec<&str> = a.text.split('.').collect();
                        let decision = segs.len() == 2
                            && is_placeholder(segs[0])
                            && (segs[1] == "propose" || segs[1] == "observe");
                        if !decision {
                            ctx.diag(
                                out,
                                j,
                                TELEMETRY_NAMING,
                                format!(
                                    "metric name \"{}\" passed to `{}` is outside every \
                                     documented grammar root (comm/health/sim/pmt or \
                                     `<stage>.propose|observe`)",
                                    a.text, t.text
                                ),
                                "pick a documented root or extend the grammar in the README \
                                 *and* this lint together; suppress only with a consumer cited: \
                                 `// sphlint::allow(telemetry-naming, <consumer>)`"
                                    .into(),
                            );
                        }
                    }
                }
            }
            j += 1;
        }
        // Category check for the event-stream constructors (first literal
        // argument without a dot = the track category).
        if matches!(t.text.as_str(), "span" | "instant" | "gauge" | "counter_sample") {
            if let Some(k) = first_arg_str {
                let cat = &ctx.toks[k].text;
                if !cat.contains('.') && !CATEGORIES.contains(&cat.as_str()) {
                    ctx.diag(
                        out,
                        k,
                        TELEMETRY_NAMING,
                        format!(
                            "span/track category \"{cat}\" is not in the documented set \
                             {CATEGORIES:?}"
                        ),
                        "use an existing category, or add the new one to the README \
                         \"Observability\" table and this lint in the same change"
                            .into(),
                    );
                }
            }
        }
    }
}
