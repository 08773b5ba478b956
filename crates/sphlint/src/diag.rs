//! Diagnostics, the `sphlint::allow` escape hatch, and the JSONL report
//! codec (hand-rolled, in the same idiom as the telemetry crate's writers).

use crate::lexer::Comment;

/// Stable lint identifiers — these are the public contract names used in
/// diagnostics, suppressions, fixtures and the README table.
pub const COLLECTIVE_ORDER: &str = "collective-order";
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
pub const MIN_IMAGE: &str = "min-image-discipline";
pub const FLOAT_DETERMINISM: &str = "float-determinism";
pub const TELEMETRY_NAMING: &str = "telemetry-naming";
pub const DEAD_PUB: &str = "dead-pub";
/// Malformed `sphlint::allow` comments are themselves diagnosed (an allow
/// without a reason is a contract violation: the reason *is* the audit trail).
pub const ALLOW_SYNTAX: &str = "allow-syntax";

pub const ALL_LINTS: &[&str] = &[
    COLLECTIVE_ORDER,
    HOT_PATH_ALLOC,
    MIN_IMAGE,
    FLOAT_DETERMINISM,
    TELEMETRY_NAMING,
    DEAD_PUB,
    ALLOW_SYNTAX,
];

/// One machine-readable finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path as given to the analyzer (workspace-relative in `--workspace`).
    pub file: String,
    /// 1-indexed source line of the offending token.
    pub line: u32,
    pub lint: &'static str,
    pub message: String,
    pub suggestion: String,
}

impl Diagnostic {
    /// `file:line: [lint] message` — the clickable human form.
    pub fn render(&self) -> String {
        format!(
            "{}:{}: [{}] {}\n    suggestion: {}",
            self.file, self.line, self.lint, self.message, self.suggestion
        )
    }

    /// One JSONL record, telemetry-codec style (manual escaping, flat keys).
    pub fn to_jsonl(&self) -> String {
        format!(
            "{{\"file\": {}, \"line\": {}, \"lint\": {}, \"message\": {}, \"suggestion\": {}}}",
            json_str(&self.file),
            self.line,
            json_str(self.lint),
            json_str(&self.message),
            json_str(&self.suggestion)
        )
    }
}

/// Minimal JSON string escaping (mirrors `telemetry::json`).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed `// sphlint::allow(<lint-id>, <reason>)`. The suppression covers
/// its own line (trailing comment) and the line directly below (comment on
/// its own line above the construct).
#[derive(Debug, Clone)]
pub struct Suppression {
    pub line: u32,
    pub lint: &'static str,
}

/// Extract suppressions from the file's line comments; malformed allows are
/// reported as `allow-syntax` diagnostics instead.
pub fn parse_suppressions(comments: &[Comment]) -> (Vec<Suppression>, Vec<(u32, String)>) {
    let mut ok = Vec::new();
    let mut bad = Vec::new();
    for c in comments {
        // Doc comments describe the syntax (this file does!); only plain
        // `//` comments invoke it.
        if c.doc {
            continue;
        }
        let Some(at) = c.text.find("sphlint::allow") else {
            continue;
        };
        let rest = &c.text[at + "sphlint::allow".len()..];
        let parsed = (|| -> Result<&'static str, String> {
            let rest = rest.trim_start();
            let inner = rest.strip_prefix('(').ok_or("expected `sphlint::allow(<lint-id>, <reason>)`")?;
            let close = inner.rfind(')').ok_or("missing closing `)`")?;
            let inner = &inner[..close];
            let (id, reason) = inner
                .split_once(',')
                .ok_or("missing `, <reason>` — every suppression must say why")?;
            let id = id.trim().trim_matches('"');
            let reason = reason.trim().trim_matches('"').trim();
            let known = ALL_LINTS
                .iter()
                .find(|&&l| l == id)
                .ok_or_else(|| format!("unknown lint id `{id}`"))?;
            if reason.is_empty() {
                return Err("empty reason — every suppression must say why".into());
            }
            Ok(known)
        })();
        match parsed {
            Ok(lint) => ok.push(Suppression { line: c.line, lint }),
            Err(why) => bad.push((c.line, why)),
        }
    }
    (ok, bad)
}

/// Split diagnostics into (kept, suppressed) by the file's suppressions.
pub fn apply_suppressions(diags: Vec<Diagnostic>, sups: &[Suppression]) -> (Vec<Diagnostic>, Vec<Diagnostic>) {
    diags.into_iter().partition(|d| {
        !sups
            .iter()
            .any(|s| s.lint == d.lint && (s.line == d.line || s.line + 1 == d.line))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn sups(src: &str) -> (Vec<Suppression>, Vec<(u32, String)>) {
        parse_suppressions(&lex(src).comments)
    }

    #[test]
    fn wellformed_allow_parses() {
        let (ok, bad) = sups("// sphlint::allow(hot-path-alloc, \"cold-path convenience\")\n");
        assert_eq!(ok.len(), 1);
        assert_eq!(ok[0].lint, HOT_PATH_ALLOC);
        assert!(bad.is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let (ok, bad) = sups("// sphlint::allow(hot-path-alloc)\n");
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn allow_with_empty_reason_is_rejected() {
        let (ok, bad) = sups("// sphlint::allow(hot-path-alloc, \"\")\n");
        assert!(ok.is_empty());
        assert_eq!(bad.len(), 1);
    }

    #[test]
    fn allow_with_unknown_lint_is_rejected() {
        let (ok, bad) = sups("// sphlint::allow(made-up-lint, \"because\")\n");
        assert!(ok.is_empty());
        assert!(bad[0].1.contains("unknown lint id"));
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let d = |line| Diagnostic {
            file: "f.rs".into(),
            line,
            lint: FLOAT_DETERMINISM,
            message: String::new(),
            suggestion: String::new(),
        };
        let s = vec![Suppression {
            line: 4,
            lint: FLOAT_DETERMINISM,
        }];
        let (kept, suppressed) = apply_suppressions(vec![d(4), d(5), d(6)], &s);
        assert_eq!(suppressed.len(), 2);
        assert_eq!(kept.len(), 1);
        assert_eq!(kept[0].line, 6);
    }

    #[test]
    fn suppression_is_lint_specific() {
        let d = Diagnostic {
            file: "f.rs".into(),
            line: 4,
            lint: MIN_IMAGE,
            message: String::new(),
            suggestion: String::new(),
        };
        let s = vec![Suppression {
            line: 4,
            lint: FLOAT_DETERMINISM,
        }];
        let (kept, suppressed) = apply_suppressions(vec![d], &s);
        assert!(suppressed.is_empty());
        assert_eq!(kept.len(), 1);
    }

    #[test]
    fn jsonl_escapes_quotes() {
        let d = Diagnostic {
            file: "a.rs".into(),
            line: 1,
            lint: TELEMETRY_NAMING,
            message: "literal \"x.y\" bad".into(),
            suggestion: "s".into(),
        };
        assert!(d.to_jsonl().contains("\\\"x.y\\\""));
    }
}
