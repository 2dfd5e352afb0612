//! Centralized suppression: rules emit *every* finding; this pass
//! decides which markers absorb which findings, and turns the leftovers
//! into findings of their own.
//!
//! v1 let each rule consult the allow markers inline, which made a
//! stale marker invisible: once the flagged code was fixed or deleted,
//! the `// jmlint: allow(...)` line stayed behind, silently licensing
//! whatever regression lands there next. v2 inverts the bookkeeping —
//! a marker must *earn its keep* by absorbing a real finding on its
//! line or the line below, or it is reported as `stale_allow`. Markers
//! naming a rule that does not exist are reported the same way.
//!
//! `stale_allow` findings are themselves unsuppressible: the fix for a
//! stale marker is deleting it, not allowing it.

use std::collections::HashSet;

use crate::lexer::SourceFile;
use crate::Finding;

/// Every rule a marker may name. `stale_allow` is deliberately absent.
pub const VALID_RULES: &[&str] = &[
    "hash_iter",
    "one_lock",
    "wall_clock",
    "hot_unwrap",
    "hot_alloc",
    "span_exit",
    "wal_before_effect",
    "epoch_fence",
    "lease_settle_once",
];

/// Filter `raw` findings through `src`'s allow markers. Returns the
/// surviving findings followed by one `stale_allow` finding per marker
/// that suppressed nothing (or names an unknown rule), in line order.
pub fn apply(src: &SourceFile, raw: Vec<Finding>) -> Vec<Finding> {
    // (1-based marker line, rule) pairs that absorbed a finding.
    let mut used: HashSet<(usize, String)> = HashSet::new();
    let mut kept: Vec<Finding> = Vec::new();
    for f in raw {
        let mut suppressed = false;
        for l in [f.line, f.line.saturating_sub(1)] {
            let has = l >= 1
                && src
                    .lines
                    .get(l - 1)
                    .is_some_and(|ln| ln.allow.iter().any(|a| a == f.rule));
            if has {
                used.insert((l, f.rule.to_string()));
                suppressed = true;
            }
        }
        if !suppressed {
            kept.push(f);
        }
    }
    for (i, line) in src.lines.iter().enumerate() {
        let lineno = i + 1;
        for rule in &line.allow {
            let message = if rule == "stale_allow" {
                "`stale_allow` cannot be allowed — delete the stale marker it points at".to_string()
            } else if !VALID_RULES.contains(&rule.as_str()) {
                format!("allow({rule}) names an unknown rule — valid rules: {VALID_RULES:?}")
            } else if !used.contains(&(lineno, rule.clone())) {
                format!("allow({rule}) suppresses nothing here — delete the stale marker")
            } else {
                continue;
            };
            kept.push(Finding {
                path: src.path.clone(),
                line: lineno,
                rule: "stale_allow",
                message,
            });
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn finding(line: usize, rule: &'static str) -> Finding {
        Finding {
            path: PathBuf::from("t.rs"),
            line,
            rule,
            message: "x".into(),
        }
    }

    fn src(text: &str) -> SourceFile {
        SourceFile::parse(Path::new("t.rs"), text)
    }

    #[test]
    fn marker_absorbs_same_line_and_line_below() {
        let s = src("a(); // jmlint: allow(hot_unwrap)\nb();\nc();\n");
        let out = apply(&s, vec![finding(1, "hot_unwrap"), finding(2, "hot_unwrap")]);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn unused_marker_becomes_stale_allow() {
        let s = src("a();\n// jmlint: allow(hash_iter)\nb();\n");
        let out = apply(&s, vec![]);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "stale_allow");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unknown_rule_marker_is_flagged() {
        let s = src("// jmlint: allow(no_such_rule)\na();\n");
        let out = apply(&s, vec![]);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("unknown rule"), "{}", out[0]);
    }

    #[test]
    fn stale_allow_is_unsuppressible() {
        // A marker allowing stale_allow is itself stale.
        let s = src("// jmlint: allow(stale_allow)\n// jmlint: allow(wall_clock)\na();\n");
        let out = apply(&s, vec![]);
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().all(|f| f.rule == "stale_allow"));
    }

    #[test]
    fn findings_without_markers_pass_through() {
        let s = src("a();\nb();\n");
        let out = apply(&s, vec![finding(2, "epoch_fence")]);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "epoch_fence");
    }
}
