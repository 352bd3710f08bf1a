//! Findings, severities, suppression accounting, and output rendering.

use ldp_obs::json::Json;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Finding severity. `Error` findings fail the check; `Warn` findings
/// are reported but do not affect the exit code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warn,
    Error,
}

impl Severity {
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Error => "error",
        }
    }
}

/// One finding: rule, location, message.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: &'static str,
    pub severity: Severity,
    /// Path relative to the scan root, forward slashes.
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// One applied (or stale) suppression, for the allowlist-drift summary.
#[derive(Debug, Clone)]
pub struct AppliedAllow {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub reason: String,
    /// How many findings this annotation suppressed (0 = stale).
    pub suppressed: usize,
}

/// The result of one full check run.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub allows: Vec<AppliedAllow>,
    /// Files scanned, for the summary line.
    pub files_scanned: usize,
}

impl Report {
    pub fn error_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }

    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Warn)
            .count()
    }

    /// Whether the check should fail (any error-level finding).
    pub fn failed(&self) -> bool {
        self.error_count() > 0
    }

    /// Deterministic ordering: file, then line, then rule.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line, &a.rule).cmp(&(&b.file, b.line, &b.rule)));
    }

    /// Human-readable rendering.
    pub fn render_human(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(
                out,
                "{}: [{}] {}:{}: {}",
                f.severity.as_str(),
                f.rule,
                f.file,
                f.line,
                f.message
            );
        }
        let active: Vec<&AppliedAllow> = self.allows.iter().filter(|a| a.suppressed > 0).collect();
        if !active.is_empty() {
            let _ = writeln!(out, "\nsuppressions in effect ({}):", active.len());
            for a in &active {
                let _ = writeln!(
                    out,
                    "  [{}] {}:{} ({} finding{}): {}",
                    a.rule,
                    a.file,
                    a.line,
                    a.suppressed,
                    if a.suppressed == 1 { "" } else { "s" },
                    a.reason
                );
            }
        }
        let rules_hit: BTreeSet<&str> = self.findings.iter().map(|f| f.rule).collect();
        let _ = writeln!(
            out,
            "\n{} file{} scanned: {} error{}, {} warning{}{}",
            self.files_scanned,
            if self.files_scanned == 1 { "" } else { "s" },
            self.error_count(),
            if self.error_count() == 1 { "" } else { "s" },
            self.warn_count(),
            if self.warn_count() == 1 { "" } else { "s" },
            if rules_hit.is_empty() {
                String::new()
            } else {
                format!(
                    " ({})",
                    rules_hit.into_iter().collect::<Vec<_>>().join(", ")
                )
            }
        );
        out
    }

    /// Machine-readable rendering: one JSON object, findings and
    /// suppressions as arrays, through the workspace's shared emitter.
    pub fn render_json(&self) -> String {
        let text = |s: &str| Json::Str(s.to_string());
        let num = |n: usize| Json::U64(n as u64);
        let findings = self
            .findings
            .iter()
            .map(|f| {
                Json::Obj(vec![
                    ("rule".into(), text(f.rule)),
                    ("severity".into(), text(f.severity.as_str())),
                    ("file".into(), text(&f.file)),
                    ("line".into(), Json::U64(f.line.into())),
                    ("message".into(), text(&f.message)),
                ])
            })
            .collect();
        let suppressions = self
            .allows
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("rule".into(), text(&a.rule)),
                    ("file".into(), text(&a.file)),
                    ("line".into(), Json::U64(a.line.into())),
                    ("suppressed".into(), num(a.suppressed)),
                    ("reason".into(), text(&a.reason)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("findings".into(), Json::Arr(findings)),
            ("suppressions".into(), Json::Arr(suppressions)),
            ("files_scanned".into(), num(self.files_scanned)),
            ("errors".into(), num(self.error_count())),
            ("warnings".into(), num(self.warn_count())),
        ])
        .to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_obs::json::parse;

    fn sample() -> Report {
        Report {
            findings: vec![
                Finding {
                    rule: "P001",
                    severity: Severity::Error,
                    file: "crates/core/src/lib.rs".into(),
                    line: 10,
                    message: "ambient entropy: `thread_rng`".into(),
                },
                Finding {
                    rule: "L001",
                    severity: Severity::Warn,
                    file: "crates/a/src/lib.rs".into(),
                    line: 3,
                    message: "panic on decode path".into(),
                },
            ],
            allows: vec![AppliedAllow {
                rule: "D002".into(),
                file: "crates/client/src/state.rs".into(),
                line: 7,
                reason: "clamped".into(),
                suppressed: 1,
            }],
            files_scanned: 2,
        }
    }

    #[test]
    fn sort_orders_by_file_then_line() {
        let mut r = sample();
        r.sort();
        assert_eq!(r.findings[0].rule, "L001");
        assert_eq!(r.findings[1].rule, "P001");
    }

    #[test]
    fn counts_and_failure() {
        let r = sample();
        assert_eq!(r.error_count(), 1);
        assert_eq!(r.warn_count(), 1);
        assert!(r.failed());
        assert!(!Report::default().failed());
    }

    #[test]
    fn json_is_well_formed_and_escaped() {
        let mut r = sample();
        let message = "quote \" and \\ back\n\u{1}";
        r.findings[0].message = message.into();
        let doc = parse(&r.render_json()).expect("render_json emits valid JSON");
        let first = &doc.get("findings").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(first.get("rule"), Some(&Json::Str("P001".into())));
        assert_eq!(first.get("message"), Some(&Json::Str(message.into())));
        assert_eq!(first.get("line"), Some(&Json::U64(10)));
        assert_eq!(doc.get("errors"), Some(&Json::U64(r.error_count() as u64)));
        let allow = &doc.get("suppressions").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(allow.get("reason"), Some(&Json::Str("clamped".into())));
    }

    #[test]
    fn human_output_lists_suppressions() {
        let h = sample().render_human();
        assert!(h.contains("error: [P001]"));
        assert!(h.contains("suppressions in effect (1):"));
        assert!(h.contains("clamped"));
    }
}
