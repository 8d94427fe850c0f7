//! Deterministic report rendering.
//!
//! The report is a pure function of the (already sorted) findings, so two
//! runs over the same tree produce byte-identical output — itself one of
//! the properties `dcm-lint` exists to defend, and asserted by
//! `crates/lint/tests/lint_tests.rs`.

use crate::rules::Finding;

/// Counters for the summary line.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    pub files_scanned: usize,
    pub findings: usize,
    /// Non-test functions indexed into the `D3`/`A1` call graph.
    pub functions_indexed: usize,
    /// Resolved caller→callee edges in that call graph.
    pub call_edges: usize,
}

/// Render the report: one entry per finding, then a summary line.
#[must_use]
pub fn render_text(findings: &[Finding], summary: Summary) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&format!(
            "{}:{}: [{}] {}\n",
            f.path, f.line, f.rule, f.message
        ));
        if !f.excerpt.is_empty() {
            out.push_str(&format!("    | {}\n", f.excerpt));
        }
    }
    out.push_str(&format!(
        "dcm-lint: {} file(s) scanned, {} finding(s), {} function(s) indexed, {} call edge(s)\n",
        summary.files_scanned, summary.findings, summary.functions_indexed, summary.call_edges,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<Finding> {
        vec![Finding {
            path: "crates/vllm/src/engine.rs".to_owned(),
            line: 45,
            rule: "D1",
            message: "`HashMap` in simulation crate `vllm`".to_owned(),
            excerpt: "use std::collections::{HashMap};".to_owned(),
        }]
    }

    #[test]
    fn text_report_has_file_line_rule_shape() {
        let s = render_text(
            &sample(),
            Summary {
                files_scanned: 3,
                findings: 1,
                functions_indexed: 7,
                call_edges: 9,
            },
        );
        assert!(s.contains("crates/vllm/src/engine.rs:45: [D1]"), "{s}");
        assert!(s.contains("| use std::collections::{HashMap};"));
        assert!(
            s.contains("3 file(s) scanned, 1 finding(s), 7 function(s) indexed, 9 call edge(s)")
        );
    }

    #[test]
    fn rendering_is_deterministic() {
        let f = sample();
        let sum = Summary {
            files_scanned: 1,
            findings: 1,
            ..Summary::default()
        };
        assert_eq!(render_text(&f, sum), render_text(&f, sum));
    }
}
