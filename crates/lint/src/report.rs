//! Deterministic report rendering: human text and machine JSON.
//!
//! Both renderings are pure functions of the (already sorted) findings, so
//! two runs over the same tree produce byte-identical output — itself one
//! of the properties `dcm-lint` exists to defend, and asserted by
//! `crates/lint/tests/lint_tests.rs`.
//!
//! The JSON writer is hand-rolled (pure std, ~40 lines): the workspace's
//! serde is an offline shim without serialization, and the linter must not
//! depend on crates it judges.

use crate::rules::{Finding, RULES};

/// Counters for the summary line and JSON `summary` object.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Summary {
    pub files_scanned: usize,
    pub findings: usize,
    /// Non-test functions indexed into the call graph (since schema v2).
    pub functions_indexed: usize,
    /// Resolved caller→callee edges in the call graph (since schema v2).
    pub call_edges: usize,
}

/// Render the human-readable report. Empty findings render a single
/// all-clear line.
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
        "dcm-lint: {} file(s) scanned, {} finding(s)\n",
        summary.files_scanned, summary.findings,
    ));
    out
}

/// Render the machine-readable report (`results/lint_report.json`).
#[must_use]
pub fn render_json(findings: &[Finding], summary: Summary) -> String {
    let mut out = String::from("{\n  \"tool\": \"dcm-lint\",\n  \"schema_version\": 3,\n");
    out.push_str("  \"rules\": [\n");
    for (i, r) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": {}, \"summary\": {}}}{}\n",
            json_str(r.id),
            json_str(r.summary),
            comma(i, RULES.len())
        ));
    }
    out.push_str("  ],\n  \"findings\": [\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"rule\": {}, \"path\": {}, \"line\": {}, \"message\": {}, \"excerpt\": {}}}{}\n",
            json_str(f.rule),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(&f.excerpt),
            comma(i, findings.len())
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"summary\": {{\"files_scanned\": {}, \"findings\": {}, \
         \"functions_indexed\": {}, \"call_edges\": {}}}\n}}\n",
        summary.files_scanned, summary.findings, summary.functions_indexed, summary.call_edges
    ));
    out
}

/// Validate a rendered `lint_report.json` against the schema EXPERIMENTS.md
/// documents (v3). Returns the first violation found. Hand-rolled JSON
/// reader, pure std — the linter must not depend on crates it judges.
///
/// # Errors
/// A human-readable description of the first schema violation.
pub fn validate(json: &str) -> Result<(), String> {
    let mut p = JsonParser {
        s: json.as_bytes(),
        i: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.i != p.s.len() {
        return Err(format!("trailing content at byte {}", p.i));
    }
    let top = v.as_obj().ok_or("top level must be an object")?;

    match get(top, "tool") {
        Some(Json::Str(t)) if t == "dcm-lint" => {}
        other => return Err(format!("\"tool\" must be \"dcm-lint\", got {other:?}")),
    }
    match get(top, "schema_version") {
        // dcm-lint: allow(F2) schema versions are small exact integers; 3.0 is bit-exact in f64
        Some(Json::Num(n)) if *n == 3.0 => {}
        other => return Err(format!("\"schema_version\" must be 3, got {other:?}")),
    }

    let rules = get(top, "rules")
        .and_then(Json::as_arr)
        .ok_or("\"rules\" must be an array")?;
    for (i, r) in rules.iter().enumerate() {
        let obj = r
            .as_obj()
            .ok_or_else(|| format!("rules[{i}] must be an object"))?;
        for key in ["id", "summary"] {
            if !matches!(get(obj, key), Some(Json::Str(_))) {
                return Err(format!("rules[{i}].{key} must be a string"));
            }
        }
    }

    let findings = get(top, "findings")
        .and_then(Json::as_arr)
        .ok_or("\"findings\" must be an array")?;
    for (i, f) in findings.iter().enumerate() {
        let obj = f
            .as_obj()
            .ok_or_else(|| format!("findings[{i}] must be an object"))?;
        for key in ["rule", "path", "message", "excerpt"] {
            if !matches!(get(obj, key), Some(Json::Str(_))) {
                return Err(format!("findings[{i}].{key} must be a string"));
            }
        }
        // dcm-lint: allow(F2) fract() == 0.0 is the standard exact is-integer test for JSON numbers
        if !matches!(get(obj, "line"), Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0) {
            return Err(format!("findings[{i}].line must be a non-negative integer"));
        }
        if let Some(Json::Str(rule)) = get(obj, "rule") {
            let known = rule == "LINT" || RULES.iter().any(|r| r.id == rule.as_str());
            if !known {
                return Err(format!(
                    "findings[{i}].rule `{rule}` is not a known rule id"
                ));
            }
        }
    }

    let summary = get(top, "summary")
        .and_then(Json::as_obj)
        .ok_or("\"summary\" must be an object")?;
    let mut counts = [0.0; 4];
    let keys = [
        "files_scanned",
        "findings",
        "functions_indexed",
        "call_edges",
    ];
    for (slot, key) in counts.iter_mut().zip(keys) {
        match get(summary, key) {
            // dcm-lint: allow(F2) fract() == 0.0 is the standard exact is-integer test for JSON numbers
            Some(Json::Num(n)) if n.fract() == 0.0 && *n >= 0.0 => *slot = *n,
            other => {
                return Err(format!(
                    "summary.{key} must be a non-negative integer, got {other:?}"
                ))
            }
        }
    }
    // dcm-lint: allow(C1) exact small integer count, f64 holds it losslessly
    if counts[1] != findings.len() as f64 {
        return Err(format!(
            "summary.findings is {} but the findings array has {} entries",
            counts[1],
            findings.len()
        ));
    }
    Ok(())
}

/// Minimal JSON value for [`validate`].
#[derive(Debug)]
enum Json {
    Null,
    Bool,
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }
    fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

fn get<'a>(obj: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// Recursive-descent JSON reader: exactly the subset the report writer
/// emits (no exponent-free guarantees needed — floats accepted).
struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.i))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.s.get(self.i) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool),
            Some(b'f') => self.literal("false", Json::Bool),
            Some(b'n') => self.literal("null", Json::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".to_owned()),
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.s[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.s.get(self.i) == Some(&b'}') {
            self.i += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            out.push((key, self.value()?));
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.i)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.s.get(self.i) == Some(&b']') {
            self.i += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.s.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.s.get(self.i) {
                Some(b'"') => {
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.i += 1;
                    let esc = self.s.get(self.i).copied();
                    self.i += 1;
                    match esc {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .s
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            self.i += 4;
                            // Surrogate pairs never appear in our writer's
                            // output (it only \u-escapes control chars).
                            out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                Some(&b) if b < 0x80 => {
                    out.push(b as char);
                    self.i += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8: copy the whole code point.
                    let rest = &self.s[self.i..];
                    let s = std::str::from_utf8(rest)
                        .map_err(|_| format!("invalid utf-8 at byte {}", self.i))?;
                    let c = s.chars().next().ok_or("unexpected end of string")?;
                    out.push(c);
                    self.i += c.len_utf8();
                }
                None => return Err("unterminated string".to_owned()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        while self
            .s
            .get(self.i)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()
            .and_then(|t| t.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

/// Escape a string as a JSON string literal.
fn json_str(s: &str) -> String {
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
                ..Summary::default()
            },
        );
        assert!(s.contains("crates/vllm/src/engine.rs:45: [D1]"), "{s}");
        assert!(s.contains("| use std::collections::{HashMap};"));
        assert!(s.contains("3 file(s) scanned, 1 finding(s)"));
    }

    #[test]
    fn json_is_minimally_wellformed_and_escaped() {
        let mut f = sample();
        f[0].message = "quote \" backslash \\ tab \t".to_owned();
        let s = render_json(&f, Summary::default());
        assert!(s.contains(r#""rule": "D1""#));
        assert!(s.contains(r#"quote \" backslash \\ tab \t"#));
        // Balanced braces/brackets (cheap structural sanity).
        assert_eq!(
            s.matches('{').count(),
            s.matches('}').count(),
            "brace balance"
        );
        assert_eq!(s.matches('[').count(), s.matches(']').count());
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
        assert_eq!(render_json(&f, sum), render_json(&f, sum));
        assert_eq!(validate(&render_json(&f, sum)), Ok(()));
    }
}
