//! Machine-readable finding emitter: SARIF 2.1.0.
//!
//! A hand-written string builder (the crate is dependency-free by
//! design). The output is the minimal valid subset GitHub code scanning
//! ingests: one run, one rule descriptor per distinct rule, one result
//! per finding with a physical location.

use crate::parse::ParseFailure;
use crate::{Finding, Rule};

/// Escape a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Render findings as SARIF 2.1.0 for GitHub code scanning.
pub fn to_sarif(findings: &[Finding], failures: &[ParseFailure]) -> String {
    // Rule descriptors, one per distinct rule seen (plus the parse error
    // pseudo-rule when any file failed to parse).
    let mut rules: Vec<Rule> = findings.iter().map(|f| f.rule).collect();
    rules.sort();
    rules.dedup();

    let mut out = String::from(
        "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
         \"version\": \"2.1.0\",\n  \"runs\": [\n    {\n      \"tool\": {\n        \
         \"driver\": {\n          \"name\": \"simlint\",\n          \
         \"informationUri\": \"https://github.com/\",\n          \"rules\": [",
    );
    let mut first = true;
    for r in &rules {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
            r.id(),
            json_escape(r.title()),
        ));
    }
    if !failures.is_empty() {
        if !first {
            out.push(',');
        }
        out.push_str(
            "\n            {\"id\": \"parse\", \"shortDescription\": \
             {\"text\": \"simlint could not parse this file\"}}",
        );
    }
    out.push_str("\n          ]\n        }\n      },\n      \"results\": [");

    let mut first = true;
    let mut push_result = |out: &mut String,
                           rule_id: &str,
                           level: &str,
                           path: &str,
                           line: usize,
                           col: usize,
                           msg: &str| {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
                "\n        {{\n          \"ruleId\": \"{}\",\n          \"level\": \"{}\",\n          \
                 \"message\": {{\"text\": \"{}\"}},\n          \"locations\": [\n            \
                 {{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                 \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}\n          ]\n        }}",
                rule_id,
                level,
                json_escape(msg),
                json_escape(path),
                line.max(1),
                col.max(1),
            ));
    };
    for f in findings {
        push_result(
            &mut out,
            f.rule.id(),
            "error",
            &f.path,
            f.line,
            f.col,
            &f.message,
        );
    }
    for e in failures {
        push_result(&mut out, "parse", "warning", &e.path, e.line, 1, &e.message);
    }
    out.push_str("\n      ]\n    }\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Rule};

    fn sample() -> Vec<Finding> {
        vec![Finding {
            path: "crates/dcsim/src/a.rs".into(),
            line: 3,
            col: 9,
            rule: Rule::U1,
            message: "escape with \"quotes\"".into(),
        }]
    }

    #[test]
    fn sarif_has_schema_rule_and_location() {
        let s = to_sarif(&sample(), &[]);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("\"ruleId\": \"U1\""));
        assert!(s.contains("escape with \\\"quotes\\\""));
        assert!(s.contains("\"startLine\": 3"));
        assert!(s.contains("\"startColumn\": 9"));
        // Exactly one rule descriptor for the one distinct rule.
        assert_eq!(s.matches("\"shortDescription\"").count(), 1);
    }

    #[test]
    fn sarif_reports_parse_failures_as_warnings() {
        let fail = crate::parse::ParseFailure {
            path: "crates/dcsim/src/broken.rs".into(),
            line: 7,
            message: "unbalanced delimiter".into(),
        };
        let s = to_sarif(&[], &[fail]);
        assert!(s.contains("\"ruleId\": \"parse\""));
        assert!(s.contains("\"level\": \"warning\""));
    }

    #[test]
    fn empty_reports_are_valid_shape() {
        let s = to_sarif(&[], &[]);
        assert!(s.contains("\"results\": [\n      ]"));
    }
}
