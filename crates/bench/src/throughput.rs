//! Shared plumbing for the throughput report binaries
//! (`exp_mixed_readwrite`, `exp_serve_throughput`).
//!
//! Both binaries write into the one committed `BENCH_THROUGHPUT.json`,
//! so the file is structured as a map of per-binary sections:
//!
//! ```json
//! { "benches": {
//!     "exp_mixed_readwrite":  { "mode": "full", ... },
//!     "exp_serve_throughput": { "mode": "full", ... } } }
//! ```
//!
//! [`splice_section`] replaces (or inserts) exactly one named section,
//! preserving every other byte-for-byte, with a small string-aware
//! brace matcher — no JSON dependency, per the workspace's offline
//! policy. Files in the pre-section legacy layout (a bare
//! `{"bench": ...}` object) are treated as absent and rebuilt.

use crate::measure::Scenario;

/// Assembles one binary's section body from its mode and scenarios.
pub fn section_json(mode: &str, host_cpus: usize, scenarios: &[Scenario]) -> String {
    // Two levels deeper than in the single-binary files.
    let body: Vec<String> = scenarios
        .iter()
        .map(|s| format!("  {}", s.json().replace('\n', "\n  ")))
        .collect();
    format!(
        "{{\n      \"mode\": \"{mode}\",\n      \"host_cpus\": {host_cpus},\n      \"scenarios\": [\n{}\n      ]\n    }}",
        body.join(",\n")
    )
}

/// Splices `section` in as `benches.<name>` of `existing`, preserving
/// every other section verbatim. `existing = None` (or a file not in
/// the `{"benches": ...}` layout) starts a fresh document. Sections are
/// emitted sorted by name so regeneration order doesn't churn the file.
pub fn splice_section(existing: Option<&str>, name: &str, section: &str) -> String {
    let mut sections: Vec<(String, String)> = existing
        .and_then(extract_sections)
        .unwrap_or_default()
        .into_iter()
        .filter(|(n, _)| n != name)
        .collect();
    sections.push((name.to_string(), section.trim().to_string()));
    sections.sort_by(|a, b| a.0.cmp(&b.0));
    let body: Vec<String> = sections
        .iter()
        .map(|(n, s)| format!("    \"{n}\": {s}"))
        .collect();
    format!("{{\n  \"benches\": {{\n{}\n  }}\n}}\n", body.join(",\n"))
}

/// Reads, splices and rewrites the throughput file at `path`.
pub fn write_section(path: &str, name: &str, section: &str) {
    let existing = std::fs::read_to_string(path).ok();
    let json = splice_section(existing.as_deref(), name, section);
    std::fs::write(path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Pulls the `(name, body)` pairs out of a `{"benches": {...}}`
/// document, or `None` when the layout doesn't match.
fn extract_sections(doc: &str) -> Option<Vec<(String, String)>> {
    let key = doc.find("\"benches\"")?;
    let open = doc[key..].find('{')? + key;
    let inner_end = matching_brace(doc, open)?;
    let inner = &doc[open + 1..inner_end];

    let mut out = Vec::new();
    let mut rest = inner;
    while let Some(q0) = rest.find('"') {
        let q1 = q0 + 1 + rest[q0 + 1..].find('"')?;
        let name = rest[q0 + 1..q1].to_string();
        let after = &rest[q1 + 1..];
        let colon = after.find(':')?;
        let body_rel = after[colon..].find('{')? + colon;
        let body_abs_start = q1 + 1 + body_rel;
        let body_end = matching_brace(rest, body_abs_start)?;
        out.push((name, rest[body_abs_start..=body_end].to_string()));
        rest = &rest[body_end + 1..];
    }
    Some(out)
}

/// Index of the `}` matching the `{` at `open`, skipping string
/// literals (with escapes).
fn matching_brace(s: &str, open: usize) -> Option<usize> {
    debug_assert_eq!(s.as_bytes().get(open), Some(&b'{'));
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for (i, b) in s.bytes().enumerate().skip(open) {
        if in_string {
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                in_string = false;
            }
            continue;
        }
        match b {
            b'"' => in_string = true,
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some(i);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splice_into_empty_creates_the_layout() {
        let doc = splice_section(None, "exp_serve_throughput", r#"{"mode": "full"}"#);
        assert!(doc.contains("\"benches\""));
        assert!(doc.contains("\"exp_serve_throughput\": {\"mode\": \"full\"}"));
    }

    #[test]
    fn splice_preserves_other_sections() {
        let doc = splice_section(None, "exp_serve_throughput", r#"{"mode": "full", "n": 1}"#);
        let doc = splice_section(Some(&doc), "exp_mixed_readwrite", r#"{"mode": "smoke"}"#);
        // Both present, sorted, original untouched.
        assert!(doc.contains("\"exp_serve_throughput\": {\"mode\": \"full\", \"n\": 1}"));
        assert!(doc.contains("\"exp_mixed_readwrite\": {\"mode\": \"smoke\"}"));
        assert!(
            doc.find("exp_mixed_readwrite").unwrap() < doc.find("exp_serve_throughput").unwrap()
        );
    }

    #[test]
    fn splice_replaces_a_section_in_place() {
        let doc = splice_section(None, "a", r#"{"v": 1}"#);
        let doc = splice_section(Some(&doc), "b", r#"{"v": 2}"#);
        let doc = splice_section(Some(&doc), "a", r#"{"v": 3}"#);
        assert!(doc.contains("\"a\": {\"v\": 3}"));
        assert!(doc.contains("\"b\": {\"v\": 2}"));
        assert!(!doc.contains("\"v\": 1"));
    }

    #[test]
    fn legacy_layout_is_rebuilt() {
        let legacy = r#"{"bench": "exp_serve_throughput", "scenarios": []}"#;
        let doc = splice_section(Some(legacy), "exp_serve_throughput", r#"{"mode": "full"}"#);
        assert!(doc.contains("\"benches\""));
        assert!(!doc.contains("\"scenarios\": []"));
    }

    #[test]
    fn brace_matching_skips_braces_inside_strings() {
        let doc = splice_section(None, "a", r#"{"note": "has } and { inside", "v": 1}"#);
        let doc = splice_section(Some(&doc), "b", r#"{"v": 2}"#);
        assert!(doc.contains("has } and { inside"));
        assert!(doc.contains("\"b\": {\"v\": 2}"));
    }

    #[test]
    fn nested_objects_survive_round_trips() {
        let section = r#"{"scenarios": [{"m": [{"name": "x", "ops": 3}]}]}"#;
        let doc = splice_section(None, "deep", section);
        let doc = splice_section(Some(&doc), "other", r#"{"v": 1}"#);
        assert!(doc.contains(section));
    }
}
