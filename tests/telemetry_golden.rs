//! Byte-identity of the telemetry export against the checked-in goldens
//! (`tests/data/`): the schema-v1 baseline of the six mechanisms with the
//! additive sections left out, and the full feature-on export that pins
//! those sections' layout. `cargo run --example schema_compat -- --write`
//! regenerates both files from the same [`golden`] module. The text
//! report of the same workloads is checked against the field table.

mod golden;

use crossprefetch::{FieldSpec, RuntimeReport};

#[test]
fn exports_match_checked_in_goldens() {
    for (name, current) in golden::telemetry_goldens() {
        let checked_in = std::fs::read_to_string(golden::golden_dir().join(name)).expect(name);
        if let Some(mismatch) = golden::golden_mismatch(&current, &checked_in) {
            panic!("{name}: {mismatch}");
        }
    }
}

/// The JSON value at the start of `s`: a string, object or array up to
/// its closing character, or a bare scalar up to the next `,`, `}` or `]`.
fn json_value(s: &str) -> &str {
    let (mut depth, mut quoted, mut escaped) = (0u32, false, false);
    for (i, c) in s.char_indices() {
        match c {
            _ if escaped => escaped = false,
            '\\' if quoted => escaped = true,
            '"' => quoted = !quoted,
            _ if quoted => {}
            '{' | '[' => depth += 1,
            '}' | ']' if depth > 0 => depth -= 1,
            ',' | '}' | ']' if depth == 0 => return &s[..i],
            _ => {}
        }
        if depth == 0 && !quoted && matches!(c, '"' | '}' | ']') {
            return &s[..=i];
        }
    }
    s
}

/// The text report has one unindented line per run of `FIELDS` rows that
/// share a section path, in table order, labelled with the path (`report`
/// at the top level). Every row of the run appears exactly once as
/// `key=value`, on that line or on an indented line beneath it, with the
/// value text `to_json()` writes for it.
#[test]
fn text_report_renders_every_field_row() {
    let mut runs: Vec<(&[&str], Vec<&FieldSpec>)> = Vec::new();
    for spec in RuntimeReport::FIELDS {
        match runs.last_mut() {
            Some((path, rows)) if *path == spec.path => rows.push(spec),
            _ => runs.push((spec.path, vec![spec])),
        }
    }
    let (baseline, feature_on) = golden::golden_reports();
    for report in baseline.iter().chain([&feature_on]) {
        let (text, json) = (report.to_string(), report.to_json());
        let mut blocks: Vec<(&str, Vec<&str>)> = Vec::new();
        for line in text.lines() {
            match line.strip_prefix("  ") {
                Some(entry) => blocks
                    .last_mut()
                    .expect("indented first line")
                    .1
                    .push(entry),
                None => blocks.push((line, Vec::new())),
            }
        }
        assert_eq!(
            blocks.len(),
            runs.len(),
            "{}: one line per run\n{text}",
            report.mode
        );
        // The export writes rows in table order, so each key is the
        // first match after the previous row's value.
        let mut cursor = 0;
        for ((path, rows), (line, objects)) in runs.iter().zip(&blocks) {
            let label = match path {
                [] => "report".to_string(),
                path => path.join("."),
            };
            let scalars = line
                .strip_prefix(&format!("{label}:"))
                .unwrap_or_else(|| panic!("{}: `{line}` is not section {label}", report.mode));
            let entries: Vec<&str> = scalars
                .split_whitespace()
                .chain(objects.iter().copied())
                .collect();
            assert_eq!(entries.len(), rows.len(), "{}: {label} rows", report.mode);
            for spec in rows {
                let key = format!("\"{}\":", spec.key);
                let start = cursor + json[cursor..].find(&key).expect("row exported") + key.len();
                let value = json_value(&json[start..]);
                cursor = start + value.len();
                let want = format!("{}={value}", spec.key);
                let seen = entries.iter().filter(|&&entry| entry == want).count();
                assert_eq!(
                    seen, 1,
                    "{}: {label} shows `{want}` {seen} times",
                    report.mode
                );
            }
        }
    }
}
