//! The size of every `crates/core/src` file, capped.
//!
//! No file carries more than [`MAX_NON_TEST_LINES`] lines before its
//! `#[cfg(test)] mod tests` (the whole file when it has none). A module
//! that outgrows the cap splits along its banners, the way `runtime.rs`
//! split into `admit.rs` and `engine.rs`.

use std::path::{Path, PathBuf};

const MAX_NON_TEST_LINES: usize = 800;

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Lines before the first `#[cfg(test)]` that opens `mod tests`.
fn non_test_lines(source: &str) -> usize {
    let lines: Vec<&str> = source.lines().collect();
    lines
        .windows(2)
        .position(|pair| pair[0].trim() == "#[cfg(test)]" && pair[1].starts_with("mod tests"))
        .unwrap_or(lines.len())
}

#[test]
fn non_test_lines_stop_at_the_test_module() {
    let source = "use a;\n\nfn b() {}\n#[cfg(test)]\nmod tests {\n    fn c() {}\n}\n";
    assert_eq!(non_test_lines(source), 3);
    assert_eq!(non_test_lines("fn a() {}\n#[cfg(test)]\nfn b() {}\n"), 3);
}

#[test]
fn no_core_source_file_exceeds_the_line_cap() {
    let mut files = Vec::new();
    rust_files(
        &Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src"),
        &mut files,
    );
    files.sort();
    assert!(files.len() > 10, "found only {files:?}");
    let over: Vec<String> = files
        .iter()
        .map(|path| {
            (
                path,
                non_test_lines(&std::fs::read_to_string(path).unwrap()),
            )
        })
        .filter(|&(_, lines)| lines > MAX_NON_TEST_LINES)
        .map(|(path, lines)| format!("{}: {lines} non-test lines", path.display()))
        .collect();
    assert!(
        over.is_empty(),
        "over {MAX_NON_TEST_LINES} non-test lines: {over:#?}"
    );
}
