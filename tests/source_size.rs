//! Source-level checks over the library crates' non-test code.
//!
//! No `crates/core/src` file carries more than [`MAX_NON_TEST_LINES`]
//! lines before its `#[cfg(test)] mod tests` (the whole file when it has
//! none). A module that outgrows the cap splits along its banners, the way
//! `runtime.rs` split into `admit.rs` and `engine.rs`.
//!
//! No non-test line in `crates/core/src` or `crates/simos/src` reaches a
//! file's size or blocks by inode number: an open file holds its inode
//! (`InodeCache::inode`) and asks it directly.

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

/// Size and block operations an inode answers itself.
const INODE_OPS: [&str; 6] = [
    "size(",
    "set_size(",
    "map_block(",
    "map_blocks(",
    "allocate(",
    "allocate_each(",
];

/// Whether `line` calls an [`INODE_OPS`] operation by inode number:
/// through the filesystem (`fs.` / `fs().`), or with an `InodeId` or an
/// `ino` as its first argument.
fn indexes_the_inode_table(line: &str) -> bool {
    INODE_OPS.iter().any(|op| {
        line.contains(&format!("fs.{op}"))
            || line.contains(&format!("fs().{op}"))
            || line.match_indices(&format!(".{op}")).any(|(at, m)| {
                let arg = line[at + m.len()..]
                    .split([',', ')'])
                    .next()
                    .unwrap_or("")
                    .trim();
                arg.starts_with("InodeId(") || arg == "ino" || arg.ends_with(".ino")
            })
    })
}

#[test]
fn inode_table_lookups_are_recognised() {
    for by_id in [
        "let size = self.fs.size(cache.ino);",
        "let pages = inner.os.fs().size(file.ino).div_ceil(PAGE_SIZE);",
        "self.fs().set_size(cache.ino, offset + len);",
        "let map = |f: u64, lb: u64| self.fs.map_block(InodeId(f), lb);",
        "for run in self.fs.map_blocks(ino, start, count) {",
        "self.fs.allocate_each(ino, p0, pages);",
        "fs.allocate(ino, 0, 1)",
        "fs.map_block(file.ino, lb)",
    ] {
        assert!(indexes_the_inode_table(by_id), "{by_id}");
    }
    for direct in [
        "let size = cache.inode.size();",
        "cache.inode.set_size(offset + len);",
        "for run in inode.map_blocks(start, count) {",
        "inode.allocate_each(p0, pages);",
        "let map = |f: u64, lb: u64| self.fs.inode(InodeId(f)).map_block(lb);",
        "let ino = self.fs.create_sized(path, bytes)?;",
        "let ino = self.fs.unlink(path)?;",
        "let len = data.len().min(self.size());",
    ] {
        assert!(!indexes_the_inode_table(direct), "{direct}");
    }
}

#[test]
fn no_per_op_path_indexes_the_inode_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for dir in ["crates/core/src", "crates/simos/src"] {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let mut found = Vec::new();
    for path in &files {
        let source = std::fs::read_to_string(path).unwrap();
        for (n, line) in source.lines().take(non_test_lines(&source)).enumerate() {
            let code = line.trim_start();
            if !code.starts_with("//") && indexes_the_inode_table(code) {
                found.push(format!("{}:{}: {code}", path.display(), n + 1));
            }
        }
    }
    assert!(
        found.is_empty(),
        "size or block lookups by inode number: {found:#?}"
    );
}
