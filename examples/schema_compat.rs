//! schema-compat: prove that changes meant to be inert left the telemetry
//! export alone.
//!
//! Re-runs the two deterministic golden workloads (`tests/golden/`) and
//! compares their exports byte-for-byte against the checked-in files under
//! `tests/data/`: the schema-v1 baseline (six mechanisms, every opt-in
//! subsystem off, additive sections left out by
//! `RuntimeReport::to_json_without`) and the feature-on golden (ring,
//! batching, tenants, tiering, write-back and spans on together, full
//! export). `cargo test` runs the same comparison
//! (`tests/telemetry_golden.rs`); this example adds `--write`.
//!
//! Usage:
//!   cargo run --release --example schema_compat            # verify
//!   cargo run --release --example schema_compat -- --write # regenerate both files

#[path = "../tests/golden/mod.rs"]
mod golden;

fn main() {
    let write = std::env::args().any(|a| a == "--write");
    for (name, current) in golden::telemetry_goldens() {
        let path = golden::golden_dir().join(name);
        if write {
            std::fs::write(&path, &current).expect("write golden");
            eprintln!("wrote {}", path.display());
            continue;
        }
        let checked_in = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read {}: {e}", path.display());
            eprintln!("generate it with: cargo run --release --example schema_compat -- --write");
            std::process::exit(2);
        });
        if let Some(mismatch) = golden::golden_mismatch(&current, &checked_in) {
            eprintln!("schema-compat FAILED: {name}: {mismatch}");
            std::process::exit(1);
        }
    }
    if !write {
        println!("schema-compat OK: baseline and feature-on golden byte-identical");
    }
}
