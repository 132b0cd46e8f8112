//! Byte-identity of the telemetry export against the checked-in goldens
//! (`tests/data/`): the schema-v1 baseline of the six mechanisms with the
//! additive sections left out, and the full feature-on export that pins
//! those sections' layout. `cargo run --example schema_compat -- --write`
//! regenerates both files from the same [`golden`] module.

mod golden;

#[test]
fn exports_match_checked_in_goldens() {
    for (name, current) in golden::telemetry_goldens() {
        let checked_in = std::fs::read_to_string(golden::golden_dir().join(name)).expect(name);
        if let Some(mismatch) = golden::golden_mismatch(&current, &checked_in) {
            panic!("{name}: {mismatch}");
        }
    }
}
