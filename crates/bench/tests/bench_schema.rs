//! Every checked-in `BENCH_*.json` holds one schema: a non-empty list of
//! `{bin, config, metric, value}` rows in which each `(bin, config, metric)`
//! key appears once, so tooling can concatenate and diff the files row by
//! row.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use resoftmax_core::experiments::BenchRow;

/// The `BENCH_*.json` files at the repository root, sorted.
fn bench_files() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&root)
        .expect("the repository root is readable")
        .map(|entry| entry.expect("a readable directory entry").path())
        .filter(|path| {
            path.file_name()
                .and_then(|name| name.to_str())
                .is_some_and(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_bench_file_is_rows_with_unique_keys() {
    let files = bench_files();
    assert!(!files.is_empty(), "no BENCH_*.json at the repository root");
    for path in &files {
        let name = path.display();
        let text = std::fs::read_to_string(path).expect("a readable BENCH file");
        let rows: Vec<BenchRow> = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{name} is not a list of BenchRows: {e}"));
        assert!(!rows.is_empty(), "{name} has no rows");
        let mut keys = BTreeSet::new();
        for row in &rows {
            assert!(
                keys.insert(row.key()),
                "{name} repeats the row {:?}",
                row.key()
            );
        }
    }
}
