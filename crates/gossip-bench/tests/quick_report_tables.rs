//! Byte pin of the quick report-tier tables at the default seed, with their
//! wall-clock cells masked.
//!
//! `quick_report_tables.json` is what `experiments --quick --jobs 2 --only
//! SCALE SIM_SCALE MEM_SCALE ROBUSTNESS PERF ADVERSARY --json <path>` writes
//! at the default seed, after every cell under a column of
//! [`VOLATILE_COLUMNS`] is replaced by [`MASK`]: those cells are timings and
//! memory readings that differ between two runs of one binary, and every
//! other cell is a pure function of the seed.  A refactor of the harness
//! must reproduce the file byte for byte; a change that means to move a
//! table regenerates it from that command, masked the same way, and says
//! why.
//!
//! The six tiers take about 25 s in a release build (ADVERSARY most of it)
//! and far longer in a debug one, so the test is `#[ignore]`d and CI runs
//! it in release:
//! `cargo test --release -q -p gossip-bench --test quick_report_tables -- --ignored`.

use serde::json::Value;
use std::path::PathBuf;
use std::process::Command;

const TOKENS: [&str; 6] = [
    "SCALE",
    "SIM_SCALE",
    "MEM_SCALE",
    "ROBUSTNESS",
    "PERF",
    "ADVERSARY",
];

/// The columns whose cells vary between runs of the same seed.
const VOLATILE_COLUMNS: [&str; 8] = [
    "build ms",
    "spectral ms",
    "wall ms",
    "ticks/s",
    "RSS MiB",
    "wall ms (1 job)",
    "wall ms (max)",
    "speedup by jobs",
];

/// What every cell of a volatile column reads in the pinned file.
const MASK: &str = "<volatile>";

/// The entries of a JSON object field that holds an array.
fn array_field<'a>(table: &'a mut Value, name: &str) -> &'a mut Vec<Value> {
    let Value::Object(fields) = table else {
        panic!("a table is a JSON object: {table:?}");
    };
    match fields.iter_mut().find(|(field, _)| field == name) {
        Some((_, Value::Array(items))) => items,
        other => panic!("a table's {name} is an array: {other:?}"),
    }
}

/// Replaces every cell under a volatile column of every table with [`MASK`].
fn mask_volatile_cells(tables: &mut Value) {
    let Value::Array(tables) = tables else {
        panic!("--json writes an array of tables: {tables:?}");
    };
    for table in tables {
        let volatile: Vec<bool> = array_field(table, "columns")
            .iter()
            .map(|column| matches!(column, Value::String(name) if VOLATILE_COLUMNS.contains(&name.as_str())))
            .collect();
        for row in array_field(table, "rows") {
            let Value::Array(cells) = row else {
                panic!("a row is an array of cells: {row:?}");
            };
            assert_eq!(cells.len(), volatile.len(), "ragged row {cells:?}");
            for (cell, &masked) in cells.iter_mut().zip(&volatile) {
                if masked {
                    *cell = Value::String(MASK.to_string());
                }
            }
        }
    }
}

#[test]
#[ignore = "runs six report tiers; CI runs it in release"]
fn quick_report_tables_match_the_pinned_json() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("gossip-quick-report-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("quick_report_tables.json");

    // Run from the temp dir: the tiers write their BENCH_*.json reports to
    // the working directory.
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&dir)
        .args(["--quick", "--jobs", "2", "--only"])
        .args(TOKENS)
        .arg("--json")
        .arg(&out)
        .output()
        .expect("experiments binary runs");
    assert!(
        output.status.success(),
        "experiments failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let written = std::fs::read_to_string(&out).expect("experiments wrote its JSON");
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    let mut tables = serde_json::from_str(&written).expect("the JSON parses");
    mask_volatile_cells(&mut tables);
    let actual = serde_json::to_string_pretty(&tables).expect("the tables render");

    let pinned: PathBuf = [
        env!("CARGO_MANIFEST_DIR"),
        "tests",
        "quick_report_tables.json",
    ]
    .iter()
    .collect();
    let expected = std::fs::read_to_string(&pinned).expect("pinned tables are readable");
    assert!(
        actual == expected,
        "the quick report tables differ from {}:\n{actual}",
        pinned.display()
    );
}
