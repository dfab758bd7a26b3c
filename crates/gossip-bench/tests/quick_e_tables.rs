//! Byte pin of the quick E1–E10 tables at the default seed.
//!
//! `quick_e_tables.json` is what `experiments --quick --only E1 … E10
//! --json <path>` writes at the default seed.  A refactor of the harness
//! must regenerate it byte for byte; a change that means to move a table
//! regenerates the file with that command and says why.

use std::path::PathBuf;
use std::process::Command;

const TOKENS: [&str; 10] = ["E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10"];

#[test]
fn quick_e_tables_match_the_pinned_json() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("gossip-quick-e-tables-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let out = dir.join("quick_e_tables.json");

    // Run from the temp dir so nothing lands in the source tree.
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(&dir)
        .arg("--quick")
        .arg("--only")
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

    let pinned: PathBuf = [env!("CARGO_MANIFEST_DIR"), "tests", "quick_e_tables.json"]
        .iter()
        .collect();
    let expected = std::fs::read(&pinned).expect("pinned tables are readable");
    let actual = std::fs::read(&out).expect("experiments wrote its JSON");
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    assert!(
        actual == expected,
        "the quick E1–E10 tables differ from {}:\n{}",
        pinned.display(),
        String::from_utf8_lossy(&actual)
    );
}
