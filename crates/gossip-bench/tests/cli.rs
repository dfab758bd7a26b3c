//! Command-line contract of the `experiments` binary: malformed `--only`
//! arguments, store-only flags given without `--store-dir`, and value-taking
//! flags whose value is missing or is itself a flag are usage errors (exit
//! status 2) that run no tier; a journal row of the wrong shape is
//! recomputed on `--resume`, not trusted.

use serde::json::Value;
use std::path::Path;
use std::process::{Command, Output};

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn only_without_a_valid_token_is_a_usage_error() {
    for args in [
        &["--only"][..],
        &["--only", "--quick"],
        &["--quick", "--only", "--seed", "99"],
        &["--quick", "--only", "BOGUS"],
    ] {
        let output = experiments(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("valid tokens: ") && stderr.contains("E10"),
            "{args:?}: {stderr}"
        );
    }
}

#[test]
fn store_flags_without_a_store_dir_are_usage_errors() {
    for args in [
        &["--resume"][..],
        &["--store-summary"],
        &[
            "--quick",
            "--only",
            "MEM_SCALE",
            "--checkpoint-every-ticks",
            "1000",
        ],
    ] {
        let output = experiments(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}");
        assert!(output.stdout.is_empty(), "{args:?} printed a table");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(stderr.contains("require --store-dir"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_flag_value_that_is_itself_a_flag_is_a_usage_error() {
    // Run from a directory of its own: a flag that swallowed `--quick` as
    // its path would write a file or store of that name there.
    let mut dir = std::env::temp_dir();
    dir.push(format!("gossip-cli-flag-values-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (flag, message) in [
        ("--json", "--json requires a path"),
        ("--store-dir", "--store-dir requires a directory path"),
        ("--scale-json", "--scale-json requires a path"),
        ("--sim-scale-json", "--sim-scale-json requires a path"),
        ("--mem-scale-json", "--mem-scale-json requires a path"),
        ("--robustness-json", "--robustness-json requires a path"),
        ("--perf-json", "--perf-json requires a path"),
        ("--adversary-json", "--adversary-json requires a path"),
        ("--seed", "--seed requires an unsigned integer"),
        ("--jobs", "--jobs requires a positive integer"),
        (
            "--checkpoint-every-ticks",
            "--checkpoint-every-ticks requires an unsigned integer",
        ),
        (
            "--trial-deadline-secs",
            "--trial-deadline-secs requires a positive integer",
        ),
    ] {
        for args in [
            &["--only", "E9", flag, "--quick"][..],
            &["--only", "E9", flag],
        ] {
            let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
                .current_dir(&dir)
                .args(args)
                .output()
                .expect("experiments binary runs");
            assert_eq!(output.status.code(), Some(2), "{args:?}");
            assert!(output.stdout.is_empty(), "{args:?} printed a table");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(stderr.contains(message), "{args:?}: {stderr}");
        }
    }
    let written: Vec<_> = std::fs::read_dir(&dir)
        .expect("temp dir is readable")
        .map(|entry| entry.expect("entry").file_name())
        .collect();
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    assert!(written.is_empty(), "wrote {written:?}");
}

/// Runs the quick E9 tier from `dir` against the store `store` in it.
fn quick_e9(dir: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .current_dir(dir)
        .args(["--quick", "--only", "E9", "--store-dir", "store"])
        .args(extra)
        .output()
        .expect("experiments binary runs")
}

#[test]
fn a_journaled_row_of_the_wrong_width_is_recomputed_on_resume() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("gossip-cli-wrong-width-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let uninterrupted = quick_e9(&dir, &[]);
    assert!(uninterrupted.status.success(), "{uninterrupted:?}");

    // Drop the last of the three cells of one journaled E9 row.
    let journal = dir.join("store").join("e9.jsonl");
    let text = std::fs::read_to_string(&journal).expect("E9 journal");
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert_eq!(lines.len(), 5, "{text}");
    let mut record = serde_json::from_str(&lines[2]).expect("journal line parses");
    let Value::Object(fields) = &mut record else {
        panic!("a journal line is an object: {record:?}");
    };
    match fields.iter_mut().find(|(name, _)| name == "row") {
        Some((_, Value::Array(cells))) => assert!(cells.pop().is_some()),
        other => panic!("an E9 row is an array of cells: {other:?}"),
    }
    lines[2] = serde_json::to_string(&record).expect("the record renders");
    std::fs::write(&journal, lines.join("\n") + "\n").expect("journal rewritten");

    let resumed = quick_e9(&dir, &["--resume"]);
    std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert_eq!(resumed.status.code(), Some(0), "{stderr}");
    let counts = stderr
        .lines()
        .find(|line| line.starts_with("run store[E9]:"))
        .unwrap_or_else(|| panic!("no E9 store counts: {stderr}"));
    assert_eq!(counts, "run store[E9]: replayed 4, computed 1");
    assert_eq!(
        String::from_utf8_lossy(&resumed.stdout),
        String::from_utf8_lossy(&uninterrupted.stdout)
    );
}
