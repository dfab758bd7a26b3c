//! Command-line contract of the `experiments` binary: malformed `--only`
//! arguments, store-only flags given without `--store-dir`, and value-taking
//! flags whose value is missing or is itself a flag are usage errors (exit
//! status 2) that run no tier.

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
