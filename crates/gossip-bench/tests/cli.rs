//! Command-line contract of the `experiments` binary: malformed `--only`
//! arguments, and store-only flags given without `--store-dir`, are usage
//! errors (exit status 2) that run no tier.

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
