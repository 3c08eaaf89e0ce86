//! The `table1_comparison` command line: a plain run prints the table and
//! writes a valid `BENCH_table1_backends.json`; a mistyped argument, or
//! `--fast` without `--accuracy`, prints the usage line and fails before
//! anything runs.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs the bin with `LIGHTATOR_BENCH_DIR` set to a fresh temp dir.
fn run(name: &str, args: &[&str]) -> (Output, PathBuf) {
    let dir = std::env::temp_dir().join(format!("lightator-table1-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let output = Command::new(env!("CARGO_BIN_EXE_table1_comparison"))
        .args(args)
        .env("LIGHTATOR_BENCH_DIR", &dir)
        .env("LIGHTATOR_SEED_COMMIT", "test")
        .output()
        .expect("run table1_comparison");
    (output, dir)
}

#[test]
fn unknown_arguments_and_a_lone_fast_are_rejected() {
    for (name, args, message) in [
        ("typo", &["--acuracy"][..], "unknown argument `--acuracy`"),
        ("extra", &["--accuracy", "x"][..], "unknown argument `x`"),
        ("fast", &["--fast"][..], "`--fast` needs `--accuracy`"),
    ] {
        let (output, dir) = run(name, args);
        let stderr = String::from_utf8_lossy(&output.stderr);
        let usage = format!("{message}\nusage: table1_comparison [--accuracy [--fast]]");
        assert!(!output.status.success(), "{args:?} must fail");
        assert!(stderr.contains(&usage), "{args:?}:\n{stderr}");
        assert!(output.stdout.is_empty(), "{args:?} must run nothing");
        assert!(!dir.join("BENCH_table1_backends.json").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn a_plain_run_prints_the_table_and_writes_its_artifact() {
    let (output, dir) = run("plain", &[]);
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(output.status.success(), "plain run failed:\n{stdout}");
    assert!(stdout.contains("Lightator"), "missing table:\n{stdout}");
    let json = std::fs::read_to_string(dir.join("BENCH_table1_backends.json")).expect("artifact");
    let names = lightator_telemetry::json::validate(&json).expect("artifact parses");
    assert!(names.iter().any(|name| name == "photonic_w4a4_fps"));
    std::fs::remove_dir_all(&dir).ok();
}
