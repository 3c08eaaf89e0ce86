//! End-to-end tests of the `lint_workspace` gate: the binary must pass the
//! real workspace and fail the seeded-violation fixture, and the shipped
//! `analysis.cfg` must stay in lockstep with the built-in rule table.

use std::path::{Path, PathBuf};
use std::process::Command;

use lightator_analysis::rules::{AnalysisConfig, Rule};
use lightator_analysis::scan::scan_workspace;

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/seeded")
}

fn lint_workspace_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_lint_workspace"))
}

#[test]
fn gate_passes_the_real_workspace() {
    let output = lint_workspace_bin()
        .args(["--gate", "--no-emit", "--root"])
        .arg(workspace_root())
        .output()
        .expect("run lint_workspace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "gate failed on the real workspace:\n{stdout}"
    );
    assert!(
        stdout.contains("files scanned"),
        "missing summary:\n{stdout}"
    );
}

#[test]
fn gate_fails_the_seeded_fixture_and_names_the_rules() {
    let output = lint_workspace_bin()
        .args(["--gate", "--no-emit", "--root"])
        .arg(fixture_root())
        .output()
        .expect("run lint_workspace");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        !output.status.success(),
        "gate must fail on seeded violations:\n{stdout}"
    );
    for rule in Rule::ALL {
        assert!(
            stdout.contains(rule.name()),
            "fixture should trip {}:\n{stdout}",
            rule.name()
        );
    }
    assert!(stdout.contains("gate FAILED"), "missing verdict:\n{stdout}");
    // The suppressed expect is reported but does not count against the gate.
    assert!(
        stdout.contains("(suppressed)"),
        "missing suppression:\n{stdout}"
    );
}

#[test]
fn workspace_self_check_has_no_unsuppressed_findings() {
    let config = AnalysisConfig::default();
    let report = scan_workspace(&workspace_root(), &config).expect("scan");
    assert!(report.files_scanned > 50, "scan looks truncated");
    let unsuppressed = report.unsuppressed();
    assert!(
        unsuppressed.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        unsuppressed
            .iter()
            .map(|f| f.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    // Every suppression in the tree documents a real invariant; the count
    // can move, but a sudden explosion means the escape hatch is abused.
    let suppressed = report.findings.len() - unsuppressed.len();
    assert!(
        suppressed <= 40,
        "suppression count {suppressed} grew past the review threshold"
    );
}

#[test]
fn shipped_analysis_cfg_matches_the_builtin_table() {
    let path = workspace_root().join("analysis.cfg");
    let text = std::fs::read_to_string(&path).expect("read analysis.cfg");
    let parsed = AnalysisConfig::from_text(&text).expect("parse analysis.cfg");
    assert_eq!(parsed, AnalysisConfig::default());
    assert_eq!(text, AnalysisConfig::default().to_text());
}

#[test]
fn fixture_scan_counts_one_finding_per_seeded_site() {
    let report = scan_workspace(&fixture_root(), &AnalysisConfig::default()).expect("scan");
    assert_eq!(report.files_scanned, 1);
    let by_rule = |rule: Rule| {
        report
            .findings
            .iter()
            .filter(|f| f.rule == rule && !f.suppressed)
            .count()
    };
    assert_eq!(by_rule(Rule::NoWallClock), 1);
    assert_eq!(by_rule(Rule::NoHashCollections), 1);
    assert_eq!(by_rule(Rule::NoUnseededRng), 1);
    assert_eq!(by_rule(Rule::NoUnsafe), 1);
    assert_eq!(by_rule(Rule::NoUnwrap), 1);
    assert_eq!(report.findings.iter().filter(|f| f.suppressed).count(), 1);
}

#[test]
fn artifact_is_written_and_validates() {
    let dir = std::env::temp_dir().join(format!("lightator-lint-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let output = lint_workspace_bin()
        .args(["--root"])
        .arg(fixture_root())
        .env("LIGHTATOR_BENCH_DIR", &dir)
        .output()
        .expect("run lint_workspace");
    assert!(
        output.status.success(),
        "without --gate findings don't fail"
    );
    let artifact = dir.join("BENCH_lint_workspace.json");
    let json = std::fs::read_to_string(&artifact).expect("artifact written");
    let metrics = lightator_telemetry::json::validate(&json).expect("artifact parses");
    assert!(metrics.iter().any(|m| m == "findings_unsuppressed"));
    assert!(json.contains("\"rule\": \"no-wall-clock\""));
    std::fs::remove_dir_all(&dir).ok();
}
