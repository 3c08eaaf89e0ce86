//! Machine-readable findings artifact: `BENCH_lint_workspace.json`.
//!
//! The lint gate writes its result in the same `BENCH_*.json` shape the
//! bench harnesses emit (the [`json::render`] header: `bench`/
//! `seed_commit`/`metrics`), extended with a `findings` array carrying
//! every diagnostic — suppressed ones included, so the artifact records
//! exactly which escape hatches the tree uses. [`json::write`] round-trips
//! the written bytes through [`json::validate`] before the gate exits, and
//! CI re-validates them with `python3 -m json.tool`.

use std::path::PathBuf;

use crate::rules::Rule;
use crate::scan::{Finding, ScanReport};
use lightator_telemetry::json::{self, escape, BenchMetric};

/// The summary metrics of a scan: files scanned, total/unsuppressed/
/// suppressed finding counts, plus a per-rule unsuppressed count.
#[must_use]
pub fn metrics_of(report: &ScanReport) -> Vec<BenchMetric> {
    let unsuppressed = report.unsuppressed().len();
    let mut metrics = vec![
        BenchMetric::new("files_scanned", report.files_scanned as f64, "files"),
        BenchMetric::new("findings_total", report.findings.len() as f64, "findings"),
        BenchMetric::new("findings_unsuppressed", unsuppressed as f64, "findings"),
        BenchMetric::new(
            "findings_suppressed",
            (report.findings.len() - unsuppressed) as f64,
            "findings",
        ),
    ];
    for rule in Rule::ALL {
        let count = report
            .findings
            .iter()
            .filter(|f| f.rule == rule && !f.suppressed)
            .count();
        metrics.push(BenchMetric::new(
            &format!("rule.{}.unsuppressed", rule.name()),
            count as f64,
            "findings",
        ));
    }
    metrics
}

fn render_finding(finding: &Finding) -> String {
    format!(
        "    {{ \"rule\": \"{}\", \"path\": \"{}\", \"line\": {}, \"col\": {}, \
         \"suppressed\": {}, \"message\": \"{}\" }}",
        escape(finding.rule.name()),
        escape(&finding.path),
        finding.line,
        finding.col,
        finding.suppressed,
        escape(&finding.message)
    )
}

/// Renders the full artifact: the `BENCH_*` header and metrics followed by
/// the `findings` array.
#[must_use]
pub fn render(report: &ScanReport, seed_commit: &str) -> String {
    // Reuse the bench renderer for the header, then reopen its object after
    // the metrics array so both documents stay one format.
    let base = json::render("lint_workspace", seed_commit, &metrics_of(report));
    let mut out = base.trim_end_matches('}').trim_end().to_string();
    out.push_str(",\n  \"findings\": [\n");
    let rendered: Vec<String> = report.findings.iter().map(render_finding).collect();
    out.push_str(&rendered.join(",\n"));
    if !rendered.is_empty() {
        out.push('\n');
    }
    out.push_str("  ]\n}");
    out
}

/// Writes `BENCH_lint_workspace.json` into `LIGHTATOR_BENCH_DIR` (or the
/// current directory) through [`json::write`], which validates the written
/// bytes, and returns the path.
///
/// # Errors
///
/// As [`json::write`].
pub fn write_artifact(report: &ScanReport) -> std::io::Result<PathBuf> {
    json::write("lint_workspace", &render(report, &json::seed_commit()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::AnalysisConfig;
    use crate::scan::lint_source;

    fn sample_report() -> ScanReport {
        let source = "let a = x.unwrap();\n\
                      let b = Instant::now(); // lightator: allow(no-wall-clock)\n";
        ScanReport {
            files_scanned: 1,
            findings: lint_source("crates/core/src/lib.rs", source, &AnalysisConfig::default()),
        }
    }

    #[test]
    fn artifact_parses_with_the_bench_validator() {
        let report = sample_report();
        let json = render(&report, "deadbeef");
        let names = json::validate(&json).expect("valid JSON");
        assert!(names.iter().any(|n| n == "files_scanned"));
        assert!(names.iter().any(|n| n == "findings_unsuppressed"));
        assert!(json.contains("\"findings\": ["));
        assert!(json.contains("\"rule\": \"no-unwrap\""));
        assert!(json.contains("\"suppressed\": true"));
    }

    #[test]
    fn empty_reports_render_an_empty_findings_array() {
        let report = ScanReport::default();
        let json = render(&report, "deadbeef");
        json::validate(&json).expect("valid JSON");
        assert!(json.contains("\"findings\": [\n  ]"));
    }

    #[test]
    fn metrics_count_suppressed_and_unsuppressed_separately() {
        let metrics = metrics_of(&sample_report());
        let value = |name: &str| {
            metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap_or(f64::NAN)
        };
        assert_eq!(value("findings_total"), 2.0);
        assert_eq!(value("findings_unsuppressed"), 1.0);
        assert_eq!(value("findings_suppressed"), 1.0);
        assert_eq!(value("rule.no-unwrap.unsuppressed"), 1.0);
        assert_eq!(value("rule.no-wall-clock.unsuppressed"), 0.0);
    }

    #[test]
    fn messages_with_quotes_and_newlines_escape_cleanly() {
        let mut report = sample_report();
        report.findings[0].message = "a \"quoted\"\nmessage\twith\\escapes".to_string();
        let json = render(&report, "deadbeef");
        json::validate(&json).expect("valid JSON");
    }
}
