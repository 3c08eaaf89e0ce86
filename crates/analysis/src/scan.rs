//! The workspace scanner: walk the tree, lex each file, match the rules.
//!
//! [`lint_source`] lints one file's source text against an
//! [`AnalysisConfig`]; [`scan_workspace`] walks a workspace root
//! (skipping `vendor/`, `target/`, `fixtures/` and dot-directories) and
//! aggregates every file's findings into one deterministic, sorted
//! [`ScanReport`].
//!
//! **Scope.** Rules apply to *library* code only: files under `tests/`,
//! `benches/` or `examples/`, and regions behind `#[cfg(test)]`, are
//! skipped entirely. (Unsafe code in tests is still impossible — the
//! workspace-level `forbid(unsafe_code)` lint covers every build target at
//! compile time.)
//!
//! **Suppressions.** A `// lightator: allow(rule[, rule…])` comment
//! suppresses matching findings on its own line and the line directly
//! below, so both trailing and leading placements work. Suppressed
//! findings are *recorded* (with [`Finding::suppressed`] set) rather than
//! dropped, so the JSON artifact shows exactly which escape hatches a tree
//! uses.

use std::fs;
use std::io;
use std::path::Path;

use crate::lexer::{lex, Token, TokenKind};
use crate::rules::{AnalysisConfig, Rule};

/// One diagnostic: a rule match at a `file:line:col` position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path, forward slashes on every platform.
    pub path: String,
    /// 1-based line of the match.
    pub line: u32,
    /// 1-based column of the match.
    pub col: u32,
    /// Diagnostic message: the matched source plus the rule rationale.
    pub message: String,
    /// Whether a `// lightator: allow(…)` comment covers this finding.
    pub suppressed: bool,
}

impl Finding {
    /// Renders the finding as a `path:line:col: rule: message` diagnostic.
    #[must_use]
    pub fn render(&self) -> String {
        let marker = if self.suppressed { " (suppressed)" } else { "" };
        format!(
            "{}:{}:{}: {}{}: {}",
            self.path,
            self.line,
            self.col,
            self.rule.name(),
            marker,
            self.message
        )
    }
}

/// Aggregated result of a workspace scan.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// Number of `.rs` files lexed and linted.
    pub files_scanned: usize,
    /// Every finding, sorted by path, line and column.
    pub findings: Vec<Finding>,
}

impl ScanReport {
    /// The findings no suppression covers — the ones that gate CI.
    #[must_use]
    pub fn unsuppressed(&self) -> Vec<&Finding> {
        self.findings.iter().filter(|f| !f.suppressed).collect()
    }
}

/// The crate a workspace-relative path belongs to: `crates/<name>/…` maps
/// to `<name>`, everything else (the umbrella `src/`, root `tests/`) to
/// `suite`.
fn crate_of(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => name,
        _ => "suite",
    }
}

/// Whether the path itself marks the file as test-class code.
fn is_test_path(rel_path: &str) -> bool {
    rel_path
        .split('/')
        .any(|part| part == "tests" || part == "benches" || part == "examples")
}

/// Byte spans (as line ranges) of `#[cfg(test)]`-gated items, so findings
/// inside them are dropped.
fn cfg_test_line_ranges(tokens: &[Token<'_>]) -> Vec<(u32, u32)> {
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < code.len() {
        // Match `#[cfg(test)]` (with optional leading `#!`? no — inner
        // attributes gate the whole file, which library roots never do).
        let is_cfg_test = code[i].text == "#"
            && code.get(i + 1).is_some_and(|t| t.text == "[")
            && code.get(i + 2).is_some_and(|t| t.text == "cfg")
            && code.get(i + 3).is_some_and(|t| t.text == "(")
            && code.get(i + 4).is_some_and(|t| t.text == "test")
            && code.get(i + 5).is_some_and(|t| t.text == ")")
            && code.get(i + 6).is_some_and(|t| t.text == "]");
        if !is_cfg_test {
            i += 1;
            continue;
        }
        let start_line = code[i].line;
        let mut j = i + 7;
        // Skip any further attributes on the same item.
        while code.get(j).is_some_and(|t| t.text == "#")
            && code.get(j + 1).is_some_and(|t| t.text == "[")
        {
            let mut depth = 0usize;
            while let Some(token) = code.get(j) {
                match token.text {
                    "[" => depth += 1,
                    "]" => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        // Skip to the end of the gated item: the matching close brace of
        // its body, or a terminating semicolon for brace-less items.
        let mut depth = 0usize;
        let mut end_line = start_line;
        while let Some(token) = code.get(j) {
            end_line = token.line;
            match token.text {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                }
                ";" if depth == 0 => break,
                _ => {}
            }
            j += 1;
        }
        ranges.push((start_line, end_line));
        i = j + 1;
    }
    ranges
}

/// Parses `// lightator: allow(rule[, rule…])` comments into
/// `(line, rules)` pairs.
fn suppressions(tokens: &[Token<'_>]) -> Vec<(u32, Vec<Rule>)> {
    let mut out = Vec::new();
    for token in tokens {
        if !matches!(token.kind, TokenKind::LineComment | TokenKind::BlockComment) {
            continue;
        }
        let Some(rest) = token
            .text
            .split("lightator:")
            .nth(1)
            .map(str::trim_start)
            .filter(|rest| rest.starts_with("allow"))
        else {
            continue;
        };
        let Some(open) = rest.find('(') else { continue };
        let Some(close) = rest[open..].find(')') else {
            continue;
        };
        let rules: Vec<Rule> = rest[open + 1..open + close]
            .split(',')
            .filter_map(|name| Rule::parse(name.trim()))
            .collect();
        if !rules.is_empty() {
            out.push((token.line, rules));
        }
    }
    out
}

fn is_suppressed(rule: Rule, line: u32, allows: &[(u32, Vec<Rule>)]) -> bool {
    allows.iter().any(|(allow_line, rules)| {
        (line == *allow_line || line == allow_line + 1) && rules.contains(&rule)
    })
}

/// Lints one file's source text. `rel_path` decides the crate class (and
/// therefore which rules apply) and is echoed into every finding.
#[must_use]
pub fn lint_source(rel_path: &str, source: &str, config: &AnalysisConfig) -> Vec<Finding> {
    if is_test_path(rel_path) {
        return Vec::new();
    }
    let crate_name = crate_of(rel_path);
    let active: Vec<Rule> = Rule::ALL
        .into_iter()
        .filter(|rule| config.applies(*rule, crate_name))
        .collect();
    if active.is_empty() {
        return Vec::new();
    }
    let tokens = lex(source);
    let test_ranges = cfg_test_line_ranges(&tokens);
    let allows = suppressions(&tokens);
    let code: Vec<&Token<'_>> = tokens
        .iter()
        .filter(|t| !matches!(t.kind, TokenKind::LineComment | TokenKind::BlockComment))
        .collect();

    let mut findings = Vec::new();
    let mut push = |rule: Rule, token: &Token<'_>| {
        if !active.contains(&rule) {
            return;
        }
        if test_ranges
            .iter()
            .any(|(start, end)| token.line >= *start && token.line <= *end)
        {
            return;
        }
        findings.push(Finding {
            rule,
            path: rel_path.to_string(),
            line: token.line,
            col: token.col,
            message: format!("`{}` — {}", token.text, rule.describe()),
            suppressed: is_suppressed(rule, token.line, &allows),
        });
    };

    for (i, token) in code.iter().enumerate() {
        if token.kind != TokenKind::Ident {
            continue;
        }
        match token.text {
            "unsafe" => push(Rule::NoUnsafe, token),
            "Instant" | "SystemTime" => push(Rule::NoWallClock, token),
            "HashMap" | "HashSet" => push(Rule::NoHashCollections, token),
            "from_entropy" | "thread_rng" | "OsRng" => push(Rule::NoUnseededRng, token),
            "unwrap" => {
                // `.unwrap()` — the method call, not an `unwrap` fn def.
                let preceded = i > 0 && code[i - 1].text == ".";
                let called = code.get(i + 1).is_some_and(|t| t.text == "(")
                    && code.get(i + 2).is_some_and(|t| t.text == ")");
                if preceded && called {
                    push(Rule::NoUnwrap, token);
                }
            }
            "expect" => {
                // `.expect("…")` — a panic message marks the panicking
                // Option/Result method; `expect(b'{')` (the bench JSON
                // parser's cursor method) takes a byte and is fine.
                let preceded = i > 0 && code[i - 1].text == ".";
                let message = code.get(i + 1).is_some_and(|t| t.text == "(")
                    && code
                        .get(i + 2)
                        .is_some_and(|t| matches!(t.kind, TokenKind::Str | TokenKind::RawStr));
                if preceded && message {
                    push(Rule::NoUnwrap, token);
                }
            }
            _ => {}
        }
    }
    findings
}

/// Recursively collects the workspace's `.rs` files in sorted order,
/// skipping `vendor/`, `target/`, `fixtures/` and dot-directories.
fn collect_rs_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if path.is_dir() {
            if name.starts_with('.') || name == "vendor" || name == "target" || name == "fixtures" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Walks a workspace root and lints every library-path `.rs` file.
///
/// # Errors
///
/// Propagates directory-walk and file-read I/O errors; files that are not
/// valid UTF-8 are skipped.
pub fn scan_workspace(root: &Path, config: &AnalysisConfig) -> io::Result<ScanReport> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    let mut report = ScanReport::default();
    for path in files {
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        report.files_scanned += 1;
        report.findings.extend(lint_source(&rel, &source, config));
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lint(rel_path: &str, source: &str) -> Vec<Finding> {
        lint_source(rel_path, source, &AnalysisConfig::default())
    }

    #[test]
    fn each_rule_fires_on_its_seeded_violation() {
        let cases = [
            (Rule::NoWallClock, "let t = Instant::now();"),
            (Rule::NoWallClock, "use std::time::SystemTime;"),
            (Rule::NoHashCollections, "use std::collections::HashMap;"),
            (
                Rule::NoHashCollections,
                "let s: HashSet<u8> = Default::default();",
            ),
            (Rule::NoUnseededRng, "let rng = SmallRng::from_entropy();"),
            (Rule::NoUnseededRng, "let r = rand::thread_rng();"),
            (Rule::NoUnwrap, "let v = maybe.unwrap();"),
            (Rule::NoUnwrap, "let v = maybe.expect(\"present\");"),
            (Rule::NoUnsafe, "unsafe { *ptr }"),
        ];
        for (rule, source) in cases {
            let findings = lint("crates/core/src/lib.rs", source);
            assert_eq!(findings.len(), 1, "source: {source}");
            assert_eq!(findings[0].rule, rule, "source: {source}");
            assert!(!findings[0].suppressed);
            assert_eq!(findings[0].line, 1);
        }
    }

    #[test]
    fn comments_strings_and_tests_never_fire() {
        let clean = [
            "// Instant::now() in a comment",
            "/* unwrap() inside */",
            "let s = \"HashMap::new()\";",
            "let r = r#\"unsafe { }\"#;",
            "fn unwrap() {} // a definition, not a call",
            "let u = x.unwrap_or(3);",
            "self.expect(b'{')?;",
        ];
        for source in clean {
            assert!(
                lint("crates/core/src/lib.rs", source).is_empty(),
                "source: {source}"
            );
        }
        // Test-class paths are skipped wholesale.
        assert!(lint("crates/core/tests/x.rs", "x.unwrap();").is_empty());
        assert!(lint("crates/bench/benches/b.rs", "x.unwrap();").is_empty());
        assert!(lint("examples/e.rs", "x.unwrap();").is_empty());
    }

    #[test]
    fn cfg_test_modules_are_exempt() {
        let source = "pub fn lib() {}\n\
                      #[cfg(test)]\n\
                      mod tests {\n\
                          #[test]\n\
                          fn t() { x.unwrap(); let m = HashMap::new(); }\n\
                      }\n";
        assert!(lint("crates/core/src/lib.rs", source).is_empty());
        // ...but library code above/below the module still fires.
        let mixed = format!("pub fn bad() {{ x.unwrap(); }}\n{source}");
        let findings = lint("crates/core/src/lib.rs", &mixed);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn class_table_steers_rule_applicability() {
        // bench is metering-class: wall clocks allowed.
        assert!(lint("crates/bench/src/emit.rs", "let t = Instant::now();").is_empty());
        // serve schedules on the simulated clock: held to the ban.
        assert_eq!(
            lint("crates/serve/src/metrics.rs", "use std::time::Instant;").len(),
            1
        );
        // ...but the rest of the contract still applies to bench.
        assert_eq!(lint("crates/bench/src/emit.rs", "x.unwrap();").len(), 1);
        // Unknown crates are held to everything.
        assert_eq!(
            lint("crates/mystery/src/lib.rs", "Instant::now();").len(),
            1
        );
    }

    #[test]
    fn suppressions_cover_their_line_and_the_next() {
        let trailing = "let v = x.unwrap(); // lightator: allow(no-unwrap)\n";
        let findings = lint("crates/core/src/lib.rs", trailing);
        assert_eq!(findings.len(), 1);
        assert!(findings[0].suppressed);

        let leading = "// lightator: allow(no-unwrap, no-wall-clock)\n\
                       let v = Instant::now(); let w = x.unwrap();\n";
        let findings = lint("crates/core/src/lib.rs", leading);
        assert_eq!(findings.len(), 2);
        assert!(findings.iter().all(|f| f.suppressed));

        // A suppression for one rule does not silence another.
        let wrong = "// lightator: allow(no-unsafe)\nlet v = x.unwrap();\n";
        let findings = lint("crates/core/src/lib.rs", wrong);
        assert_eq!(findings.len(), 1);
        assert!(!findings[0].suppressed);

        // And it does not leak past the next line.
        let far = "// lightator: allow(no-unwrap)\nlet a = 1;\nlet v = x.unwrap();\n";
        let findings = lint("crates/core/src/lib.rs", far);
        assert!(!findings[0].suppressed);
    }

    #[test]
    fn findings_render_as_clickable_diagnostics() {
        let findings = lint("crates/core/src/lib.rs", "let v = maybe.unwrap();");
        let rendered = findings[0].render();
        assert!(rendered.starts_with("crates/core/src/lib.rs:1:15: no-unwrap:"));
    }

    #[test]
    fn scan_walks_a_tree_and_sorts_findings() {
        let dir =
            std::env::temp_dir().join(format!("lightator-analysis-scan-{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        fs::create_dir_all(&src).expect("mkdir");
        fs::create_dir_all(dir.join("vendor/dep/src")).expect("mkdir");
        fs::write(src.join("lib.rs"), "let v = x.unwrap();\n").expect("write");
        fs::write(
            dir.join("vendor/dep/src/lib.rs"),
            "unsafe { Instant::now() }\n",
        )
        .expect("write");
        let report = scan_workspace(&dir, &AnalysisConfig::default()).expect("scan");
        fs::remove_dir_all(&dir).expect("cleanup");
        // vendor/ is excluded: one file, one finding.
        assert_eq!(report.files_scanned, 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].path, "crates/demo/src/lib.rs");
        assert_eq!(report.unsuppressed().len(), 1);
    }
}
