//! Static analysis for the Lightator workspace: a determinism lint.
//!
//! A hand-rolled Rust token scanner ([`lexer`], no external parser) walks
//! the workspace sources ([`scan`]) and enforces the determinism contract
//! ([`rules`]) — no wall-clock reads in simulation crates, no hash-ordered
//! collections, no unseeded RNG constructors, no `unwrap()`/`expect("…")`
//! in library paths, no `unsafe` anywhere. Rules are steered per crate
//! class by `analysis.cfg` and individual findings can be waived with
//! `// lightator: allow(rule)`.
//!
//! The `lint_workspace` binary ties it to CI: it prints
//! `path:line:col: rule: message` diagnostics, emits a machine-readable
//! `BENCH_lint_workspace.json` findings artifact ([`report`]) and, with
//! `--gate`, exits non-zero when unsuppressed findings remain.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

pub use lexer::{lex, Token, TokenKind};
pub use rules::{AnalysisConfig, Rule};
pub use scan::{lint_source, scan_workspace, Finding, ScanReport};
