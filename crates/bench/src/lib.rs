//! Experiment harness regenerating every table and figure of the Lightator
//! paper's evaluation section.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`fig8`] | Fig. 8 — LeNet layer-wise power breakdown, \[4:4\]/\[3:4\]/\[2:4\] |
//! | [`fig9`] | Fig. 9 — VGG9 layer-wise power breakdown, L8 pie chart, CA saving |
//! | [`table1`] | Table 1 — comparison with photonic accelerators + GPU |
//! | [`fig10`] | Fig. 10 — execution time vs electronic accelerators |
//! | [`headline`] | Abstract/§5 headline claims |
//!
//! Each module exposes `generate()` (the dataset), `render()` (the text
//! table) and is wrapped by both a binary (`cargo run -p lightator-bench
//! --bin fig8_lenet_power`) and a criterion bench (`cargo bench -p
//! lightator-bench`).
//!
//! [`emit`] writes machine-readable `BENCH_*.json` artifacts (metric name,
//! value, units, seed commit) so the `headline_claims` bin and the
//! `telemetry_overhead` and `parallel_scaling` benches leave a trackable
//! perf trail across PRs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod emit;
pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod harness;
pub mod headline;
pub mod table1;
