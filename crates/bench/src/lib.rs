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
//! Each module exposes `generate()` (the dataset) and `render()` (the text
//! table), and a binary prints it (`cargo run -p lightator-bench --bin
//! fig8_lenet_power`). The `ablations` binary prints the CA, core-geometry,
//! kernel-mapping (Fig. 6) and analog-noise ablation tables.
//!
//! The `headline_claims`, `table1_comparison` and `serve_soak` binaries and
//! the `telemetry_overhead` and `parallel_scaling` benches write
//! machine-readable `BENCH_*.json` artifacts (metric name, value, units,
//! seed commit) through [`lightator_telemetry::json`], so they leave a
//! trackable perf trail across PRs.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod fig10;
pub mod fig8;
pub mod fig9;
pub mod harness;
pub mod headline;
pub mod table1;
