//! Umbrella crate for the Lightator reproduction.
//!
//! Re-exports every crate of the workspace so examples, integration tests and
//! downstream users can depend on a single entry point:
//!
//! * [`photonics`] — micro-rings, optical arms, WDM crosstalk, analog
//!   noise and the device power table;
//! * [`sensor`] — the ADC-less imager and the DMVA;
//! * [`nn`] — tensors, layers, quantization, training, topologies, datasets;
//! * [`core`] — the Lightator optical core, mapper, energy model, simulator
//!   and end-to-end pipeline;
//! * [`baselines`] — photonic and electronic baseline accelerator models;
//! * [`bench`](mod@bench) — the experiment harness regenerating Table 1 and Figs. 8–10;
//! * [`serve`] — the sharded, micro-batching inference server turning
//!   per-batch wins into system-level throughput;
//! * [`telemetry`] — deterministic simulated-time tracing: ring-buffer
//!   recorder, per-stage energy/latency attribution and Perfetto export.
//!
//! Outputs are pure functions of config and seed. Clippy keeps them so:
//! the root `clippy.toml` bans host clocks, hash-ordered collections and
//! unseeded RNGs, and CI denies `unwrap`/`expect` in library code.
//!
//! # Quickstart
//!
//! The [`Platform`]/[`Session`]/[`Workload`] facade is the front door: build
//! a validated platform once, open a session per workload, and read both the
//! functional result and the performance figures from one [`Report`]:
//!
//! ```
//! use lightator_suite::{Platform, Workload};
//! use lightator_suite::sensor::frame::RgbFrame;
//!
//! # fn main() -> Result<(), lightator_suite::core::CoreError> {
//! let platform = Platform::builder().sensor_resolution(16, 16).build()?;
//! let mut session = platform.session(Workload::Acquire)?;
//! let report = session.run(&RgbFrame::filled(16, 16, [0.7, 0.4, 0.2])?)?;
//! assert!(report.kfps_per_watt() > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use lightator_baselines as baselines;
pub use lightator_bench as bench;
pub use lightator_core as core;
pub use lightator_nn as nn;
pub use lightator_photonics as photonics;
pub use lightator_sensor as sensor;
pub use lightator_serve as serve;
pub use lightator_telemetry as telemetry;

pub use lightator_core::backend::{Backend, BackendId};
pub use lightator_core::plan::{CompiledPlan, PlanStats};
pub use lightator_core::platform::{
    ImageKernel, Outcome, Platform, PlatformBuilder, PlatformConfig, Report, Session, Workload,
};
pub use lightator_core::stream::{StreamConfig, StreamFrame, StreamReport, StreamState};
pub use lightator_sensor::video::{MotionPattern, SyntheticVideo, SyntheticVideoConfig};
pub use lightator_serve::{
    run_soak, ArrivalProcess, BackendSnapshot, MetricsSnapshot, Pending, Priority, Request,
    Response, ServeConfig, ServeError, Server, ServerBuilder, ShardSnapshot, SloConfig, SoakConfig,
    SoakOutcome, TrafficMix,
};
