//! Lightator: an optical near-sensor accelerator with compressive
//! acquisition (DAC 2024) — architecture-level reproduction.
//!
//! This crate implements the paper's primary contribution on top of the
//! photonic, sensor and DNN substrates:
//!
//! * [`config`] — optical-core geometry (96 banks × 6 arms × 9 MRs), the
//!   analog noise setting, and the paper's periphery counts and timing
//!   constants;
//! * [`oc`] — MVM banks, the summation tree and the photonic MAC unit;
//! * [`mapping`] — the §4 hardware-mapping methodology (3×3/5×5/7×7 kernels,
//!   FC segmentation, CA banks);
//! * [`ca`] — the Compressive Acquisitor fusing RGB→grayscale conversion and
//!   average pooling into one optical pass (Eq. 1);
//! * [`energy`] — the component power model behind Figs. 8 and 9;
//! * [`sim`] — the architecture simulator producing latency, power and
//!   KFPS/W (Table 1);
//! * [`exec`] — functional photonic inference for accuracy measurements;
//! * [`backend`] — **execution backends**: the [`Backend`] trait that lowers
//!   workloads onto pluggable targets (the photonic core here; the
//!   electronic-reference and analytical-roofline backends live in
//!   `lightator-baselines`), resolved by [`BackendId`] when a session opens;
//! * [`plan`] — **compiled execution plans**: the lowering pass that turns a
//!   workload into a [`CompiledPlan`] (pre-encoded MR weight bank, CA
//!   operator, resolved precision schedule, scratch buffers) built once per
//!   session and reused by every execution entry point;
//! * [`platform`] — **the front door**: [`Platform`]/[`Session`]/[`Workload`]
//!   facade unifying acquisition, image kernels, inference and video
//!   streaming behind one builder-validated entry point;
//! * [`stream`] — the frame-delta compressive streaming path: per-block
//!   temporal gating on the DMVA feedback model, [`StreamReport`]
//!   aggregation and the dense-baseline speedup accounting;
//! * [`trace`] — per-stage trace attribution: pure derivation of
//!   acquire/CA/weight-encode/MAC-rows/readout [`StageSpan`]s from a
//!   [`SimulationReport`], feeding `lightator-telemetry` sinks without
//!   touching execution state.
//!
//! # Example
//!
//! Open a classification session on the paper's platform and read both the
//! prediction and the figures of merit from one [`platform::Report`]:
//!
//! ```
//! use lightator_core::platform::{Platform, Workload};
//! use lightator_sensor::frame::RgbFrame;
//!
//! # fn main() -> Result<(), lightator_core::CoreError> {
//! let platform = Platform::builder().sensor_resolution(16, 16).build()?;
//! let mut session = platform.session(Workload::Acquire)?;
//! let report = session.run(&RgbFrame::filled(16, 16, [0.7, 0.4, 0.2])?)?;
//! println!("{:.1} KFPS/W at {:.3} W", report.kfps_per_watt(), report.max_power().watts());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod ca;
pub mod config;
pub mod energy;
pub mod error;
pub mod exec;
pub mod mapping;
pub mod oc;
pub mod plan;
pub mod platform;
pub mod sim;
pub mod stream;
pub mod trace;

pub use backend::{Backend, BackendId, LoweredPlan, PhotonicBackend};
pub use ca::{CaConfig, CompressiveAcquisitor};
pub use config::{LightatorConfig, OcGeometry, PeripheryCounts, TimingConfig};
pub use energy::{ComponentPower, EnergyModel};
pub use error::{CoreError, Result};
pub use exec::{PhotonicAccuracy, PhotonicExecutor};
pub use mapping::{HardwareMapper, LayerMapping, SummationUsage};
pub use oc::{MvmBank, PhotonicMacUnit};
pub use plan::{CompiledPlan, EncodedWeights, PlanStats};
pub use platform::{
    ImageKernel, Outcome, Platform, PlatformBuilder, PlatformConfig, Report, Session, Workload,
};
pub use sim::{ArchitectureSimulator, LayerPhases, LayerReport, SimulationReport};
pub use stream::{
    StreamConfig, StreamFrame, StreamReport, StreamState, TemporalDifferencer, GATE_COST_FRACTION,
};
pub use trace::{frame_stages, stage_breakdown, StageSpan};
