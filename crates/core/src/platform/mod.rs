//! The one front door to the Lightator node: `Platform` → `Session` →
//! `Report`.
//!
//! The paper pitches a *versatile* near-sensor accelerator — one device that
//! serves compressive acquisition, classic image-processing kernels and DNN
//! inference. This module is the programmable front end over that device,
//! organised as an **acquire → compile → execute** pipeline:
//!
//! * a [`Platform`] is built once from a validated configuration via the
//!   fluent [`PlatformBuilder`], which starts from the paper's platform
//!   ([`PlatformBuilder::paper`]) — see [`builder`];
//! * a [`Session`] is opened on the platform for one typed [`Workload`]
//!   (classification, raw/compressive acquisition, an image kernel, or a
//!   video stream — see [`workload`]); opening the session **compiles** the
//!   workload into a [`crate::plan::CompiledPlan`] (pre-encoded MR weight
//!   bank, CA operator, scratch buffers) that every later execution reuses
//!   — see [`session`];
//! * every [`Session::run`] returns a unified [`Report`] carrying both the
//!   functional outcome (class, logits, filtered frame) *and* the
//!   architecture-level performance numbers (latency, power, energy, FPS,
//!   KFPS/W) for the workload — see [`report`].
//!
//! The compiled plan is the software analogue of programming the MR weight
//! DACs once and letting frames stream through: a sequence of frames is
//! one [`Session::run`] per frame (`frames.iter().map(|f| session.run(f))`),
//! each at the next global frame index.
//!
//! [`Workload::VideoStream`] sessions run whole frame sequences through
//! [`Session::run_stream`]: a per-block temporal delta gate (its mask is
//! the DMVA's choice between the pixel and the feedback path) skips the
//! optical work of unchanged blocks, and the returned
//! [`StreamReport`](crate::stream::StreamReport) carries frames processed,
//! blocks skipped, simulated FPS, energy per frame and the speedup over
//! dense per-frame execution:
//!
//! ```
//! use lightator_core::platform::{ImageKernel, Platform, Workload};
//! use lightator_core::stream::StreamConfig;
//! use lightator_sensor::video::{SyntheticVideo, SyntheticVideoConfig};
//!
//! # fn main() -> Result<(), lightator_core::CoreError> {
//! let platform = Platform::builder().sensor_resolution(16, 16).build()?;
//! let mut session = platform.session(Workload::VideoStream {
//!     kernel: ImageKernel::SobelX,
//!     stream: StreamConfig { block_size: 2, delta_threshold: 0.05 },
//! })?;
//! let frames: Vec<_> =
//!     SyntheticVideo::new(SyntheticVideoConfig::low_motion(16, 16, 6))
//!         .expect("valid video")
//!         .collect();
//! let report = session.run_stream(&frames)?;
//! assert_eq!(report.frames_processed(), 6);
//! assert!(report.speedup_vs_dense() >= 1.0);
//! # Ok(())
//! # }
//! ```
//!
//! ```
//! use lightator_core::platform::{Platform, Workload};
//! use lightator_sensor::frame::RgbFrame;
//!
//! # fn main() -> Result<(), lightator_core::CoreError> {
//! let platform = Platform::builder().sensor_resolution(16, 16).build()?;
//! let mut session = platform.session(Workload::Acquire)?;
//! let scene = RgbFrame::filled(16, 16, [0.6, 0.3, 0.1])?;
//! let report = session.run(&scene)?;
//! assert!(report.fps() > 0.0);
//! assert!(report.max_power().watts() > 0.0);
//! # Ok(())
//! # }
//! ```

pub mod builder;
pub mod report;
pub mod session;
pub mod workload;

pub use builder::{Platform, PlatformBuilder, PlatformConfig, MAX_SENSOR_AXIS};
pub use report::{Outcome, Report};
pub use session::Session;
pub use workload::{ImageKernel, Workload};

// Compile-time guarantee that the facade types can cross threads: the serve
// crate runs a group's cloned `Session`s on whichever client thread closes a
// batch, and shares the `Platform` across clients.
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<Platform>();
    require_send_sync::<Session>();
};
