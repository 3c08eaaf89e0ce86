//! ADC-less CMOS image sensor models for the Lightator reproduction.
//!
//! This crate models the sensing front end of the Lightator optical
//! near-sensor accelerator (DAC 2024):
//!
//! * [`frame`] — normalised RGB / grayscale frame containers;
//! * [`bayer`] — the imager's RGGB colour-filter layout (paper Fig. 2);
//! * [`pixel`] — photodiode pixels with global-shutter exposure;
//! * [`crc`] — the Comparator-based pixel Reading Circuit that replaces
//!   column ADCs with a 15-comparator ladder (4-bit codes);
//! * [`array`](mod@array) — the complete 256×256 global-shutter sensor;
//! * [`video`] — deterministic synthetic frame sequences for streaming
//!   workloads.
//!
//! The sensor is the paper's one design: the Bayer layout, the pixel's
//! device figures and the comparator ladder are constants, and the
//! resolution in [`SensorArrayConfig`] is its only setting.
//!
//! These models compute the codes the sensor produces, not what producing
//! them costs: the CRC and VCSEL power the simulator charges are per-device
//! constants of
//! [`DevicePowerTable`](lightator_photonics::power::DevicePowerTable). The
//! DMVA's choice between the pixel path and the feedback path is the mask
//! of the streaming delta gate in `lightator_core::stream`.
//!
//! # Example
//!
//! Capture a scene and inspect the 4-bit codes that drive the optical core:
//!
//! ```
//! use lightator_sensor::array::{SensorArray, SensorArrayConfig};
//! use lightator_sensor::frame::RgbFrame;
//!
//! # fn main() -> Result<(), lightator_sensor::SensorError> {
//! let sensor = SensorArray::new(SensorArrayConfig::with_resolution(16, 16)?)?;
//! let scene = RgbFrame::filled(16, 16, [0.7, 0.5, 0.3])?;
//! let digital = sensor.capture(&scene)?;
//! println!("mean code = {:.1}",
//!     digital.codes().iter().map(|&c| f64::from(c)).sum::<f64>() / 256.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod array;
pub mod bayer;
pub mod crc;
pub mod error;
pub mod frame;
pub mod pixel;
pub mod video;

pub use array::{DigitalFrame, SensorArray, SensorArrayConfig, DEFAULT_RESOLUTION};
pub use crc::{ComparatorReadCircuit, CRC_COMPARATORS};
pub use error::{Result, SensorError};
pub use frame::{Channel, GrayFrame, RgbFrame};
pub use pixel::Pixel;
pub use video::{MotionPattern, SyntheticVideo, SyntheticVideoConfig};
