//! Silicon-photonic substrate of the Lightator reproduction.
//!
//! This crate holds the two descriptions of the optical devices of the
//! Lightator near-sensor accelerator (DAC 2024) that the simulator reads:
//!
//! * the **functional** model of the optical core's compute primitive, which
//!   produces every output value and its analog error:
//!   * [`microring`] — add-drop micro-ring resonators with Lorentzian
//!     transmission and weight imprinting (paper Fig. 1);
//!   * [`wdm`] — wavelength grids and inter-channel crosstalk;
//!   * [`noise`] — analog non-idealities as constant sigmas relative to
//!     full scale, with keyed, host-independent draws;
//!   * [`arm`] — the composed optical multiply-and-accumulate arm;
//! * the **cost** model: [`power`], one per-device power or energy constant
//!   per device quantity, from the paper's circuit-level extraction. The
//!   architecture simulator multiplies them by instance counts and duty
//!   cycles; no device model derives them.
//!
//! # Example
//!
//! Evaluate a 9-element dot product optically, exactly as one arm of a
//! Lightator MVM bank would:
//!
//! ```
//! use lightator_photonics::arm::{ArmConfig, OpticalArm};
//!
//! # fn main() -> Result<(), lightator_photonics::PhotonicsError> {
//! let mut arm = OpticalArm::new(ArmConfig::default())?;
//! arm.load_weights(&[0.25, -0.5, 0.75, 0.0, 0.5, -0.25, 0.1, 0.9, -0.9])?;
//! arm.begin_frame(42, 0);
//! let out = arm.mac(&[1.0, 0.5, 0.0, 0.25, 0.75, 1.0, 0.5, 0.0, 0.25])?;
//! println!("photonic MAC = {:.3} (ideal {:.3})", out.value, out.ideal);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arm;
pub mod error;
pub mod microring;
pub mod noise;
pub mod power;
pub mod units;
pub mod wdm;

pub use arm::{ArmConfig, ArmOutput, OpticalArm};
pub use error::{PhotonicsError, Result};
pub use microring::{MicroringConfig, MicroringResonator};
pub use noise::{CounterRng, NoiseChannel, NoiseConfig, NoiseInjector};
pub use power::DevicePowerTable;
pub use units::{Energy, Power, Time, Voltage, Wavelength};
pub use wdm::{CrosstalkModel, WdmGrid};
