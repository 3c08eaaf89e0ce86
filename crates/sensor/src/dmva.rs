//! Directly-Modulated VCSEL Array (DMVA).
//!
//! The DMVA is the interface between the electronic side of Lightator (pixel
//! array or the digital output of the previous DNN layer) and the optical
//! core. It has three components (paper Fig. 4):
//!
//! * the [comparator read circuit](crate::crc::ComparatorReadCircuit) that
//!   digitises a pixel voltage into a thermometer code,
//! * a [`Selector`] that chooses between the pixel path (first layer) and the
//!   feedback path carrying the previous layer's output (subsequent layers),
//! * a VCSEL driver whose [`DRIVER_TRANSISTORS`] parallel transistors convert
//!   the selected 4-bit code into a drive current for a wavelength-assigned
//!   VCSEL.
//!
//! Because the activation is encoded directly in the laser intensity, no DAC
//! is needed anywhere on the activation path — the key source of Lightator's
//! power advantage over MR-per-activation designs.
//!
//! This module keeps the selector and the driver's transistor count. The
//! VCSEL and CRC power are per-device constants of
//! [`DevicePowerTable`](lightator_photonics::power::DevicePowerTable), and
//! the VCSEL's intensity noise is a sigma of
//! [`NoiseConfig`](lightator_photonics::noise::NoiseConfig).

use serde::{Deserialize, Serialize};

/// Number of parallel driving transistors in a VCSEL driver (paper Fig. 4(c)).
pub const DRIVER_TRANSISTORS: u16 = 16;

/// Where the DMVA takes its activation from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum ActivationSource {
    /// First layer: the pixel array drives the VCSELs through the CRC.
    #[default]
    PixelArray,
    /// Subsequent layers: the previous layer's digital output is fed back.
    PreviousLayer,
}

/// The selector multiplexing between the pixel path and the feedback path
/// (paper Fig. 4(b)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Selector {
    source: ActivationSource,
}

impl Selector {
    /// Creates a selector initially wired to the pixel array.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently selected source.
    #[must_use]
    pub fn source(&self) -> ActivationSource {
        self.source
    }

    /// Switches the source.
    pub fn select(&mut self, source: ActivationSource) {
        self.source = source;
    }

    /// Resolves an activation code from the two candidate inputs according to
    /// the selected source.
    #[must_use]
    pub fn resolve(&self, pixel_code: u8, feedback_code: u8) -> u8 {
        match self.source {
            ActivationSource::PixelArray => pixel_code,
            ActivationSource::PreviousLayer => feedback_code,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selector_defaults_to_pixel_array() {
        let s = Selector::new();
        assert_eq!(s.source(), ActivationSource::PixelArray);
        assert_eq!(s.resolve(7, 12), 7);
    }

    #[test]
    fn selector_switches_to_feedback() {
        let mut s = Selector::new();
        s.select(ActivationSource::PreviousLayer);
        assert_eq!(s.resolve(7, 12), 12);
    }
}
