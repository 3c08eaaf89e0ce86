//! Comparator-based pixel Reading Circuit (CRC).
//!
//! Lightator removes per-column ADCs: each pixel's output voltage is compared
//! against 15 reference voltages spanning the pixel swing, producing a
//! 15-bit thermometer code that directly selects how many VCSEL driving
//! transistors turn on (paper §3, Fig. 4(a) and 4(d)). The thermometer code
//! is equivalent to a 4-bit digital value (0–15).

use crate::error::{Result, SensorError};
use crate::pixel::PixelConfig;
use lightator_photonics::units::Voltage;
use serde::{Deserialize, Serialize};

/// Number of comparators in a CRC unit (paper Fig. 4(a)).
pub const CRC_COMPARATORS: usize = 15;

/// Configuration of a comparator read circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrcConfig {
    /// Reference voltages, one per comparator, strictly decreasing from just
    /// below the reset voltage towards the saturation voltage. Reference
    /// `k` being *above* the pixel voltage means the pixel has dropped past
    /// level `k`, turning comparator output `VS_{k+1}` on.
    pub reference_voltages_v: Vec<f64>,
}

impl CrcConfig {
    /// Builds a ladder of 15 uniformly spaced references covering the output
    /// swing of the given pixel design — the configuration the paper
    /// describes ("15 reference voltages which are spanned in the range of
    /// pixel output voltage").
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] if the pixel configuration
    /// is invalid.
    pub fn uniform_for_pixel(pixel: &PixelConfig) -> Result<Self> {
        pixel.validate()?;
        let swing = pixel.reset_voltage_v - pixel.saturation_voltage_v;
        let step = swing / (CRC_COMPARATORS + 1) as f64;
        let references = (1..=CRC_COMPARATORS)
            .map(|k| pixel.reset_voltage_v - step * k as f64)
            .collect();
        Ok(Self {
            reference_voltages_v: references,
        })
    }

    /// Validates the configuration: exactly 15 strictly decreasing, finite
    /// references.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] describing the violation.
    pub fn validate(&self) -> Result<()> {
        if self.reference_voltages_v.len() != CRC_COMPARATORS {
            return Err(SensorError::InvalidParameter {
                name: "reference_voltages_v.len",
                value: self.reference_voltages_v.len() as f64,
            });
        }
        for window in self.reference_voltages_v.windows(2) {
            if !window[0].is_finite() || !window[1].is_finite() || window[1] >= window[0] {
                return Err(SensorError::InvalidParameter {
                    name: "reference_voltages_v",
                    value: window[1],
                });
            }
        }
        Ok(())
    }
}

/// The output of one CRC read: the raw thermometer code and its binary value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrcReading {
    /// Comparator outputs `VS_1..VS_15`; `true` means the comparator fired
    /// (the pixel voltage dropped below its reference).
    pub thermometer: [bool; CRC_COMPARATORS],
}

impl CrcReading {
    /// Number of comparators that fired — the 4-bit activation code (0–15).
    #[must_use]
    pub fn code(&self) -> u8 {
        self.thermometer.iter().filter(|&&b| b).count() as u8
    }

    /// Whether the thermometer code is well formed (a contiguous run of
    /// `true` followed by `false`), which an ideal ladder always produces.
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        let mut seen_false = false;
        for &fired in &self.thermometer {
            if fired && seen_false {
                return false;
            }
            if !fired {
                seen_false = true;
            }
        }
        true
    }
}

/// A comparator read circuit converting pixel voltages to 4-bit codes.
///
/// ```
/// use lightator_sensor::crc::{ComparatorReadCircuit, CrcConfig};
/// use lightator_sensor::pixel::{Pixel, PixelConfig};
///
/// # fn main() -> Result<(), lightator_sensor::SensorError> {
/// let pixel_cfg = PixelConfig::default();
/// let crc = ComparatorReadCircuit::new(CrcConfig::uniform_for_pixel(&pixel_cfg)?)?;
/// let pixel = Pixel::new(pixel_cfg)?;
/// let bright = crc.read(pixel.output_voltage(1.0)?);
/// let dark = crc.read(pixel.output_voltage(0.0)?);
/// assert!(bright.code() > dark.code());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparatorReadCircuit {
    config: CrcConfig,
}

impl ComparatorReadCircuit {
    /// Creates a CRC.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] if the configuration is
    /// invalid.
    pub fn new(config: CrcConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// Creates a CRC with the default uniform ladder for the default pixel.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in defaults; kept fallible for uniformity.
    pub fn for_default_pixel() -> Result<Self> {
        Self::new(CrcConfig::uniform_for_pixel(&PixelConfig::default())?)
    }

    /// The CRC configuration.
    #[must_use]
    pub fn config(&self) -> &CrcConfig {
        &self.config
    }

    /// Compares the pixel voltage against the ladder. Comparator `k` fires
    /// when the pixel voltage has dropped below reference `k` (more light =
    /// lower voltage = more comparators firing = larger code), exactly the
    /// waveform behaviour of the paper's Fig. 4(d).
    #[must_use]
    pub fn read(&self, pixel_voltage: Voltage) -> CrcReading {
        let mut thermometer = [false; CRC_COMPARATORS];
        for (k, fired) in thermometer.iter_mut().enumerate() {
            *fired = pixel_voltage.volts() < self.config.reference_voltages_v[k];
        }
        CrcReading { thermometer }
    }

    /// Convenience: read and return only the 4-bit code.
    #[must_use]
    pub fn read_code(&self, pixel_voltage: Voltage) -> u8 {
        self.read(pixel_voltage).code()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    fn crc() -> ComparatorReadCircuit {
        ComparatorReadCircuit::for_default_pixel().expect("valid")
    }

    #[test]
    fn uniform_ladder_has_fifteen_decreasing_references() {
        let cfg = CrcConfig::uniform_for_pixel(&PixelConfig::default()).expect("valid");
        assert_eq!(cfg.reference_voltages_v.len(), CRC_COMPARATORS);
        for w in cfg.reference_voltages_v.windows(2) {
            assert!(w[1] < w[0]);
        }
        cfg.validate().expect("valid");
    }

    #[test]
    fn dark_pixel_codes_to_zero_and_bright_to_near_full_scale() {
        let crc = crc();
        let pixel = Pixel::new(PixelConfig::default()).expect("valid");
        let dark = crc.read_code(pixel.output_voltage(0.0).expect("ok"));
        let bright = crc.read_code(pixel.output_voltage(1.0).expect("ok"));
        assert_eq!(dark, 0);
        assert!(
            bright >= 13,
            "full-scale illumination should fire almost all comparators, got {bright}"
        );
    }

    #[test]
    fn code_is_monotone_in_illumination() {
        let crc = crc();
        let pixel = Pixel::new(PixelConfig::default()).expect("valid");
        let mut last = 0;
        for i in 0..=20 {
            let illum = f64::from(i) / 20.0;
            let code = crc.read_code(pixel.output_voltage(illum).expect("ok"));
            assert!(code >= last, "code must not decrease with illumination");
            last = code;
        }
    }

    #[test]
    fn thermometer_code_is_always_contiguous() {
        let crc = crc();
        let pixel = Pixel::new(PixelConfig::default()).expect("valid");
        for i in 0..=50 {
            let illum = f64::from(i) / 50.0;
            let reading = crc.read(pixel.output_voltage(illum).expect("ok"));
            assert!(reading.is_monotone());
            assert!(reading.code() <= 15);
        }
    }

    #[test]
    fn validate_rejects_bad_ladders() {
        let cfg = CrcConfig {
            reference_voltages_v: vec![0.5; CRC_COMPARATORS],
        };
        assert!(cfg.validate().is_err());
        let cfg = CrcConfig {
            reference_voltages_v: vec![0.5; 10],
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn non_monotone_reading_detected() {
        let mut thermometer = [false; CRC_COMPARATORS];
        thermometer[0] = true;
        thermometer[2] = true; // gap at index 1
        let reading = CrcReading { thermometer };
        assert!(!reading.is_monotone());
        assert_eq!(reading.code(), 2);
    }
}
