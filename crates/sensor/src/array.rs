//! Global-shutter sensor array.
//!
//! Combines the RGGB colour filter, the photodiode pixels and the comparator
//! read circuits into the complete ADC-less imager of the paper (a 256×256
//! global-shutter RGB sensor by default). A capture produces a
//! [`DigitalFrame`] of 4-bit codes — the data that drives the DMVA.

use crate::bayer;
use crate::crc::ComparatorReadCircuit;
use crate::error::{Result, SensorError};
use crate::frame::RgbFrame;
use crate::pixel::Pixel;
use serde::{Deserialize, Serialize};

/// Default sensor resolution used by the paper.
pub const DEFAULT_RESOLUTION: usize = 256;

/// A frame of 4-bit digital codes, one per photosite, as produced by the
/// ADC-less read-out.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigitalFrame {
    height: usize,
    width: usize,
    codes: Vec<u8>,
}

impl DigitalFrame {
    /// Creates a digital frame from raw codes.
    ///
    /// # Errors
    ///
    /// * [`SensorError::InvalidDimensions`] if a dimension is zero.
    /// * [`SensorError::DataLengthMismatch`] if the code count is wrong.
    /// * [`SensorError::IntensityOutOfRange`] if a code exceeds 15.
    pub fn new(height: usize, width: usize, codes: Vec<u8>) -> Result<Self> {
        if height == 0 || width == 0 {
            return Err(SensorError::InvalidDimensions { height, width });
        }
        if codes.len() != height * width {
            return Err(SensorError::DataLengthMismatch {
                expected: height * width,
                actual: codes.len(),
            });
        }
        if let Some(&bad) = codes.iter().find(|&&c| c > 15) {
            return Err(SensorError::IntensityOutOfRange {
                value: f64::from(bad),
            });
        }
        Ok(Self {
            height,
            width,
            codes,
        })
    }

    /// Frame height in photosites.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Frame width in photosites.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raw 4-bit codes, row-major.
    #[must_use]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Codes normalised to `[0, 1]` (code / 15), the activation values the
    /// DMVA presents to the optical core.
    #[must_use]
    pub fn normalized(&self) -> Vec<f64> {
        self.codes.iter().map(|&c| f64::from(c) / 15.0).collect()
    }
}

/// Resolution of the sensor array. The pixel and comparator designs are the
/// paper's and have no settings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorArrayConfig {
    /// Number of pixel rows.
    pub height: usize,
    /// Number of pixel columns.
    pub width: usize,
}

impl SensorArrayConfig {
    /// The paper's 256×256 sensor.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            height: DEFAULT_RESOLUTION,
            width: DEFAULT_RESOLUTION,
        }
    }

    /// The paper's sensor at another resolution (useful for tests and fast
    /// experiments).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] if a dimension is zero.
    pub fn with_resolution(height: usize, width: usize) -> Result<Self> {
        if height == 0 || width == 0 {
            return Err(SensorError::InvalidDimensions { height, width });
        }
        Ok(Self { height, width })
    }
}

/// The ADC-less global-shutter image sensor.
///
/// ```
/// use lightator_sensor::array::{SensorArray, SensorArrayConfig};
/// use lightator_sensor::frame::RgbFrame;
///
/// # fn main() -> Result<(), lightator_sensor::SensorError> {
/// let sensor = SensorArray::new(SensorArrayConfig::with_resolution(8, 8)?)?;
/// let scene = RgbFrame::filled(8, 8, [0.8, 0.4, 0.2])?;
/// let digital = sensor.capture(&scene)?;
/// assert_eq!(digital.height(), 8);
/// assert!(digital.codes().iter().any(|&c| c > 0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorArray {
    height: usize,
    width: usize,
}

impl SensorArray {
    /// Creates a sensor array.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] for a zero-sized array.
    pub fn new(config: SensorArrayConfig) -> Result<Self> {
        let SensorArrayConfig { height, width } = config;
        if height == 0 || width == 0 {
            return Err(SensorError::InvalidDimensions { height, width });
        }
        Ok(Self { height, width })
    }

    /// Number of pixel rows.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Number of pixel columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Captures a scene: RGGB sampling, global-shutter exposure and
    /// comparator read-out, producing one 4-bit code per photosite.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] if the scene does not match
    /// the array resolution, or propagates pixel errors.
    pub fn capture(&self, scene: &RgbFrame) -> Result<DigitalFrame> {
        if scene.height() != self.height || scene.width() != self.width {
            return Err(SensorError::InvalidDimensions {
                height: scene.height(),
                width: scene.width(),
            });
        }
        let mut codes = Vec::with_capacity(self.height * self.width);
        for row in 0..self.height {
            for col in 0..self.width {
                let illumination = scene.pixel(row, col)?[bayer::channel_at(row, col).index()];
                let voltage = Pixel.output_voltage(illumination)?;
                codes.push(ComparatorReadCircuit.read_code(voltage));
            }
        }
        DigitalFrame::new(self.height, self.width, codes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Channel;

    fn small_sensor() -> SensorArray {
        SensorArray::new(SensorArrayConfig::with_resolution(8, 8).expect("valid")).expect("valid")
    }

    #[test]
    fn paper_default_is_256_square() {
        let cfg = SensorArrayConfig::paper_default();
        assert_eq!(cfg.height, 256);
        assert_eq!(cfg.width, 256);
    }

    #[test]
    fn capture_matches_resolution_and_code_range() {
        let sensor = small_sensor();
        let scene = RgbFrame::filled(8, 8, [0.6, 0.3, 0.1]).expect("valid");
        let frame = sensor.capture(&scene).expect("ok");
        assert_eq!(frame.height(), 8);
        assert_eq!(frame.width(), 8);
        assert_eq!(frame.codes().len(), 64);
        assert!(frame.codes().iter().all(|&c| c <= 15));
    }

    #[test]
    fn brighter_scenes_produce_larger_codes() {
        let sensor = small_sensor();
        let dim = sensor
            .capture(&RgbFrame::filled(8, 8, [0.1, 0.1, 0.1]).expect("valid"))
            .expect("ok");
        let bright = sensor
            .capture(&RgbFrame::filled(8, 8, [0.9, 0.9, 0.9]).expect("valid"))
            .expect("ok");
        let sum_dim: u32 = dim.codes().iter().map(|&c| u32::from(c)).sum();
        let sum_bright: u32 = bright.codes().iter().map(|&c| u32::from(c)).sum();
        assert!(sum_bright > sum_dim);
    }

    #[test]
    fn red_scene_lights_only_red_photosites() {
        let sensor = small_sensor();
        let scene = RgbFrame::filled(8, 8, [1.0, 0.0, 0.0]).expect("valid");
        let frame = sensor.capture(&scene).expect("ok");
        for row in 0..8 {
            for col in 0..8 {
                let code = frame.codes()[row * 8 + col];
                match bayer::channel_at(row, col) {
                    Channel::Red => assert!(code > 10, "red site ({row},{col}) too dark: {code}"),
                    _ => assert_eq!(code, 0, "non-red site ({row},{col}) should be dark"),
                }
            }
        }
    }

    #[test]
    fn capture_rejects_mismatched_scene() {
        let sensor = small_sensor();
        let scene = RgbFrame::filled(4, 4, [0.5, 0.5, 0.5]).expect("valid");
        assert!(sensor.capture(&scene).is_err());
    }

    #[test]
    fn normalized_codes_are_unit_range() {
        let sensor = small_sensor();
        let scene = RgbFrame::filled(8, 8, [1.0, 1.0, 1.0]).expect("valid");
        let frame = sensor.capture(&scene).expect("ok");
        for v in frame.normalized() {
            assert!((0.0..=1.0).contains(&v));
        }
    }

    #[test]
    fn digital_frame_validation() {
        assert!(DigitalFrame::new(0, 4, vec![]).is_err());
        assert!(DigitalFrame::new(2, 2, vec![0; 3]).is_err());
        assert!(DigitalFrame::new(2, 2, vec![16, 0, 0, 0]).is_err());
        assert!(DigitalFrame::new(2, 2, vec![15, 0, 7, 3]).is_ok());
    }
}
