//! Global-shutter sensor array.
//!
//! Combines the Bayer colour filter, the photodiode pixels and the comparator
//! read circuits into the complete ADC-less imager of the paper (a 256×256
//! global-shutter RGB sensor by default). A capture produces a
//! [`DigitalFrame`] of 4-bit codes — the data that drives the DMVA.

use crate::bayer::{BayerMosaic, BayerPattern};
use crate::crc::{ComparatorReadCircuit, CrcConfig};
use crate::error::{Result, SensorError};
use crate::frame::{Channel, RgbFrame};
use crate::pixel::{Pixel, PixelConfig};
use serde::{Deserialize, Serialize};

/// Default sensor resolution used by the paper.
pub const DEFAULT_RESOLUTION: usize = 256;

/// A frame of 4-bit digital codes, one per photosite, as produced by the
/// ADC-less read-out.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DigitalFrame {
    height: usize,
    width: usize,
    pattern: BayerPattern,
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
    pub fn new(height: usize, width: usize, pattern: BayerPattern, codes: Vec<u8>) -> Result<Self> {
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
            pattern,
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

    /// The Bayer pattern the codes were captured under.
    #[must_use]
    pub fn pattern(&self) -> BayerPattern {
        self.pattern
    }

    /// Raw 4-bit codes, row-major.
    #[must_use]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// Code at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::PixelOutOfRange`] for out-of-frame coordinates.
    pub fn code(&self, row: usize, col: usize) -> Result<u8> {
        if row >= self.height || col >= self.width {
            return Err(SensorError::PixelOutOfRange {
                row,
                col,
                height: self.height,
                width: self.width,
            });
        }
        Ok(self.codes[row * self.width + col])
    }

    /// Colour of the photosite at `(row, col)`.
    #[must_use]
    pub fn channel_at(&self, row: usize, col: usize) -> Channel {
        self.pattern.channel_at(row, col)
    }

    /// Codes normalised to `[0, 1]` (code / 15), the activation values the
    /// DMVA presents to the optical core.
    #[must_use]
    pub fn normalized(&self) -> Vec<f64> {
        self.codes.iter().map(|&c| f64::from(c) / 15.0).collect()
    }
}

/// Configuration of the complete sensor array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensorArrayConfig {
    /// Number of pixel rows.
    pub height: usize,
    /// Number of pixel columns.
    pub width: usize,
    /// Colour filter layout.
    pub pattern: BayerPattern,
    /// Photodiode / exposure parameters shared by all pixels.
    pub pixel: PixelConfig,
    /// Comparator ladder shared by all read circuits.
    pub crc: CrcConfig,
}

impl SensorArrayConfig {
    /// The paper's 256×256 RGGB sensor with default pixel and CRC designs.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in defaults.
    pub fn paper_default() -> Result<Self> {
        let pixel = PixelConfig::default();
        let crc = CrcConfig::uniform_for_pixel(&pixel)?;
        Ok(Self {
            height: DEFAULT_RESOLUTION,
            width: DEFAULT_RESOLUTION,
            pattern: BayerPattern::Rggb,
            pixel,
            crc,
        })
    }

    /// Same design at a smaller resolution (useful for tests and fast
    /// experiments).
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] if a dimension is zero.
    pub fn with_resolution(height: usize, width: usize) -> Result<Self> {
        if height == 0 || width == 0 {
            return Err(SensorError::InvalidDimensions { height, width });
        }
        let mut cfg = Self::paper_default()?;
        cfg.height = height;
        cfg.width = width;
        Ok(cfg)
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
    config: SensorArrayConfig,
    pixel: Pixel,
    crc: ComparatorReadCircuit,
}

impl SensorArray {
    /// Creates a sensor array.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] for a zero-sized array or
    /// [`SensorError::InvalidParameter`] for invalid pixel/CRC designs.
    pub fn new(config: SensorArrayConfig) -> Result<Self> {
        if config.height == 0 || config.width == 0 {
            return Err(SensorError::InvalidDimensions {
                height: config.height,
                width: config.width,
            });
        }
        let pixel = Pixel::new(config.pixel)?;
        let crc = ComparatorReadCircuit::new(config.crc.clone())?;
        Ok(Self { config, pixel, crc })
    }

    /// The array configuration.
    #[must_use]
    pub fn config(&self) -> &SensorArrayConfig {
        &self.config
    }

    /// Number of photosites in the array.
    #[must_use]
    pub fn pixel_count(&self) -> usize {
        self.config.height * self.config.width
    }

    /// Captures a scene: Bayer sampling, global-shutter exposure and
    /// comparator read-out, producing one 4-bit code per photosite.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] if the scene does not match
    /// the array resolution, or propagates pixel/readout errors.
    pub fn capture(&self, scene: &RgbFrame) -> Result<DigitalFrame> {
        if scene.height() != self.config.height || scene.width() != self.config.width {
            return Err(SensorError::InvalidDimensions {
                height: scene.height(),
                width: scene.width(),
            });
        }
        let mosaic = BayerMosaic::from_rgb(scene, self.config.pattern)?;
        let mut codes = Vec::with_capacity(self.pixel_count());
        for row in 0..self.config.height {
            for col in 0..self.config.width {
                let illumination = mosaic.intensity(row, col)?;
                let voltage = self.pixel.output_voltage(illumination)?;
                codes.push(self.crc.read_code(voltage));
            }
        }
        DigitalFrame::new(
            self.config.height,
            self.config.width,
            self.config.pattern,
            codes,
        )
    }

    /// Captures only the raw Bayer mosaic (no read-out), for callers that
    /// need the analog intermediate.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] if the scene does not match
    /// the array resolution.
    pub fn capture_mosaic(&self, scene: &RgbFrame) -> Result<BayerMosaic> {
        if scene.height() != self.config.height || scene.width() != self.config.width {
            return Err(SensorError::InvalidDimensions {
                height: scene.height(),
                width: scene.width(),
            });
        }
        BayerMosaic::from_rgb(scene, self.config.pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_sensor() -> SensorArray {
        SensorArray::new(SensorArrayConfig::with_resolution(8, 8).expect("valid")).expect("valid")
    }

    #[test]
    fn paper_default_is_256_square() {
        let cfg = SensorArrayConfig::paper_default().expect("valid");
        assert_eq!(cfg.height, 256);
        assert_eq!(cfg.width, 256);
        assert_eq!(cfg.pattern, BayerPattern::Rggb);
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
                let code = frame.code(row, col).expect("ok");
                match frame.channel_at(row, col) {
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
        assert!(DigitalFrame::new(0, 4, BayerPattern::Rggb, vec![]).is_err());
        assert!(DigitalFrame::new(2, 2, BayerPattern::Rggb, vec![0; 3]).is_err());
        assert!(DigitalFrame::new(2, 2, BayerPattern::Rggb, vec![16, 0, 0, 0]).is_err());
        assert!(DigitalFrame::new(2, 2, BayerPattern::Rggb, vec![15, 0, 7, 3]).is_ok());
    }

    #[test]
    fn mosaic_capture_exposes_analog_intermediate() {
        let sensor = small_sensor();
        let scene = RgbFrame::filled(8, 8, [0.3, 0.6, 0.9]).expect("valid");
        let mosaic = sensor.capture_mosaic(&scene).expect("ok");
        assert_eq!(mosaic.height(), 8);
        // Green sites carry the green intensity.
        assert_eq!(mosaic.intensity(0, 1).expect("ok"), 0.6);
    }
}
