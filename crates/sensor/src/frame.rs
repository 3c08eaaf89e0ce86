//! Image frame containers exchanged between the sensor, the compressive
//! acquisitor and the DNN stack.
//!
//! Intensities are normalised to `[0, 1]`: 0 is dark, 1 is the sensor's
//! full-well illumination. Frames are stored row-major.

use crate::error::{Result, SensorError};
use serde::{Deserialize, Serialize};

/// Which colour channel a value belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Channel {
    /// Red channel.
    Red,
    /// Green channel.
    Green,
    /// Blue channel.
    Blue,
}

impl Channel {
    /// All channels in storage order.
    pub const ALL: [Channel; 3] = [Channel::Red, Channel::Green, Channel::Blue];

    /// Storage index of the channel within an interleaved RGB triple.
    #[must_use]
    pub fn index(self) -> usize {
        match self {
            Channel::Red => 0,
            Channel::Green => 1,
            Channel::Blue => 2,
        }
    }

    /// The ITU-R BT.601 luma weight used by the paper's compressive
    /// acquisitor for RGB-to-grayscale conversion (Eq. 1).
    #[must_use]
    pub fn grayscale_weight(self) -> f64 {
        match self {
            Channel::Red => 0.299,
            Channel::Green => 0.587,
            Channel::Blue => 0.114,
        }
    }
}

/// A normalised RGB frame (row-major, interleaved channels).
///
/// ```
/// use lightator_sensor::frame::RgbFrame;
///
/// # fn main() -> Result<(), lightator_sensor::SensorError> {
/// let frame = RgbFrame::filled(4, 4, [0.5, 0.25, 0.75])?;
/// assert_eq!(frame.height(), 4);
/// assert_eq!(frame.pixel(0, 0)?, [0.5, 0.25, 0.75]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RgbFrame {
    height: usize,
    width: usize,
    data: Vec<f64>,
}

impl RgbFrame {
    /// Creates a frame from interleaved RGB data (`height × width × 3`
    /// samples).
    ///
    /// # Errors
    ///
    /// * [`SensorError::InvalidDimensions`] if either dimension is zero.
    /// * [`SensorError::DataLengthMismatch`] if the data length is wrong.
    /// * [`SensorError::IntensityOutOfRange`] if a sample is outside `[0,1]`.
    pub fn new(height: usize, width: usize, data: Vec<f64>) -> Result<Self> {
        if height == 0 || width == 0 {
            return Err(SensorError::InvalidDimensions { height, width });
        }
        let expected = height * width * 3;
        if data.len() != expected {
            return Err(SensorError::DataLengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        for &v in &data {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SensorError::IntensityOutOfRange { value: v });
            }
        }
        Ok(Self {
            height,
            width,
            data,
        })
    }

    /// Creates a frame with every pixel set to the same RGB triple.
    ///
    /// # Errors
    ///
    /// Same as [`RgbFrame::new`].
    pub fn filled(height: usize, width: usize, rgb: [f64; 3]) -> Result<Self> {
        let mut data = Vec::with_capacity(height * width * 3);
        for _ in 0..height * width {
            data.extend_from_slice(&rgb);
        }
        Self::new(height, width, data)
    }

    /// Creates an all-black frame.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] if a dimension is zero.
    pub fn black(height: usize, width: usize) -> Result<Self> {
        Self::filled(height, width, [0.0, 0.0, 0.0])
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raw interleaved data.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// The RGB triple at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::PixelOutOfRange`] for coordinates outside the
    /// frame.
    pub fn pixel(&self, row: usize, col: usize) -> Result<[f64; 3]> {
        self.check_coords(row, col)?;
        let base = (row * self.width + col) * 3;
        Ok([self.data[base], self.data[base + 1], self.data[base + 2]])
    }

    /// Sets the RGB triple at `(row, col)`.
    ///
    /// # Errors
    ///
    /// * [`SensorError::PixelOutOfRange`] for coordinates outside the frame.
    /// * [`SensorError::IntensityOutOfRange`] if a component is not in `[0,1]`.
    pub fn set_pixel(&mut self, row: usize, col: usize, rgb: [f64; 3]) -> Result<()> {
        self.check_coords(row, col)?;
        for &v in &rgb {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SensorError::IntensityOutOfRange { value: v });
            }
        }
        let base = (row * self.width + col) * 3;
        self.data[base..base + 3].copy_from_slice(&rgb);
        Ok(())
    }

    /// Copies the rectangle of `height × width` pixels whose top-left pixel
    /// is `(row, col)` from `source`, a frame of the same size, row by row.
    /// The values need no range check: `source` holds them.
    ///
    /// # Errors
    ///
    /// * [`SensorError::InvalidDimensions`] with `source`'s size if it
    ///   differs from this frame's.
    /// * [`SensorError::PixelOutOfRange`] with the rectangle's last row and
    ///   column if it does not lie inside the frame.
    pub fn copy_rect_from(
        &mut self,
        source: &RgbFrame,
        (row, col): (usize, usize),
        (height, width): (usize, usize),
    ) -> Result<()> {
        if (source.height, source.width) != (self.height, self.width) {
            return Err(SensorError::InvalidDimensions {
                height: source.height,
                width: source.width,
            });
        }
        let fits = |start: usize, len: usize, size: usize| {
            start.checked_add(len).is_some_and(|end| end <= size)
        };
        if !fits(row, height, self.height) || !fits(col, width, self.width) {
            return Err(SensorError::PixelOutOfRange {
                row: row.saturating_add(height.saturating_sub(1)),
                col: col.saturating_add(width.saturating_sub(1)),
                height: self.height,
                width: self.width,
            });
        }
        for r in row..row + height {
            let at = (r * self.width + col) * 3;
            self.data[at..at + width * 3].copy_from_slice(&source.data[at..at + width * 3]);
        }
        Ok(())
    }

    /// Reference grayscale conversion using the BT.601 weights; used by the
    /// compressive-acquisitor tests as the golden model.
    #[must_use]
    pub fn to_grayscale(&self) -> GrayFrame {
        let mut data = Vec::with_capacity(self.height * self.width);
        for chunk in self.data.chunks_exact(3) {
            data.push(
                chunk[0] * Channel::Red.grayscale_weight()
                    + chunk[1] * Channel::Green.grayscale_weight()
                    + chunk[2] * Channel::Blue.grayscale_weight(),
            );
        }
        GrayFrame {
            height: self.height,
            width: self.width,
            data,
        }
    }

    fn check_coords(&self, row: usize, col: usize) -> Result<()> {
        if row >= self.height || col >= self.width {
            return Err(SensorError::PixelOutOfRange {
                row,
                col,
                height: self.height,
                width: self.width,
            });
        }
        Ok(())
    }
}

/// A single-channel (grayscale) frame with values in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrayFrame {
    height: usize,
    width: usize,
    data: Vec<f64>,
}

impl GrayFrame {
    /// Creates a grayscale frame from row-major samples.
    ///
    /// # Errors
    ///
    /// Mirrors [`RgbFrame::new`]: dimension, length and range checks.
    pub fn new(height: usize, width: usize, data: Vec<f64>) -> Result<Self> {
        if height == 0 || width == 0 {
            return Err(SensorError::InvalidDimensions { height, width });
        }
        if data.len() != height * width {
            return Err(SensorError::DataLengthMismatch {
                expected: height * width,
                actual: data.len(),
            });
        }
        for &v in &data {
            if !v.is_finite() || !(0.0..=1.0).contains(&v) {
                return Err(SensorError::IntensityOutOfRange { value: v });
            }
        }
        Ok(Self {
            height,
            width,
            data,
        })
    }

    /// Frame height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.height
    }

    /// Frame width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Raw row-major samples.
    #[must_use]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Value at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::PixelOutOfRange`] for out-of-frame coordinates.
    pub fn value(&self, row: usize, col: usize) -> Result<f64> {
        if row >= self.height || col >= self.width {
            return Err(SensorError::PixelOutOfRange {
                row,
                col,
                height: self.height,
                width: self.width,
            });
        }
        Ok(self.data[row * self.width + col])
    }

    /// Reference average pooling with a square window and equal stride; the
    /// golden model for the compressive acquisitor's pooling path.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidParameter`] if `window` is zero or does
    /// not divide both dimensions.
    pub fn average_pool(&self, window: usize) -> Result<GrayFrame> {
        if window == 0 || !self.height.is_multiple_of(window) || !self.width.is_multiple_of(window)
        {
            return Err(SensorError::InvalidParameter {
                name: "window",
                value: window as f64,
            });
        }
        let oh = self.height / window;
        let ow = self.width / window;
        let mut data = vec![0.0; oh * ow];
        for orow in 0..oh {
            for ocol in 0..ow {
                let mut acc = 0.0;
                for dr in 0..window {
                    for dc in 0..window {
                        acc += self.data[(orow * window + dr) * self.width + ocol * window + dc];
                    }
                }
                data[orow * ow + ocol] = acc / (window * window) as f64;
            }
        }
        GrayFrame::new(oh, ow, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_dimensions_and_data() {
        assert!(RgbFrame::new(0, 4, vec![]).is_err());
        assert!(RgbFrame::new(2, 2, vec![0.0; 11]).is_err());
        assert!(RgbFrame::new(1, 1, vec![0.0, 0.5, 1.5]).is_err());
        assert!(RgbFrame::new(1, 1, vec![0.0, 0.5, 1.0]).is_ok());
    }

    #[test]
    fn pixel_round_trip() {
        let mut f = RgbFrame::black(3, 3).expect("valid");
        f.set_pixel(1, 2, [0.1, 0.2, 0.3]).expect("ok");
        assert_eq!(f.pixel(1, 2).expect("ok"), [0.1, 0.2, 0.3]);
        assert!(f.pixel(3, 0).is_err());
        assert!(f.set_pixel(0, 0, [1.1, 0.0, 0.0]).is_err());
    }

    #[test]
    fn rect_copies_touch_only_the_rectangle() {
        let data: Vec<f64> = (0..4 * 5 * 3).map(|i| f64::from(i) / 60.0).collect();
        let source = RgbFrame::new(4, 5, data).expect("valid");
        let mut target = RgbFrame::black(4, 5).expect("valid");
        target
            .copy_rect_from(&source, (1, 2), (2, 3))
            .expect("inside the frame");
        for row in 0..4 {
            for col in 0..5 {
                let inside = (1..3).contains(&row) && (2..5).contains(&col);
                let want = if inside {
                    source.pixel(row, col).expect("ok")
                } else {
                    [0.0; 3]
                };
                assert_eq!(target.pixel(row, col).expect("ok"), want, "({row}, {col})");
            }
        }
        // An empty rectangle copies nothing.
        let before = target.clone();
        target
            .copy_rect_from(&source, (4, 5), (0, 0))
            .expect("empty");
        assert_eq!(target, before);
    }

    #[test]
    fn rect_copies_reject_other_sizes_and_rectangles_outside_the_frame() {
        let source = RgbFrame::filled(4, 5, [0.5; 3]).expect("valid");
        let mut target = RgbFrame::black(4, 5).expect("valid");
        for other in [(5, 4), (4, 6), (2, 10)] {
            let other = RgbFrame::black(other.0, other.1).expect("valid");
            assert_eq!(
                target.copy_rect_from(&other, (0, 0), (1, 1)),
                Err(SensorError::InvalidDimensions {
                    height: other.height(),
                    width: other.width(),
                })
            );
        }
        for ((row, col), (height, width), last) in [
            ((3, 0), (2, 1), (4, 0)),
            ((0, 3), (1, 3), (0, 5)),
            ((0, 0), (5, 5), (4, 4)),
            ((usize::MAX, 0), (2, 1), (usize::MAX, 0)),
            ((0, 1), (1, usize::MAX), (0, usize::MAX)),
        ] {
            assert_eq!(
                target.copy_rect_from(&source, (row, col), (height, width)),
                Err(SensorError::PixelOutOfRange {
                    row: last.0,
                    col: last.1,
                    height: 4,
                    width: 5,
                }),
                "({row}, {col}) + ({height}, {width})"
            );
        }
        assert_eq!(target, RgbFrame::black(4, 5).expect("valid"));
    }

    #[test]
    fn grayscale_uses_bt601_weights() {
        let f = RgbFrame::filled(2, 2, [1.0, 0.0, 0.0]).expect("valid");
        let g = f.to_grayscale();
        assert!((g.value(0, 0).expect("ok") - 0.299).abs() < 1e-12);
        let f = RgbFrame::filled(2, 2, [1.0, 1.0, 1.0]).expect("valid");
        let g = f.to_grayscale();
        assert!((g.value(1, 1).expect("ok") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_pool_reduces_dimensions() {
        let data: Vec<f64> = (0..16).map(|i| f64::from(i) / 16.0).collect();
        let g = GrayFrame::new(4, 4, data).expect("valid");
        let pooled = g.average_pool(2).expect("ok");
        assert_eq!(pooled.height(), 2);
        assert_eq!(pooled.width(), 2);
        // Top-left 2x2 window contains 0/16, 1/16, 4/16, 5/16.
        let expected = (0.0 + 1.0 + 4.0 + 5.0) / 16.0 / 4.0;
        assert!((pooled.value(0, 0).expect("ok") - expected).abs() < 1e-12);
    }

    #[test]
    fn average_pool_rejects_non_dividing_window() {
        let g = GrayFrame::new(4, 4, vec![0.0; 16]).expect("valid");
        assert!(g.average_pool(3).is_err());
        assert!(g.average_pool(0).is_err());
    }

    #[test]
    fn channel_weights_sum_to_one() {
        let total: f64 = Channel::ALL.iter().map(|c| c.grayscale_weight()).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
