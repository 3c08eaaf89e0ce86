//! Compressive Acquisitor (CA).
//!
//! The CA banks fuse RGB-to-grayscale conversion and configurable average
//! pooling into a single optical weighted sum (paper §3.2, Eq. 1): the fused
//! weight of pixel *i*, channel *j* is `(1/window²) · w_j` where `w_j` is the
//! BT.601 luma coefficient. The CA is optional — it can be bypassed when the
//! workload needs the full-resolution frame.
//!
//! [`CompressiveAcquisitor::acquire`] evaluates the sum tap-major over
//! tiles of eight outputs of a row: for each tap of
//! [`CompressiveAcquisitor::weights`], in that order, it adds
//! `sample × coefficient` into every output of the tile, whose eight sums
//! stay in registers, then clamps them to `[0, 1]` (a row's last outputs,
//! fewer than eight, are tiles of one). Each output therefore starts from
//! `0.0` and adds the same products in the same order as a per-output loop
//! over the taps would, so every acquired value keeps its bits. Only the
//! order across outputs changes: one output's chain of dependent adds
//! becomes eight independent chains advancing together. Each MR reads
//! exactly the channel its fused weight declares, so without grayscale
//! conversion a 1×1 window is a bit-exact identity of the green plane.

use crate::error::{CoreError, Result};
use lightator_sensor::frame::{Channel, GrayFrame, RgbFrame};
use serde::{Deserialize, Serialize};
use std::slice;

/// Configuration of the compressive acquisitor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CaConfig {
    /// Square pooling window applied during acquisition (1 disables pooling).
    pub pooling_window: usize,
    /// Whether RGB frames are collapsed to grayscale during acquisition.
    pub rgb_to_grayscale: bool,
}

impl Default for CaConfig {
    fn default() -> Self {
        Self {
            pooling_window: 2,
            rgb_to_grayscale: true,
        }
    }
}

impl CaConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero pooling window.
    pub fn validate(&self) -> Result<()> {
        if self.pooling_window == 0 {
            return Err(CoreError::invalid_config(
                "pooling_window",
                0.0,
                "the CA pooling window must be at least 1 (1 disables pooling)",
            ));
        }
        Ok(())
    }

    /// Compression ratio in number of values: input values per output value.
    #[must_use]
    pub fn compression_ratio(&self) -> f64 {
        let spatial = (self.pooling_window * self.pooling_window) as f64;
        let chroma = if self.rgb_to_grayscale { 3.0 } else { 1.0 };
        spatial * chroma
    }
}

/// One output coefficient of the fused CA weighted sum (Eq. 1).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaWeight {
    /// Pixel row offset inside the pooling window.
    pub row_offset: usize,
    /// Pixel column offset inside the pooling window.
    pub col_offset: usize,
    /// Colour channel the coefficient applies to.
    pub channel: Channel,
    /// The fused coefficient value.
    pub value: f64,
}

/// The compressive acquisitor.
///
/// ```
/// use lightator_core::ca::{CaConfig, CompressiveAcquisitor};
/// use lightator_sensor::frame::RgbFrame;
///
/// # fn main() -> Result<(), lightator_core::CoreError> {
/// let ca = CompressiveAcquisitor::new(CaConfig::default())?;
/// let frame = RgbFrame::filled(8, 8, [0.5, 0.5, 0.5])?;
/// let compressed = ca.acquire(&frame)?;
/// assert_eq!(compressed.height(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompressiveAcquisitor {
    config: CaConfig,
}

impl CompressiveAcquisitor {
    /// Creates a compressive acquisitor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid configuration.
    pub fn new(config: CaConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config })
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &CaConfig {
        &self.config
    }

    /// The fused weight coefficients mapped onto the CA bank's MRs for one
    /// output value (paper Eq. 1). Their sum is exactly 1 when grayscale
    /// conversion is enabled, and 1 per channel otherwise.
    #[must_use]
    pub fn weights(&self) -> Vec<CaWeight> {
        let window = self.config.pooling_window;
        let pool_coeff = 1.0 / (window * window) as f64;
        let mut weights = Vec::new();
        for row_offset in 0..window {
            for col_offset in 0..window {
                if self.config.rgb_to_grayscale {
                    for channel in Channel::ALL {
                        weights.push(CaWeight {
                            row_offset,
                            col_offset,
                            channel,
                            value: pool_coeff * channel.grayscale_weight(),
                        });
                    }
                } else {
                    // Pooling-only mode: one MR per pixel, tuned to the
                    // green (luma-dominant) wavelength.
                    weights.push(CaWeight {
                        row_offset,
                        col_offset,
                        channel: Channel::Green,
                        value: pool_coeff,
                    });
                }
            }
        }
        weights
    }

    /// Number of MRs one output value occupies in a CA bank: one per pixel
    /// of the pooling window and channel read, the length of
    /// [`CompressiveAcquisitor::weights`].
    #[must_use]
    pub fn mrs_per_output(&self) -> usize {
        let channels = if self.config.rgb_to_grayscale { 3 } else { 1 };
        self.config.pooling_window * self.config.pooling_window * channels
    }

    /// Acquires (compresses) an RGB frame into the reduced grayscale frame in
    /// a single weighted-sum pass, exactly as the CA banks would, tap-major
    /// (see the module documentation).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the frame is not divisible by
    /// the pooling window.
    pub fn acquire(&self, frame: &RgbFrame) -> Result<GrayFrame> {
        let window = self.config.pooling_window;
        if !frame.height().is_multiple_of(window) || !frame.width().is_multiple_of(window) {
            return Err(CoreError::invalid_config(
                "pooling_window",
                window as f64,
                format!(
                    "the pooling window must divide the frame dimensions \
                     ({}x{} is not divisible by {window})",
                    frame.height(),
                    frame.width()
                ),
            ));
        }
        let oh = frame.height() / window;
        let ow = frame.width() / window;
        let width = frame.width();
        // Each tap's sample offset from the first sample of its output's
        // window; the next output of a row is `window` pixels further on,
        // the next row of outputs one band of `window` sensor rows down.
        let taps: Vec<(usize, f64)> = self
            .weights()
            .iter()
            .map(|w| {
                (
                    (w.row_offset * width + w.col_offset) * 3 + w.channel.index(),
                    w.value,
                )
            })
            .collect();
        let stride = window * 3;
        let mut data = vec![0.0f64; oh * ow];
        let bands = frame.data().chunks_exact(window * width * 3);
        for (out, band) in data.chunks_exact_mut(ow).zip(bands) {
            for (t, tile) in out.chunks_exact_mut(TILE).enumerate() {
                add_taps::<TILE>(tile, &band[t * TILE * stride..], &taps, stride);
            }
            for (ocol, last) in out.iter_mut().enumerate().skip(ow - ow % TILE) {
                add_taps::<1>(slice::from_mut(last), &band[ocol * stride..], &taps, stride);
            }
        }
        Ok(GrayFrame::new(oh, ow, data)?)
    }

    /// Reference (non-fused) result: grayscale conversion followed by average
    /// pooling. Used to verify that the single-pass fused weights of Eq. 1
    /// are exactly equivalent.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`CompressiveAcquisitor::acquire`].
    pub fn reference(&self, frame: &RgbFrame) -> Result<GrayFrame> {
        let gray = if self.config.rgb_to_grayscale {
            frame.to_grayscale()
        } else {
            // Pooling-only mode reads the green plane, matching the single
            // wavelength the CA bank's MRs are tuned to in `weights()`.
            let data = frame
                .data()
                .chunks_exact(3)
                .map(|px| px[Channel::Green.index()])
                .collect();
            GrayFrame::new(frame.height(), frame.width(), data)?
        };
        Ok(gray.average_pool(self.config.pooling_window)?)
    }
}

/// Outputs of a row whose running sums [`CompressiveAcquisitor::acquire`]
/// keeps in registers across every tap.
const TILE: usize = 8;

/// Sums every tap, in order and from 0.0, into the `N` outputs of `out`,
/// then clamps them to `[0, 1]`. The first output's window starts at
/// `band[0]` and each next one `stride` samples on; a tap's offset is
/// relative to its output's window.
fn add_taps<const N: usize>(out: &mut [f64], band: &[f64], taps: &[(usize, f64)], stride: usize) {
    let mut acc = [0.0f64; N];
    for &(offset, value) in taps {
        for (k, a) in acc.iter_mut().enumerate() {
            *a += band[offset + k * stride] * value;
        }
    }
    for (o, a) in out.iter_mut().zip(acc) {
        *o = a.clamp(0.0, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn random_frame(height: usize, width: usize, seed: u64) -> RgbFrame {
        let mut rng = SmallRng::seed_from_u64(seed);
        let data: Vec<f64> = (0..height * width * 3).map(|_| rng.gen::<f64>()).collect();
        RgbFrame::new(height, width, data).expect("valid")
    }

    /// The output-major CA pass: one running sum per output over the taps
    /// of [`CompressiveAcquisitor::weights`], each tap read through
    /// [`RgbFrame::pixel`], then clamped. `acquire` must match it bit for
    /// bit.
    fn reference_acquire(ca: &CompressiveAcquisitor, frame: &RgbFrame) -> GrayFrame {
        let window = ca.config().pooling_window;
        let oh = frame.height() / window;
        let ow = frame.width() / window;
        let weights = ca.weights();
        let mut data = vec![0.0f64; oh * ow];
        for orow in 0..oh {
            for ocol in 0..ow {
                let mut acc = 0.0;
                for w in &weights {
                    let row = orow * window + w.row_offset;
                    let col = ocol * window + w.col_offset;
                    let rgb = frame.pixel(row, col).expect("inside the frame");
                    acc += rgb[w.channel.index()] * w.value;
                }
                data[orow * ow + ocol] = acc.clamp(0.0, 1.0);
            }
        }
        GrayFrame::new(oh, ow, data).expect("clamped values")
    }

    proptest! {
        /// The tap-major pass reproduces the output-major reference bit for
        /// bit: windows 1–4 with grayscale on and off, non-square frames up
        /// to 64×64, random scenes and all-0 and all-1 scenes (whose sums
        /// land on the clamp's edges).
        #[test]
        fn acquire_matches_the_output_major_reference(
            window in 1usize..=4,
            grayscale in proptest::bool::ANY,
            size in (1usize..=64, 1usize..=64),
            scene in (0u8..4, 0u64..u64::MAX),
        ) {
            let ca = CompressiveAcquisitor::new(CaConfig {
                pooling_window: window,
                rgb_to_grayscale: grayscale,
            })
            .expect("valid window");
            let height = (size.0 / window).max(1) * window;
            let width = (size.1 / window).max(1) * window;
            let frame = match scene.0 {
                0 => RgbFrame::black(height, width).expect("valid"),
                1 => RgbFrame::filled(height, width, [1.0; 3]).expect("valid"),
                _ => random_frame(height, width, scene.1),
            };
            let got = ca.acquire(&frame).expect("divisible frame");
            let want = reference_acquire(&ca, &frame);
            prop_assert_eq!((got.height(), got.width()), (want.height(), want.width()));
            for (i, (a, b)) in got.data().iter().zip(want.data()).enumerate() {
                prop_assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{}x{} window {} grayscale {}, output {}: {} vs {}",
                    height, width, window, grayscale, i, a, b
                );
            }
            prop_assert_eq!(ca.mrs_per_output(), ca.weights().len());
        }
    }

    #[test]
    fn config_validation() {
        assert!(CaConfig {
            pooling_window: 0,
            rgb_to_grayscale: true
        }
        .validate()
        .is_err());
        assert!(CaConfig::default().validate().is_ok());
    }

    #[test]
    fn fused_weights_sum_to_one_with_grayscale() {
        let ca = CompressiveAcquisitor::new(CaConfig::default()).expect("ok");
        let total: f64 = ca.weights().iter().map(|w| w.value).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // 2x2 pooling over 3 channels -> 12 MRs per output (Eq. 1 has 12 terms).
        assert_eq!(ca.mrs_per_output(), 12);
    }

    #[test]
    fn fused_pass_matches_reference_pipeline() {
        for window in [1, 2, 4] {
            let ca = CompressiveAcquisitor::new(CaConfig {
                pooling_window: window,
                rgb_to_grayscale: true,
            })
            .expect("ok");
            let frame = random_frame(8, 8, 42 + window as u64);
            let fused = ca.acquire(&frame).expect("ok");
            let reference = ca.reference(&frame).expect("ok");
            assert_eq!(fused.height(), reference.height());
            for (a, b) in fused.data().iter().zip(reference.data()) {
                assert!((a - b).abs() < 1e-9, "fused {a} vs reference {b}");
            }
        }
    }

    #[test]
    fn pooling_only_mode_matches_reference() {
        let ca = CompressiveAcquisitor::new(CaConfig {
            pooling_window: 2,
            rgb_to_grayscale: false,
        })
        .expect("ok");
        let frame = random_frame(6, 6, 7);
        let fused = ca.acquire(&frame).expect("ok");
        let reference = ca.reference(&frame).expect("ok");
        for (a, b) in fused.data().iter().zip(reference.data()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn compression_ratio_counts_space_and_chroma() {
        let ca = CaConfig::default();
        assert!((ca.compression_ratio() - 12.0).abs() < 1e-12);
        let no_gray = CaConfig {
            rgb_to_grayscale: false,
            ..ca
        };
        assert!((no_gray.compression_ratio() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn acquire_rejects_non_divisible_frames() {
        let ca = CompressiveAcquisitor::new(CaConfig::default()).expect("ok");
        let frame = random_frame(7, 8, 3);
        assert!(ca.acquire(&frame).is_err());
    }

    #[test]
    fn output_dimensions_shrink_by_the_window() {
        let ca = CompressiveAcquisitor::new(CaConfig {
            pooling_window: 4,
            rgb_to_grayscale: true,
        })
        .expect("ok");
        let frame = random_frame(16, 8, 5);
        let out = ca.acquire(&frame).expect("ok");
        assert_eq!(out.height(), 4);
        assert_eq!(out.width(), 2);
    }

    #[test]
    fn uniform_gray_frame_is_preserved() {
        let ca = CompressiveAcquisitor::new(CaConfig::default()).expect("ok");
        let frame = RgbFrame::filled(4, 4, [0.6, 0.6, 0.6]).expect("valid");
        let out = ca.acquire(&frame).expect("ok");
        for &v in out.data() {
            assert!((v - 0.6).abs() < 1e-9);
        }
    }
}
