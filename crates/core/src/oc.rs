//! Optical core: MVM banks, the summation tree and the photonic MAC unit.
//!
//! The functional behaviour of every bank arm is identical (same ring design,
//! same WDM grid), so functional inference keeps one [`OpticalArm`] per
//! segment of the widest row it has programmed, not one per physical arm,
//! and models the two-stage electronic summation tree that combines partial
//! sums of long dot products (paper Figs. 5 and 6).

use crate::error::{CoreError, Result};
use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::MicroringConfig;
use lightator_photonics::noise::NoiseConfig;
use serde::{Deserialize, Serialize};

/// A photonic dot-product engine of arbitrary length.
///
/// Long dot products are segmented into arm-sized (9-MAC) chunks; each chunk
/// is evaluated optically on its own [`OpticalArm`] and the partial results
/// are accumulated electronically, exactly as the bank summation tree does.
///
/// ```
/// use lightator_core::oc::PhotonicMacUnit;
/// use lightator_photonics::noise::NoiseConfig;
///
/// # fn main() -> Result<(), lightator_core::CoreError> {
/// let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 42)?;
/// let value = unit.dot(&[0.5, -0.5, 0.25], &[1.0, 1.0, 0.5])?;
/// assert!((value - 0.125).abs() < 0.05);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PhotonicMacUnit {
    /// One arm per segment of the widest row loaded so far. The first arm
    /// exists from construction; the others are cloned from it on the
    /// first row that needs them.
    arms: Vec<OpticalArm>,
    /// Length of the row programmed by [`PhotonicMacUnit::load_row`].
    row_len: usize,
    seed: u64,
    mac_cursor: u64,
    segments_evaluated: u64,
}

impl PhotonicMacUnit {
    /// Creates a MAC unit with the paper's 9-MR arm and a deterministic seed
    /// for the analog noise processes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the arm configuration is invalid.
    pub fn new(noise: NoiseConfig, seed: u64) -> Result<Self> {
        Self::with_arm_config(
            ArmConfig {
                channels: 9,
                ring: MicroringConfig::default(),
                noise,
            },
            seed,
        )
    }

    /// Creates a MAC unit with an explicit arm configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the arm configuration is invalid.
    pub fn with_arm_config(config: ArmConfig, seed: u64) -> Result<Self> {
        let mut arm = OpticalArm::new(config)?;
        // A fresh unit sits at the frame-0 stream.
        arm.begin_frame(seed, 0);
        Ok(Self {
            arms: vec![arm],
            row_len: 0,
            seed,
            mac_cursor: 0,
            segments_evaluated: 0,
        })
    }

    /// Rewinds the analog-noise stream to the start of frame `index`.
    ///
    /// Every draw of frame `index` is a pure function of
    /// `(seed, index, channel, element)` — see
    /// [`lightator_photonics::noise::CounterRng`] — so the noise a frame
    /// sees depends only on its global position in the frame sequence, not
    /// on which executor (or which shard of a serving pool) happens to
    /// evaluate it. This is what lets batched, pooled and worker-tiled
    /// execution reproduce sequential runs bit for bit.
    pub fn begin_frame(&mut self, index: u64) {
        for arm in &mut self.arms {
            arm.begin_frame(self.seed, index);
        }
        self.mac_cursor = 0;
    }

    /// The MAC-call cursor within the current frame's noise stream: the
    /// number of segments evaluated since [`PhotonicMacUnit::begin_frame`]
    /// (see [`lightator_photonics::arm::OpticalArm::mac_cursor`]).
    #[must_use]
    pub fn mac_cursor(&self) -> u64 {
        self.mac_cursor
    }

    /// Repositions the MAC-call cursor within the current frame's noise
    /// stream. With keyed draws the cursor fully determines the noise each
    /// call sees, so a clone of this unit positioned at cursor `n`
    /// reproduces the `n`-th sequential MAC call bit for bit — the hook the
    /// executor's parallel tiling is built on.
    pub fn set_mac_cursor(&mut self, cursor: u64) {
        self.mac_cursor = cursor;
    }

    /// Number of arm-sized segments evaluated so far (one per optical wave).
    #[must_use]
    pub fn segments_evaluated(&self) -> u64 {
        self.segments_evaluated
    }

    /// Number of MAC elements one segment carries.
    #[must_use]
    pub fn segment_length(&self) -> usize {
        self.arms[0].channels()
    }

    /// Programs a weight row of any length for weight-stationary
    /// streaming: the row is cut into arm-sized segments and each segment is
    /// programmed onto an arm of its own, ⌈len/9⌉ arms in all, as a bank
    /// maps a 5×5 or 7×7 kernel onto several arms (paper Fig. 6). The row
    /// stays loaded across subsequent [`PhotonicMacUnit::mac_loaded`] calls,
    /// which is how a bank serves all strides of one output channel (and,
    /// in a batch, all frames) with a single DAC programming pass.
    ///
    /// Weight programming is deterministic (analog noise is drawn during the
    /// MAC itself), so hoisting it out of the stride loop does not change any
    /// result — it only removes redundant tuning work.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if a weight is outside `[-1, 1]`;
    /// the unit is then left with no row loaded.
    pub fn load_row(&mut self, weights: &[f64]) -> Result<()> {
        let segment = self.segment_length();
        let segments = weights.len().div_ceil(segment);
        if self.arms.len() < segments {
            let spare = self.arms[0].clone();
            self.arms.resize(segments, spare);
        }
        self.row_len = 0;
        for (arm, chunk) in self.arms.iter_mut().zip(weights.chunks(segment)) {
            arm.load_weights(chunk)?;
        }
        self.row_len = weights.len();
        Ok(())
    }

    /// Evaluates `Σ wᵢ·aᵢ` against the row programmed by
    /// [`PhotonicMacUnit::load_row`]: each of the row's segments runs on its
    /// arm at the next MAC cursor and the partial results are summed in
    /// segment order, exactly as [`PhotonicMacUnit::dot`] does. The cursor
    /// advances by the row's segment count.
    ///
    /// Activations may be shorter than the row; the missing lanes are dark,
    /// as on a single arm.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] for activations outside `[0, 1]` or
    /// longer than the loaded row.
    pub fn mac_loaded(&mut self, activations: &[f64]) -> Result<f64> {
        if activations.len() > self.row_len {
            return Err(CoreError::Photonics(
                lightator_photonics::PhotonicsError::LengthMismatch {
                    expected: self.row_len,
                    actual: activations.len(),
                },
            ));
        }
        let segment = self.segment_length();
        let segments = self.row_len.div_ceil(segment);
        let lanes = activations
            .chunks(segment)
            .chain(std::iter::repeat(&[][..]));
        let mut total = 0.0;
        for (arm, lanes) in self.arms[..segments].iter_mut().zip(lanes) {
            arm.set_mac_cursor(self.mac_cursor);
            total += arm.mac(lanes)?.value;
            self.mac_cursor = self.mac_cursor.wrapping_add(1);
            self.segments_evaluated += 1;
        }
        Ok(total)
    }

    /// Evaluates `Σ wᵢ·aᵢ` photonically: [`PhotonicMacUnit::load_row`]
    /// followed by one [`PhotonicMacUnit::mac_loaded`].
    ///
    /// Weights must lie in `[-1, 1]` and activations in `[0, 1]` (the
    /// caller — the photonic executor — normalises and de-normalises around
    /// this primitive).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the two slices differ in length
    /// or a value is out of range.
    pub fn dot(&mut self, weights: &[f64], activations: &[f64]) -> Result<f64> {
        if weights.len() != activations.len() {
            return Err(CoreError::Photonics(
                lightator_photonics::PhotonicsError::LengthMismatch {
                    expected: weights.len(),
                    actual: activations.len(),
                },
            ));
        }
        self.load_row(weights)?;
        self.mac_loaded(activations)
    }
}

/// Structural model of one MVM bank (arms + summation tree), used for power
/// accounting and for demonstrating the Fig. 6 mapping configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MvmBank {
    /// Arms in the bank.
    pub arms: usize,
    /// MRs per arm.
    pub mrs_per_arm: usize,
}

impl MvmBank {
    /// Creates a bank description.
    #[must_use]
    pub fn new(arms: usize, mrs_per_arm: usize) -> Self {
        Self { arms, mrs_per_arm }
    }

    /// Total MRs in the bank.
    #[must_use]
    pub fn mrs(&self) -> usize {
        self.arms * self.mrs_per_arm
    }

    /// Maximum concurrent strides for a kernel of `kernel²` weights.
    #[must_use]
    pub fn strides_for_kernel(&self, kernel: usize) -> usize {
        let needed = (kernel * kernel).div_ceil(self.mrs_per_arm).max(1);
        self.arms / needed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_unit_matches_exact_dot_product_for_short_vectors() {
        let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 1).expect("ok");
        let w = [0.5, -0.25, 0.75];
        let a = [1.0, 0.5, 0.25];
        let exact: f64 = w.iter().zip(a).map(|(w, a)| w * a).sum();
        let value = unit.dot(&w, &a).expect("ok");
        assert!((value - exact).abs() < 0.05, "{value} vs {exact}");
        assert_eq!(unit.segments_evaluated(), 1);
    }

    #[test]
    fn mac_unit_segments_long_vectors() {
        let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 2).expect("ok");
        let w: Vec<f64> = (0..25).map(|i| (f64::from(i % 5) - 2.0) / 4.0).collect();
        let a: Vec<f64> = (0..25).map(|i| f64::from(i % 3) / 2.0).collect();
        let exact: f64 = w.iter().zip(&a).map(|(w, a)| w * a).sum();
        let value = unit.dot(&w, &a).expect("ok");
        // ceil(25 / 9) = 3 segments, like a 5x5 kernel in Fig. 6(b).
        assert_eq!(unit.segments_evaluated(), 3);
        assert!((value - exact).abs() < 0.15, "{value} vs {exact}");
    }

    /// Regression: an invalid sigma used to reach the arm unchecked, so a
    /// NaN weight sigma returned a NaN MAC and an infinite detector sigma
    /// returned −∞.
    #[test]
    fn mac_unit_and_executor_reject_invalid_noise_sigmas() {
        use lightator_nn::quant::{Precision, PrecisionSchedule};
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        for noise in [
            NoiseConfig {
                weight_sigma: f64::NAN,
                ..NoiseConfig::default()
            },
            NoiseConfig {
                detector_relative_sigma: f64::INFINITY,
                ..NoiseConfig::default()
            },
        ] {
            assert!(matches!(
                PhotonicMacUnit::new(noise, 1),
                Err(CoreError::Photonics(
                    lightator_photonics::PhotonicsError::InvalidParameter { .. }
                ))
            ));
            assert!(crate::exec::PhotonicExecutor::new(schedule, noise, 1).is_err());
        }
    }

    #[test]
    fn mac_unit_rejects_mismatched_lengths() {
        let mut unit = PhotonicMacUnit::new(NoiseConfig::ideal(), 3).expect("ok");
        assert!(unit.dot(&[0.1, 0.2], &[0.5]).is_err());
    }

    #[test]
    fn noisy_mac_unit_is_reproducible_per_seed() {
        let w = [0.4, -0.3, 0.2, 0.7, -0.9, 0.1, 0.0, 0.5, -0.5];
        let a = [0.9, 0.1, 0.4, 0.6, 0.3, 0.8, 0.2, 0.5, 0.7];
        let mut unit_a = PhotonicMacUnit::new(NoiseConfig::default(), 99).expect("ok");
        let mut unit_b = PhotonicMacUnit::new(NoiseConfig::default(), 99).expect("ok");
        assert_eq!(
            unit_a.dot(&w, &a).expect("ok"),
            unit_b.dot(&w, &a).expect("ok")
        );
    }

    #[test]
    fn begin_frame_rewinds_the_noise_stream() {
        let w = [0.4, -0.3, 0.2, 0.7, -0.9, 0.1, 0.0, 0.5, -0.5];
        let a = [0.9, 0.1, 0.4, 0.6, 0.3, 0.8, 0.2, 0.5, 0.7];
        let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), 99).expect("ok");
        // A fresh unit sits at the frame-0 stream.
        let first = unit.dot(&w, &a).expect("ok");
        let moved_on = unit.dot(&w, &a).expect("ok");
        assert_ne!(
            first, moved_on,
            "noise stream should advance within a frame"
        );
        unit.begin_frame(0);
        assert_eq!(unit.dot(&w, &a).expect("ok"), first);
        // Distinct frames see distinct (but per-index reproducible) streams.
        unit.begin_frame(3);
        let frame3 = unit.dot(&w, &a).expect("ok");
        assert_ne!(frame3, first);
        unit.begin_frame(3);
        assert_eq!(unit.dot(&w, &a).expect("ok"), frame3);
    }

    #[test]
    fn mac_cursor_replays_any_segment_position() {
        let w = [0.4, -0.3, 0.2, 0.7, -0.9, 0.1, 0.0, 0.5, -0.5];
        let a = [0.9, 0.1, 0.4, 0.6, 0.3, 0.8, 0.2, 0.5, 0.7];
        let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), 17).expect("ok");
        unit.begin_frame(2);
        let sequential: Vec<f64> = (0..4).map(|_| unit.dot(&w, &a).expect("ok")).collect();
        assert_eq!(unit.mac_cursor(), 4);
        // A clone repositioned at any cursor reproduces that call's bits.
        for (cursor, expected) in sequential.iter().enumerate() {
            let mut replay = PhotonicMacUnit::new(NoiseConfig::default(), 17).expect("ok");
            replay.begin_frame(2);
            replay.set_mac_cursor(cursor as u64);
            assert_eq!(
                replay.dot(&w, &a).expect("ok").to_bits(),
                expected.to_bits()
            );
        }
    }

    #[test]
    fn bank_stride_counts_match_figure_six() {
        let bank = MvmBank::new(6, 9);
        assert_eq!(bank.mrs(), 54);
        assert_eq!(bank.strides_for_kernel(3), 6);
        assert_eq!(bank.strides_for_kernel(5), 2);
        assert_eq!(bank.strides_for_kernel(7), 1);
    }
}
