//! Optical core: MVM banks, the summation tree and the photonic MAC unit.
//!
//! The functional behaviour of every bank arm is identical (same ring design,
//! same WDM grid), so functional inference keeps one [`OpticalArm`], not one
//! per physical arm: a programmed row is kept as a [`LoadedRow`], the lane
//! constants of its arm-sized segments, and each MAC of the row is one call
//! of that arm's kernel, which runs every segment and adds their partial
//! sums in segment order, as the two-stage electronic summation tree
//! combines the partial sums of a long dot product (paper Figs. 5 and 6).
//!
//! A row is loaded under its [`RowId`] (layer and row), which keys each
//! ring's weight error: the row's first MAC in a frame draws every ring's
//! realised transmission once, and every stride of the frame reads it, so
//! a unit, a worker's clone of it and a stream tile that load the same row
//! in the same frame see the same weights. Copies of one row on several
//! arms of a bank share that one draw.

use crate::error::{CoreError, Result};
use crate::plan::{CodedRow, Transmissions};
use lightator_photonics::arm::{ArmConfig, LoadedRow, OpticalArm};
use lightator_photonics::microring::MicroringConfig;
use lightator_photonics::noise::{NoiseConfig, RowId};
use lightator_photonics::PhotonicsError;
use serde::{Deserialize, Serialize};

/// A photonic dot-product engine of arbitrary length.
///
/// Long dot products are segmented into arm-sized (9-MAC) chunks; each chunk
/// is evaluated optically as one arm pass and the partial results are
/// accumulated electronically, exactly as the bank summation tree does.
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
    /// The paper's 9-MR arm: it programs rings for
    /// [`PhotonicMacUnit::load_row`], and its noise stream, MAC cursor and
    /// kernel run every row.
    arm: OpticalArm,
    /// The loaded row's lane constants, segment after segment.
    row: LoadedRow,
    /// Length of the loaded row.
    row_len: usize,
    seed: u64,
    segments_evaluated: u64,
}

impl PhotonicMacUnit {
    /// Creates a MAC unit with the paper's 9-MR arm and a deterministic seed
    /// for the analog noise processes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the noise configuration is
    /// invalid.
    pub fn new(noise: NoiseConfig, seed: u64) -> Result<Self> {
        let mut arm = OpticalArm::new(ArmConfig {
            channels: 9,
            ring: MicroringConfig::default(),
            noise,
        })?;
        // A fresh unit sits at the frame-0 stream.
        arm.begin_frame(seed, 0);
        Ok(Self {
            arm,
            row: LoadedRow::new(),
            row_len: 0,
            seed,
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
        self.arm.begin_frame(self.seed, index);
    }

    /// The MAC-call cursor within the current frame's noise stream: the
    /// number of segments evaluated since [`PhotonicMacUnit::begin_frame`]
    /// (the arm's [`OpticalArm::mac_cursor`]).
    #[must_use]
    pub fn mac_cursor(&self) -> u64 {
        self.arm.mac_cursor()
    }

    /// Repositions the MAC-call cursor within the current frame's noise
    /// stream. With keyed draws the cursor fully determines the noise each
    /// call sees, so a clone of this unit positioned at cursor `n`
    /// reproduces the `n`-th sequential MAC call bit for bit — the hook the
    /// executor's parallel tiling is built on.
    pub fn set_mac_cursor(&mut self, cursor: u64) {
        self.arm.set_mac_cursor(cursor);
    }

    /// Number of arm-sized segments evaluated so far (one per optical wave).
    #[must_use]
    pub fn segments_evaluated(&self) -> u64 {
        self.segments_evaluated
    }

    /// Number of MAC elements one segment carries.
    #[must_use]
    pub fn segment_length(&self) -> usize {
        self.arm.channels()
    }

    /// Programs a weight row of any length for weight-stationary
    /// streaming: the row is cut into arm-sized segments, ⌈len/9⌉ in all,
    /// as a bank maps a 5×5 or 7×7 kernel onto several arms (paper Fig. 6),
    /// and each segment's rings are tuned on the unit's arm and kept as
    /// its lane constants. The row stays loaded across subsequent
    /// [`PhotonicMacUnit::mac_loaded`] calls, which is how a bank serves
    /// all strides of one output channel (and, in a batch, all frames) with
    /// a single DAC programming pass.
    ///
    /// Weight programming is deterministic, and the realised weights are
    /// drawn once per frame from the ring's key, so hoisting it out of the
    /// stride loop does not change any result — it only removes redundant
    /// tuning work. The row is keyed as row 0 of layer 0
    /// ([`PhotonicMacUnit::load_row_as`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if a weight is outside `[-1, 1]`;
    /// the unit is then left with no row loaded.
    pub fn load_row(&mut self, weights: &[f64]) -> Result<()> {
        self.load_row_as(RowId::default(), weights)
    }

    /// [`PhotonicMacUnit::load_row`] for row `id`, whose key each ring's
    /// weight error draws from.
    ///
    /// # Errors
    ///
    /// As [`PhotonicMacUnit::load_row`].
    pub fn load_row_as(&mut self, id: RowId, weights: &[f64]) -> Result<()> {
        let segment = self.segment_length();
        self.load_segments(id, weights.chunks(segment), |arm, chunk, row| {
            arm.load_weights(chunk)?;
            arm.push_loaded(row);
            Ok(())
        })?;
        self.row_len = weights.len();
        Ok(())
    }

    /// Loads a row of a compiled layer from its weight codes: every lane
    /// reads its programmed transmission from the layer's table
    /// ([`Transmissions`]), so no ring is tuned. The row equals the one
    /// [`PhotonicMacUnit::load_row_as`] builds from the codes' weights
    /// under the row's identity.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] for a code whose weight no ring can
    /// hold (a NaN weight); the unit is then left with no row loaded.
    pub(crate) fn load_coded_row(
        &mut self,
        CodedRow { id, codes }: CodedRow<'_>,
        table: &Transmissions,
    ) -> Result<()> {
        let segment = self.segment_length();
        self.load_segments(id, codes.chunks(segment), |arm, chunk, row| {
            let transmissions = chunk
                .iter()
                .enumerate()
                .map(|(lane, &code)| table.get(lane, code));
            Ok(arm.push_segment(row, transmissions)?)
        })?;
        self.row_len = codes.len();
        Ok(())
    }

    /// Replaces the loaded row by row `id`'s segments that `program`
    /// appends, one per chunk, leaving no row loaded if one fails.
    fn load_segments<'a, T: 'a>(
        &mut self,
        id: RowId,
        segments: impl Iterator<Item = &'a [T]>,
        mut program: impl FnMut(&mut OpticalArm, &'a [T], &mut LoadedRow) -> Result<()>,
    ) -> Result<()> {
        self.row_len = 0;
        self.row.reset(id);
        for chunk in segments {
            if let Err(err) = program(&mut self.arm, chunk, &mut self.row) {
                self.row.reset(id);
                return Err(err);
            }
        }
        Ok(())
    }

    /// Tunes each of `weights` on every lane by programming the arm's
    /// rings, for a layer's [`Transmissions`] table: entry
    /// `weight · channels + lane` is the signed transmission lane `lane`
    /// is programmed to for that weight, `0.0` for a zero weight (a parked
    /// ring) and NaN for a NaN one. No weight error is drawn.
    pub(crate) fn tune(&mut self, weights: &[f64]) -> Result<Vec<f64>> {
        let channels = self.segment_length();
        let mut entries = Vec::with_capacity(weights.len() * channels);
        for &weight in weights {
            if weight.is_nan() || weight == 0.0 {
                entries.extend(std::iter::repeat_n(weight, channels));
                continue;
            }
            self.arm.load_weights(&vec![weight; channels])?;
            entries.extend(self.arm.lanes().iter().map(|lane| lane.transmission));
        }
        Ok(entries)
    }

    /// Evaluates `Σ wᵢ·aᵢ` against the row programmed by
    /// [`PhotonicMacUnit::load_row`]: one [`OpticalArm::mac_row`] call runs
    /// each of the row's segments at the next MAC cursor and sums the
    /// partial results in segment order, exactly as
    /// [`PhotonicMacUnit::dot`] does. The cursor advances by the row's
    /// segment count.
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
            return Err(CoreError::Photonics(PhotonicsError::LengthMismatch {
                expected: self.row_len,
                actual: activations.len(),
            }));
        }
        check_activations(activations)?;
        Ok(self.mac_row(activations))
    }

    /// [`PhotonicMacUnit::mac_loaded`] for activations the caller has
    /// checked: in `[0, 1]` and no longer than the loaded row.
    pub(crate) fn mac_row(&mut self, activations: &[f64]) -> f64 {
        self.segments_evaluated += self.row.segments() as u64;
        self.arm.mac_row(&mut self.row, activations)
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
            return Err(CoreError::Photonics(PhotonicsError::LengthMismatch {
                expected: weights.len(),
                actual: activations.len(),
            }));
        }
        self.load_row(weights)?;
        self.mac_loaded(activations)
    }
}

/// Light intensities lie in `[0, 1]`: the first activation that does not
/// (NaN included) is an error.
pub(crate) fn check_activations(activations: &[f64]) -> Result<()> {
    match activations.iter().find(|a| !(0.0..=1.0).contains(*a)) {
        Some(&activation) => Err(CoreError::Photonics(PhotonicsError::ActivationOutOfRange {
            activation,
        })),
        None => Ok(()),
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

    /// A row loaded from its codes through the layer's transmission table
    /// holds the lanes `load_row_as` programs from the codes' weights under
    /// the row's identity, and `mac_loaded` gives the same bits, with noise
    /// on, at several cursors. For every width, the 400-weight rows hold
    /// every code at every lane.
    #[test]
    fn coded_rows_match_programmed_rows_bit_for_bit() {
        use crate::plan::{EncodedWeights, WEIGHT_BITS};
        const ROW: usize = 400;
        // Row r shifts each lane's codes by the 44 full segments a lane
        // gets per row, so consecutive rows continue every lane's sweep.
        const SHIFT: usize = 44;
        let activations: Vec<f64> = (0..ROW).map(|j| ((j * 7 + 3) % 16) as f64 / 15.0).collect();
        for bits in WEIGHT_BITS {
            let levels = (1usize << (bits - 1)) - 1;
            let codes = 2 * levels + 1;
            let rows = codes.div_ceil(SHIFT);
            let weights: Vec<f32> = (0..rows * ROW)
                .map(|i| {
                    let (row, j) = (i / ROW, i % ROW);
                    let code = (j / 9 + row * SHIFT + j % 9) % codes;
                    (code as f32 - levels as f32) / levels as f32
                })
                .collect();
            let mut encoded =
                EncodedWeights::new(&weights, ROW, 1.0, bits).expect("width in range");
            let mut seen = vec![false; 9 * codes];
            for (i, &code) in encoded.codes().iter().enumerate() {
                seen[(i % ROW % 9) * codes + (i32::from(code) + levels as i32) as usize] = true;
            }
            assert!(seen.iter().all(|&s| s), "{bits} bits: a lane misses a code");

            let decoded: Vec<f64> = encoded
                .codes()
                .iter()
                .map(|&code| encoded.weight(code))
                .collect();
            let mut coded = PhotonicMacUnit::new(NoiseConfig::default(), 5).expect("ok");
            let mut programmed = coded.clone();
            let layer = encoded.programmed(&mut coded).expect("table");
            for (r, row) in decoded.chunks(ROW).enumerate() {
                coded
                    .load_coded_row(layer.row(r), layer.table)
                    .expect("coded row");
                let id = RowId {
                    layer: 0,
                    row: r as u64,
                };
                programmed.load_row_as(id, row).expect("programmed row");
                assert_eq!(coded.row, programmed.row, "{bits} bits, row {r}");
                for (frame, cursor) in [(0, 0), (3, 17), (9, 1 << 40), (2, u64::MAX - 3)] {
                    for unit in [&mut coded, &mut programmed] {
                        unit.begin_frame(frame);
                        unit.set_mac_cursor(cursor);
                    }
                    let got = coded.mac_loaded(&activations).expect("in range");
                    let want = programmed.mac_loaded(&activations).expect("in range");
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "{bits} bits, row {r}, cursor {cursor}: {got} vs {want}"
                    );
                }
            }
        }
    }

    /// A NaN code fails the coded row load like a NaN weight fails
    /// `load_row`, and leaves no row loaded.
    #[test]
    fn a_code_with_no_weight_fails_the_row_load() {
        use crate::plan::EncodedWeights;
        let mut encoded = EncodedWeights::new(&[0.5, f32::NAN, -1.0], 3, 1.0, 4).expect("4 bits");
        let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), 5).expect("ok");
        let layer = encoded.programmed(&mut unit).expect("table");
        assert!(matches!(
            unit.load_coded_row(layer.row(0), layer.table),
            Err(CoreError::Photonics(
                lightator_photonics::PhotonicsError::WeightOutOfRange { .. }
            ))
        ));
        assert!(unit.mac_loaded(&[0.5]).is_err());
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
