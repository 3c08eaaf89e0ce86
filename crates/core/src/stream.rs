//! Frame-delta compressive streaming: the temporal dimension of the
//! paper's compressive-acquisition story.
//!
//! A video stream is temporally redundant: most blocks of most frames are
//! identical to the previous frame. Lightator's sensing front end already
//! has the machinery to exploit that — the CRC comparators can detect a
//! static block electronically, and the DMVA's selector can keep a lane on
//! its feedback path (the previous output) instead of re-driving the
//! optical core. This module models that path:
//!
//! * [`StreamConfig`] — the block grid and the delta threshold of the gate;
//! * [`TemporalDifferencer`] — per-block change detection against the last
//!   *computed* reference (not merely the previous frame, so slow drift
//!   cannot accumulate unboundedly below the threshold). The mask its
//!   [`gate`](TemporalDifferencer::gate) returns is the DMVA selection:
//!   `true` drives the block from the pixel path, `false` keeps it on the
//!   feedback path;
//! * [`StreamFrame`] / [`StreamReport`] — per-frame and per-stream results
//!   layered on the session's performance model: frames processed, blocks
//!   skipped, simulated time, energy, and the speedup over dense per-frame
//!   execution.
//!
//! Skipped blocks bypass both the CA bank pass and the kernel convolution;
//! only the electronic gate (comparators + selector switching) is charged,
//! at [`GATE_COST_FRACTION`] of the block's optical cost.

use crate::error::{CoreError, Result};
use lightator_nn::tensor::Tensor;
use lightator_photonics::units::{Energy, Time};
use lightator_sensor::frame::RgbFrame;
use serde::{Deserialize, Serialize};

/// Fraction of a block's optical cost spent when the block is *skipped*:
/// the CRC comparators still scan the block and the DMVA selector switches
/// to the feedback path, but no VCSEL drives the CA bank or the convolver.
pub const GATE_COST_FRACTION: f64 = 0.05;

/// Configuration of the frame-delta gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamConfig {
    /// Block edge of the gate's tiles, in acquired-map pixels (the acquired
    /// height and width must both be divisible by it).
    pub block_size: usize,
    /// Per-pixel scene change (normalised intensity) at or above which a
    /// block is recomputed; strictly smaller changes ride the feedback
    /// path. Zero recomputes every block every frame (dense execution).
    pub delta_threshold: f64,
}

impl Default for StreamConfig {
    fn default() -> Self {
        Self {
            block_size: 4,
            // Just under one 4-bit code step: changes the CRC cannot even
            // resolve never wake the optical path.
            delta_threshold: 0.05,
        }
    }
}

impl StreamConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero block size or a
    /// non-finite/negative threshold.
    pub fn validate(&self) -> Result<()> {
        if self.block_size == 0 {
            return Err(CoreError::invalid_config(
                "block_size",
                0.0,
                "the delta gate needs at least one acquired pixel per block",
            ));
        }
        if !self.delta_threshold.is_finite() || self.delta_threshold < 0.0 {
            return Err(CoreError::invalid_config(
                "delta_threshold",
                self.delta_threshold,
                "the delta threshold must be a finite, non-negative intensity",
            ));
        }
        Ok(())
    }
}

/// Snapshot of a stream's temporal state after some frame: everything a
/// session needs to continue the stream from the *next* frame.
///
/// Capture it with [`crate::platform::Session::stream_state`] and hand it to
/// [`crate::platform::Session::resume_stream`] (together with
/// [`crate::platform::Session::seek_frame`]) to replay the tail of a stream
/// bit-exactly on a fresh session.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamState {
    /// Per-block reference scene: each block holds the raw pixels of the
    /// last frame for which it was computed.
    pub(crate) ref_scene: RgbFrame,
    /// The acquired (CA-compressed) map matching `ref_scene` block-wise:
    /// what the feedback path replays for skipped blocks.
    pub(crate) ref_acquired: Tensor,
    /// The previous filtered output (skipped blocks reuse their region).
    pub(crate) prev_output: Tensor,
}

/// Per-block temporal change detection: blocks whose scene delta stays
/// below the threshold keep their DMVA lane on the feedback path, blocks
/// that changed switch back to the pixel path.
#[derive(Debug, Clone)]
pub struct TemporalDifferencer {
    config: StreamConfig,
    /// Block grid over the acquired map, `(rows, cols)`.
    grid: (usize, usize),
    /// Sensor pixels per acquired pixel (the CA pooling window, 1 without
    /// CA): blocks span `block_size × window` sensor pixels.
    window: usize,
}

impl TemporalDifferencer {
    /// Creates a differencer for an acquired map of `acquired_height` ×
    /// `acquired_width` pixels, each pooled from `window` × `window` sensor
    /// pixels.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configuration is invalid
    /// or the block size does not divide the acquired dimensions.
    pub fn new(
        config: StreamConfig,
        acquired_height: usize,
        acquired_width: usize,
        window: usize,
    ) -> Result<Self> {
        config.validate()?;
        if !acquired_height.is_multiple_of(config.block_size)
            || !acquired_width.is_multiple_of(config.block_size)
        {
            return Err(CoreError::invalid_config(
                "block_size",
                config.block_size as f64,
                format!(
                    "the delta-gate block size must divide the acquired map \
                     ({acquired_height}x{acquired_width} is not divisible by {})",
                    config.block_size
                ),
            ));
        }
        let grid = (
            acquired_height / config.block_size,
            acquired_width / config.block_size,
        );
        Ok(Self {
            config,
            grid,
            window: window.max(1),
        })
    }

    /// The gate configuration.
    #[must_use]
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// Block grid over the acquired map, `(rows, cols)`.
    #[must_use]
    pub fn grid(&self) -> (usize, usize) {
        self.grid
    }

    /// Number of blocks per frame.
    #[must_use]
    pub fn blocks(&self) -> usize {
        self.grid.0 * self.grid.1
    }

    /// Gates one scene against the reference: returns, per block
    /// (row-major), whether the block must be recomputed — the DMVA
    /// selection, `true` for the pixel path and `false` for the feedback
    /// path. With no reference (the first frame of a stream) every block is
    /// computed.
    ///
    /// The comparison covers the block *plus one acquired pixel of halo* in
    /// sensor space, because a 3×3 kernel output inside the block also
    /// depends on its immediate neighbours.
    #[must_use]
    pub fn gate(&self, scene: &RgbFrame, reference: Option<&RgbFrame>) -> Vec<bool> {
        let (rows, cols) = self.grid;
        let sensor_block = self.config.block_size * self.window;
        let halo = self.window;
        let mut mask = vec![true; rows * cols];
        if let Some(reference) = reference {
            for br in 0..rows {
                for bc in 0..cols {
                    let row0 = (br * sensor_block).saturating_sub(halo);
                    let col0 = (bc * sensor_block).saturating_sub(halo);
                    let row1 = ((br + 1) * sensor_block + halo).min(scene.height());
                    let col1 = ((bc + 1) * sensor_block + halo).min(scene.width());
                    let mut delta = 0.0f64;
                    'block: for row in row0..row1 {
                        let base = (row * scene.width() + col0) * 3;
                        let len = (col1 - col0) * 3;
                        let current = &scene.data()[base..base + len];
                        let previous = &reference.data()[base..base + len];
                        for (a, b) in current.iter().zip(previous) {
                            delta = delta.max((a - b).abs());
                            if delta >= self.config.delta_threshold {
                                break 'block;
                            }
                        }
                    }
                    // At-or-above the threshold recomputes, so a zero
                    // threshold is exactly dense per-frame execution.
                    mask[br * cols + bc] = delta >= self.config.delta_threshold;
                }
            }
        }
        mask
    }
}

/// One frame of a [`StreamReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamFrame {
    /// Global frame index the frame executed as (drives the analog-noise
    /// stream).
    pub index: u64,
    /// Blocks recomputed on the optical core.
    pub computed_blocks: usize,
    /// Blocks served from the DMVA feedback path.
    pub skipped_blocks: usize,
    /// Shape of the filtered output (`[1, h, w]`).
    pub shape: Vec<usize>,
    /// Filtered output values, row-major.
    pub data: Vec<f32>,
    /// Simulated latency of the frame under the delta gate.
    pub latency: Time,
    /// Simulated energy of the frame under the delta gate.
    pub energy: Energy,
}

/// Aggregated result of one [`crate::platform::Session::run_stream`] call.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamReport {
    /// Workload label (`stream:sobel-x`, ...).
    pub workload: String,
    /// Per-frame results, in stream order.
    pub frames: Vec<StreamFrame>,
    /// Blocks per frame in the delta gate's grid.
    pub blocks_per_frame: usize,
    /// Total simulated time of the stream under the delta gate.
    pub sim_time: Time,
    /// Total simulated energy of the stream under the delta gate.
    pub energy: Energy,
    /// What the same stream would have cost with every block recomputed
    /// every frame — the dense baseline behind
    /// [`StreamReport::speedup_vs_dense`].
    pub dense_sim_time: Time,
    /// Dense-execution energy of the same stream.
    pub dense_energy: Energy,
}

impl StreamReport {
    /// Creates an empty report for a workload with `blocks_per_frame`
    /// gate blocks.
    #[must_use]
    pub fn new(workload: String, blocks_per_frame: usize) -> Self {
        Self {
            workload,
            frames: Vec::new(),
            blocks_per_frame,
            sim_time: Time::from_ns(0.0),
            energy: Energy::from_fj(0.0),
            dense_sim_time: Time::from_ns(0.0),
            dense_energy: Energy::from_fj(0.0),
        }
    }

    /// Appends one frame, folding its cost into the stream totals.
    pub fn push(&mut self, frame: StreamFrame, dense_latency: Time, dense_energy: Energy) {
        self.sim_time += frame.latency;
        self.energy += frame.energy;
        self.dense_sim_time += dense_latency;
        self.dense_energy += dense_energy;
        self.frames.push(frame);
    }

    /// Frames processed.
    #[must_use]
    pub fn frames_processed(&self) -> usize {
        self.frames.len()
    }

    /// Blocks skipped across the whole stream.
    #[must_use]
    pub fn blocks_skipped(&self) -> usize {
        self.frames.iter().map(|f| f.skipped_blocks).sum()
    }

    /// Blocks in the whole stream (frames × blocks per frame).
    #[must_use]
    pub fn blocks_total(&self) -> usize {
        self.frames.len() * self.blocks_per_frame
    }

    /// Fraction of blocks served from the feedback path.
    #[must_use]
    pub fn skip_ratio(&self) -> f64 {
        if self.blocks_total() == 0 {
            return 0.0;
        }
        self.blocks_skipped() as f64 / self.blocks_total() as f64
    }

    /// Sustained frame rate in simulated frames per second.
    #[must_use]
    pub fn fps(&self) -> f64 {
        if self.sim_time.seconds() == 0.0 {
            return 0.0;
        }
        self.frames.len() as f64 / self.sim_time.seconds()
    }

    /// Mean simulated energy per frame.
    #[must_use]
    pub fn energy_per_frame(&self) -> Energy {
        if self.frames.is_empty() {
            return Energy::from_fj(0.0);
        }
        self.energy * (1.0 / self.frames.len() as f64)
    }

    /// Simulated-time speedup of the delta-skip path over dense per-frame
    /// execution of the same stream.
    #[must_use]
    pub fn speedup_vs_dense(&self) -> f64 {
        if self.sim_time.ns() == 0.0 {
            return 1.0;
        }
        self.dense_sim_time.ns() / self.sim_time.ns()
    }

    /// One-line summary for logs and examples.
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{}: {} frames, {:.0}% blocks skipped, {:.0} FPS (sim), \
             {:.2} nJ/frame, {:.2}x vs dense",
            self.workload,
            self.frames_processed(),
            self.skip_ratio() * 100.0,
            self.fps(),
            self.energy_per_frame().nj(),
            self.speedup_vs_dense()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn frame_of(value: f64) -> RgbFrame {
        RgbFrame::filled(8, 8, [value, value, value]).expect("valid")
    }

    /// Brute force of [`TemporalDifferencer::gate`] against a reference
    /// scene: a block recomputes iff some channel of some sensor pixel in
    /// the block, or within one acquired pixel (`window` sensor pixels) of
    /// it, differs from the reference by at least the threshold.
    fn reference_gate(
        differencer: &TemporalDifferencer,
        scene: &RgbFrame,
        reference: &RgbFrame,
    ) -> Vec<bool> {
        let (rows, cols) = differencer.grid();
        let window = differencer.window as isize;
        let sensor_block = differencer.config().block_size as isize * window;
        let threshold = differencer.config().delta_threshold;
        let near = |pixel: usize, block: usize| {
            let start = block as isize * sensor_block;
            (start - window..start + sensor_block + window).contains(&(pixel as isize))
        };
        let mut mask = Vec::new();
        for br in 0..rows {
            for bc in 0..cols {
                let mut changed = false;
                for row in 0..scene.height() {
                    for col in 0..scene.width() {
                        if near(row, br) && near(col, bc) {
                            let a = scene.pixel(row, col).expect("inside the scene");
                            let b = reference.pixel(row, col).expect("inside the scene");
                            changed |= (0..3).any(|c| (a[c] - b[c]).abs() >= threshold);
                        }
                    }
                }
                mask.push(changed);
            }
        }
        mask
    }

    /// Sensor coordinates along one axis that the gate must place exactly:
    /// each block's first and last pixel, the first and last pixel of its
    /// halo, and the pixels just outside the halo.
    fn edges(blocks: usize, sensor_block: usize, halo: usize) -> Vec<usize> {
        let dim = (blocks * sensor_block) as isize;
        let halo = halo as isize;
        let mut edges = Vec::new();
        for block in 0..=blocks {
            let start = (block * sensor_block) as isize;
            for at in [-halo - 1, -halo, -1, 0, halo - 1, halo].map(|d| start + d) {
                if (0..dim).contains(&at) {
                    edges.push(at as usize);
                }
            }
        }
        edges
    }

    proptest! {
        /// The gate's mask matches the brute force on grids of 1–4 blocks
        /// per side, blocks of 1–3 acquired pixels and CA windows 1–3, for
        /// single-channel changes that mostly sit on block and halo edges
        /// (over a scene that may also drift everywhere by up to a random
        /// threshold), with a zero threshold, a threshold exactly equal to
        /// a change, and random thresholds.
        #[test]
        fn gate_matches_the_brute_force_reference(
            grid in (1usize..=4, 1usize..=4),
            shape in (1usize..=3, 1usize..=3),
            changes in proptest::collection::vec(
                (0u64..u64::MAX, 0u64..u64::MAX, 0usize..3, -1.0f64..=1.0),
                0..=4,
            ),
            gate in (0u8..4, 0.0f64..0.5, 0u64..u64::MAX, proptest::bool::ANY),
        ) {
            let ((rows, cols), (window, block_size)) = (grid, shape);
            let (kind, random_threshold, seed, drift) = gate;
            let (height, width) = (rows * block_size * window, cols * block_size * window);
            let mut rng = SmallRng::seed_from_u64(seed);
            let samples = (0..height * width * 3).map(|_| rng.gen::<f64>()).collect();
            let reference = RgbFrame::new(height, width, samples).expect("valid");
            let mut scene = reference.clone();
            if drift {
                let data = scene
                    .data()
                    .iter()
                    .map(|v| (v + rng.gen_range(-1.0..1.0) * random_threshold).clamp(0.0, 1.0))
                    .collect();
                scene = RgbFrame::new(height, width, data).expect("valid");
            }
            let sensor_block = block_size * window;
            let (row_edges, col_edges) = (
                edges(rows, sensor_block, window),
                edges(cols, sensor_block, window),
            );
            let pick = |at: u64, edges: &[usize], dim: usize| {
                if at.is_multiple_of(4) {
                    (at / 4) as usize % dim
                } else {
                    edges[(at / 4) as usize % edges.len()]
                }
            };
            let mut first = None;
            for &(r, c, channel, delta) in &changes {
                let (row, col) = (pick(r, &row_edges, height), pick(c, &col_edges, width));
                let before = reference.pixel(row, col).expect("inside")[channel];
                let mut now = scene.pixel(row, col).expect("inside");
                now[channel] = (before + delta).clamp(0.0, 1.0);
                scene.set_pixel(row, col, now).expect("in range");
                first.get_or_insert((row, col, channel));
            }
            // The first change as it stands in the final scene.
            let first = first.map(|(row, col, channel)| {
                let now = scene.pixel(row, col).expect("inside")[channel];
                let before = reference.pixel(row, col).expect("inside")[channel];
                (row, col, (now - before).abs())
            });
            let delta_threshold = match (kind, first) {
                (0, _) => 0.0,
                (1, Some((_, _, exact))) => exact,
                _ => random_threshold,
            };
            let differencer = TemporalDifferencer::new(
                StreamConfig { block_size, delta_threshold },
                rows * block_size,
                cols * block_size,
                window,
            )
            .expect("divisible grid");
            let mask = differencer.gate(&scene, Some(&reference));
            prop_assert_eq!(&mask, &reference_gate(&differencer, &scene, &reference));
            if delta_threshold == 0.0 {
                prop_assert!(mask.iter().all(|&c| c), "a zero threshold is dense");
            }
            if let (1, Some((row, col, _))) = (kind, first) {
                let block = row / sensor_block * cols + col / sensor_block;
                prop_assert!(mask[block], "a change of exactly the threshold recomputes");
            }
        }
    }

    #[test]
    fn config_validation_rejects_degenerate_gates() {
        assert!(StreamConfig {
            block_size: 0,
            ..StreamConfig::default()
        }
        .validate()
        .is_err());
        assert!(StreamConfig {
            delta_threshold: f64::NAN,
            ..StreamConfig::default()
        }
        .validate()
        .is_err());
        assert!(StreamConfig {
            delta_threshold: -0.1,
            ..StreamConfig::default()
        }
        .validate()
        .is_err());
        assert!(StreamConfig::default().validate().is_ok());
    }

    #[test]
    fn differencer_requires_divisible_grids() {
        let config = StreamConfig {
            block_size: 3,
            ..StreamConfig::default()
        };
        assert!(TemporalDifferencer::new(config, 4, 4, 2).is_err());
        assert!(TemporalDifferencer::new(config, 6, 9, 2).is_ok());
    }

    #[test]
    fn first_frame_computes_every_block() {
        let differencer = TemporalDifferencer::new(StreamConfig::default(), 4, 4, 2).expect("ok");
        let mask = differencer.gate(&frame_of(0.5), None);
        assert!(mask.iter().all(|&c| c));
    }

    #[test]
    fn static_scenes_ride_the_feedback_path() {
        let differencer = TemporalDifferencer::new(StreamConfig::default(), 4, 4, 2).expect("ok");
        let scene = frame_of(0.5);
        let mask = differencer.gate(&scene, Some(&scene));
        assert!(mask.iter().all(|&c| !c));
    }

    #[test]
    fn local_changes_wake_only_nearby_blocks() {
        // 8x8 acquired map, block 4 -> a 2x2 grid; window 1 so sensor
        // coordinates equal acquired coordinates.
        let differencer = TemporalDifferencer::new(StreamConfig::default(), 8, 8, 1).expect("ok");
        let reference = frame_of(0.5);
        let mut scene = reference.clone();
        scene.set_pixel(0, 0, [0.9, 0.9, 0.9]).expect("ok");
        let mask = differencer.gate(&scene, Some(&reference));
        assert!(mask[0], "the changed block must recompute");
        assert!(
            !mask[3],
            "the far corner block is outside the halo and must skip"
        );
    }

    #[test]
    fn sub_threshold_changes_are_ignored() {
        let differencer = TemporalDifferencer::new(
            StreamConfig {
                delta_threshold: 0.2,
                ..StreamConfig::default()
            },
            4,
            4,
            1,
        )
        .expect("ok");
        let reference = frame_of(0.5);
        let scene = frame_of(0.6); // 0.1 < 0.2 everywhere
        let mask = differencer.gate(&scene, Some(&reference));
        assert!(mask.iter().all(|&c| !c));
    }

    #[test]
    fn report_aggregates_and_summarises() {
        let mut report = StreamReport::new("stream:identity".into(), 4);
        report.push(
            StreamFrame {
                index: 0,
                computed_blocks: 4,
                skipped_blocks: 0,
                shape: vec![1, 2, 2],
                data: vec![0.0; 4],
                latency: Time::from_ns(100.0),
                energy: Energy::from_fj(1_000.0),
            },
            Time::from_ns(100.0),
            Energy::from_fj(1_000.0),
        );
        report.push(
            StreamFrame {
                index: 1,
                computed_blocks: 1,
                skipped_blocks: 3,
                shape: vec![1, 2, 2],
                data: vec![0.0; 4],
                latency: Time::from_ns(40.0),
                energy: Energy::from_fj(400.0),
            },
            Time::from_ns(100.0),
            Energy::from_fj(1_000.0),
        );
        assert_eq!(report.frames_processed(), 2);
        assert_eq!(report.blocks_total(), 8);
        assert_eq!(report.blocks_skipped(), 3);
        assert!((report.skip_ratio() - 3.0 / 8.0).abs() < 1e-12);
        assert!((report.sim_time.ns() - 140.0).abs() < 1e-9);
        assert!((report.speedup_vs_dense() - 200.0 / 140.0).abs() < 1e-12);
        assert!(report.fps() > 0.0);
        assert!(report.summary().contains("stream:identity"));
    }
}
