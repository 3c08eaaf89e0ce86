//! Compiled execution plans: lower a [`Workload`] once, run it everywhere.
//!
//! Lightator's pitch is a *fixed* near-sensor pipeline — the CA matrix, the
//! MR weight bank and the kernel are configured once and then frames stream
//! through at sensor rate. This module is that "program the optics once"
//! step in software: [`CompiledPlan::compile`] lowers a
//! [`Workload`] + [`PlatformConfig`] pair into a [`CompiledPlan`] holding
//!
//! * the **CA operator** ([`CompressiveAcquisitor`]) that turns raw scenes
//!   into the optical core's input tensor,
//! * the workload's **lowered optical model** (the classify network, the
//!   3×3 filter conv, or the per-block stream tile conv),
//! * the **MR weight bank** — one [`EncodedWeights`] per weighted layer:
//!   the `[W]`-bit codes the weight SRAM holds, plus the ring transmission
//!   each code programs on each lane, tabled on the layer's first frame —
//! * the **resolved precision schedule**, and
//! * **reusable scratch and tile buffers**, so the steady-state execution
//!   path performs no per-frame encoding work and no per-stride allocation.
//!
//! A plan is built once when a `Session` opens and reused by every entry
//! point (`run`, `run_stream`, `resume_stream`, `evaluate`);
//! a serving shard therefore compiles its workload group's plan exactly
//! once at spawn. [`PlanStats`] counts encoding passes versus cache hits so
//! the reuse is observable end to end (the serve crate surfaces the
//! counters per shard).
//!
//! **Determinism contract.** Encoding draws no analog noise — noise is
//! sampled only inside the photonic MAC — so the noise a frame sees depends
//! only on its global frame index, never on how many frames the plan served
//! before: golden kernels, stream resume and pooled serving all stay
//! bit-exact.
//!
//! ```
//! use lightator_core::plan::CompiledPlan;
//! use lightator_core::platform::{ImageKernel, Platform, Workload};
//!
//! # fn main() -> Result<(), lightator_core::CoreError> {
//! let platform = Platform::builder().sensor_resolution(16, 16).build()?;
//! let plan = CompiledPlan::compile(
//!     &Workload::ImageKernel { kernel: ImageKernel::SobelX },
//!     platform.config(),
//!     platform.config().seed,
//! )?;
//! assert_eq!(plan.label(), "kernel:sobel-x");
//! assert_eq!(plan.encoded_layer_count(), 1); // the 3x3 conv is pre-encoded
//! assert_eq!(plan.stats().encodes, 1);
//! # Ok(())
//! # }
//! ```

use crate::ca::CompressiveAcquisitor;
use crate::error::{CoreError, Result};
use crate::oc::PhotonicMacUnit;
use crate::platform::{ImageKernel, PlatformConfig, Workload};
use lightator_nn::layers::{Conv2d, LayerNode};
use lightator_nn::model::Sequential;
#[cfg(doc)]
use lightator_nn::quant::quantize_symmetric;
use lightator_nn::quant::PrecisionSchedule;
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::RowId;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The MR weight bank of one weighted layer as the weight SRAM holds it:
/// the signed `[W]`-bit quantization code of every weight, plus a table of
/// the ring transmission each code programs on each of the arm's 9 lanes.
/// The table is filled on the layer's first forward pass, by tuning one
/// ring per lane and code; every row load after that reads it, so no ring
/// is tuned per frame.
///
/// Encoding is input-independent, so a compiled plan encodes each layer
/// once and every frame streams through the shared encoding (the hardware
/// analogy: the weights are programmed once and light does the rest).
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedWeights {
    /// One code per weight, row after row: a row per output channel (conv)
    /// or output feature (linear). [`NO_CODE`] marks a NaN weight.
    codes: Vec<i8>,
    row_len: usize,
    /// Scale that maps the normalised optical sum back to weight units.
    pub(crate) weight_scale: f32,
    /// `2^(W−1) − 1`, the largest code magnitude.
    q_max: i8,
    /// The layer's position in its model, which with a row's index keys
    /// the weight errors of the row's rings (0 unless [`encode_model`]
    /// encoded it).
    layer: u64,
    /// The programmed transmissions of every lane and code, filled on the
    /// layer's first forward pass ([`EncodedWeights::programmed`]).
    table: Option<Transmissions>,
}

/// The code of a weight that has none: a NaN weight, which no ring holds.
const NO_CODE: i8 = i8::MIN;

/// The weight widths a layer's codes can hold: 2 bits give the one
/// positive level a signed weight needs, and the weight SRAM holds codes
/// of at most 8 bits.
pub(crate) const WEIGHT_BITS: std::ops::RangeInclusive<u8> = 2..=8;

impl EncodedWeights {
    /// Encodes `row_len`-element weight rows into `weight_bits`-bit codes,
    /// exactly as [`quantize_symmetric`] rounds them under `weight_scale`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a width outside 2–8 bits.
    pub fn new(
        weights: &[f32],
        row_len: usize,
        weight_scale: f32,
        weight_bits: u8,
    ) -> Result<Self> {
        check_weight_bits(weight_bits)?;
        let q_max = ((1u16 << (weight_bits - 1)) - 1) as i8;
        let levels = f32::from(q_max);
        let codes = weights
            .iter()
            .map(|&w| {
                if weight_scale == 0.0 {
                    return 0;
                }
                // `quantize_symmetric`'s rounding, kept as the integer code.
                let q = (w / weight_scale * levels).round().clamp(-levels, levels);
                if q.is_nan() {
                    NO_CODE
                } else {
                    q as i8
                }
            })
            .collect();
        Ok(Self {
            codes,
            row_len,
            weight_scale,
            q_max,
            layer: 0,
            table: None,
        })
    }

    /// Every weight's signed code, row after row; [`NO_CODE`] marks a NaN
    /// weight.
    #[cfg(test)]
    pub(crate) fn codes(&self) -> &[i8] {
        &self.codes
    }

    /// The normalised MR value `code` programs, in `[-1, 1]`: the weight
    /// [`quantize_symmetric`] returns for that code, over the scale. NaN
    /// for [`NO_CODE`], and for every code of a layer whose scale is
    /// infinite.
    pub(crate) fn weight(&self, code: i8) -> f64 {
        if code == NO_CODE {
            return f64::NAN;
        }
        if self.weight_scale == 0.0 {
            return 0.0;
        }
        let q = f32::from(code) / f32::from(self.q_max) * self.weight_scale;
        f64::from(q / self.weight_scale).clamp(-1.0, 1.0)
    }

    /// The scale mapping the normalised optical sum back to weight units.
    #[must_use]
    pub fn weight_scale(&self) -> f32 {
        self.weight_scale
    }

    /// The layer's rows as a row load reads them: the codes and the table
    /// of programmed transmissions, which the first call fills by tuning
    /// `unit`'s rings, one tuning per lane and code instead of one per
    /// weight per frame.
    pub(crate) fn programmed(&mut self, unit: &mut PhotonicMacUnit) -> Result<ProgrammedRows<'_>> {
        let table = match self.table.take() {
            Some(table) => table,
            None => {
                let weights: Vec<f64> = (-self.q_max..=self.q_max)
                    .map(|code| self.weight(code))
                    .collect();
                Transmissions {
                    entries: unit.tune(&weights)?,
                    lanes: unit.segment_length(),
                    q_max: self.q_max,
                }
            }
        };
        Ok(ProgrammedRows {
            codes: &self.codes,
            row_len: self.row_len,
            layer: self.layer,
            table: self.table.insert(table),
        })
    }
}

/// A weighted layer programmed onto the MAC units: its codes and its
/// filled [`Transmissions`] table.
pub(crate) struct ProgrammedRows<'a> {
    codes: &'a [i8],
    row_len: usize,
    layer: u64,
    /// The programmed transmission of every lane and code.
    pub(crate) table: &'a Transmissions,
}

/// One row of a programmed layer: its identity and its codes.
pub(crate) struct CodedRow<'a> {
    pub(crate) id: RowId,
    pub(crate) codes: &'a [i8],
}

impl ProgrammedRows<'_> {
    /// Row `row` (output channel or feature).
    pub(crate) fn row(&self, row: usize) -> CodedRow<'_> {
        CodedRow {
            id: RowId {
                layer: self.layer,
                row: row as u64,
            },
            codes: &self.codes[row * self.row_len..(row + 1) * self.row_len],
        }
    }
}

/// Rejects a weight width outside [`WEIGHT_BITS`].
pub(crate) fn check_weight_bits(bits: u8) -> Result<()> {
    if WEIGHT_BITS.contains(&bits) {
        return Ok(());
    }
    Err(CoreError::invalid_config(
        "weight_bits",
        f64::from(bits),
        format!(
            "weights need 2 to 8 bits on every layer (got {bits}): signed weights \
             quantize to 2^(bits-1) - 1 positive levels, none with 1 bit, and the \
             weight SRAM holds codes of at most 8 bits"
        ),
    ))
}

/// The signed transmission each lane's ring is programmed to for each code
/// of one weighted layer, as [`OpticalArm::lanes`] reports it: `0.0` for a
/// zero weight (a parked ring) and NaN for a weight no ring holds. Every
/// MAC unit has the paper's 9-lane ring, so any unit fills the same table.
///
/// [`OpticalArm::lanes`]: lightator_photonics::arm::OpticalArm::lanes
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Transmissions {
    /// Entry `(code + q_max) · lanes + lane`.
    entries: Vec<f64>,
    lanes: usize,
    q_max: i8,
}

impl Transmissions {
    /// The signed transmission lane `lane` is programmed to for `code`; NaN
    /// for a code outside the layer's width.
    pub(crate) fn get(&self, lane: usize, code: i8) -> f64 {
        let (code, q_max) = (i32::from(code), i32::from(self.q_max));
        if code.abs() > q_max || lane >= self.lanes {
            return f64::NAN;
        }
        let index = (code + q_max) as usize * self.lanes + lane;
        self.entries.get(index).copied().unwrap_or(f64::NAN)
    }
}

/// Encodes every weighted layer of `model` under `schedule`, indexed by
/// model layer position (`None` for unweighted layers).
///
/// This is the single weight-encoding pass: [`CompiledPlan::compile`] runs
/// it once and every frame streams through its result.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] for a weight width outside 2–8
/// bits.
pub fn encode_model(
    model: &Sequential,
    schedule: PrecisionSchedule,
) -> Result<Vec<Option<EncodedWeights>>> {
    let mut weighted_index = 0usize;
    (0u64..)
        .zip(model.layers())
        .map(|(position, layer)| {
            if !layer.is_weighted() {
                return Ok(None);
            }
            let precision = schedule.for_layer(weighted_index);
            weighted_index += 1;
            let encoded = match layer {
                LayerNode::Conv2d(conv) => {
                    let row_len = conv.in_channels() * conv.kernel() * conv.kernel();
                    EncodedWeights::new(
                        conv.weight().data(),
                        row_len,
                        conv.weight().max_abs(),
                        precision.weight_bits,
                    )
                    .map(Some)
                }
                LayerNode::Linear(linear) => EncodedWeights::new(
                    linear.weight().data(),
                    linear.in_features(),
                    linear.weight().max_abs(),
                    precision.weight_bits,
                )
                .map(Some),
                _ => unreachable!("is_weighted covers exactly conv and linear"),
            };
            Ok(encoded?.map(|weights| EncodedWeights {
                layer: position,
                ..weights
            }))
        })
        .collect()
}

/// Encode/reuse counters of one [`CompiledPlan`].
///
/// `encodes` counts weight-encoding passes (one per [`CompiledPlan::compile`]
/// call — a healthy steady state stays at 1 per session); `cache_hits`
/// counts executions served from the cached plan without recompiling — the
/// pre-encoded weight bank for weighted workloads, the cached CA operator
/// for acquisition-only plans (one hit per frame on the single/batched
/// paths, one per stream frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanStats {
    /// Weight-encoding passes performed for this plan.
    pub encodes: u64,
    /// Executions that reused the cached encoding.
    pub cache_hits: u64,
}

/// Reusable execution buffers. They grow to the widest row on a plan's
/// first frame and are reused after, so the steady-state path never
/// allocates.
#[derive(Debug, Clone, Default)]
pub(crate) struct PlanScratch {
    /// Quantized VCSEL drive codes of the current weighted layer's whole
    /// input, conv or linear, written once per layer; the MAC workers read
    /// it concurrently.
    pub(crate) a_norm: Vec<f64>,
    /// The current conv layer's [`PlanScratch::a_norm`] with a zero border
    /// of the conv's padding, from which every stride gathers its patch.
    pub(crate) padded: Vec<f64>,
    /// One conv patch buffer per MAC worker.
    pub(crate) workers: Vec<WorkerScratch>,
    /// Reusable `block+halo` tile tensors for the streaming path.
    pub(crate) tiles: Vec<Tensor>,
}

/// One MAC worker's conv buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct WorkerScratch {
    /// VCSEL drive codes of one convolution stride's patch, gathered from
    /// [`PlanScratch::padded`].
    pub(crate) a_norm: Vec<f64>,
}

/// A lowered, ready-to-run workload: CA operator, optical model, encoded
/// MR weight bank, resolved precision schedule and scratch buffers.
///
/// Compiled once (when a `Session` opens, or explicitly through
/// [`CompiledPlan::compile`]) and reused by every execution entry point.
/// See the [module docs](self) for the full contract.
#[derive(Debug, Clone)]
pub struct CompiledPlan {
    label: String,
    schedule: PrecisionSchedule,
    ca: Option<CompressiveAcquisitor>,
    /// The lowered optical model, `None` for acquisition-only plans.
    model: Option<Sequential>,
    /// The encoded MR weight bank, indexed by model layer position.
    encodings: Vec<Option<EncodedWeights>>,
    scratch: PlanScratch,
    stats: PlanStats,
}

impl CompiledPlan {
    /// Lowers `workload` on `config` into a ready-to-run plan.
    ///
    /// The lowering pass builds the CA operator, materialises the
    /// workload's optical model (cloning the classify network, or
    /// constructing the filter/tile convolution from the kernel
    /// coefficients), encodes every weighted layer's weight codes
    /// under the platform's precision schedule, and reserves the stream
    /// tile buffer. `seed` only seeds the RNG of freshly constructed
    /// layers whose weights are immediately overwritten, mirroring the
    /// session-opening behaviour.
    ///
    /// # Errors
    ///
    /// Propagates CA construction and model construction errors, and
    /// returns [`CoreError::InvalidConfig`] for a weight width outside 2–8
    /// bits.
    pub fn compile(workload: &Workload, config: &PlatformConfig, seed: u64) -> Result<Self> {
        let ca = config.ca.map(CompressiveAcquisitor::new).transpose()?;
        let acquired = config.acquired_shape();
        let model = match workload {
            Workload::Classify { model } => Some(model.clone()),
            Workload::Acquire => None,
            Workload::ImageKernel { kernel } => Some(build_filter_model(*kernel, acquired, seed)?),
            Workload::VideoStream { kernel, stream } => {
                Some(build_tile_model(*kernel, stream.block_size, seed)?)
            }
        };
        let encodings = model
            .as_ref()
            .map(|m| encode_model(m, config.schedule))
            .transpose()?
            .unwrap_or_default();
        let tiles = match workload {
            Workload::VideoStream { stream, .. } => {
                let blocks = (acquired[1] / stream.block_size.max(1))
                    * (acquired[2] / stream.block_size.max(1));
                Vec::with_capacity(blocks)
            }
            _ => Vec::new(),
        };
        Ok(Self {
            label: workload.label(),
            schedule: config.schedule,
            ca,
            model,
            encodings,
            scratch: PlanScratch {
                tiles,
                ..PlanScratch::default()
            },
            stats: PlanStats {
                encodes: 1,
                cache_hits: 0,
            },
        })
    }

    /// Label of the lowered workload (`classify`, `kernel:sobel-x`, ...).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The precision schedule the weight bank was encoded under.
    #[must_use]
    pub fn schedule(&self) -> PrecisionSchedule {
        self.schedule
    }

    /// The lowered CA operator, `None` when the platform bypasses CA.
    #[must_use]
    pub fn ca(&self) -> Option<&CompressiveAcquisitor> {
        self.ca.as_ref()
    }

    /// The lowered optical model, `None` for acquisition-only plans.
    #[must_use]
    pub fn model(&self) -> Option<&Sequential> {
        self.model.as_ref()
    }

    /// Number of weighted layers with a pre-encoded MR weight bank.
    #[must_use]
    pub fn encoded_layer_count(&self) -> usize {
        self.encodings.iter().flatten().count()
    }

    /// The encoded MR weight bank, indexed by model layer position.
    #[must_use]
    pub fn encodings(&self) -> &[Option<EncodedWeights>] {
        &self.encodings
    }

    /// Encode/reuse counters of this plan.
    #[must_use]
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Records `hits` executions served from the cached encoding.
    ///
    /// Public so out-of-crate [`crate::backend::LoweredPlan`]
    /// implementations (the electronic reference backend) can keep the
    /// reuse counters honest.
    pub fn record_hits(&mut self, hits: u64) {
        self.stats.cache_hits += hits;
    }

    /// Mutable access to the lowered model (out-of-crate backends execute
    /// it directly).
    pub fn model_mut(&mut self) -> Option<&mut Sequential> {
        self.model.as_mut()
    }

    /// Splits the plan into the disjoint parts one planned forward pass
    /// needs: the model, its encodings (whose tables the pass fills) and
    /// the scratch buffers.
    pub(crate) fn exec_parts_mut(
        &mut self,
    ) -> Option<(
        &mut Sequential,
        &mut [Option<EncodedWeights>],
        &mut PlanScratch,
    )> {
        let model = self.model.as_mut()?;
        Some((model, &mut self.encodings, &mut self.scratch))
    }

    /// Takes the reusable tile buffer out of the plan (the streaming path
    /// fills it, runs the planned frame batch, and returns it).
    pub(crate) fn take_tiles(&mut self) -> Vec<Tensor> {
        std::mem::take(&mut self.scratch.tiles)
    }

    /// Returns the tile buffer taken by [`CompiledPlan::take_tiles`].
    pub(crate) fn return_tiles(&mut self, tiles: Vec<Tensor>) {
        self.scratch.tiles = tiles;
    }
}

/// Builds the single-conv model that executes a 3×3 image kernel on the
/// optical core.
pub(crate) fn build_filter_model(
    kernel: ImageKernel,
    input_shape: [usize; 3],
    seed: u64,
) -> Result<Sequential> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng)?;
    conv.weight_mut()
        .data_mut()
        .copy_from_slice(&kernel.coefficients());
    conv.bias_mut().data_mut()[0] = 0.0;
    let mut model = Sequential::new(&input_shape);
    model.push(conv);
    Ok(model)
}

/// Builds the per-block tile model of a stream session: a 3×3 kernel with
/// padding 0 over a `block+halo` tile, so its output is exactly the block.
pub(crate) fn build_tile_model(
    kernel: ImageKernel,
    block_size: usize,
    seed: u64,
) -> Result<Sequential> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut conv = Conv2d::new(1, 1, 3, 1, 0, &mut rng)?;
    conv.weight_mut()
        .data_mut()
        .copy_from_slice(&kernel.coefficients());
    conv.bias_mut().data_mut()[0] = 0.0;
    let edge = block_size + 2;
    let mut model = Sequential::new(&[1, edge, edge]);
    model.push(conv);
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::Platform;
    use crate::stream::StreamConfig;
    use lightator_nn::layers::{Activation, Flatten, Linear};
    use lightator_nn::quant::Precision;

    fn paper_config() -> PlatformConfig {
        Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform")
            .config()
            .clone()
    }

    #[test]
    fn acquire_plans_carry_the_ca_but_no_model() {
        let config = paper_config();
        let plan = CompiledPlan::compile(&Workload::Acquire, &config, config.seed).expect("plan");
        assert!(plan.ca().is_some());
        assert!(plan.model().is_none());
        assert_eq!(plan.encoded_layer_count(), 0);
        assert_eq!(plan.stats().encodes, 1);
        assert_eq!(plan.stats().cache_hits, 0);
    }

    #[test]
    fn kernel_plans_encode_the_filter_conv() {
        let config = paper_config();
        let plan = CompiledPlan::compile(
            &Workload::ImageKernel {
                kernel: ImageKernel::Laplacian,
            },
            &config,
            config.seed,
        )
        .expect("plan");
        let model = plan.model().expect("filter model");
        assert_eq!(model.input_shape(), &[1, 8, 8]);
        assert_eq!(plan.encoded_layer_count(), 1);
        let encoded = plan.encodings()[0].as_ref().expect("conv encoding");
        // One row of 9 codes.
        assert_eq!((encoded.codes().len(), encoded.row_len), (9, 9));
        // Every MR value sits in the transmission range.
        assert!(encoded
            .codes()
            .iter()
            .all(|&code| (-1.0..=1.0).contains(&encoded.weight(code))));
    }

    #[test]
    fn stream_plans_lower_the_tile_conv_and_reserve_tile_buffers() {
        let config = paper_config();
        let plan = CompiledPlan::compile(
            &Workload::VideoStream {
                kernel: ImageKernel::SobelY,
                stream: StreamConfig {
                    block_size: 2,
                    delta_threshold: 0.05,
                },
            },
            &config,
            config.seed,
        )
        .expect("plan");
        // Tile conv runs on block+halo.
        assert_eq!(plan.model().expect("tile model").input_shape(), &[1, 4, 4]);
        // 8x8 acquired map in 2x2 blocks -> 16 tile slots reserved.
        assert!(plan.scratch.tiles.capacity() >= 16);
    }

    #[test]
    fn classify_plans_encode_every_weighted_layer() {
        let config = paper_config();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = Sequential::new(&[1, 8, 8]);
        model.push(Flatten::new());
        model.push(Linear::new(64, 12, &mut rng).expect("ok"));
        model.push(Activation::relu());
        model.push(Linear::new(12, 3, &mut rng).expect("ok"));
        let plan = CompiledPlan::compile(&Workload::Classify { model }, &config, config.seed)
            .expect("plan");
        assert_eq!(plan.encoded_layer_count(), 2);
        assert_eq!(plan.schedule(), config.schedule);
    }

    #[test]
    fn encode_model_matches_the_schedule_per_layer() {
        let mut rng = SmallRng::seed_from_u64(9);
        let mut model = Sequential::new(&[1, 4, 4]);
        model.push(Conv2d::new(1, 2, 3, 1, 1, &mut rng).expect("conv"));
        model.push(Activation::relu());
        model.push(Flatten::new());
        model.push(Linear::new(32, 3, &mut rng).expect("linear"));
        let mixed = PrecisionSchedule::Mixed {
            first: Precision::w4a4(),
            rest: Precision::w2a4(),
        };
        let encodings = encode_model(&model, mixed).expect("widths in range");
        assert_eq!(encodings.len(), 4);
        assert!(encodings[0].is_some());
        assert!(encodings[1].is_none());
        assert!(encodings[2].is_none());
        assert!(encodings[3].is_some());
        // Each layer's codes span its own width: up to ±7 at 4 bits, ±1 at
        // 2 bits, and the largest weight reaches the top code.
        let largest = |e: &EncodedWeights| e.codes().iter().map(|c| c.unsigned_abs()).max();
        let first = encodings[0].as_ref().expect("conv encoding");
        let rest = encodings[3].as_ref().expect("linear encoding");
        assert_eq!(largest(first), Some(7));
        assert_eq!(largest(rest), Some(1));
    }

    /// The codes program exactly the MR values the old `f64` rows held:
    /// `quantize_symmetric` over the scale, clamped to `[-1, 1]`, for every
    /// width and a weight on every code, with zero and extreme scales.
    #[test]
    fn codes_decode_to_the_quantized_weights() {
        use lightator_nn::quant::quantize_symmetric;
        for bits in WEIGHT_BITS {
            let levels = (1u32 << (bits - 1)) - 1;
            for scale in [1.0f32, 0.37, 3e-39, 0.0] {
                let weights: Vec<f32> = (0..=4 * levels)
                    .map(|i| (i as f32 / (2 * levels) as f32 - 1.0) * scale)
                    .chain([scale, -scale, 0.3 * scale, -0.0])
                    .collect();
                let encoded = EncodedWeights::new(&weights, weights.len(), scale, bits)
                    .expect("width in range");
                for (&w, &code) in weights.iter().zip(encoded.codes()) {
                    let got = encoded.weight(code);
                    let q = quantize_symmetric(w, scale, bits);
                    let want = if scale == 0.0 {
                        0.0
                    } else {
                        f64::from(q / scale).clamp(-1.0, 1.0)
                    };
                    // Zero codes carry no sign: both zeros park the ring.
                    assert_eq!(
                        got.to_bits(),
                        (want + 0.0).to_bits(),
                        "{bits} bits, {w}/{scale}"
                    );
                }
            }
        }
    }

    /// A NaN weight has no code and decodes to NaN, and an infinite weight
    /// makes the scale infinite, so every weight of its layer decodes to
    /// NaN: as with the old rows, no ring holds them.
    #[test]
    fn non_finite_weights_decode_to_nan() {
        let encoded = EncodedWeights::new(&[0.5, f32::NAN, -1.0], 3, 1.0, 4).expect("4 bits");
        let row: Vec<f64> = encoded.codes().iter().map(|&c| encoded.weight(c)).collect();
        assert_eq!(encoded.codes(), &[4, i8::MIN, -7]);
        assert!(row[1].is_nan() && !row[0].is_nan() && !row[2].is_nan());
        let infinite =
            EncodedWeights::new(&[0.5, f32::INFINITY], 2, f32::INFINITY, 4).expect("4 bits");
        assert!(infinite
            .codes()
            .iter()
            .all(|&c| infinite.weight(c).is_nan()));
    }

    /// Widths outside 2..=8 fail the encoding with `InvalidConfig` instead
    /// of wrapping the code range or overflowing a shift.
    #[test]
    fn encoding_rejects_widths_it_cannot_hold() {
        for bits in (0..=255u8).filter(|bits| !WEIGHT_BITS.contains(bits)) {
            assert!(matches!(
                EncodedWeights::new(&[0.5, -0.25], 2, 0.5, bits),
                Err(CoreError::InvalidConfig {
                    name: "weight_bits",
                    ..
                })
            ));
        }
    }

    #[test]
    fn lowering_runs_the_platform_worker_count() {
        use crate::backend::{Backend, PhotonicBackend};
        // Tiling is bit-exact, so outputs cannot show the worker count;
        // `run_tiled` grows one scratch buffer per worker it runs. 3 is
        // neither the plain default nor a `LIGHTATOR_DEFAULT_WORKERS` value
        // CI uses.
        let config = Platform::builder()
            .sensor_resolution(16, 16)
            .workers(3)
            .build()
            .expect("platform")
            .config()
            .clone();
        let workload = Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        };
        let mut lowered = PhotonicBackend::new()
            .lower(&workload, &config, config.seed)
            .expect("lowered");
        lowered
            .forward(&Tensor::zeros(&config.acquired_shape()))
            .expect("forward");
        assert_eq!(lowered.plan().scratch.workers.len(), 3);
    }
}
