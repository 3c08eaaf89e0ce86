//! Functional photonic execution of compiled plans.
//!
//! The All-in-One Convolver evaluates every weighted layer as optical dot
//! products: weights sit in MR transmissions, activations arrive as VCSEL
//! intensities, and partial sums are combined by the balanced detectors and
//! the summation tree. This module streams inputs through a
//! [`CompiledPlan`]'s pre-encoded MR weight bank on that analog datapath —
//! quantizing activations to the `[W:A]` configuration and drawing the
//! analog non-idealities — so the inference accuracy of Table 1 can be
//! measured. Every conv and linear layer runs through one tiled MAC-loop
//! driver; one worker runs it inline, several split it into chunks.
//!
//! The weight bank is programmed once per session: a layer's row load
//! reads each lane's programmed transmission from the plan's table
//! ([`EncodedWeights`]), so no ring is tuned per frame, and each layer's
//! quantized input is range-checked once, not once per MAC. A row is
//! loaded under its identity, its layer's position in the model and its
//! output channel or feature, so its rings' weight errors are the same
//! whichever worker, chunk or stream tile loads it in a frame.
//!
//! A conv layer copies its quantized input once into a plane with a zero
//! border as wide as the conv's padding, so each stride's patch is
//! `in_c·k` runs of `k` contiguous codes of that plane, copied whole, with
//! no bounds test per code.

use crate::error::{CoreError, Result};
use crate::oc::{check_activations, PhotonicMacUnit};
use crate::plan::{check_weight_bits, CompiledPlan, EncodedWeights, PlanScratch, WorkerScratch};
use lightator_nn::layers::{Conv2d, LayerNode, Linear};
use lightator_nn::quant::{quantize_unsigned, Precision, PrecisionSchedule};
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::PhotonicsError;
use serde::{Deserialize, Serialize};

/// Result of evaluating a model photonically on a dataset split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhotonicAccuracy {
    /// Top-1 accuracy through the photonic datapath.
    pub photonic: f64,
    /// Top-1 accuracy of the same (quantized) model evaluated digitally.
    pub digital: f64,
    /// Number of test samples evaluated.
    pub samples: usize,
}

/// Executes compiled plans on the photonic datapath.
///
/// Every frame draws its analog noise from an independent stream derived
/// from `(seed, frame index)`; the executor assigns indices sequentially and
/// [`PhotonicExecutor::set_next_frame_index`] repositions the stream, so a
/// pool of executors can reproduce a single sequential executor bit for bit
/// by agreeing on the global frame order.
#[derive(Debug, Clone)]
pub struct PhotonicExecutor {
    mac_unit: PhotonicMacUnit,
    schedule: PrecisionSchedule,
    next_frame: u64,
    workers: usize,
}

/// Largest intra-session worker count. Every conv and linear layer starts
/// one scoped thread per worker (up to its output count), so the bound keeps
/// a frame from asking the host for more threads than it can start;
/// nothing in this workspace uses more than 8.
pub const MAX_WORKERS: usize = 256;

/// The default intra-session worker count: the value of the
/// `LIGHTATOR_DEFAULT_WORKERS` environment variable when it is an integer
/// from 1 to [`MAX_WORKERS`], otherwise 1 (sequential execution).
///
/// Worker tiling is bit-exact — the counter-based noise streams key every
/// draw by `(seed, frame, channel, element)`, not by evaluation order — so
/// this default only affects wall-clock speed, never results. CI uses the
/// variable to run the whole test suite through the tiled path.
#[must_use]
pub fn default_workers() -> usize {
    std::env::var("LIGHTATOR_DEFAULT_WORKERS")
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .filter(|workers| (1..=MAX_WORKERS).contains(workers))
        .unwrap_or(1)
}

/// The activation widths a layer input quantizes to, those
/// [`Precision::new`] accepts.
pub(crate) const ACTIVATION_BITS: std::ops::RangeInclusive<u8> = 1..=8;

/// Rejects a schedule with a weight width outside
/// [`crate::plan::WEIGHT_BITS`] or an activation width outside
/// [`ACTIVATION_BITS`] on some layer.
pub(crate) fn check_schedule(schedule: PrecisionSchedule) -> Result<()> {
    // Layer 0 carries a mixed schedule's `first` precision and layer 1 its
    // `rest`; a uniform schedule has one precision for both.
    for layer in 0..2 {
        let Precision {
            weight_bits,
            activation_bits,
        } = schedule.for_layer(layer);
        check_weight_bits(weight_bits)?;
        if !ACTIVATION_BITS.contains(&activation_bits) {
            return Err(CoreError::invalid_config(
                "activation_bits",
                f64::from(activation_bits),
                format!(
                    "activations need 1 to 8 bits on every layer (got {activation_bits}): \
                     the VCSEL drive codes of schedule {} would not fit",
                    schedule.label()
                ),
            ));
        }
    }
    Ok(())
}

/// Quantizes a whole layer input into `[0, 1]` VCSEL drive codes, once
/// per layer, writing into a reusable buffer. The activation scale is the
/// input's largest non-negative value; it is returned with the codes. This
/// is the single definition of the activation encoding.
///
/// # Errors
///
/// Returns [`PhotonicsError::ActivationOutOfRange`] if the input holds a
/// NaN, or a `+∞` (which makes every code NaN): light intensities lie in
/// `[0, 1]`, and this is the one check of the layer's codes, so the MAC
/// loop checks none.
fn quantize_layer_input<'a>(
    input: &Tensor,
    activation_bits: u8,
    codes: &'a mut Vec<f64>,
) -> Result<(&'a [f64], f32)> {
    let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
    codes.resize(input.data().len(), 0.0);
    for (slot, &a) in codes.iter_mut().zip(input.data()) {
        let q = quantize_unsigned(a.max(0.0), activation_scale, activation_bits);
        *slot = if activation_scale == 0.0 {
            0.0
        } else {
            f64::from(q / activation_scale).clamp(0.0, 1.0)
        };
    }
    check_activations(codes)?;
    // `f32::max` reads a NaN as 0, so a NaN input leaves an in-range code.
    if let Some(&a) = input.data().iter().find(|a| a.is_nan()) {
        return Err(CoreError::Photonics(PhotonicsError::ActivationOutOfRange {
            activation: f64::from(a),
        }));
    }
    Ok((codes, activation_scale))
}

/// Validates one input: the plan must carry an optical model and the input
/// must match its shape.
fn check_plan_input(plan: &CompiledPlan, input: &Tensor) -> Result<()> {
    let Some(model) = plan.model() else {
        return Err(CoreError::ModelMismatch {
            reason: format!(
                "plan `{}` lowers an acquisition-only workload and has no \
                 optical model to execute",
                plan.label()
            ),
        });
    };
    if input.shape() != model.input_shape() {
        return Err(CoreError::ModelMismatch {
            reason: format!(
                "input shape {:?} does not match the model's {:?}",
                input.shape(),
                model.input_shape()
            ),
        });
    }
    Ok(())
}

/// Copies a layer's quantized input plane, `in_c` channels of
/// `in_h × in_w` codes, into `padded` with a zero border `padding` codes
/// wide, and returns the padded channels' height and width. The border
/// reads `0.0`, exactly what quantizing a zero activation gives, so every
/// stride's patch is whole runs of the padded plane.
fn pad_plane(
    plane: &[f64],
    (in_c, in_h, in_w): (usize, usize, usize),
    padding: usize,
    padded: &mut Vec<f64>,
) -> (usize, usize) {
    let (height, width) = (in_h + 2 * padding, in_w + 2 * padding);
    padded.clear();
    padded.resize(in_c * height * width, 0.0);
    for ic in 0..in_c {
        for ih in 0..in_h {
            let at = (ic * height + padding + ih) * width + padding;
            padded[at..at + in_w].copy_from_slice(&plane[(ic * in_h + ih) * in_w..][..in_w]);
        }
    }
    (height, width)
}

impl PhotonicExecutor {
    /// Creates an executor with the given precision schedule and analog
    /// noise configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a weight or activation
    /// width the datapath does not hold, and [`CoreError::Photonics`] if
    /// the arm configuration is invalid.
    pub fn new(schedule: PrecisionSchedule, noise: NoiseConfig, seed: u64) -> Result<Self> {
        check_schedule(schedule)?;
        Ok(Self {
            mac_unit: PhotonicMacUnit::new(noise, seed)?,
            schedule,
            next_frame: 0,
            workers: default_workers(),
        })
    }

    /// Number of worker threads the hot MAC loops tile across
    /// (1 = sequential).
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Sets the intra-session worker count. Tiling is bit-exact for any
    /// worker count (draws are keyed, not streamed), so this knob trades
    /// wall-clock time only. The count is clamped to `1..=`[`MAX_WORKERS`].
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.clamp(1, MAX_WORKERS);
    }

    /// The precision schedule in use.
    #[must_use]
    pub fn schedule(&self) -> PrecisionSchedule {
        self.schedule
    }

    /// Index of the frame the next forward pass will execute as.
    #[must_use]
    pub fn next_frame_index(&self) -> u64 {
        self.next_frame
    }

    /// Positions the executor at global frame `index`: the next forward pass
    /// draws the analog-noise stream of that frame and subsequent frames
    /// follow sequentially.
    pub fn set_next_frame_index(&mut self, index: u64) {
        self.next_frame = index;
    }

    /// Opens the noise stream of the current frame and advances the counter.
    ///
    /// The counter saturates at `u64::MAX` instead of wrapping: an executor
    /// driven past the last representable frame index keeps replaying the
    /// `u64::MAX` stream rather than silently replaying frame 0's noise
    /// (or panicking in debug builds).
    fn begin_frame(&mut self) {
        self.mac_unit.begin_frame(self.next_frame);
        self.next_frame = self.next_frame.saturating_add(1);
    }

    /// Runs one input through a [`CompiledPlan`] as one frame: every
    /// weighted layer streams against the plan's encoded MR weight bank on
    /// the photonic MAC unit, unweighted layers run digitally, and the
    /// plan's scratch buffers serve every stride.
    ///
    /// Activations are clamped to the non-negative range before being encoded
    /// as light intensities (Lightator encodes activations as unsigned VCSEL
    /// drive codes; ReLU networks satisfy this naturally).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelMismatch`] for acquisition-only plans
    /// (no optical model) or a mismatched input shape, without consuming a
    /// frame index, and propagates photonic errors.
    pub fn forward(&mut self, plan: &mut CompiledPlan, input: &Tensor) -> Result<Tensor> {
        check_plan_input(plan, input)?;
        self.begin_frame();
        plan.record_hits(1);
        self.forward_in_frame(plan, input)
    }

    /// Runs several inputs through a [`CompiledPlan`] **within one frame's
    /// noise stream**: the frame counter advances exactly once and the
    /// inputs consume the frame's analog-noise draws in order.
    ///
    /// This is the primitive behind the frame-delta streaming path, where
    /// one video frame decomposes into a variable number of block tiles:
    /// however many tiles a frame computes, the frame occupies exactly one
    /// position in the noise stream, so a replay that recomputes the same
    /// tiles reproduces the same bits. An empty `inputs` slice still
    /// consumes the frame index (a fully-skipped frame is still a frame).
    ///
    /// # Errors
    ///
    /// Same as [`PhotonicExecutor::forward`], checked per input.
    pub fn forward_frame_batch(
        &mut self,
        plan: &mut CompiledPlan,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        self.begin_frame();
        plan.record_hits(1);
        inputs
            .iter()
            .map(|input| {
                check_plan_input(plan, input)?;
                self.forward_in_frame(plan, input)
            })
            .collect()
    }

    /// One forward pass through the plan's cached encodings *inside the
    /// already open frame*.
    fn forward_in_frame(&mut self, plan: &mut CompiledPlan, input: &Tensor) -> Result<Tensor> {
        let (model, encodings, scratch) =
            plan.exec_parts_mut()
                .ok_or_else(|| CoreError::ModelMismatch {
                    reason: "plan lost its execution parts (check_plan_input admits only \
                         model-carrying plans)"
                        .to_string(),
                })?;
        let mut value = input.clone();
        let mut weighted_index = 0usize;
        for (layer_index, encoding) in encodings.iter_mut().enumerate() {
            value = match (&model.layers()[layer_index], encoding) {
                (LayerNode::Conv2d(conv), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.conv_forward(conv, encoded, scratch, &value, precision)?
                }
                (LayerNode::Linear(linear), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.linear_forward(linear, encoded, scratch, &value, precision)?
                }
                _ => model.layers_mut()[layer_index].forward(&value)?,
            };
        }
        Ok(value)
    }

    /// Every conv runs weight-stationary: each output channel's row is
    /// loaded once per chunk from the layer's transmission table, and every
    /// stride streams against it. The input is quantized once per layer and
    /// copied once into a zero-bordered plane, which every worker reads;
    /// each stride gathers its drive codes as `in_c·k` runs of `k`
    /// contiguous codes of that plane, in the order of the weight rows
    /// (channel-major, then kernel rows).
    fn conv_forward(
        &mut self,
        conv: &Conv2d,
        encoded: &mut EncodedWeights,
        scratch: &mut PlanScratch,
        input: &Tensor,
        precision: Precision,
    ) -> Result<Tensor> {
        let out_shape = conv.output_shape(input.shape())?;
        let (oh_n, ow_n) = (out_shape[1], out_shape[2]);
        let (in_c, in_h, in_w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let k = conv.kernel();
        let (stride, padding) = (conv.stride(), conv.padding());
        let PlanScratch {
            a_norm,
            padded,
            workers,
            ..
        } = scratch;
        let (plane, activation_scale) =
            quantize_layer_input(input, precision.activation_bits, a_norm)?;
        let (height, width) = pad_plane(plane, (in_c, in_h, in_w), padding, padded);
        let padded = &padded[..];
        let (weight_scale, activation_scale) =
            (f64::from(encoded.weight_scale), f64::from(activation_scale));
        let row_len = in_c * k * k;
        let calls_per_item = row_len.div_ceil(self.mac_unit.segment_length()) as u64;
        let (rows, bias) = (encoded.programmed(&mut self.mac_unit)?, conv.bias().data());
        let stride_span = oh_n * ow_n;
        let mut out = Tensor::zeros(&out_shape);
        self.run_tiled(
            out.data_mut(),
            calls_per_item,
            workers,
            |unit, buffers, start, out_chunk| {
                buffers.a_norm.resize(row_len, 0.0);
                let patch = &mut buffers.a_norm[..];
                // Walk (oc, oh, ow) from the chunk's first output, loading
                // the row whenever the walk enters a new output channel.
                let (mut oc, rest) = (start / stride_span, start % stride_span);
                let (mut oh, mut ow) = (rest / ow_n, rest % ow_n);
                let mut loaded = usize::MAX;
                for slot in out_chunk.iter_mut() {
                    if oc != loaded {
                        unit.load_coded_row(rows.row(oc), rows.table)?;
                        loaded = oc;
                    }
                    // Run ic·k + kh of the patch is row oh·stride + kh of
                    // channel ic, from column ow·stride.
                    let corner = oh * stride * width + ow * stride;
                    let mut runs = patch.chunks_exact_mut(k);
                    for channel in padded.chunks_exact(height * width) {
                        for (run, row) in runs.by_ref().take(k).zip(channel[corner..].chunks(width))
                        {
                            run.copy_from_slice(&row[..k]);
                        }
                    }
                    let normalized = unit.mac_row(patch);
                    let value = normalized * weight_scale * activation_scale;
                    *slot = value as f32 + bias[oc];
                    ow += 1;
                    if ow == ow_n {
                        (ow, oh) = (0, oh + 1);
                    }
                    if oh == oh_n {
                        (oh, oc) = (0, oc + 1);
                    }
                }
                Ok(())
            },
        )?;
        Ok(out)
    }

    /// Every linear layer runs one output feature per row load, each read
    /// from the layer's transmission table, against the one quantized input.
    fn linear_forward(
        &mut self,
        linear: &Linear,
        encoded: &mut EncodedWeights,
        scratch: &mut PlanScratch,
        input: &Tensor,
        precision: Precision,
    ) -> Result<Tensor> {
        linear.output_shape(input.shape())?;
        // The activation vector is the same for every output row.
        let PlanScratch {
            a_norm, workers, ..
        } = scratch;
        let (a_norm, activation_scale) =
            quantize_layer_input(input, precision.activation_bits, a_norm)?;
        let scale = f64::from(encoded.weight_scale) * f64::from(activation_scale);
        let calls_per_item = a_norm.len().div_ceil(self.mac_unit.segment_length()) as u64;
        let (rows, bias) = (
            encoded.programmed(&mut self.mac_unit)?,
            linear.bias().data(),
        );
        let mut out = Tensor::zeros(&[linear.out_features()]);
        self.run_tiled(
            out.data_mut(),
            calls_per_item,
            workers,
            |unit, _, start, out_chunk| {
                for (slot, o) in out_chunk.iter_mut().zip(start..) {
                    unit.load_coded_row(rows.row(o), rows.table)?;
                    let normalized = unit.mac_row(a_norm);
                    *slot = (normalized * scale) as f32 + bias[o];
                }
                Ok(())
            },
        )?;
        Ok(out)
    }

    /// The one MAC-loop driver: `body(unit, buffers, start, chunk)` fills
    /// `chunk`, the outputs `start..start + chunk.len()` of a layer whose
    /// every output costs `calls_per_item` MAC calls.
    ///
    /// With one worker the single chunk runs inline on the executor's own
    /// MAC unit. With more, the outputs split into one chunk per worker,
    /// each run on a clone of the unit positioned at cursor
    /// `layer_base + start·calls_per_item`. MAC call `j` of a layer draws
    /// its noise purely from cursor `layer_base + j`, so every worker count
    /// reproduces the sequential bits.
    fn run_tiled<F>(
        &mut self,
        out: &mut [f32],
        calls_per_item: u64,
        buffers: &mut Vec<WorkerScratch>,
        body: F,
    ) -> Result<()>
    where
        F: Fn(&mut PhotonicMacUnit, &mut WorkerScratch, usize, &mut [f32]) -> Result<()> + Sync,
    {
        let workers = self.workers.min(out.len()).max(1);
        if buffers.len() < workers {
            buffers.resize_with(workers, WorkerScratch::default);
        }
        if workers == 1 {
            return body(&mut self.mac_unit, &mut buffers[0], 0, out);
        }
        let layer_base = self.mac_unit.mac_cursor();
        let items = out.len();
        let chunk = items.div_ceil(workers);
        let (unit, body) = (&self.mac_unit, &body);
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = out
                .chunks_mut(chunk)
                .zip(buffers.iter_mut())
                .enumerate()
                .map(|(worker, (out_chunk, buffers))| {
                    let start = worker * chunk;
                    let mut worker_unit = unit.clone();
                    worker_unit.set_mac_cursor(layer_base + start as u64 * calls_per_item);
                    scope.spawn(move || body(&mut worker_unit, buffers, start, out_chunk))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| {
                    handle.join().unwrap_or_else(|_| {
                        Err(CoreError::ModelMismatch {
                            reason: "a tiled MAC-loop worker panicked".to_string(),
                        })
                    })
                })
                .collect()
        });
        results.into_iter().collect::<Result<()>>()?;
        // The executor's unit takes over at the end of the layer's cursor
        // range, exactly where a sequential walk would have landed.
        self.mac_unit
            .set_mac_cursor(layer_base + items as u64 * calls_per_item);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{Platform, Workload};
    use lightator_nn::datasets::{generate, Dataset, SyntheticConfig};
    use lightator_nn::model::Sequential;
    use lightator_nn::models::build_mlp;
    use lightator_nn::quant::quantize_model_weights;
    use lightator_nn::train::{evaluate, train, TrainConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trained_setup() -> (Sequential, Dataset) {
        let mut rng = SmallRng::seed_from_u64(77);
        let dataset = generate("tiny", SyntheticConfig::tiny(3), &mut rng).expect("ok");
        let mut model = build_mlp(&dataset.input_shape(), 3, 24, &mut rng).expect("ok");
        train(
            &mut model,
            &dataset,
            TrainConfig {
                epochs: 8,
                ..TrainConfig::default()
            },
        )
        .expect("ok");
        (model, dataset)
    }

    /// Compiles `model` into a classify plan encoded under `schedule`.
    fn compile(model: &Sequential, schedule: PrecisionSchedule) -> CompiledPlan {
        let platform = Platform::builder()
            .precision(schedule)
            .build()
            .expect("platform");
        let workload = Workload::Classify {
            model: model.clone(),
        };
        CompiledPlan::compile(&workload, platform.config(), 0).expect("plan")
    }

    fn test_inputs(dataset: &Dataset, count: usize) -> Vec<Tensor> {
        dataset
            .test()
            .iter()
            .take(count)
            .map(|s| s.input.clone())
            .collect()
    }

    #[test]
    fn photonic_forward_matches_digital_argmax_for_ideal_optics() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let mut plan = compile(&model, schedule);
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 1).expect("ok");
        let mut agree = 0usize;
        let n = 6;
        for sample in dataset.test().iter().take(n) {
            let photonic = executor.forward(&mut plan, &sample.input).expect("ok");
            let digital = model.predict(&sample.input).expect("ok");
            if photonic.argmax() == Some(digital) {
                agree += 1;
            }
        }
        assert!(
            agree >= n - 1,
            "photonic and digital agreed on only {agree}/{n}"
        );
    }

    #[test]
    fn photonic_accuracy_close_to_digital_accuracy() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let digital = evaluate(&mut model, &dataset).expect("ok");
        let mut session = Platform::builder()
            .precision(schedule)
            .noise(NoiseConfig::default())
            .seed(3)
            .build()
            .expect("platform")
            .session(Workload::Classify { model })
            .expect("session");
        let result = session.evaluate(&dataset, 8).expect("ok");
        assert!(result.samples == 8);
        assert!(
            result.photonic >= digital - 0.4,
            "photonic {} vs digital {digital}",
            result.photonic
        );
    }

    #[test]
    fn frame_indexed_noise_reproduces_any_position_in_the_stream() {
        // A second executor positioned at frame 2 must reproduce exactly
        // what the first executor produced for its third frame, without
        // replaying frames 0 and 1 — the property pooled serving relies on.
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let mut plan = compile(&model, schedule);
        let inputs = test_inputs(&dataset, 3);

        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 11).expect("ok");
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| sequential.forward(&mut plan, input).expect("ok"))
            .collect();
        assert_eq!(sequential.next_frame_index(), 3);

        let mut seeked = PhotonicExecutor::new(schedule, NoiseConfig::default(), 11).expect("ok");
        seeked.set_next_frame_index(2);
        let got = seeked.forward(&mut plan, &inputs[2]).expect("ok");
        assert_eq!(expected[2].data(), got.data(), "seeked frame diverged");
    }

    #[test]
    fn forward_frame_batch_consumes_one_index_and_replays_bit_exactly() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let mut plan = compile(&model, schedule);
        let inputs = test_inputs(&dataset, 3);

        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::default(), 13).expect("ok");
        let expected = executor
            .forward_frame_batch(&mut plan, &inputs)
            .expect("ok");
        assert_eq!(
            executor.next_frame_index(),
            1,
            "N in-frame inputs consume exactly one frame index"
        );

        // An executor seeked to the same frame reproduces every tile.
        let mut replay = PhotonicExecutor::new(schedule, NoiseConfig::default(), 13).expect("ok");
        replay.set_next_frame_index(0);
        let got = replay.forward_frame_batch(&mut plan, &inputs).expect("ok");
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.data(), b.data(), "in-frame replay diverged");
        }

        // An empty frame still consumes its index.
        let before = replay.next_frame_index();
        assert!(replay
            .forward_frame_batch(&mut plan, &[])
            .expect("ok")
            .is_empty());
        assert_eq!(replay.next_frame_index(), before + 1);
    }

    #[test]
    fn frame_counter_saturates_at_u64_max() {
        // Regression: `next_frame += 1` past u64::MAX panicked in debug and
        // wrapped to frame 0 (replaying frame 0's noise) in release. The
        // counter now saturates: the executor keeps replaying the u64::MAX
        // stream instead of silently rewinding.
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let mut plan = compile(&model, schedule);
        let input = &dataset.test()[0].input;
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::default(), 21).expect("ok");
        executor.set_next_frame_index(u64::MAX);
        let last = executor.forward(&mut plan, input).expect("ok");
        assert_eq!(executor.next_frame_index(), u64::MAX);
        let saturated = executor.forward(&mut plan, input).expect("ok");
        assert_eq!(
            last.data(),
            saturated.data(),
            "a saturated counter replays the u64::MAX stream"
        );
        // ... and that stream is NOT frame 0's (no wrap-around replay).
        let mut fresh = PhotonicExecutor::new(schedule, NoiseConfig::default(), 21).expect("ok");
        let frame0 = fresh.forward(&mut plan, input).expect("ok");
        assert_ne!(
            last.data(),
            frame0.data(),
            "the saturated stream must not replay frame 0"
        );
    }

    #[test]
    fn worker_tiling_is_bit_exact_for_any_worker_count() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let mut plan = compile(&model, schedule);
        let inputs = test_inputs(&dataset, 3);

        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 31).expect("ok");
        sequential.set_workers(1);
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| sequential.forward(&mut plan, input).expect("ok"))
            .collect();

        for workers in [2usize, 4, 8] {
            let mut tiled =
                PhotonicExecutor::new(schedule, NoiseConfig::default(), 31).expect("ok");
            tiled.set_workers(workers);
            assert_eq!(tiled.workers(), workers);
            for (input, expected) in inputs.iter().zip(&expected) {
                let got = tiled.forward(&mut plan, input).expect("ok");
                assert_eq!(
                    expected.data(),
                    got.data(),
                    "{workers}-worker tiling diverged from sequential"
                );
            }
        }
    }

    /// A layer input holding `+∞` (which turns every drive code NaN) or
    /// NaN (which `f32::max` reads as dark) fails the per-plane check with
    /// `ActivationOutOfRange`, through the executor and the lowered plan,
    /// at 1 and 4 workers.
    #[test]
    fn non_finite_layer_inputs_fail_the_plane_check() {
        use crate::backend::{Backend, PhotonicBackend};
        use crate::platform::ImageKernel;
        let mut rng = SmallRng::seed_from_u64(4);
        let model = build_mlp(&[1, 4, 4], 3, 8, &mut rng).expect("mlp");
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        let out_of_range = |result: Result<Tensor>| {
            matches!(
                result,
                Err(CoreError::Photonics(
                    PhotonicsError::ActivationOutOfRange { .. }
                ))
            )
        };
        for workers in [1, 4] {
            let config = Platform::builder()
                .sensor_resolution(16, 16)
                .workers(workers)
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
            let mut plan = compile(&model, schedule);
            let mut executor =
                PhotonicExecutor::new(schedule, NoiseConfig::default(), 2).expect("ok");
            executor.set_workers(workers);
            for bad in [f32::INFINITY, f32::NAN] {
                let mut input = Tensor::zeros(&config.acquired_shape());
                input.data_mut()[5] = bad;
                assert!(
                    out_of_range(lowered.forward(&input)),
                    "{workers} workers, {bad}"
                );
                let mut input = Tensor::zeros(&[1, 4, 4]);
                input.data_mut()[3] = bad;
                assert!(
                    out_of_range(executor.forward(&mut plan, &input)),
                    "{workers} workers, {bad}"
                );
            }
        }
    }

    #[test]
    fn executor_rejects_mismatched_input() {
        let (model, _) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        let mut plan = compile(&model, schedule);
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 1).expect("ok");
        let bad = Tensor::zeros(&[1, 3, 3]);
        assert!(executor.forward(&mut plan, &bad).is_err());
        assert_eq!(
            executor.next_frame_index(),
            0,
            "a rejected input runs no frame"
        );
        assert_eq!(plan.stats().cache_hits, 0);
    }

    #[test]
    fn lower_weight_precision_does_not_increase_fidelity() {
        // Quantizing harder can only keep or reduce the agreement with the
        // full-precision digital model.
        let (mut model, dataset) = trained_setup();
        let sample = &dataset.test()[0];
        let digital = model.forward(&sample.input).expect("ok");
        let mut deltas = Vec::new();
        for precision in [Precision::w4a4(), Precision::w2a4()] {
            let schedule = PrecisionSchedule::Uniform(precision);
            let mut plan = compile(&model, schedule);
            let mut executor =
                PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 5).expect("ok");
            let photonic = executor.forward(&mut plan, &sample.input).expect("ok");
            let delta: f32 = digital
                .data()
                .iter()
                .zip(photonic.data())
                .map(|(a, b)| (a - b).abs())
                .sum();
            deltas.push(delta);
        }
        assert!(
            deltas[1] >= deltas[0] * 0.5,
            "2-bit execution should not be dramatically more faithful than 4-bit"
        );
    }
}
