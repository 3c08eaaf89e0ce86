//! Functional photonic execution of trained models.
//!
//! The All-in-One Convolver evaluates every weighted layer as optical dot
//! products: weights sit in MR transmissions, activations arrive as VCSEL
//! intensities, and partial sums are combined by the balanced detectors and
//! the summation tree. This module runs a trained
//! [`Sequential`] model through that analog
//! datapath — including quantization to the `[W:A]` configuration and the
//! analog non-idealities — so the inference accuracy of Table 1 can be
//! measured.

use crate::error::{CoreError, Result};
use crate::oc::PhotonicMacUnit;
use crate::plan::{encode_model, CompiledPlan, EncodedWeights, PlanScratch};
use lightator_nn::datasets::Dataset;
use lightator_nn::layers::LayerNode;
use lightator_nn::model::Sequential;
use lightator_nn::quant::{quantize_symmetric, quantize_unsigned, PrecisionSchedule};
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::NoiseConfig;
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

impl PhotonicAccuracy {
    /// Accuracy lost by moving from the digital to the analog datapath.
    #[must_use]
    pub fn analog_degradation(&self) -> f64 {
        self.digital - self.photonic
    }
}

/// Executes trained models on the photonic datapath.
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

/// The default intra-session worker count: the value of the
/// `LIGHTATOR_DEFAULT_WORKERS` environment variable when it is a positive
/// integer, otherwise 1 (sequential execution).
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
        .filter(|&workers| workers >= 1)
        .unwrap_or(1)
}

/// Quantizes one weight row into `[-1, 1]` MR transmission values. This is
/// the single definition of the weight encoding; the plan compiler
/// ([`crate::plan::encode_model`]) and the per-call execution paths all go
/// through it, which is what keeps plan-cached execution bit-identical to
/// per-call-encode execution.
pub(crate) fn quantize_weight_row(row: &[f32], weight_scale: f32, weight_bits: u8) -> Vec<f64> {
    row.iter()
        .map(|&w| {
            let q = quantize_symmetric(w, weight_scale, weight_bits);
            if weight_scale == 0.0 {
                0.0
            } else {
                f64::from(q / weight_scale).clamp(-1.0, 1.0)
            }
        })
        .collect()
}

/// Quantizes an activation slice into `[0, 1]` VCSEL drive codes, writing
/// into a caller-provided buffer. This is the single definition of the
/// activation encoding shared by every execution path.
fn quantize_activations_into(
    activations: &[f32],
    activation_scale: f32,
    activation_bits: u8,
    out: &mut [f64],
) {
    for (slot, &a) in out.iter_mut().zip(activations) {
        let clamped = a.max(0.0);
        let q = quantize_unsigned(clamped, activation_scale, activation_bits);
        *slot = if activation_scale == 0.0 {
            0.0
        } else {
            f64::from(q / activation_scale).clamp(0.0, 1.0)
        };
    }
}

/// The shared input-shape mismatch error of every executor entry point,
/// planned or per-call-encode.
fn input_mismatch(input: &[usize], expected: &[usize]) -> CoreError {
    CoreError::ModelMismatch {
        reason: format!("input shape {input:?} does not match the model's {expected:?}"),
    }
}

/// Validates one planned input: the plan must carry an optical model and
/// the input must match its shape.
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
        return Err(input_mismatch(input.shape(), model.input_shape()));
    }
    Ok(())
}

/// Copies the `(oh, ow)` input patch of a convolution into `patch`, matching
/// the gathering order of the weight rows (channel-major, then kernel rows).
#[allow(clippy::too_many_arguments)]
fn gather_patch(
    input: &Tensor,
    in_c: usize,
    in_h: usize,
    in_w: usize,
    k: usize,
    stride: usize,
    padding: usize,
    oh: usize,
    ow: usize,
    patch: &mut [f32],
) {
    for ic in 0..in_c {
        for kh in 0..k {
            for kw in 0..k {
                let ih = (oh * stride + kh) as isize - padding as isize;
                let iw = (ow * stride + kw) as isize - padding as isize;
                patch[(ic * k + kh) * k + kw] =
                    if ih < 0 || iw < 0 || ih as usize >= in_h || iw as usize >= in_w {
                        0.0
                    } else {
                        input.data()[(ic * in_h + ih as usize) * in_w + iw as usize]
                    };
            }
        }
    }
}

impl PhotonicExecutor {
    /// Creates an executor with the given precision schedule and analog
    /// noise configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Photonics`] if the arm configuration is invalid.
    pub fn new(schedule: PrecisionSchedule, noise: NoiseConfig, seed: u64) -> Result<Self> {
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
    /// wall-clock time only. Zero is clamped to 1.
    pub fn set_workers(&mut self, workers: usize) {
        self.workers = workers.max(1);
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

    /// Runs one input through the model with every weighted layer executed on
    /// the photonic MAC unit.
    ///
    /// Activations are clamped to the non-negative range before being encoded
    /// as light intensities (Lightator encodes activations as unsigned VCSEL
    /// drive codes; ReLU networks satisfy this naturally).
    ///
    /// # Errors
    ///
    /// Propagates shape errors from the model and photonic errors from the
    /// MAC unit.
    pub fn forward(&mut self, model: &mut Sequential, input: &Tensor) -> Result<Tensor> {
        if input.shape() != model.input_shape() {
            return Err(input_mismatch(input.shape(), model.input_shape()));
        }
        self.begin_frame();
        let mut value = input.clone();
        let mut weighted_index = 0usize;
        for layer_index in 0..model.layers().len() {
            let is_weighted = model.layers()[layer_index].is_weighted();
            if is_weighted {
                let precision = self.schedule.for_layer(weighted_index);
                value = match &model.layers()[layer_index] {
                    LayerNode::Conv2d(conv) => self.conv_forward(conv, &value, precision)?,
                    LayerNode::Linear(linear) => self.linear_forward(linear, &value, precision)?,
                    _ => unreachable!("is_weighted covers exactly conv and linear"),
                };
                weighted_index += 1;
            } else {
                value = model.layers_mut()[layer_index].forward(&value)?;
            }
        }
        Ok(value)
    }

    /// Runs a batch of inputs through the model, encoding every weighted
    /// layer's quantized MR values once and streaming all frames through the
    /// shared encoding — the photonic analogue of programming the weight DACs
    /// a single time for the whole batch.
    ///
    /// The results are bit-identical to calling [`PhotonicExecutor::forward`]
    /// once per input on the same executor state: frames are processed in
    /// order and the analog noise stream advances exactly as in the
    /// sequential case.
    ///
    /// # Errors
    ///
    /// Same as [`PhotonicExecutor::forward`], checked per input.
    pub fn forward_batch(
        &mut self,
        model: &mut Sequential,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        let encodings = encode_model(model, self.schedule);
        let mut scratch = PlanScratch::default();
        inputs
            .iter()
            .map(|input| self.forward_encoded(model, &encodings, &mut scratch, input))
            .collect()
    }

    /// Runs several inputs through the model **within one frame's noise
    /// stream**: the frame counter advances exactly once, the weights are
    /// encoded once, and the inputs consume the frame's analog-noise draws
    /// in order.
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
        model: &mut Sequential,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        let encodings = encode_model(model, self.schedule);
        let mut scratch = PlanScratch::default();
        self.begin_frame();
        inputs
            .iter()
            .map(|input| self.forward_encoded_in_frame(model, &encodings, &mut scratch, input))
            .collect()
    }

    /// Runs one input through a [`CompiledPlan`]: the pre-encoded MR weight
    /// bank is reused as-is (no per-call encoding pass) and the plan's
    /// preallocated scratch buffers serve every stride.
    ///
    /// Bit-identical to [`PhotonicExecutor::forward`] on the plan's model
    /// for the same executor state: encoding draws no analog noise, so the
    /// frame's noise-draw order is unchanged.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelMismatch`] for acquisition-only plans
    /// (no optical model) or a mismatched input shape, and propagates
    /// photonic errors.
    pub fn forward_planned(&mut self, plan: &mut CompiledPlan, input: &Tensor) -> Result<Tensor> {
        check_plan_input(plan, input)?;
        self.begin_frame();
        plan.record_hits(1);
        self.forward_planned_in_frame(plan, input)
    }

    /// Runs a batch of inputs through a [`CompiledPlan`] — the plan-cached
    /// counterpart of [`PhotonicExecutor::forward_batch`], with the
    /// encoding pass already paid at compile time.
    ///
    /// # Errors
    ///
    /// Same as [`PhotonicExecutor::forward_planned`], checked per input.
    pub fn forward_batch_planned(
        &mut self,
        plan: &mut CompiledPlan,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        inputs
            .iter()
            .map(|input| {
                check_plan_input(plan, input)?;
                self.begin_frame();
                // Count the hit only once the input is actually admitted
                // to the cached encoding, matching `forward_planned`.
                plan.record_hits(1);
                self.forward_planned_in_frame(plan, input)
            })
            .collect()
    }

    /// Runs several inputs through a [`CompiledPlan`] **within one frame's
    /// noise stream** — the plan-cached counterpart of
    /// [`PhotonicExecutor::forward_frame_batch`]: the frame counter
    /// advances exactly once and the inputs consume the frame's noise
    /// draws in order. An empty `inputs` slice still consumes the frame
    /// index (a fully-skipped frame is still a frame).
    ///
    /// # Errors
    ///
    /// Same as [`PhotonicExecutor::forward_planned`], checked per input.
    pub fn forward_frame_batch_planned(
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
                self.forward_planned_in_frame(plan, input)
            })
            .collect()
    }

    /// One forward pass through the plan's cached encodings *inside the
    /// already open frame*.
    fn forward_planned_in_frame(
        &mut self,
        plan: &mut CompiledPlan,
        input: &Tensor,
    ) -> Result<Tensor> {
        let (model, encodings, scratch) =
            plan.exec_parts_mut()
                .ok_or_else(|| CoreError::ModelMismatch {
                    reason: "plan lost its execution parts (check_plan_input admits only \
                         model-carrying plans)"
                        .to_string(),
                })?;
        self.forward_rows(model, encodings, scratch, input)
    }

    /// One forward pass reusing pre-encoded weights, opening a fresh frame
    /// noise stream.
    fn forward_encoded(
        &mut self,
        model: &mut Sequential,
        encodings: &[Option<EncodedWeights>],
        scratch: &mut PlanScratch,
        input: &Tensor,
    ) -> Result<Tensor> {
        if input.shape() != model.input_shape() {
            return Err(input_mismatch(input.shape(), model.input_shape()));
        }
        self.begin_frame();
        self.forward_encoded_in_frame(model, encodings, scratch, input)
    }

    /// One forward pass reusing pre-encoded weights *inside the already
    /// open frame*: consumes the current frame's noise draws without
    /// touching the frame counter.
    fn forward_encoded_in_frame(
        &mut self,
        model: &mut Sequential,
        encodings: &[Option<EncodedWeights>],
        scratch: &mut PlanScratch,
        input: &Tensor,
    ) -> Result<Tensor> {
        if input.shape() != model.input_shape() {
            return Err(input_mismatch(input.shape(), model.input_shape()));
        }
        self.forward_rows(model, encodings, scratch, input)
    }

    /// The shared encoded-row execution loop: every weighted layer streams
    /// against its pre-encoded MR rows, unweighted layers run digitally.
    fn forward_rows(
        &mut self,
        model: &mut Sequential,
        encodings: &[Option<EncodedWeights>],
        scratch: &mut PlanScratch,
        input: &Tensor,
    ) -> Result<Tensor> {
        let mut value = input.clone();
        let mut weighted_index = 0usize;
        for (layer_index, encoding) in encodings.iter().enumerate() {
            value = match (&model.layers()[layer_index], encoding) {
                (LayerNode::Conv2d(conv), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.conv_forward_encoded(conv, encoded, scratch, &value, precision)?
                }
                (LayerNode::Linear(linear), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.linear_forward_encoded(linear, encoded, scratch, &value, precision)?
                }
                _ => model.layers_mut()[layer_index].forward(&value)?,
            };
        }
        Ok(value)
    }

    /// Predicted class through the photonic datapath.
    ///
    /// # Errors
    ///
    /// Same as [`PhotonicExecutor::forward`].
    pub fn predict(&mut self, model: &mut Sequential, input: &Tensor) -> Result<usize> {
        let logits = self.forward(model, input)?;
        logits.argmax().ok_or(CoreError::ModelMismatch {
            reason: "model produced an empty logit vector".to_string(),
        })
    }

    fn photonic_dot(
        &mut self,
        weights: &[f32],
        activations: &[f32],
        weight_scale: f32,
        activation_scale: f32,
        weight_bits: u8,
        activation_bits: u8,
    ) -> Result<f64> {
        debug_assert_eq!(weights.len(), activations.len());
        let w_norm = quantize_weight_row(weights, weight_scale, weight_bits);
        let mut a_norm = vec![0.0f64; activations.len()];
        quantize_activations_into(activations, activation_scale, activation_bits, &mut a_norm);
        let normalized = self.mac_unit.dot(&w_norm, &a_norm)?;
        Ok(normalized * f64::from(weight_scale) * f64::from(activation_scale))
    }

    fn conv_forward_encoded(
        &mut self,
        conv: &lightator_nn::layers::Conv2d,
        encoded: &EncodedWeights,
        scratch: &mut PlanScratch,
        input: &Tensor,
        precision: lightator_nn::quant::Precision,
    ) -> Result<Tensor> {
        let out_shape = conv.output_shape(input.shape())?;
        let (oc_n, oh_n, ow_n) = (out_shape[0], out_shape[1], out_shape[2]);
        let (in_c, in_h, in_w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let k = conv.kernel();
        let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
        let mut out = Tensor::zeros(&out_shape);
        let row_len = in_c * k * k;
        // Every conv runs weight-stationary: each output channel's row is
        // programmed once, one arm per segment, and every stride (of every
        // frame in a batch) streams against it.
        let items = oc_n * oh_n * ow_n;
        let workers = self.workers.min(items).max(1);
        if workers > 1 {
            // Tiled path: the flattened stride loop splits into per-worker
            // chunks. MAC call `j` of the layer draws its noise purely from
            // the cursor position `layer_base + j`, so each worker clone
            // positioned at its chunk start reproduces the sequential bits.
            let calls_per_item = row_len.div_ceil(self.mac_unit.segment_length()) as u64;
            let layer_base = self.mac_unit.mac_cursor();
            let chunk = items.div_ceil(workers);
            if scratch.worker_patch.len() < workers {
                scratch.worker_patch.resize_with(workers, Vec::new);
            }
            if scratch.worker_a_norm.len() < workers {
                scratch.worker_a_norm.resize_with(workers, Vec::new);
            }
            let stride_span = oh_n * ow_n;
            let weight_scale = f64::from(encoded.weight_scale);
            let unit = &self.mac_unit;
            let bias = conv.bias().data();
            let rows = &encoded.rows;
            let (stride, padding) = (conv.stride(), conv.padding());
            let activation_bits = precision.activation_bits;
            let worker_buffers = scratch
                .worker_patch
                .iter_mut()
                .zip(scratch.worker_a_norm.iter_mut());
            let results: Vec<Result<()>> = std::thread::scope(|scope| {
                let handles: Vec<_> = out
                    .data_mut()
                    .chunks_mut(chunk)
                    .zip(worker_buffers)
                    .enumerate()
                    .map(|(worker, (out_chunk, (patch, a_norm)))| {
                        let mut worker_unit = unit.clone();
                        scope.spawn(move || -> Result<()> {
                            let start = worker * chunk;
                            worker_unit.set_mac_cursor(layer_base + start as u64 * calls_per_item);
                            patch.resize(row_len, 0.0);
                            a_norm.resize(row_len, 0.0);
                            let patch = &mut patch[..row_len];
                            let a_norm = &mut a_norm[..row_len];
                            let mut loaded = usize::MAX;
                            for (slot, item) in out_chunk.iter_mut().zip(start..) {
                                let oc = item / stride_span;
                                let rest = item % stride_span;
                                let (oh, ow) = (rest / ow_n, rest % ow_n);
                                gather_patch(
                                    input, in_c, in_h, in_w, k, stride, padding, oh, ow, patch,
                                );
                                quantize_activations_into(
                                    patch,
                                    activation_scale,
                                    activation_bits,
                                    a_norm,
                                );
                                if oc != loaded {
                                    worker_unit.load_row(&rows[oc])?;
                                    loaded = oc;
                                }
                                let normalized = worker_unit.mac_loaded(a_norm)?;
                                let value = normalized * weight_scale * f64::from(activation_scale);
                                *slot = value as f32 + bias[oc];
                            }
                            Ok(())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle.join().unwrap_or_else(|_| {
                            Err(CoreError::ModelMismatch {
                                reason: "a tiled conv execution worker panicked".to_string(),
                            })
                        })
                    })
                    .collect()
            });
            for result in results {
                result?;
            }
            // The parent unit takes over at the end of the layer's cursor
            // range, exactly where a sequential walk would have landed.
            self.mac_unit
                .set_mac_cursor(layer_base + items as u64 * calls_per_item);
            self.mac_unit
                .add_segments_evaluated(items as u64 * calls_per_item);
            return Ok(out);
        }
        // Compiled plans preallocate these at their widest-row size, so the
        // resize is a no-op on the steady-state path.
        scratch.patch.resize(row_len, 0.0);
        scratch.a_norm.resize(row_len, 0.0);
        let (patch, a_norm) = (
            &mut scratch.patch[..row_len],
            &mut scratch.a_norm[..row_len],
        );
        for oc in 0..oc_n {
            let bias = conv.bias().data()[oc];
            self.mac_unit.load_row(&encoded.rows[oc])?;
            for oh in 0..oh_n {
                for ow in 0..ow_n {
                    gather_patch(
                        input,
                        in_c,
                        in_h,
                        in_w,
                        k,
                        conv.stride(),
                        conv.padding(),
                        oh,
                        ow,
                        patch,
                    );
                    quantize_activations_into(
                        patch,
                        activation_scale,
                        precision.activation_bits,
                        a_norm,
                    );
                    let normalized = self.mac_unit.mac_loaded(a_norm)?;
                    let value =
                        normalized * f64::from(encoded.weight_scale) * f64::from(activation_scale);
                    out.data_mut()[(oc * oh_n + oh) * ow_n + ow] = value as f32 + bias;
                }
            }
        }
        Ok(out)
    }

    fn linear_forward_encoded(
        &mut self,
        linear: &lightator_nn::layers::Linear,
        encoded: &EncodedWeights,
        scratch: &mut PlanScratch,
        input: &Tensor,
        precision: lightator_nn::quant::Precision,
    ) -> Result<Tensor> {
        linear.output_shape(input.shape())?;
        let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
        let mut out = Tensor::zeros(&[linear.out_features()]);
        // The activation vector is the same for every output row; quantize
        // it once per layer (bit-identical: quantization draws no noise).
        let len = input.data().len();
        scratch.a_norm.resize(len, 0.0);
        quantize_activations_into(
            input.data(),
            activation_scale,
            precision.activation_bits,
            &mut scratch.a_norm[..len],
        );
        let a_norm: &[f64] = &scratch.a_norm[..len];
        let scale = f64::from(encoded.weight_scale) * f64::from(activation_scale);
        let out_features = linear.out_features();
        let workers = self.workers.min(out_features).max(1);
        if workers > 1 {
            // Tiled path: output rows split into per-worker chunks; row `o`
            // draws its noise purely from cursor `layer_base + o·calls`, so
            // worker clones reproduce the sequential bits (see the conv
            // path for the cursor contract).
            let calls_per_item = len.div_ceil(self.mac_unit.segment_length()) as u64;
            let layer_base = self.mac_unit.mac_cursor();
            let chunk = out_features.div_ceil(workers);
            let unit = &self.mac_unit;
            let bias = linear.bias().data();
            let rows = &encoded.rows;
            let results: Vec<Result<()>> = std::thread::scope(|scope| {
                let handles: Vec<_> = out
                    .data_mut()
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(worker, out_chunk)| {
                        let mut worker_unit = unit.clone();
                        scope.spawn(move || -> Result<()> {
                            let start = worker * chunk;
                            worker_unit.set_mac_cursor(layer_base + start as u64 * calls_per_item);
                            for (slot, o) in out_chunk.iter_mut().zip(start..) {
                                let normalized = worker_unit.dot(&rows[o], a_norm)?;
                                *slot = (normalized * scale) as f32 + bias[o];
                            }
                            Ok(())
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|handle| {
                        handle.join().unwrap_or_else(|_| {
                            Err(CoreError::ModelMismatch {
                                reason: "a tiled linear execution worker panicked".to_string(),
                            })
                        })
                    })
                    .collect()
            });
            for result in results {
                result?;
            }
            self.mac_unit
                .set_mac_cursor(layer_base + out_features as u64 * calls_per_item);
            self.mac_unit
                .add_segments_evaluated(out_features as u64 * calls_per_item);
            return Ok(out);
        }
        for o in 0..out_features {
            let normalized = self.mac_unit.dot(&encoded.rows[o], a_norm)?;
            out.data_mut()[o] = (normalized * scale) as f32 + linear.bias().data()[o];
        }
        Ok(out)
    }

    fn conv_forward(
        &mut self,
        conv: &lightator_nn::layers::Conv2d,
        input: &Tensor,
        precision: lightator_nn::quant::Precision,
    ) -> Result<Tensor> {
        let out_shape = conv.output_shape(input.shape())?;
        let (oc_n, oh_n, ow_n) = (out_shape[0], out_shape[1], out_shape[2]);
        let (in_c, in_h, in_w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let k = conv.kernel();
        let weight_scale = conv.weight().max_abs();
        let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
        let mut out = Tensor::zeros(&out_shape);
        let patch_len = in_c * k * k;
        let mut patch = vec![0.0f32; patch_len];
        let mut kernel = vec![0.0f32; patch_len];
        for oc in 0..oc_n {
            // Gather this output channel's kernel once.
            for ic in 0..in_c {
                for kh in 0..k {
                    for kw in 0..k {
                        kernel[(ic * k + kh) * k + kw] =
                            conv.weight().data()[((oc * in_c + ic) * k + kh) * k + kw];
                    }
                }
            }
            let bias = conv.bias().data()[oc];
            for oh in 0..oh_n {
                for ow in 0..ow_n {
                    gather_patch(
                        input,
                        in_c,
                        in_h,
                        in_w,
                        k,
                        conv.stride(),
                        conv.padding(),
                        oh,
                        ow,
                        &mut patch,
                    );
                    let value = self.photonic_dot(
                        &kernel,
                        &patch,
                        weight_scale,
                        activation_scale,
                        precision.weight_bits,
                        precision.activation_bits,
                    )?;
                    out.data_mut()[(oc * oh_n + oh) * ow_n + ow] = value as f32 + bias;
                }
            }
        }
        Ok(out)
    }

    fn linear_forward(
        &mut self,
        linear: &lightator_nn::layers::Linear,
        input: &Tensor,
        precision: lightator_nn::quant::Precision,
    ) -> Result<Tensor> {
        linear.output_shape(input.shape())?;
        let weight_scale = linear.weight().max_abs();
        let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
        let mut out = Tensor::zeros(&[linear.out_features()]);
        for o in 0..linear.out_features() {
            let row =
                &linear.weight().data()[o * linear.in_features()..(o + 1) * linear.in_features()];
            let value = self.photonic_dot(
                row,
                input.data(),
                weight_scale,
                activation_scale,
                precision.weight_bits,
                precision.activation_bits,
            )?;
            out.data_mut()[o] = value as f32 + linear.bias().data()[o];
        }
        Ok(out)
    }

    /// Evaluates top-1 accuracy through the photonic datapath on at most
    /// `limit` test samples, alongside the digital accuracy of the same
    /// model for reference.
    ///
    /// # Errors
    ///
    /// Propagates model/photonic errors.
    pub fn evaluate(
        &mut self,
        model: &mut Sequential,
        dataset: &Dataset,
        limit: usize,
    ) -> Result<PhotonicAccuracy> {
        let mut total = 0usize;
        let mut photonic_correct = 0usize;
        let mut digital_correct = 0usize;
        for sample in dataset.test().iter().take(limit.max(1)) {
            total += 1;
            if self.predict(model, &sample.input)? == sample.label {
                photonic_correct += 1;
            }
            if model.predict(&sample.input)? == sample.label {
                digital_correct += 1;
            }
        }
        Ok(PhotonicAccuracy {
            photonic: photonic_correct as f64 / total.max(1) as f64,
            digital: digital_correct as f64 / total.max(1) as f64,
            samples: total,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_nn::datasets::{generate, SyntheticConfig};
    use lightator_nn::models::build_mlp;
    use lightator_nn::quant::{quantize_model_weights, Precision};
    use lightator_nn::train::{evaluate, train, TrainConfig};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn trained_setup() -> (Sequential, lightator_nn::datasets::Dataset) {
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

    #[test]
    fn photonic_forward_matches_digital_argmax_for_ideal_optics() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 1).expect("ok");
        let mut agree = 0usize;
        let n = 6;
        for sample in dataset.test().iter().take(n) {
            let photonic = executor.predict(&mut model, &sample.input).expect("ok");
            let digital = model.predict(&sample.input).expect("ok");
            if photonic == digital {
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
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::default(), 3).expect("ok");
        let result = executor.evaluate(&mut model, &dataset, 8).expect("ok");
        assert!(result.samples == 8);
        assert!(
            result.photonic >= digital - 0.4,
            "photonic {} vs digital {digital}",
            result.photonic
        );
        assert!(result.analog_degradation().abs() <= 1.0);
    }

    #[test]
    fn forward_batch_is_bit_identical_to_sequential_forwards() {
        // The batch path encodes the weights once, but it must consume the
        // analog noise stream in exactly the same order as sequential calls.
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let inputs: Vec<_> = dataset
            .test()
            .iter()
            .take(4)
            .map(|s| s.input.clone())
            .collect();

        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 9).expect("ok");
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| sequential.forward(&mut model, input).expect("ok"))
            .collect();

        let mut batched = PhotonicExecutor::new(schedule, NoiseConfig::default(), 9).expect("ok");
        let got = batched.forward_batch(&mut model, &inputs).expect("ok");

        assert_eq!(expected.len(), got.len());
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.data(), b.data(), "batched result diverged");
        }
    }

    #[test]
    fn frame_indexed_noise_reproduces_any_position_in_the_stream() {
        // A second executor positioned at frame 2 must reproduce exactly
        // what the first executor produced for its third frame, without
        // replaying frames 0 and 1 — the property pooled serving relies on.
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let inputs: Vec<_> = dataset
            .test()
            .iter()
            .take(3)
            .map(|s| s.input.clone())
            .collect();

        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 11).expect("ok");
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| sequential.forward(&mut model, input).expect("ok"))
            .collect();
        assert_eq!(sequential.next_frame_index(), 3);

        let mut seeked = PhotonicExecutor::new(schedule, NoiseConfig::default(), 11).expect("ok");
        seeked.set_next_frame_index(2);
        let got = seeked.forward(&mut model, &inputs[2]).expect("ok");
        assert_eq!(expected[2].data(), got.data(), "seeked frame diverged");
    }

    #[test]
    fn forward_frame_batch_consumes_one_index_and_replays_bit_exactly() {
        let (mut model, dataset) = trained_setup();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        quantize_model_weights(&mut model, schedule);
        let inputs: Vec<_> = dataset
            .test()
            .iter()
            .take(3)
            .map(|s| s.input.clone())
            .collect();

        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::default(), 13).expect("ok");
        let expected = executor
            .forward_frame_batch(&mut model, &inputs)
            .expect("ok");
        assert_eq!(
            executor.next_frame_index(),
            1,
            "N in-frame inputs consume exactly one frame index"
        );

        // An executor seeked to the same frame reproduces every tile.
        let mut replay = PhotonicExecutor::new(schedule, NoiseConfig::default(), 13).expect("ok");
        replay.set_next_frame_index(0);
        let got = replay.forward_frame_batch(&mut model, &inputs).expect("ok");
        for (a, b) in expected.iter().zip(&got) {
            assert_eq!(a.data(), b.data(), "in-frame replay diverged");
        }

        // An empty frame still consumes its index.
        let before = replay.next_frame_index();
        assert!(replay
            .forward_frame_batch(&mut model, &[])
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
        let input = &dataset.test()[0].input;
        let mut executor = PhotonicExecutor::new(schedule, NoiseConfig::default(), 21).expect("ok");
        executor.set_next_frame_index(u64::MAX);
        let last = executor.forward(&mut model, input).expect("ok");
        assert_eq!(executor.next_frame_index(), u64::MAX);
        let saturated = executor.forward(&mut model, input).expect("ok");
        assert_eq!(
            last.data(),
            saturated.data(),
            "a saturated counter replays the u64::MAX stream"
        );
        // ... and that stream is NOT frame 0's (no wrap-around replay).
        let mut fresh = PhotonicExecutor::new(schedule, NoiseConfig::default(), 21).expect("ok");
        let frame0 = fresh.forward(&mut model, input).expect("ok");
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
        let inputs: Vec<_> = dataset
            .test()
            .iter()
            .take(3)
            .map(|s| s.input.clone())
            .collect();

        let mut sequential =
            PhotonicExecutor::new(schedule, NoiseConfig::default(), 31).expect("ok");
        sequential.set_workers(1);
        let expected: Vec<Tensor> = inputs
            .iter()
            .map(|input| {
                sequential
                    .forward_batch(&mut model, std::slice::from_ref(input))
                    .expect("ok")
                    .remove(0)
            })
            .collect();

        for workers in [2usize, 4, 8] {
            let mut tiled =
                PhotonicExecutor::new(schedule, NoiseConfig::default(), 31).expect("ok");
            tiled.set_workers(workers);
            assert_eq!(tiled.workers(), workers);
            let got = tiled.forward_batch(&mut model, &inputs).expect("ok");
            for (a, b) in expected.iter().zip(&got) {
                assert_eq!(
                    a.data(),
                    b.data(),
                    "{workers}-worker tiling diverged from sequential"
                );
            }
        }
    }

    #[test]
    fn executor_rejects_mismatched_input() {
        let (mut model, _) = trained_setup();
        let mut executor = PhotonicExecutor::new(
            PrecisionSchedule::Uniform(Precision::w4a4()),
            NoiseConfig::ideal(),
            1,
        )
        .expect("ok");
        let bad = Tensor::zeros(&[1, 3, 3]);
        assert!(executor.forward(&mut model, &bad).is_err());
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
            let mut executor =
                PhotonicExecutor::new(schedule, NoiseConfig::ideal(), 5).expect("ok");
            let photonic = executor.forward(&mut model, &sample.input).expect("ok");
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
