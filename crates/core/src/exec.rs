//! Functional photonic execution of compiled plans.
//!
//! The All-in-One Convolver evaluates every weighted layer as optical dot
//! products: weights sit in MR transmissions, activations arrive as VCSEL
//! intensities, and partial sums are combined by the balanced detectors and
//! the summation tree. This module streams inputs through a
//! [`CompiledPlan`]'s pre-encoded MR weight bank on that analog datapath —
//! quantizing activations to the `[W:A]` configuration and drawing the
//! analog non-idealities — so the inference accuracy of Table 1 can be
//! measured.
//!
//! There is one walk. A frame is a batch of inputs, one for a single frame
//! or a classify sample, one per computed block for a stream frame, and it
//! runs layer by layer: each weighted layer quantizes every input once,
//! under that input's own activation scale, loads each of its rows once,
//! and runs every input's strides or features against it, as a programmed
//! layer serves every patch of a frame. Every conv and linear layer runs
//! through one tiled MAC-loop driver: one worker runs the batch inline,
//! several split its `(input, output)` items into contiguous shares. Each
//! input's MAC calls keep the cursors an input-by-input walk would give
//! them, so neither the batch size nor the worker count moves a bit.
//!
//! The weight bank is programmed once per session: a layer's row load
//! reads each lane's programmed transmission from the plan's table
//! ([`EncodedWeights`]), so no ring is tuned per frame, and each layer's
//! quantized input is range-checked once, not once per MAC. A row is
//! loaded under its identity, its layer's position in the model and its
//! output channel or feature, so its rings' weight errors are the same
//! whichever worker loads it in a frame, and every input of the frame
//! reads the one realisation its load draws.
//!
//! A conv layer quantizes each input straight into a plane with a zero
//! border as wide as the conv's padding, so each stride's patch is
//! `in_c·k` runs of `k` contiguous codes of that plane, copied whole, with
//! no bounds test per code.

use crate::error::{CoreError, Result};
use crate::oc::{check_activations, PhotonicMacUnit};
use crate::plan::{
    check_weight_bits, CompiledPlan, EncodedWeights, PlanScratch, ProgrammedRows, WorkerScratch,
};
use lightator_nn::layers::{Conv2d, LayerNode, Linear};
use lightator_nn::quant::{quantize_unsigned, Precision, PrecisionSchedule};
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::PhotonicsError;
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// Quantizes one layer input into `[0, 1]` VCSEL drive codes, written run
/// after run into `runs`, whose lengths sum to the input's. The activation
/// scale is the input's largest non-negative value; it is returned. This
/// is the single definition of the activation encoding.
///
/// # Errors
///
/// Returns [`PhotonicsError::ActivationOutOfRange`] if the input holds a
/// NaN, or a `+∞` (which makes every code NaN): light intensities lie in
/// `[0, 1]`, and this is the one check of the layer's codes, so the MAC
/// loop checks none.
fn quantize_layer_input<'c>(
    input: &Tensor,
    activation_bits: u8,
    runs: impl Iterator<Item = &'c mut [f64]>,
) -> Result<f32> {
    let activation_scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
    let mut values = input.data().iter();
    for run in runs {
        for (slot, &a) in run.iter_mut().zip(values.by_ref()) {
            let q = quantize_unsigned(a.max(0.0), activation_scale, activation_bits);
            *slot = if activation_scale == 0.0 {
                0.0
            } else {
                f64::from(q / activation_scale).clamp(0.0, 1.0)
            };
        }
        check_activations(run)?;
    }
    // `f32::max` reads a NaN as 0, so a NaN input leaves an in-range code.
    if let Some(&a) = input.data().iter().find(|a| a.is_nan()) {
        return Err(CoreError::Photonics(PhotonicsError::ActivationOutOfRange {
            activation: f64::from(a),
        }));
    }
    Ok(activation_scale)
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

/// The MAC calls one input's pass through `layer` takes on an arm of
/// `segment` lanes: ⌈row/segment⌉ per output of a weighted layer, none for
/// an unweighted one.
fn layer_calls(layer: &LayerNode, input_shape: &[usize], segment: usize) -> Result<u64> {
    let (outputs, row_len) = match layer {
        LayerNode::Conv2d(conv) => (
            conv.output_shape(input_shape)?.iter().product(),
            conv.in_channels() * conv.kernel() * conv.kernel(),
        ),
        LayerNode::Linear(linear) => (linear.out_features(), linear.in_features()),
        _ => (0, 0),
    };
    Ok(outputs as u64 * row_len.div_ceil(segment) as u64)
}

/// Where one layer's MAC calls sit in a frame batch's noise stream. The
/// input-by-input walk runs input `t`'s forward from cursor `t·per_input`,
/// and its layer from `layer` calls after that, so output `o` of input `t`
/// runs from cursor `t·per_input + layer + o·per_output`.
#[derive(Debug, Clone, Copy)]
struct Cursors {
    /// MAC calls one input's forward takes.
    per_input: u64,
    /// MAC calls the earlier layers of one input's forward take.
    layer: u64,
    /// MAC calls one output takes: its row's segments.
    per_output: u64,
}

impl Cursors {
    fn at(self, input: usize, output: usize) -> u64 {
        input as u64 * self.per_input + self.layer + output as u64 * self.per_output
    }
}

/// Outputs `start..start + out.len()` of one input of a layer: the part of
/// a worker's share that falls in that input.
struct Run<'a> {
    input: usize,
    start: usize,
    out: &'a mut [f32],
}

/// Runs one worker's share of a weighted layer row-major. Each output row
/// (conv channel of `span` strides, or linear feature with `span = 1`) that
/// a run reaches is loaded once; then, run after run, the unit's cursor is
/// set at the run's first output in that row and
/// `mac(unit, row, input, outputs, slots)` fills those outputs.
fn walk_rows(
    unit: &mut PhotonicMacUnit,
    runs: &mut [Run<'_>],
    (rows, span): (&ProgrammedRows<'_>, usize),
    cursors: Cursors,
    mut mac: impl FnMut(&mut PhotonicMacUnit, usize, usize, Range<usize>, &mut [f32]),
) -> Result<()> {
    let first = runs.iter().map(|run| run.start / span).min().unwrap_or(0);
    let end = runs
        .iter()
        .map(|run| (run.start + run.out.len()).div_ceil(span))
        .max()
        .unwrap_or(0);
    for row in first..end {
        let mut loaded = false;
        for run in runs.iter_mut() {
            let outputs =
                run.start.max(row * span)..(run.start + run.out.len()).min((row + 1) * span);
            if outputs.is_empty() {
                continue;
            }
            if !loaded {
                unit.load_coded_row(rows.row(row), rows.table)?;
                loaded = true;
            }
            unit.set_mac_cursor(cursors.at(run.input, outputs.start));
            let slots = &mut run.out[outputs.start - run.start..outputs.end - run.start];
            mac(unit, row, run.input, outputs, slots);
        }
    }
    Ok(())
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

    /// Runs one input through a [`CompiledPlan`] as one frame: the frame
    /// batch of that one input ([`PhotonicExecutor::forward_frame_batch`]).
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
        self.forward_frame_batch(plan, std::slice::from_ref(input))?
            .pop()
            .ok_or_else(|| CoreError::ModelMismatch {
                reason: "a frame batch of one input returned no output".to_string(),
            })
    }

    /// Runs several inputs through a [`CompiledPlan`] **within one frame's
    /// noise stream**: the frame counter advances exactly once and the
    /// inputs consume the frame's analog-noise draws in order. Every entry
    /// point runs through this walk: [`PhotonicExecutor::forward`] is the
    /// batch of one.
    ///
    /// The walk is layer-major, as a programmed layer serves every patch of
    /// a frame: each weighted layer quantizes every input once, under that
    /// input's own activation scale, fetches its programmed rows once and
    /// loads each row once, then runs every input's strides or features
    /// against it. Unweighted layers run digitally, input by input. Input
    /// `t`'s calls at a layer start at MAC cursor `t·C + off`, where `C` is
    /// the number of MAC calls one input's forward takes and `off` the
    /// number its earlier layers take: the cursors an input-by-input walk
    /// gives, so every output bit is the one the input would read run
    /// alone at that position. A row's ring weights are keyed by its
    /// [`RowId`](lightator_photonics::noise::RowId), so every input reads
    /// the one realisation the row's load draws in the frame.
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
    /// Same as [`PhotonicExecutor::forward`], except that the frame index is
    /// consumed even when an input is rejected. Every input's shape is
    /// checked before any layer runs; after that the first failing
    /// (layer, input) pair, layer-major, is reported.
    pub fn forward_frame_batch(
        &mut self,
        plan: &mut CompiledPlan,
        inputs: &[Tensor],
    ) -> Result<Vec<Tensor>> {
        self.begin_frame();
        plan.record_hits(1);
        for input in inputs {
            check_plan_input(plan, input)?;
        }
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let (model, encodings, scratch) =
            plan.exec_parts_mut()
                .ok_or_else(|| CoreError::ModelMismatch {
                    reason: "plan lost its execution parts (check_plan_input admits only \
                         model-carrying plans)"
                        .to_string(),
                })?;
        let segment = self.mac_unit.segment_length();
        let mut shape = model.input_shape().to_vec();
        let mut per_input = 0;
        for (layer, encoding) in model.layers().iter().zip(encodings.iter()) {
            if encoding.is_some() {
                per_input += layer_calls(layer, &shape, segment)?;
            }
            shape = layer.output_shape(&shape)?;
        }
        let mut cursors = Cursors {
            per_input,
            layer: 0,
            per_output: 0,
        };
        let mut values: Option<Vec<Tensor>> = None;
        let mut weighted_index = 0usize;
        for (layer, encoding) in model.layers_mut().iter_mut().zip(encodings.iter_mut()) {
            let batch = values.as_deref().unwrap_or(inputs);
            let calls = match encoding {
                Some(_) => layer_calls(layer, batch[0].shape(), segment)?,
                None => 0,
            };
            let next = match (layer, encoding) {
                (LayerNode::Conv2d(conv), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.conv_forward(conv, encoded, scratch, batch, precision, cursors)?
                }
                (LayerNode::Linear(linear), Some(encoded)) => {
                    let precision = self.schedule.for_layer(weighted_index);
                    weighted_index += 1;
                    self.linear_forward(linear, encoded, scratch, batch, precision, cursors)?
                }
                (layer, _) => batch
                    .iter()
                    .map(|value| Ok(layer.forward(value)?))
                    .collect::<Result<_>>()?,
            };
            cursors.layer += calls;
            values = Some(next);
        }
        Ok(values.unwrap_or_else(|| inputs.to_vec()))
    }

    /// Every conv runs weight-stationary: each output channel's row is
    /// loaded once per worker from the layer's transmission table, and
    /// every input's strides stream against it. Each input is quantized
    /// once, straight into its own plane of the batch with a zero border as
    /// wide as the conv's padding, which every worker reads; each stride
    /// gathers its drive codes as `in_c·k` runs of `k` contiguous codes of
    /// that plane, in the order of the weight rows (channel-major, then
    /// kernel rows).
    fn conv_forward(
        &mut self,
        conv: &Conv2d,
        encoded: &mut EncodedWeights,
        scratch: &mut PlanScratch,
        inputs: &[Tensor],
        precision: Precision,
        cursors: Cursors,
    ) -> Result<Vec<Tensor>> {
        let in_shape = inputs[0].shape();
        let out_shape = conv.output_shape(in_shape)?;
        let (oh_n, ow_n) = (out_shape[1], out_shape[2]);
        let (in_c, in_h, in_w) = (in_shape[0], in_shape[1], in_shape[2]);
        let k = conv.kernel();
        let (stride, padding) = (conv.stride(), conv.padding());
        let PlanScratch {
            padded,
            scales,
            workers,
            ..
        } = scratch;
        // The zero border reads `0.0`, exactly what quantizing a zero
        // activation gives, so every stride's patch is whole runs of the
        // padded plane.
        let (height, width) = (in_h + 2 * padding, in_w + 2 * padding);
        let plane_len = in_c * height * width;
        padded.clear();
        padded.resize(inputs.len() * plane_len, 0.0);
        scales.clear();
        for (input, plane) in inputs.iter().zip(padded.chunks_exact_mut(plane_len)) {
            let interior = plane.chunks_exact_mut(height * width).flat_map(|channel| {
                channel
                    .chunks_exact_mut(width)
                    .skip(padding)
                    .take(in_h)
                    .map(|row| &mut row[padding..padding + in_w])
            });
            let activation_scale =
                quantize_layer_input(input, precision.activation_bits, interior)?;
            scales.push(f64::from(activation_scale));
        }
        let (padded, scales) = (&padded[..], &scales[..]);
        let weight_scale = f64::from(encoded.weight_scale);
        let row_len = in_c * k * k;
        let cursors = Cursors {
            per_output: row_len.div_ceil(self.mac_unit.segment_length()) as u64,
            ..cursors
        };
        let (rows, bias) = (encoded.programmed(&mut self.mac_unit)?, conv.bias().data());
        let stride_span = oh_n * ow_n;
        let mut outputs = vec![Tensor::zeros(&out_shape); inputs.len()];
        self.run_tiled(&mut outputs, workers, |unit, buffers, runs| {
            buffers.a_norm.resize(row_len, 0.0);
            let patch = &mut buffers.a_norm[..];
            walk_rows(
                unit,
                runs,
                (&rows, stride_span),
                cursors,
                |unit, oc, input, outputs, slots| {
                    let plane = &padded[input * plane_len..][..plane_len];
                    let at = outputs.start - oc * stride_span;
                    let (mut oh, mut ow) = (at / ow_n, at % ow_n);
                    for slot in slots {
                        // Run ic·k + kh of the patch is row oh·stride + kh
                        // of channel ic, from column ow·stride.
                        let corner = oh * stride * width + ow * stride;
                        let mut runs = patch.chunks_exact_mut(k);
                        for channel in plane.chunks_exact(height * width) {
                            for (run, row) in
                                runs.by_ref().take(k).zip(channel[corner..].chunks(width))
                            {
                                run.copy_from_slice(&row[..k]);
                            }
                        }
                        let normalized = unit.mac_row(patch);
                        let value = normalized * weight_scale * scales[input];
                        *slot = value as f32 + bias[oc];
                        ow += 1;
                        if ow == ow_n {
                            (ow, oh) = (0, oh + 1);
                        }
                    }
                },
            )
        })?;
        Ok(outputs)
    }

    /// Every linear layer runs one output feature per row load, each read
    /// from the layer's transmission table, against every input's
    /// quantized features.
    fn linear_forward(
        &mut self,
        linear: &Linear,
        encoded: &mut EncodedWeights,
        scratch: &mut PlanScratch,
        inputs: &[Tensor],
        precision: Precision,
        cursors: Cursors,
    ) -> Result<Vec<Tensor>> {
        linear.output_shape(inputs[0].shape())?;
        let PlanScratch {
            a_norm,
            scales,
            workers,
            ..
        } = scratch;
        let in_len = linear.in_features();
        a_norm.clear();
        a_norm.resize(inputs.len() * in_len, 0.0);
        scales.clear();
        for (input, codes) in inputs.iter().zip(a_norm.chunks_exact_mut(in_len)) {
            let activation_scale =
                quantize_layer_input(input, precision.activation_bits, std::iter::once(codes))?;
            scales.push(f64::from(activation_scale));
        }
        let (a_norm, scales) = (&a_norm[..], &scales[..]);
        let weight_scale = f64::from(encoded.weight_scale);
        let cursors = Cursors {
            per_output: in_len.div_ceil(self.mac_unit.segment_length()) as u64,
            ..cursors
        };
        let (rows, bias) = (
            encoded.programmed(&mut self.mac_unit)?,
            linear.bias().data(),
        );
        let mut outputs = vec![Tensor::zeros(&[linear.out_features()]); inputs.len()];
        self.run_tiled(&mut outputs, workers, |unit, _, runs| {
            walk_rows(
                unit,
                runs,
                (&rows, 1),
                cursors,
                |unit, o, input, _, slots| {
                    let codes = &a_norm[input * in_len..][..in_len];
                    let scale = weight_scale * scales[input];
                    for slot in slots {
                        *slot = (unit.mac_row(codes) * scale) as f32 + bias[o];
                    }
                },
            )
        })?;
        Ok(outputs)
    }

    /// The one MAC-loop driver. A layer's items are the batch's
    /// `(input, output)` pairs, input-major, held in `outputs`, one tensor
    /// per input; `body(unit, buffers, runs)` fills one worker's share of
    /// them, cut into [`Run`]s at input boundaries, and positions its unit's
    /// MAC cursor at every run it starts ([`walk_rows`]).
    ///
    /// With one worker the whole batch is one share, run inline on the
    /// executor's own MAC unit. With more, the items split into one
    /// contiguous share per worker, each run on a clone of the unit. MAC
    /// call `j` of a frame draws its noise purely from cursor `j`, so every
    /// worker count reproduces the sequential bits.
    fn run_tiled<F>(
        &mut self,
        outputs: &mut [Tensor],
        buffers: &mut Vec<WorkerScratch>,
        body: F,
    ) -> Result<()>
    where
        F: Fn(&mut PhotonicMacUnit, &mut WorkerScratch, &mut [Run<'_>]) -> Result<()> + Sync,
    {
        let len = outputs.first().map_or(0, Tensor::len);
        let items = outputs.len() * len;
        let workers = self.workers.min(items).max(1);
        if buffers.len() < workers {
            buffers.resize_with(workers, WorkerScratch::default);
        }
        // Share `w` holds items `w·chunk..(w + 1)·chunk`.
        let chunk = items.div_ceil(workers);
        let mut shares: Vec<Vec<Run<'_>>> =
            std::iter::repeat_with(Vec::new).take(workers).collect();
        for (input, output) in outputs.iter_mut().enumerate() {
            let (mut rest, mut start) = (output.data_mut(), 0);
            while !rest.is_empty() {
                let item = input * len + start;
                let take = (chunk - item % chunk).min(rest.len());
                let (out, tail) = std::mem::take(&mut rest).split_at_mut(take);
                shares[item / chunk].push(Run { input, start, out });
                (rest, start) = (tail, start + take);
            }
        }
        if workers == 1 {
            return body(&mut self.mac_unit, &mut buffers[0], &mut shares[0]);
        }
        let (unit, body) = (&self.mac_unit, &body);
        let results: Vec<Result<()>> = std::thread::scope(|scope| {
            let handles: Vec<_> = shares
                .iter_mut()
                .zip(buffers.iter_mut())
                .map(|(share, buffers)| {
                    let mut worker_unit = unit.clone();
                    scope.spawn(move || body(&mut worker_unit, buffers, share))
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
        results.into_iter().collect()
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

    /// A conv 2→3 (3×3, padding 1), ReLU, Flatten and Linear → 4 plan, and
    /// three 2×5×5 inputs whose largest values, so their activation scales,
    /// differ: input `t` spans `[-0.3, 1)·(t + 1)`.
    fn conv_linear_setup() -> (CompiledPlan, Vec<Tensor>) {
        use lightator_nn::layers::{Activation, Conv2d, Flatten, Linear};
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(12);
        let mut model = Sequential::new(&[2, 5, 5]);
        model.push(Conv2d::new(2, 3, 3, 1, 1, &mut rng).expect("conv"));
        model.push(Activation::relu());
        model.push(Flatten::new());
        model.push(Linear::new(75, 4, &mut rng).expect("linear"));
        let inputs = (1..=3)
            .map(|t| {
                let data = (0..50)
                    .map(|_| rng.gen_range(-0.3f32..1.0) * t as f32)
                    .collect();
                Tensor::from_vec(data, &[2, 5, 5]).expect("input")
            })
            .collect();
        let plan = compile(&model, PrecisionSchedule::Uniform(Precision::w4a4()));
        (plan, inputs)
    }

    /// With no draw in the frame, ideal and with crosstalk only, a batch
    /// input reads what it reads alone, bit for bit: each input is
    /// quantized under its own activation scale.
    #[test]
    fn batch_inputs_read_what_they_read_alone_without_draws() {
        let crosstalk_only = NoiseConfig {
            apply_crosstalk: true,
            ..NoiseConfig::ideal()
        };
        for noise in [NoiseConfig::ideal(), crosstalk_only] {
            let (mut plan, inputs) = conv_linear_setup();
            let schedule = plan.schedule();
            let mut executor = PhotonicExecutor::new(schedule, noise, 3).expect("ok");
            let batch = executor
                .forward_frame_batch(&mut plan, &inputs)
                .expect("batch");
            assert_eq!(batch.len(), inputs.len());
            for (input, got) in inputs.iter().zip(&batch) {
                let alone = executor.forward(&mut plan, input).expect("alone");
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(got), bits(&alone), "{noise:?}");
            }
        }
    }

    /// A batch whose second input has the wrong shape fails with
    /// `ModelMismatch`, runs no layer, and still consumes its one frame
    /// index, as every frame batch does.
    #[test]
    fn a_batch_with_a_misshapen_input_fails_and_consumes_one_index() {
        let (mut plan, mut inputs) = conv_linear_setup();
        inputs[1] = Tensor::zeros(&[2, 4, 5]);
        let mut executor =
            PhotonicExecutor::new(plan.schedule(), NoiseConfig::default(), 3).expect("ok");
        executor.set_next_frame_index(6);
        assert!(matches!(
            executor.forward_frame_batch(&mut plan, &inputs),
            Err(CoreError::ModelMismatch { .. })
        ));
        assert_eq!(executor.next_frame_index(), 7);
        assert_eq!(plan.stats().cache_hits, 1);
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

        // A frame batch too, through linear layers and through a conv: a
        // worker's share can end inside one input and start the next.
        let (mut conv_plan, conv_inputs) = conv_linear_setup();
        let batch = |plan: &mut CompiledPlan, inputs: &[Tensor], workers: usize| {
            let mut executor =
                PhotonicExecutor::new(schedule, NoiseConfig::default(), 31).expect("ok");
            executor.set_workers(workers);
            executor.set_next_frame_index(5);
            executor.forward_frame_batch(plan, inputs).expect("batch")
        };
        let expected = (
            batch(&mut plan, &inputs, 1),
            batch(&mut conv_plan, &conv_inputs, 1),
        );
        for workers in [2usize, 4, 8] {
            let got = (
                batch(&mut plan, &inputs, workers),
                batch(&mut conv_plan, &conv_inputs, workers),
            );
            assert_eq!(
                expected, got,
                "{workers}-worker batch diverged from 1 worker"
            );
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
