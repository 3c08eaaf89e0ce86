//! Live workload sessions: plan-compiled execution over the sensor → CA →
//! optical-core datapath.
//!
//! Opening a [`Session`] **compiles** its workload once into a
//! [`CompiledPlan`] — the pre-encoded MR weight bank, the CA operator and
//! reusable scratch buffers — and every execution entry point
//! ([`Session::run`], [`Session::run_stream`], [`Session::resume_stream`],
//! [`Session::evaluate`]) streams through that plan. Encoding draws no
//! analog noise, so the noise a frame sees depends only on its global frame
//! index.

use crate::backend::{BackendId, LoweredPlan};
use crate::error::{CoreError, Result};
use crate::exec::PhotonicAccuracy;
use crate::plan::{CompiledPlan, PlanStats};
use crate::platform::builder::Platform;
use crate::platform::report::{
    acquisition_outcome, classification_from_logits, empty_logits, filtered_from, model_mismatch,
    Report,
};
use crate::platform::workload::{acquisition_spec_of, performance_spec, Workload};
use crate::sim::SimulationReport;
use crate::stream::{
    StreamFrame, StreamReport, StreamState, TemporalDifferencer, GATE_COST_FRACTION,
};
use lightator_nn::datasets::Dataset;
use lightator_nn::tensor::Tensor;
use lightator_sensor::array::SensorArray;
use lightator_sensor::frame::RgbFrame;
use lightator_telemetry::{TraceEvent, TraceSink};
use std::borrow::Borrow;
use std::sync::Arc;

/// A live workload session: owns the sensor, the workload's lowered plan
/// (the backend-specific executable form of its [`CompiledPlan`]) and its
/// performance model.
///
/// Sessions open on the **photonic** backend by default and behave exactly
/// as they did before backends existed; [`Platform::session_on`] lowers
/// the same workload onto any registered [`crate::backend::Backend`]
/// instead.
#[derive(Debug, Clone)]
pub struct Session {
    sensor: SensorArray,
    /// The workload lowered onto this session's backend.
    lowered: Box<dyn LoweredPlan>,
    backend: BackendId,
    workload: Workload,
    stream: Option<StreamPipeline>,
    perf: SimulationReport,
    label: String,
    tracer: Option<Tracer>,
}

/// An attached trace sink plus the session's simulated-time cursor: frames
/// are laid end to end on the session's own timeline, so a session's trace
/// is a replayable schedule independent of wall-clock interleaving.
#[derive(Debug, Clone)]
struct Tracer {
    sink: Arc<dyn TraceSink>,
    now_ns: f64,
}

/// Everything a video-stream session adds on top of the frame path: the
/// temporal gate, the carried stream state and the acquisition-side
/// performance model. (The per-block tile model lives in the session's
/// [`CompiledPlan`].)
#[derive(Debug, Clone)]
struct StreamPipeline {
    differencer: TemporalDifferencer,
    /// Temporal references after the last processed frame; `None` before a
    /// stream starts.
    state: Option<StreamState>,
    /// Performance of the CA acquisition pass (always part of a computed
    /// block's cost).
    perf_acquire: SimulationReport,
    /// Sensor pixels per acquired pixel (CA pooling window, 1 without CA).
    window: usize,
}

impl Session {
    /// Opens a session on `backend_id`: validates the workload against the
    /// platform, lowers it into a [`CompiledPlan`] under the platform seed
    /// and derives its performance model.
    pub(crate) fn open(
        platform: &Platform,
        workload: Workload,
        backend_id: &BackendId,
    ) -> Result<Self> {
        let backend = platform.backend(backend_id)?;
        let config = platform.config();
        let sensor = SensorArray::new(config.sensor.clone())?;
        let spec = performance_spec(&workload, config)?;
        let stream = match &workload {
            Workload::VideoStream { stream, .. } => {
                let acquired = config.acquired_shape();
                let window = config.ca.map_or(1, |ca| ca.pooling_window);
                let differencer =
                    TemporalDifferencer::new(*stream, acquired[1], acquired[2], window)?;
                let perf_acquire = backend.performance(&acquisition_spec_of(config)?, config)?;
                Some(StreamPipeline {
                    differencer,
                    state: None,
                    perf_acquire,
                    window,
                })
            }
            _ => None,
        };
        let lowered = backend.lower(&workload, config, config.seed)?;
        // A caller's classify model must chain: every layer takes the
        // shape the previous one produces, down to a non-empty output.
        // (Its input may differ from the acquired shape: `evaluate` feeds
        // dataset tensors straight to the model.)
        if let Workload::Classify { model } = &workload {
            let output = model.output_shape()?;
            if output.is_empty() || output.contains(&0) {
                return Err(CoreError::ModelMismatch {
                    reason: format!(
                        "the classify model propagates to a degenerate output shape {output:?}"
                    ),
                });
            }
        }
        let perf = backend.performance(&spec, config)?;
        let label = workload.label();
        Ok(Session {
            sensor,
            lowered,
            backend: backend.id(),
            workload,
            stream,
            perf,
            label,
            tracer: None,
        })
    }

    /// Attaches a trace sink: every later frame emits per-frame and
    /// per-stage spans (timestamped in the session's simulated time) plus
    /// plan-cache events into `sink`.
    ///
    /// Tracing is **observationally pure** — emission only reads the
    /// already-computed performance model and plan counters, so a traced
    /// run produces bit-identical outputs to an untraced one (the property
    /// suite asserts this with analog noise on).
    pub fn attach_recorder(&mut self, sink: Arc<dyn TraceSink>) {
        self.tracer = Some(Tracer { sink, now_ns: 0.0 });
    }

    /// Detaches the trace sink, returning it if one was attached. The
    /// simulated-time cursor resets; re-attaching starts a fresh timeline.
    pub fn detach_recorder(&mut self) -> Option<Arc<dyn TraceSink>> {
        self.tracer.take().map(|tracer| tracer.sink)
    }

    /// Whether a trace sink is attached.
    #[must_use]
    pub fn has_recorder(&self) -> bool {
        self.tracer.is_some()
    }

    /// The workload this session serves.
    #[must_use]
    pub fn workload(&self) -> &Workload {
        &self.workload
    }

    /// Id of the backend this session's workload was lowered onto
    /// (`"photonic"` unless the session was opened through
    /// [`Platform::session_on`]).
    #[must_use]
    pub fn backend(&self) -> &BackendId {
        &self.backend
    }

    /// The compiled plan this session executes: CA operator, lowered
    /// optical model and the pre-encoded MR weight bank, built once when
    /// the session opened.
    #[must_use]
    pub fn plan(&self) -> &CompiledPlan {
        self.lowered.plan()
    }

    /// Encode/reuse counters of the session's plan: a healthy session
    /// reports exactly one encode however many frames it served.
    #[must_use]
    pub fn plan_stats(&self) -> PlanStats {
        self.lowered.plan().stats()
    }

    /// The workload's performance model on this platform (identical to the
    /// `perf` field of every report the session produces).
    #[must_use]
    pub fn perf(&self) -> &SimulationReport {
        &self.perf
    }

    /// Acquires a scene into the tensor fed to the optical core: the fused
    /// CA weighted sum when CA is enabled, the normalised 4-bit readout
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelMismatch`] for a scene whose resolution is
    /// not the platform sensor's, and propagates sensor and CA errors.
    pub fn acquire(&self, scene: &RgbFrame) -> Result<Tensor> {
        self.check_resolution(scene)?;
        match self.lowered.plan().ca() {
            Some(ca) => {
                let compressed = ca.acquire(scene)?;
                let data: Vec<f32> = compressed.data().iter().map(|&v| v as f32).collect();
                Ok(Tensor::from_vec(
                    data,
                    &[1, compressed.height(), compressed.width()],
                )?)
            }
            None => {
                let digital = self.sensor.capture(scene)?;
                let data: Vec<f32> = digital.normalized().iter().map(|&v| v as f32).collect();
                Ok(Tensor::from_vec(
                    data,
                    &[1, digital.height(), digital.width()],
                )?)
            }
        }
    }

    /// Rejects a scene whose resolution is not the platform sensor's: the
    /// CA banks would otherwise pool any divisible frame, transposed ones
    /// included.
    fn check_resolution(&self, scene: &RgbFrame) -> Result<()> {
        let (height, width) = (self.sensor.height(), self.sensor.width());
        if scene.height() != height || scene.width() != width {
            return Err(CoreError::ModelMismatch {
                reason: format!(
                    "frame is {}x{} but the platform sensor is {height}x{width}",
                    scene.height(),
                    scene.width()
                ),
            });
        }
        Ok(())
    }

    /// Processes one frame end to end through the cached plan and reports
    /// both the functional result and the workload's performance on this
    /// platform.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelMismatch`] for a frame whose resolution is
    /// not the platform sensor's or an acquired tensor that does not match
    /// the classify model's input shape, and propagates sensor/CA/photonic
    /// errors. A failed frame still consumes its frame index, so the noise
    /// stream of every later frame is independent of whether earlier
    /// frames succeeded. Video-stream sessions reject
    /// [`Session::run`] (without consuming an index) — use
    /// [`Session::run_stream`].
    pub fn run(&mut self, scene: &RgbFrame) -> Result<Report> {
        if matches!(self.workload, Workload::VideoStream { .. }) {
            return Err(CoreError::ModelMismatch {
                reason: "video-stream sessions process frames through `run_stream` \
                         (or `resume_stream`), not `run`"
                    .to_string(),
            });
        }
        let index = self.lowered.next_frame_index();
        let stats_before = self.tracer.as_ref().map(|_| self.lowered.plan().stats());
        let result = self.run_inner(scene);
        // One frame, one index — success or failure. (Failures can bail
        // out before the executor advances, e.g. on a sensor error or a
        // model mismatch.)
        self.lowered.set_next_frame_index(index.saturating_add(1));
        if let Some(before) = stats_before {
            self.trace_frame(index, before, result.is_ok());
        }
        result
    }

    fn run_inner(&mut self, scene: &RgbFrame) -> Result<Report> {
        let input = self.acquire(scene)?;
        // Workload-level checks first (against the workload's own model),
        // then hand the tensor to the backend's lowered plan.
        let outcome = match &self.workload {
            Workload::Classify { model } => {
                if input.shape() != model.input_shape() {
                    return Err(model_mismatch(input.shape(), model.input_shape()));
                }
                let logits = self.lowered.forward(&input)?;
                classification_from_logits(&logits, input.shape())?
            }
            Workload::Acquire => {
                // Acquisition runs through the plan's cached CA operator;
                // count the reuse even though no weight bank is involved.
                self.lowered.plan_mut().record_hits(1);
                acquisition_outcome(&input)
            }
            Workload::ImageKernel { kernel } => {
                let filtered = self.lowered.forward(&input)?;
                filtered_from(&filtered, kernel.name())
            }
            Workload::VideoStream { .. } => {
                unreachable!("`run` rejects stream sessions before run_inner")
            }
        };
        Ok(Report {
            workload: self.label.clone(),
            outcome,
            perf: self.perf.clone(),
        })
    }

    /// Emits the trace of the frame at global index `index`: its span, its
    /// stage decomposition and the plan-cache delta since `before`. Reads
    /// only the performance model and the plan counters — never executor or
    /// RNG state.
    fn trace_frame(&mut self, index: u64, before: PlanStats, ok: bool) {
        let Self {
            tracer,
            lowered,
            perf,
            label,
            ..
        } = self;
        let Some(tracer) = tracer.as_mut() else {
            return;
        };
        let track = format!("session:{label}");
        if ok {
            let start = tracer.now_ns;
            let dur = perf.frame_latency.ns();
            tracer.sink.record(
                TraceEvent::span("frame", label, &track, start, dur, perf.frame_energy.pj())
                    .with_arg("frame", index),
            );
            let mut cursor = start;
            for stage in crate::trace::frame_stages(perf) {
                tracer.sink.record(TraceEvent::span(
                    "stage",
                    stage.stage,
                    &track,
                    cursor,
                    stage.latency.ns(),
                    stage.energy.pj(),
                ));
                cursor += stage.latency.ns();
            }
            tracer.now_ns = start + dur;
        } else {
            tracer.sink.record(
                TraceEvent::instant("frame", "frame-error", &track, tracer.now_ns)
                    .with_arg("frame", index),
            );
        }
        let after = lowered.plan().stats();
        let hits = after.cache_hits.saturating_sub(before.cache_hits);
        if hits > 0 {
            tracer.sink.record(
                TraceEvent::instant("plan", "plan-hit", &track, tracer.now_ns)
                    .with_arg("count", hits),
            );
            tracer.sink.record(TraceEvent::counter(
                "plan",
                "plan_cache_hits",
                &track,
                tracer.now_ns,
                after.cache_hits as f64,
            ));
        }
        let encodes = after.encodes.saturating_sub(before.encodes);
        if encodes > 0 {
            tracer.sink.record(
                TraceEvent::instant("plan", "plan-encode", &track, tracer.now_ns)
                    .with_arg("count", encodes),
            );
            tracer.sink.record(TraceEvent::counter(
                "plan",
                "plan_encodes",
                &track,
                tracer.now_ns,
                after.encodes as f64,
            ));
        }
    }

    /// Emits the trace of one gated stream frame: the frame span plus the
    /// acquisition and compute stages, each scaled by the frame's duty
    /// cycle (computed fraction + [`GATE_COST_FRACTION`] feedback floor),
    /// so stage sums reproduce the frame's gated latency and energy.
    fn trace_stream_frame(&mut self, frame: &StreamFrame, perf_acquire: &SimulationReport) {
        let Self {
            tracer,
            perf,
            label,
            ..
        } = self;
        let Some(tracer) = tracer.as_mut() else {
            return;
        };
        let track = format!("session:{label}");
        let blocks = frame.computed_blocks + frame.skipped_blocks;
        let fraction = if blocks == 0 {
            0.0
        } else {
            frame.computed_blocks as f64 / blocks as f64
        };
        let duty = fraction + GATE_COST_FRACTION * (1.0 - fraction);
        let start = tracer.now_ns;
        tracer.sink.record(
            TraceEvent::span(
                "frame",
                label,
                &track,
                start,
                frame.latency.ns(),
                frame.energy.pj(),
            )
            .with_arg("frame", frame.index)
            .with_arg("computed_blocks", frame.computed_blocks)
            .with_arg("skipped_blocks", frame.skipped_blocks),
        );
        let mut cursor = start;
        for stage in crate::trace::frame_stages(perf_acquire)
            .iter()
            .chain(crate::trace::frame_stages(perf).iter())
        {
            let dur = stage.latency.ns() * duty;
            tracer.sink.record(TraceEvent::span(
                "stage",
                stage.stage,
                &track,
                cursor,
                dur,
                stage.energy.pj() * duty,
            ));
            cursor += dur;
        }
        tracer.now_ns = start + frame.latency.ns();
    }

    /// Index of the global frame the next [`Session::run`] executes as.
    ///
    /// Fresh sessions start at frame 0 and every processed frame —
    /// successful or not, on any workload — consumes exactly one index.
    /// This is what keeps a serving pool's ticket accounting aligned with
    /// sequential execution even around failed requests. The index
    /// saturates at `u64::MAX`: frames past it replay that frame's noise
    /// stream instead of wrapping to frame 0's.
    #[must_use]
    pub fn next_frame_index(&self) -> u64 {
        self.lowered.next_frame_index()
    }

    /// Positions the session at global frame `index`.
    ///
    /// The analog-noise stream is a deterministic function of
    /// `(seed, frame index)`, so a session that seeks to `index` before
    /// running a frame produces exactly what a single sequential session
    /// would have produced for its `index`-th frame. A sharded serving pool
    /// seeks each shard to the ticket of the batch it drained, which is what
    /// keeps pooled execution bit-identical to sequential execution.
    pub fn seek_frame(&mut self, index: u64) {
        self.lowered.set_next_frame_index(index);
    }

    /// Processes a video stream end to end under the frame-delta gate,
    /// starting a **fresh** stream: the first frame computes every block,
    /// and every later frame recomputes only the blocks whose scene delta
    /// exceeds the configured threshold — the rest ride the DMVA feedback
    /// path at [`GATE_COST_FRACTION`] of their optical cost.
    ///
    /// Every frame — computed, partially skipped or fully skipped —
    /// consumes exactly one global frame index, so the analog-noise stream
    /// of a stream frame depends only on its position, exactly like the
    /// single-frame workloads. A failed frame aborts the stream having
    /// consumed its index.
    ///
    /// The session keeps the final [`StreamState`] (see
    /// [`Session::stream_state`]), so a later [`Session::resume_stream`]
    /// can continue the stream — or replay its tail on a fresh session —
    /// bit-exactly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelMismatch`] for non-stream workloads or a
    /// frame whose resolution does not match the platform sensor, and
    /// propagates sensor/CA/photonic errors.
    pub fn run_stream<I>(&mut self, frames: I) -> Result<StreamReport>
    where
        I: IntoIterator,
        I::Item: Borrow<RgbFrame>,
    {
        if let Some(pipeline) = self.stream.as_mut() {
            pipeline.state = None;
        }
        self.continue_stream(frames)
    }

    /// Continues a stream from a previously captured [`StreamState`]
    /// instead of starting fresh.
    ///
    /// Combined with [`Session::seek_frame`], this replays the tail of a
    /// stream bit-exactly: seek to the global index of the first tail
    /// frame, restore the state captured after the preceding frame, and the
    /// session produces exactly what a single full run produced for those
    /// frames — analog noise included.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run_stream`], plus [`CoreError::ModelMismatch`]
    /// if the state's shapes do not match this session's stream geometry.
    pub fn resume_stream<I>(&mut self, state: StreamState, frames: I) -> Result<StreamReport>
    where
        I: IntoIterator,
        I::Item: Borrow<RgbFrame>,
    {
        let pipeline = self.stream.as_mut().ok_or_else(non_stream_error)?;
        let (rows, cols) = pipeline.differencer.grid();
        let bs = pipeline.differencer.config().block_size;
        let expected = [1, rows * bs, cols * bs];
        if state.ref_acquired.shape() != expected || state.prev_output.shape() != expected {
            return Err(CoreError::ModelMismatch {
                reason: format!(
                    "stream state (acquired {:?}, output {:?}) does not match this \
                     session's acquired map {expected:?}",
                    state.ref_acquired.shape(),
                    state.prev_output.shape()
                ),
            });
        }
        // The reference scene must match the sensor, not just the acquired
        // map: two platforms can share an acquired shape while differing in
        // sensor resolution (CA window), and the gate indexes the scene.
        let (sensor_h, sensor_w) = (rows * bs * pipeline.window, cols * bs * pipeline.window);
        if state.ref_scene.height() != sensor_h || state.ref_scene.width() != sensor_w {
            return Err(CoreError::ModelMismatch {
                reason: format!(
                    "stream state's reference scene is {}x{} but this session's \
                     sensor is {sensor_h}x{sensor_w}",
                    state.ref_scene.height(),
                    state.ref_scene.width()
                ),
            });
        }
        pipeline.state = Some(state);
        self.continue_stream(frames)
    }

    /// The stream's temporal state after the last processed frame, or
    /// `None` before any stream frame ran. Capture it to later
    /// [`Session::resume_stream`] from the following frame.
    #[must_use]
    pub fn stream_state(&self) -> Option<StreamState> {
        self.stream.as_ref().and_then(|p| p.state.clone())
    }

    /// Drives the stream over `frames` with whatever state the pipeline
    /// currently holds.
    fn continue_stream<I>(&mut self, frames: I) -> Result<StreamReport>
    where
        I: IntoIterator,
        I::Item: Borrow<RgbFrame>,
    {
        let pipeline = self.stream.as_ref().ok_or_else(non_stream_error)?;
        let mut report = StreamReport::new(self.label.clone(), pipeline.differencer.blocks());
        let dense_latency = pipeline.perf_acquire.frame_latency + self.perf.frame_latency;
        let dense_energy = pipeline.perf_acquire.frame_energy + self.perf.frame_energy;
        let perf_acquire = self.tracer.is_some().then(|| pipeline.perf_acquire.clone());
        for frame in frames {
            let index = self.lowered.next_frame_index();
            let result = self.stream_frame(frame.borrow(), index);
            // One frame, one index — success or failure, however many
            // block tiles the gate actually computed.
            self.lowered.set_next_frame_index(index.saturating_add(1));
            let frame = match result {
                Ok(frame) => frame,
                Err(err) => {
                    if let Some(tracer) = self.tracer.as_mut() {
                        let track = format!("session:{}", self.label);
                        tracer.sink.record(
                            TraceEvent::instant("frame", "frame-error", &track, tracer.now_ns)
                                .with_arg("frame", index),
                        );
                    }
                    return Err(err);
                }
            };
            if let Some(perf_acquire) = perf_acquire.as_ref() {
                self.trace_stream_frame(&frame, perf_acquire);
            }
            report.push(frame, dense_latency, dense_energy);
        }
        Ok(report)
    }

    /// Processes one stream frame: gate, per-block optical work through the
    /// cached plan, feedback reuse, and the frame's gated performance
    /// numbers.
    fn stream_frame(&mut self, scene: &RgbFrame, index: u64) -> Result<StreamFrame> {
        self.check_resolution(scene)?;
        // Gate first: the delta decision only reads the raw scene (the CRC
        // comparators sit before the optical path), so a fully-skipped
        // frame never pays for acquisition at all.
        let mask = {
            let pipeline = self
                .stream
                .as_ref()
                .ok_or_else(|| CoreError::ModelMismatch {
                    reason: "stream frame submitted to a non-stream session".to_string(),
                })?;
            pipeline
                .differencer
                .gate(scene, pipeline.state.as_ref().map(|state| &state.ref_scene))
        };
        // Acquire only when at least one block actually wakes the CA banks.
        let acquired = if mask.iter().any(|&compute| compute) {
            Some(self.acquire(scene)?)
        } else {
            None
        };
        let Self {
            lowered,
            stream,
            perf,
            ..
        } = self;
        let pipeline = stream.as_mut().ok_or_else(|| CoreError::ModelMismatch {
            reason: "stream frame submitted to a non-stream session".to_string(),
        })?;
        let (rows, cols) = pipeline.differencer.grid();
        let bs = pipeline.differencer.config().block_size;
        let (ah, aw) = (rows * bs, cols * bs);

        // Grid positions of the blocks the gate computes, in row-major
        // order: the order their tiles run and their outputs come back in.
        let positions: Vec<(usize, usize)> = mask
            .iter()
            .enumerate()
            .filter(|&(_, &compute)| compute)
            .map(|(block, _)| (block / cols, block % cols))
            .collect();

        // A fresh stream's first frame has no reference scene, so the gate
        // computes every block and the refresh below overwrites all of the
        // zeroed acquired reference.
        let mut state = pipeline.state.take().unwrap_or_else(|| StreamState {
            ref_scene: scene.clone(),
            ref_acquired: Tensor::zeros(&[1, ah, aw]),
            prev_output: Tensor::zeros(&[1, ah, aw]),
        });

        // Refresh the references of every computed block: the feedback path
        // of later frames replays the *last computed* values, and deltas are
        // measured against the last computed scene so sub-threshold drift
        // cannot accumulate unboundedly. (`acquired` is `None` only when no
        // block computes.)
        if let Some(acquired) = &acquired {
            let sensor_block = bs * pipeline.window;
            for &(br, bc) in &positions {
                state.ref_scene.copy_rect_from(
                    scene,
                    (br * sensor_block, bc * sensor_block),
                    (sensor_block, sensor_block),
                )?;
                copy_tensor_block(&mut state.ref_acquired, acquired, aw, br, bc, bs);
            }
        }

        // Gather the computed blocks' tiles into the plan's reusable tile
        // buffer and run them — however many there are — inside one frame's
        // noise stream, in row-major block order.
        let mut tiles = lowered.plan_mut().take_tiles();
        for (used, &(br, bc)) in positions.iter().enumerate() {
            if used < tiles.len() {
                gather_tile_into(
                    tiles[used].data_mut(),
                    &state.ref_acquired,
                    ah,
                    aw,
                    bs,
                    br,
                    bc,
                );
            } else {
                tiles.push(gather_tile(&state.ref_acquired, ah, aw, bs, br, bc)?);
            }
        }
        tiles.truncate(positions.len());
        let outputs = lowered.forward_frame_batch(&tiles);
        lowered.plan_mut().return_tiles(tiles);
        let outputs = outputs?;

        for (&(br, bc), tile) in positions.iter().zip(&outputs) {
            scatter_tile(&mut state.prev_output, tile, aw, bs, br, bc);
        }

        let computed = positions.len();
        let skipped = mask.len() - computed;
        let fraction = computed as f64 / mask.len() as f64;
        let duty = fraction + GATE_COST_FRACTION * (1.0 - fraction);
        let latency = (pipeline.perf_acquire.frame_latency + perf.frame_latency) * duty;
        let energy = (pipeline.perf_acquire.frame_energy + perf.frame_energy) * duty;

        let frame = StreamFrame {
            index,
            computed_blocks: computed,
            skipped_blocks: skipped,
            shape: vec![1, ah, aw],
            data: state.prev_output.data().to_vec(),
            latency,
            energy,
        };
        pipeline.state = Some(state);
        Ok(frame)
    }

    /// Evaluates the classify workload's top-1 accuracy on at most `limit`
    /// samples of a dataset's test split: through the session's lowered
    /// plan, one frame index per sample, and digitally on the workload's
    /// model for reference. `limit = 0` evaluates nothing and reports
    /// `samples: 0`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ModelMismatch`] for non-classify workloads and
    /// propagates backend errors.
    pub fn evaluate(&mut self, dataset: &Dataset, limit: usize) -> Result<PhotonicAccuracy> {
        let Self {
            lowered, workload, ..
        } = self;
        let Workload::Classify { model } = workload else {
            return Err(CoreError::ModelMismatch {
                reason: format!(
                    "accuracy evaluation needs a classify workload, not `{}`",
                    workload.label()
                ),
            });
        };
        let (mut samples, mut photonic, mut digital) = (0usize, 0usize, 0usize);
        for sample in dataset.test().iter().take(limit) {
            samples += 1;
            let class = lowered.forward(&sample.input)?.argmax();
            if class.ok_or_else(empty_logits)? == sample.label {
                photonic += 1;
            }
            if model.predict(&sample.input)? == sample.label {
                digital += 1;
            }
        }
        Ok(PhotonicAccuracy {
            photonic: photonic as f64 / samples.max(1) as f64,
            digital: digital as f64 / samples.max(1) as f64,
            samples,
        })
    }
}

fn non_stream_error() -> CoreError {
    CoreError::ModelMismatch {
        reason: "streaming needs a `Workload::VideoStream` session".to_string(),
    }
}

/// Copies one gate block (in acquired pixels) of `source` into `target`;
/// both are `[1, h, w]` tensors of width `width`.
fn copy_tensor_block(
    target: &mut Tensor,
    source: &Tensor,
    width: usize,
    block_row: usize,
    block_col: usize,
    block_size: usize,
) {
    for row in block_row * block_size..(block_row + 1) * block_size {
        let base = row * width + block_col * block_size;
        target.data_mut()[base..base + block_size]
            .copy_from_slice(&source.data()[base..base + block_size]);
    }
}

/// Writes a `block+halo` tile (`[1, bs+2, bs+2]`) of the acquired map into
/// `data`, zero-filling outside the frame — exactly the receptive field a
/// padded 3×3 convolution sees for that block.
fn gather_tile_into(
    data: &mut [f32],
    acquired: &Tensor,
    height: usize,
    width: usize,
    block_size: usize,
    block_row: usize,
    block_col: usize,
) {
    let edge = block_size + 2;
    data.fill(0.0);
    for tr in 0..edge {
        let row = block_row * block_size + tr;
        if row == 0 || row > height {
            continue; // above the first or below the last frame row
        }
        let row = row - 1;
        for tc in 0..edge {
            let col = block_col * block_size + tc;
            if col == 0 || col > width {
                continue;
            }
            data[tr * edge + tc] = acquired.data()[row * width + col - 1];
        }
    }
}

/// Extracts a fresh `block+halo` tile tensor from the acquired map (the
/// allocating fallback behind the plan's reusable tile buffer).
fn gather_tile(
    acquired: &Tensor,
    height: usize,
    width: usize,
    block_size: usize,
    block_row: usize,
    block_col: usize,
) -> Result<Tensor> {
    let edge = block_size + 2;
    let mut data = vec![0.0f32; edge * edge];
    gather_tile_into(
        &mut data, acquired, height, width, block_size, block_row, block_col,
    );
    Ok(Tensor::from_vec(data, &[1, edge, edge])?)
}

/// Writes a computed `[1, bs, bs]` tile back into the `[1, h, w]` output.
fn scatter_tile(
    output: &mut Tensor,
    tile: &Tensor,
    width: usize,
    block_size: usize,
    block_row: usize,
    block_col: usize,
) {
    for tr in 0..block_size {
        let base = (block_row * block_size + tr) * width + block_col * block_size;
        output.data_mut()[base..base + block_size]
            .copy_from_slice(&tile.data()[tr * block_size..(tr + 1) * block_size]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ca::CaConfig;
    use crate::platform::{ImageKernel, Platform};
    use lightator_nn::layers::{Activation, Flatten, Linear};
    use lightator_nn::model::Sequential;
    use lightator_photonics::noise::NoiseConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_model(input: [usize; 3], classes: usize) -> Sequential {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = Sequential::new(&input);
        model.push(Flatten::new());
        model.push(Linear::new(input.iter().product(), 12, &mut rng).expect("ok"));
        model.push(Activation::relu());
        model.push(Linear::new(12, classes, &mut rng).expect("ok"));
        model
    }

    fn small_platform(with_ca: bool, resolution: usize) -> Platform {
        let builder = Platform::builder()
            .sensor_resolution(resolution, resolution)
            .noise(NoiseConfig::ideal());
        let builder = if with_ca {
            builder.compressive_acquisition(CaConfig::default())
        } else {
            builder.without_compressive_acquisition()
        };
        builder.build().expect("valid platform")
    }

    #[test]
    fn acquisition_with_ca_halves_each_dimension() {
        let platform = small_platform(true, 8);
        assert_eq!(platform.acquired_shape(), [1, 4, 4]);
        let session = platform.session(Workload::Acquire).expect("session");
        let scene = RgbFrame::filled(8, 8, [0.4, 0.6, 0.2]).expect("ok");
        let tensor = session.acquire(&scene).expect("ok");
        assert_eq!(tensor.shape(), &[1, 4, 4]);
    }

    #[test]
    fn acquisition_without_ca_keeps_resolution() {
        let platform = small_platform(false, 8);
        let session = platform.session(Workload::Acquire).expect("session");
        let scene = RgbFrame::filled(8, 8, [0.4, 0.6, 0.2]).expect("ok");
        let tensor = session.acquire(&scene).expect("ok");
        assert_eq!(tensor.shape(), &[1, 8, 8]);
    }

    #[test]
    fn classify_run_reports_accuracy_and_perf_together() {
        let platform = small_platform(true, 8);
        let model = tiny_model([1, 4, 4], 3);
        let mut session = platform
            .session(Workload::Classify { model })
            .expect("session");
        let scene = RgbFrame::filled(8, 8, [0.9, 0.2, 0.1]).expect("ok");
        let report = session.run(&scene).expect("frame processed");
        assert!(report.class().expect("class") < 3);
        assert_eq!(report.logits().expect("logits").len(), 3);
        // The same report carries the perf side.
        assert!(report.latency().ns() > 0.0);
        assert!(report.max_power().watts() > 0.0);
        assert!(report.energy().joules() > 0.0);
        assert!(report.fps() > 0.0);
        assert!(report.kfps_per_watt() > 0.0);
    }

    #[test]
    fn mismatched_model_is_reported() {
        // A classify model that cannot ingest acquired frames still opens
        // (the evaluate path feeds dataset tensors directly); the mismatch
        // surfaces when a frame is actually run.
        let platform = small_platform(true, 8);
        let model = tiny_model([1, 8, 8], 3);
        let mut session = platform
            .session(Workload::Classify { model })
            .expect("session");
        let scene = RgbFrame::filled(8, 8, [0.5, 0.5, 0.5]).expect("ok");
        assert!(matches!(
            session.run(&scene),
            Err(CoreError::ModelMismatch { .. })
        ));
    }

    #[test]
    fn sessions_compile_their_plan_once_and_count_reuse() {
        // The tentpole contract: one encode at open, a cache hit per frame.
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let mut session = platform
            .session(Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            })
            .expect("session");
        assert_eq!(session.plan_stats().encodes, 1);
        assert_eq!(session.plan_stats().cache_hits, 0);
        let scene = RgbFrame::filled(8, 8, [0.3, 0.6, 0.9]).expect("ok");
        for _ in 0..7 {
            session.run(&scene).expect("ok");
        }
        let stats = session.plan_stats();
        assert_eq!(stats.encodes, 1, "steady state never re-encodes");
        assert_eq!(stats.cache_hits, 7, "one hit per run");
    }

    #[test]
    fn failed_frames_still_consume_their_frame_index() {
        // A failed frame must not shift the noise stream of later frames:
        // the session behaves as if the slot was used, matching a serving
        // pool's per-ticket accounting.
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let workload = || Workload::Classify {
            model: tiny_model([1, 4, 4], 3),
        };
        let good = RgbFrame::filled(8, 8, [0.3, 0.8, 0.5]).expect("ok");
        let bad = RgbFrame::filled(6, 6, [0.5, 0.5, 0.5]).expect("ok");

        let mut with_error = platform.session(workload()).expect("session");
        assert!(with_error.run(&bad).is_err());
        assert_eq!(with_error.next_frame_index(), 1, "error skipped the slot");
        let after_error = with_error.run(&good).expect("ok");

        let mut seeked = platform.session(workload()).expect("session");
        seeked.seek_frame(1);
        assert_eq!(seeked.run(&good).expect("ok"), after_error);
    }

    #[test]
    fn frames_of_the_wrong_resolution_fail_and_consume_their_index() {
        // An 8x16 (height x width) CA platform acquires to [1, 4, 8]; a
        // transposed 16x8 frame pools to [1, 8, 4] unless it is checked.
        let platform = Platform::builder()
            .sensor_resolution(8, 16)
            .build()
            .expect("platform");
        let transposed = RgbFrame::filled(16, 8, [0.5, 0.5, 0.5]).expect("ok");
        for workload in [
            Workload::Acquire,
            Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            },
            Workload::Classify {
                model: tiny_model([1, 4, 8], 3),
            },
        ] {
            let label = workload.label();
            let mut session = platform.session(workload).expect("session");
            let err = session.run(&transposed).expect_err("transposed frame");
            assert!(
                matches!(err, CoreError::ModelMismatch { .. }),
                "{label}: {err}"
            );
            assert!(err.to_string().contains("16x8"), "{label}: {err}");
            assert_eq!(session.next_frame_index(), 1, "{label}");
        }
    }

    #[test]
    fn frame_counters_saturate_at_the_last_index() {
        // Noisy optics, so the last frame's noise differs from frame 0's.
        // Running past `u64::MAX` replays the last frame instead of
        // panicking or wrapping to frame 0.
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let workload = || Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        };
        let data = (0..8 * 8 * 3).map(|i| f64::from(i % 7) / 7.0).collect();
        let scene = RgbFrame::new(8, 8, data).expect("ok");
        let bits = |report: Report| -> Vec<u32> {
            let (_, values) = report.frame().expect("filtered frame");
            values.iter().map(|v| v.to_bits()).collect()
        };
        let first = bits(
            platform
                .session(workload())
                .expect("session")
                .run(&scene)
                .expect("ok"),
        );
        let mut session = platform.session(workload()).expect("session");
        session.seek_frame(u64::MAX);
        let last = bits(session.run(&scene).expect("frame u64::MAX"));
        assert_eq!(session.next_frame_index(), u64::MAX);
        let past = bits(session.run(&scene).expect("frame past u64::MAX"));
        assert_eq!(past, last, "the counter saturates at the last frame");
        assert_ne!(last, first, "the last frame is not frame 0");
    }

    #[test]
    fn classify_models_whose_layers_do_not_chain_fail_to_open() {
        // Flattening [1, 4, 4] yields 16 features; a `Linear` taking 10
        // cannot follow. The spec builder accepts the model, the session
        // does not.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = Sequential::new(&[1, 4, 4]);
        model.push(Flatten::new());
        model.push(Linear::new(10, 3, &mut rng).expect("linear"));
        let err = small_platform(true, 8)
            .session(Workload::Classify { model })
            .expect_err("the layers do not chain");
        assert!(
            matches!(
                err,
                CoreError::Nn(lightator_nn::NnError::ShapeMismatch { .. })
            ),
            "{err}"
        );
    }

    #[test]
    fn seeked_sessions_reproduce_sequential_frames() {
        // With the paper's (noisy) optics: running frame i on a session
        // seeked to i matches the i-th frame of a sequential session.
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let scenes: Vec<RgbFrame> = (0..4)
            .map(|i| RgbFrame::filled(8, 8, [0.1 + 0.2 * f64::from(i), 0.4, 0.6]).expect("ok"))
            .collect();
        let workload = || Workload::Classify {
            model: tiny_model([1, 4, 4], 3),
        };
        let mut sequential = platform.session(workload()).expect("session");
        let expected: Vec<Report> = scenes
            .iter()
            .map(|s| sequential.run(s).expect("ok"))
            .collect();
        for (i, scene) in scenes.iter().enumerate() {
            let mut seeked = platform.session(workload()).expect("session");
            seeked.seek_frame(i as u64);
            assert_eq!(seeked.run(scene).expect("ok"), expected[i]);
        }
    }

    #[test]
    fn image_kernels_filter_the_acquired_frame() {
        let platform = small_platform(true, 16);
        // A vertical edge: left half dark, right half bright.
        let mut data = Vec::new();
        for _row in 0..16 {
            for col in 0..16 {
                let v = if col < 8 { 0.1 } else { 0.9 };
                data.extend_from_slice(&[v, v, v]);
            }
        }
        let scene = RgbFrame::new(16, 16, data).expect("ok");
        let mut session = platform
            .session(Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            })
            .expect("session");
        let report = session.run(&scene).expect("ok");
        let (shape, values) = report.frame().expect("filtered frame");
        assert_eq!(shape, &[1, 8, 8]);
        // The response at the edge column dominates the flat regions.
        let max_mag = values.iter().fold(0.0f32, |m, &v| m.max(v.abs()));
        let flat_mag = values[0].abs();
        assert!(max_mag > 5.0 * (flat_mag + 1e-6), "edge not detected");
        assert!(report.latency().ns() > 0.0);
    }

    #[test]
    fn identity_kernel_roughly_preserves_the_frame() {
        let platform = small_platform(true, 8);
        let scene = RgbFrame::filled(8, 8, [0.6, 0.6, 0.6]).expect("ok");
        let mut session = platform
            .session(Workload::ImageKernel {
                kernel: ImageKernel::Identity,
            })
            .expect("session");
        let acquired = session.acquire(&scene).expect("ok");
        let report = session.run(&scene).expect("ok");
        let (_, values) = report.frame().expect("filtered frame");
        for (a, b) in acquired.data().iter().zip(values) {
            assert!((a - b).abs() < 0.1, "identity drifted: {a} vs {b}");
        }
    }

    fn stream_workload(threshold: f64) -> Workload {
        Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: crate::stream::StreamConfig {
                block_size: 2,
                delta_threshold: threshold,
            },
        }
    }

    fn moving_scenes(count: usize) -> Vec<RgbFrame> {
        // A bright pixel hopping along the top row of a 16x16 scene: low
        // motion, so most 2x2 acquired blocks stay on the feedback path.
        (0..count)
            .map(|i| {
                let mut scene = RgbFrame::filled(16, 16, [0.2, 0.2, 0.2]).expect("ok");
                scene.set_pixel(0, i % 16, [0.9, 0.9, 0.9]).expect("ok");
                scene
            })
            .collect()
    }

    #[test]
    fn static_streams_skip_every_block_after_the_first_frame() {
        // Default (noisy) optics: skipping is a gating decision on the
        // deterministic scene, so noise cannot flip it.
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let mut session = platform.session(stream_workload(0.05)).expect("session");
        let frames = vec![RgbFrame::filled(16, 16, [0.5, 0.5, 0.5]).expect("ok"); 4];
        let report = session.run_stream(&frames).expect("stream");
        assert_eq!(report.frames_processed(), 4);
        assert_eq!(report.frames[0].skipped_blocks, 0, "first frame is dense");
        for frame in &report.frames[1..] {
            assert_eq!(frame.computed_blocks, 0, "static frames must skip");
            assert_eq!(frame.data, report.frames[0].data, "feedback replays");
        }
        assert!(report.speedup_vs_dense() > 2.0);
        assert_eq!(session.next_frame_index(), 4);
    }

    #[test]
    fn zero_threshold_recomputes_every_block() {
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let mut session = platform.session(stream_workload(0.0)).expect("session");
        let report = session.run_stream(moving_scenes(3)).expect("stream");
        assert_eq!(report.blocks_skipped(), 0);
        assert!((report.speedup_vs_dense() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn low_motion_streams_skip_most_blocks_and_track_dense_output() {
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .noise(NoiseConfig::ideal())
            .build()
            .expect("platform");
        let frames = moving_scenes(6);
        let mut gated = platform.session(stream_workload(0.05)).expect("session");
        let report = gated.run_stream(&frames).expect("stream");
        assert!(
            report.skip_ratio() > 0.5,
            "low motion must skip most blocks, got {:.2}",
            report.skip_ratio()
        );
        assert!(report.speedup_vs_dense() > 1.5);

        // With ideal optics, gated outputs match dense outputs wherever the
        // scene is temporally static (the gate is exact for zero delta).
        let mut dense = platform.session(stream_workload(0.0)).expect("session");
        let dense_report = dense.run_stream(&frames).expect("stream");
        for (g, d) in report.frames.iter().zip(&dense_report.frames) {
            let mismatch = g
                .data
                .iter()
                .zip(&d.data)
                .filter(|(a, b)| (**a - **b).abs() > 1e-6)
                .count();
            assert!(
                mismatch < g.data.len() / 4,
                "gated output diverged on {mismatch}/{} values",
                g.data.len()
            );
        }
    }

    #[test]
    fn stream_sessions_reject_the_frame_entry_points() {
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let mut session = platform.session(stream_workload(0.05)).expect("session");
        let scene = RgbFrame::filled(16, 16, [0.5, 0.5, 0.5]).expect("ok");
        assert!(session.run(&scene).is_err());
        assert_eq!(session.next_frame_index(), 0, "rejection consumes nothing");
        // And frame sessions reject the stream entry points.
        let mut acquire = platform.session(Workload::Acquire).expect("session");
        assert!(acquire.run_stream(moving_scenes(1)).is_err());
    }

    #[test]
    fn stream_frames_of_the_wrong_resolution_fail_but_consume_their_index() {
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let mut session = platform.session(stream_workload(0.05)).expect("session");
        let bad = RgbFrame::filled(8, 8, [0.5, 0.5, 0.5]).expect("ok");
        assert!(session.run_stream(&[bad]).is_err());
        assert_eq!(session.next_frame_index(), 1);
    }

    #[test]
    fn resumed_streams_reproduce_the_tail_of_a_full_run() {
        // Noise stays on: the tail replay must still be bit-exact.
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let frames = moving_scenes(8);
        let split = 3usize;

        let mut full = platform.session(stream_workload(0.05)).expect("session");
        let full_report = full.run_stream(&frames).expect("stream");

        let mut prefix = platform.session(stream_workload(0.05)).expect("session");
        prefix.run_stream(&frames[..split]).expect("prefix");
        let state = prefix.stream_state().expect("state after the prefix");

        let mut tail = platform.session(stream_workload(0.05)).expect("session");
        tail.seek_frame(split as u64);
        let tail_report = tail
            .resume_stream(state, &frames[split..])
            .expect("tail replay");
        assert_eq!(
            tail_report.frames,
            full_report.frames[split..],
            "tail replay diverged from the full run"
        );
    }

    #[test]
    fn resume_rejects_mismatched_stream_state() {
        let platform16 = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let platform32 = Platform::builder()
            .sensor_resolution(32, 32)
            .build()
            .expect("platform");
        let mut small = platform16.session(stream_workload(0.05)).expect("session");
        small.run_stream(moving_scenes(2)).expect("stream");
        let state = small.stream_state().expect("state");
        let mut large = platform32.session(stream_workload(0.05)).expect("session");
        assert!(large.resume_stream(state, moving_scenes(1)).is_err());
    }

    #[test]
    fn resume_rejects_state_whose_scene_matches_the_acquired_map_but_not_the_sensor() {
        // Both platforms acquire to a 16x16 map, but the sensors differ
        // (16x16 without CA vs 32x32 with 2x2 CA): the acquired-shape check
        // alone would accept the state and the gate would then index the
        // wrong-sized reference scene.
        let no_ca = Platform::builder()
            .sensor_resolution(16, 16)
            .without_compressive_acquisition()
            .build()
            .expect("platform");
        let with_ca = Platform::builder()
            .sensor_resolution(32, 32)
            .build()
            .expect("platform");
        let mut small = no_ca.session(stream_workload(0.05)).expect("session");
        small.run_stream(moving_scenes(2)).expect("stream");
        let state = small.stream_state().expect("state");
        let mut large = with_ca.session(stream_workload(0.05)).expect("session");
        let err = large
            .resume_stream(state, moving_scenes(1))
            .expect_err("sensor mismatch");
        assert!(err.to_string().contains("reference scene"));
    }

    #[test]
    fn fully_skipped_frames_do_not_touch_the_acquisition_path() {
        // A static stream after frame 0: the gate short-circuits before
        // acquisition, so outputs keep replaying the feedback path.
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let mut session = platform.session(stream_workload(0.05)).expect("session");
        let frames = vec![RgbFrame::filled(16, 16, [0.4, 0.4, 0.4]).expect("ok"); 3];
        let report = session.run_stream(&frames).expect("stream");
        assert_eq!(report.frames[1].computed_blocks, 0);
        assert_eq!(report.frames[2].data, report.frames[0].data);
    }

    #[test]
    fn stream_sessions_reject_indivisible_block_grids() {
        // 16x16 sensor with 2x2 CA acquires to 8x8; a block size of 3 does
        // not divide it.
        let err = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform")
            .session(Workload::VideoStream {
                kernel: ImageKernel::Identity,
                stream: crate::stream::StreamConfig {
                    block_size: 3,
                    delta_threshold: 0.05,
                },
            })
            .expect_err("3 does not divide 8");
        assert!(err.to_string().contains("block size"));
    }

    #[test]
    fn evaluate_rejects_non_classify_workloads() {
        let platform = small_platform(true, 8);
        let mut session = platform.session(Workload::Acquire).expect("session");
        let mut rng = SmallRng::seed_from_u64(3);
        let dataset = lightator_nn::datasets::generate(
            "tiny",
            lightator_nn::datasets::SyntheticConfig::tiny(2),
            &mut rng,
        )
        .expect("dataset");
        assert!(session.evaluate(&dataset, 2).is_err());
    }

    #[test]
    fn evaluate_honours_its_sample_limit_including_zero() {
        // Regression: a limit of 0 used to evaluate one sample.
        let mut rng = SmallRng::seed_from_u64(3);
        let dataset = lightator_nn::datasets::generate(
            "tiny",
            lightator_nn::datasets::SyntheticConfig::tiny(2),
            &mut rng,
        )
        .expect("dataset");
        let platform = small_platform(true, 8);
        let mut session = platform
            .session(Workload::Classify {
                model: tiny_model(dataset.input_shape(), 2),
            })
            .expect("session");
        let none = session.evaluate(&dataset, 0).expect("empty evaluation");
        assert_eq!(none.samples, 0);
        assert_eq!(session.next_frame_index(), 0, "nothing ran");
        assert_eq!(session.plan_stats().cache_hits, 0);
        assert_eq!(session.evaluate(&dataset, 3).expect("ok").samples, 3);
        let all = dataset.test().len();
        let capped = session.evaluate(&dataset, all + 5).expect("ok");
        assert_eq!(capped.samples, all, "a limit past the split is capped");
    }
}
