//! The three frame workloads: `kernel-sobel64` and `classify-lenet` (one
//! `Session::run` per frame) and `stream-lowmotion64` (one
//! `Session::resume_stream` per frame). Each runs one single-worker
//! session, closed loop: the next frame starts when the previous returns.
//! Every host time is calibrated (see `calib.rs`).

use std::iter::once;
use std::sync::Arc;
use std::time::{Duration, Instant};

use lightator_baselines::electronic::ElectronicBaseline;
use lightator_baselines::reference::ElectronicReference;
use lightator_core::backend::{Backend, BackendId, PhotonicBackend};
use lightator_core::plan::CompiledPlan;
use lightator_core::platform::{ImageKernel, Platform, Report, Session, Workload};
use lightator_core::stream::{StreamConfig, StreamFrame, TemporalDifferencer};
use lightator_nn::layers::LayerNode;
use lightator_nn::models::build_lenet;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use lightator_sensor::video::{MotionPattern, SyntheticVideo, SyntheticVideoConfig};
use lightator_telemetry::{TraceEvent, TraceRecorder, TraceSink};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib::{Calibration, Reference};
use crate::record::{mean, median, percentile, Outcome};
use crate::{micro, write_trace, Args, BoxError};

/// Timed batches of platform + session builds per run; `setup_s` is the
/// median per-build time over the batches. A lone build takes a few
/// microseconds for the kernel and stream plans, too short to time on its
/// own next to the calibration slices, so each batch times several back to
/// back.
const SETUP_BATCHES: usize = 15;
const SETUPS_PER_BATCH: usize = 10;
/// Plan compiles timed per traced run; `plan.compile_ms` is their median.
const COMPILE_REPS: usize = 25;
/// Share of a traced run spent measuring untraced frames per second (the
/// rest, minus the fixed microbenchmarks, runs traced frames).
const UNTRACED_SHARE: f64 = 0.4;

/// One single-frame workload: platform shape, workload and its scenes.
struct FrameWorkload {
    name: &'static str,
    sensor: usize,
    workload: Workload,
    scenes: Vec<RgbFrame>,
    /// Frames of the timed run re-executed on an independent lowering.
    verify: usize,
}

pub fn kernel_sobel64(args: &Args) -> Result<Outcome, BoxError> {
    let spec = FrameWorkload {
        name: "kernel-sobel64",
        sensor: 64,
        workload: Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        },
        scenes: random_scenes(args.seed, 16, 64)?,
        verify: 32,
    };
    let mut out = run_frames(&spec, args)?;
    if !args.trace {
        kernel_probe(&mut out)?;
    }
    Ok(out)
}

pub fn classify_lenet(args: &Args) -> Result<Outcome, BoxError> {
    let mut rng = SmallRng::seed_from_u64(args.seed ^ 0x6c65_6e65_7435);
    let spec = FrameWorkload {
        name: "classify-lenet",
        sensor: 56,
        workload: Workload::Classify {
            model: build_lenet(10, &mut rng)?,
        },
        scenes: random_scenes(args.seed, 8, 56)?,
        verify: 2,
    };
    run_frames(&spec, args)
}

/// Uniformly random RGB scenes drawn from the workload seed.
fn random_scenes(seed: u64, count: usize, side: usize) -> Result<Vec<RgbFrame>, BoxError> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let data = (0..side * side * 3).map(|_| rng.gen::<f64>()).collect();
            Ok(RgbFrame::new(side, side, data)?)
        })
        .collect()
}

/// Times builds of the paper platform (CA on, `[4:4]`, analog noise on; one
/// worker, noise seeded from the workload seed) plus its session:
/// `PlatformBuilder::build` and `Platform::session` (plan compile,
/// structural verify, performance model). Returns the last pair.
fn timed_setup(
    sensor: usize,
    seed: u64,
    workload: &Workload,
    cal: &mut Calibration,
    out: &mut Outcome,
) -> Result<(Platform, Session), BoxError> {
    let mut times = Vec::with_capacity(SETUP_BATCHES);
    let mut built = None;
    cal.restart();
    for _ in 0..SETUP_BATCHES {
        let start = Instant::now();
        for _ in 0..SETUPS_PER_BATCH {
            let platform = Platform::builder()
                .sensor_resolution(sensor, sensor)
                .workers(1)
                .seed(seed)
                .build()?;
            let session = platform.session(workload.clone())?;
            built = Some((platform, session));
        }
        let elapsed = start.elapsed().as_secs_f64() / SETUPS_PER_BATCH as f64;
        times.push(elapsed * cal.factor());
    }
    out.host("setup_s", median(&times), "s");
    built.ok_or_else(|| "no setup repetition ran".into())
}

/// Median calibrated ms of `COMPILE_REPS` plan compiles of `workloads`.
pub fn compile_ms(
    workloads: &[Workload],
    platform: &Platform,
    seed: u64,
    cal: &mut Calibration,
) -> Result<f64, BoxError> {
    let mut times = Vec::with_capacity(COMPILE_REPS);
    cal.restart();
    for _ in 0..COMPILE_REPS {
        let start = Instant::now();
        for workload in workloads {
            CompiledPlan::compile(workload, platform.config(), seed)?;
        }
        let elapsed = start.elapsed().as_secs_f64();
        times.push(elapsed * 1e3 * cal.factor());
    }
    Ok(median(&times))
}

/// The functional output of a report: filtered pixels or logits.
fn output_of(report: &Report) -> Vec<f32> {
    match report.frame() {
        Some((_, data)) => data.to_vec(),
        None => report.logits().map(<[f32]>::to_vec).unwrap_or_default(),
    }
}

fn same_bits(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Frames per second from calibrated per-frame milliseconds.
fn fps(frame_ms: &[f64]) -> f64 {
    frame_ms.len() as f64 * 1e3 / frame_ms.iter().sum::<f64>()
}

/// Frames completed while running `session.run` closed loop.
struct FrameRun {
    /// Calibrated host ms per frame.
    frame_ms: Vec<f64>,
    /// `(frame index, scene, output)` of the first frames, for verification.
    kept: Vec<(u64, usize, Vec<f32>)>,
}

fn run_closed_loop(
    session: &mut Session,
    spec: &FrameWorkload,
    budget: Duration,
    cal: &mut Calibration,
    out: &mut Outcome,
) -> FrameRun {
    let mut run = FrameRun {
        frame_ms: Vec::new(),
        kept: Vec::new(),
    };
    let start = Instant::now();
    cal.restart();
    while run.frame_ms.is_empty() || start.elapsed() < budget {
        let scene = run.frame_ms.len() % spec.scenes.len();
        let index = session.next_frame_index();
        let t0 = Instant::now();
        let result = session.run(&spec.scenes[scene]);
        let elapsed = t0.elapsed().as_secs_f64();
        run.frame_ms.push(elapsed * 1e3 * cal.factor());
        out.attempted += 1;
        match result {
            Ok(report) if run.kept.len() < spec.verify => {
                run.kept.push((index, scene, output_of(&report)))
            }
            Ok(_) => {}
            Err(err) => out.fail(format!("frame {index} failed: {err}")),
        }
    }
    run
}

/// Multiply-accumulate segments (9-element arm passes) of one frame through
/// the plan's model, computed from the layer shapes.
fn segments_per_frame(plan: &CompiledPlan) -> Result<f64, BoxError> {
    let Some(model) = plan.model() else {
        return Ok(0.0);
    };
    let mut shape = model.input_shape().to_vec();
    let mut segments = 0usize;
    for layer in model.layers() {
        let next = layer.output_shape(&shape)?;
        match layer {
            LayerNode::Conv2d(conv) => {
                let row = conv.in_channels() * conv.kernel() * conv.kernel();
                segments += next.iter().product::<usize>() * row.div_ceil(9);
            }
            LayerNode::Linear(linear) => {
                segments += linear.out_features() * linear.in_features().div_ceil(9)
            }
            _ => {}
        }
        shape = next;
    }
    Ok(segments as f64)
}

fn run_frames(spec: &FrameWorkload, args: &Args) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    // Both frame workloads are bound by the noisy MAC's arithmetic.
    let mut cal = Calibration::new(Reference::Compute);
    let (platform, mut session) =
        timed_setup(spec.sensor, args.seed, &spec.workload, &mut cal, &mut out)?;
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let run = run_closed_loop(&mut session, spec, budget, &mut cal, &mut out);
        out.host("frames_per_s", fps(&run.frame_ms), "1/s");
        out.host("frame_ms_p50", percentile(&run.frame_ms, 0.5), "ms");
        out.host("frame_ms_p90", percentile(&run.frame_ms, 0.9), "ms");
        verify_kept(&platform, &session, spec, args.seed, &run.kept, &mut out)?;
        out.host("peak_rss_mib", crate::record::peak_rss_mib()?, "MiB");
        out.speed = cal.speed();
        return Ok(out);
    }

    let started = Instant::now();
    let untraced = run_closed_loop(
        &mut session,
        spec,
        budget.mul_f64(UNTRACED_SHARE),
        &mut cal,
        &mut out,
    );
    let untraced_fps = fps(&untraced.frame_ms);
    micro::run(args.seed, &mut out)?;
    let compile = compile_ms(
        std::slice::from_ref(&spec.workload),
        &platform,
        args.seed,
        &mut cal,
    )?;
    out.host("plan.compile_ms", compile, "ms");

    // Traced frames: the frame span wraps `Session::acquire` and
    // `LoweredPlan::forward` on an independently lowered plan at the same
    // frame index, and closes after its two child spans are recorded, so its
    // self time is the tracing cost. `Session::run` then replays the frame
    // outside the span and must match bit for bit.
    let mut lowered = PhotonicBackend::new().lower(&spec.workload, platform.config(), args.seed)?;
    let recorder = TraceRecorder::with_capacity(1 << 17);
    let track = format!("host:{}", spec.name);
    let traced_budget = budget.saturating_sub(started.elapsed());
    let origin = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_nanos() as f64;
    // Calibrated seconds per frame: (whole frame, acquire, forward).
    let mut spans: Vec<(f64, f64, f64)> = Vec::new();
    cal.restart();
    while spans.is_empty() || origin.elapsed() < traced_budget {
        let scene = &spec.scenes[spans.len() % spec.scenes.len()];
        let index = session.next_frame_index();
        let t0 = Instant::now();
        let acquired = session.acquire(scene);
        let t1 = Instant::now();
        lowered.set_next_frame_index(index);
        let forward = acquired.and_then(|tensor| lowered.forward(&tensor));
        let t2 = Instant::now();
        for (name, from, to) in [("ca.acquire", t0, t1), ("exec.forward", t1, t2)] {
            recorder.record(
                TraceEvent::span("host", name, &track, at(from), at(to) - at(from), 0.0)
                    .with_arg("frame", index)
                    .with_arg("parent", "frame"),
            );
        }
        let t3 = Instant::now();
        recorder.record(
            TraceEvent::span("host", "frame", &track, at(t0), at(t3) - at(t0), 0.0)
                .with_arg("frame", index),
        );
        let elapsed = t0.elapsed();
        let factor = cal.factor();
        let s = |d: Duration| d.as_secs_f64() * factor;
        spans.push((s(elapsed), s(t1 - t0), s(t2 - t1)));

        let replay = session.run(scene);
        out.attempted += 1;
        match (forward, replay) {
            (Ok(tensor), Ok(report)) => {
                if !same_bits(tensor.data(), &output_of(&report)) {
                    out.fail(format!(
                        "traced frame {index}: lowered forward differs from Session::run"
                    ));
                }
            }
            (Err(err), _) => out.fail(format!("traced frame {index}: {err}")),
            (_, Err(err)) => out.fail(format!("frame {index} failed: {err}")),
        }
        cal.restart();
    }
    write_trace(spec.name, &recorder);

    let frame = mean(&spans.iter().map(|s| s.0).collect::<Vec<_>>());
    let acquire = mean(&spans.iter().map(|s| s.1).collect::<Vec<_>>());
    let forward = mean(&spans.iter().map(|s| s.2).collect::<Vec<_>>());
    let traced_fps = 1.0 / frame;
    let segments = segments_per_frame(lowered.plan())?;
    out.host("ca.acquire_us", acquire * 1e6, "us");
    out.host("exec.forward_ms", forward * 1e3, "ms");
    out.sim("exec.segments_per_frame", segments, "count");
    out.host("exec.ns_per_segment", forward * 1e9 / segments, "ns");
    out.host("trace.frame_ms", frame * 1e3, "ms");
    out.host(
        "trace.frame_self_us",
        (frame - acquire - forward) * 1e6,
        "us",
    );
    out.host("trace.coverage", (acquire + forward) / frame, "fraction");
    out.host("trace.frames_per_s", traced_fps, "1/s");
    out.host("trace.untraced_frames_per_s", untraced_fps, "1/s");
    out.host(
        "trace.overhead_frames_per_s",
        untraced_fps - traced_fps,
        "1/s",
    );
    let stats = session.plan_stats();
    out.sim("plan.encodes", stats.encodes as f64, "count");
    out.sim("plan.hits", stats.cache_hits as f64, "count");
    let perf = session.perf();
    out.sim("sim.frame_latency_ns", perf.frame_latency.ns(), "sim_ns");
    out.sim("sim.frame_energy_nj", perf.frame_energy.nj(), "sim_nJ");
    out.sim("sim.kfps_per_w", perf.kfps_per_watt(), "KFPS/W");
    out.speed = cal.speed();
    Ok(out)
}

/// Re-executes the kept frames of a timed run as `exec.forward(acquire(f))`
/// on an independently lowered plan at the same frame index; every output
/// must match `Session::run` bit for bit.
fn verify_kept(
    platform: &Platform,
    session: &Session,
    spec: &FrameWorkload,
    seed: u64,
    kept: &[(u64, usize, Vec<f32>)],
    out: &mut Outcome,
) -> Result<(), BoxError> {
    let mut lowered = PhotonicBackend::new().lower(&spec.workload, platform.config(), seed)?;
    for (index, scene, expected) in kept {
        lowered.set_next_frame_index(*index);
        let got = lowered.forward(&session.acquire(&spec.scenes[*scene])?)?;
        out.check(same_bits(got.data(), expected), || {
            format!("frame {index}: independent forward differs from Session::run")
        });
    }
    Ok(())
}

/// With analog noise off, the Sobel output on a fixed probe scene must stay
/// within the L1-scaled tolerance of the fp32 `electronic:eyeriss` reference
/// (the bound of the repository's backend differential test).
fn kernel_probe(out: &mut Outcome) -> Result<(), BoxError> {
    const TOLERANCE_PER_L1: f32 = 0.1;
    const SIDE: usize = 64;
    let kernel = ImageKernel::SobelX;
    let platform = Platform::builder()
        .sensor_resolution(SIDE, SIDE)
        .workers(1)
        .noise(NoiseConfig::ideal())
        .register_backend(Arc::new(ElectronicReference::new(
            ElectronicBaseline::eyeriss(),
        )))
        .build()?;
    // A gradient, a vertical edge and a bright patch.
    let mut data = Vec::with_capacity(SIDE * SIDE * 3);
    for row in 0..SIDE {
        for col in 0..SIDE {
            let gradient = (row * SIDE + col) as f64 / (SIDE * SIDE) as f64;
            let edge = if col >= SIDE / 2 { 0.55 } else { 0.1 };
            let spot = if (row / 8, col / 8) == (2, 5) {
                0.3
            } else {
                0.0
            };
            data.extend([
                (0.5 * gradient + 0.4 * edge + spot).min(1.0),
                (0.8 * gradient).min(1.0),
                (0.25 + 0.3 * edge).min(1.0),
            ]);
        }
    }
    let scene = RgbFrame::new(SIDE, SIDE, data)?;
    let workload = Workload::ImageKernel { kernel };
    let photonic = output_of(&platform.session(workload.clone())?.run(&scene)?);
    let electronic_id = BackendId::new("electronic:eyeriss");
    let electronic = output_of(&platform.session_on(workload, &electronic_id)?.run(&scene)?);
    let tolerance = TOLERANCE_PER_L1 * kernel.coefficients().iter().map(|c| c.abs()).sum::<f32>();
    let worst = photonic
        .iter()
        .zip(&electronic)
        .map(|(p, e)| (p - e).abs())
        .fold(0.0f32, f32::max);
    out.check(photonic.len() == electronic.len() && worst < tolerance, || {
        format!("noise-off probe: photonic vs electronic:eyeriss differ by {worst} (tolerance {tolerance})")
    });
    Ok(())
}

/// Frames the drifting square holds each position. The preset holds 2,
/// which makes exactly half the frames static: the median frame time would
/// then sit on the edge between the static and the moving frames and jump
/// from run to run. With 3, the median is a static frame and p90 a moving
/// one.
const HOLD: usize = 3;
/// Frames of the low-motion clip: one full period of the drifting square
/// (49 one-pixel steps), replayed pass after pass.
const CLIP_FRAMES: usize = 49 * HOLD;
/// Acquired pixels per gate block edge: the 32x32 acquired map (64x64
/// sensor, 2x2 CA) splits into 8x8 blocks.
const BLOCK: usize = 4;
const ACQUIRED: usize = 32;
/// Sensor pixels per acquired pixel (the paper's 2x2 CA window).
const CA_WINDOW: usize = 2;

fn stream_workload() -> Workload {
    Workload::VideoStream {
        kernel: ImageKernel::SobelX,
        stream: stream_config(),
    }
}

fn stream_config() -> StreamConfig {
    StreamConfig {
        block_size: BLOCK,
        delta_threshold: 0.05,
    }
}

/// The low-motion clip, coloured from the seed. Every colour channel of the
/// square differs from the background by at least 0.3, so the gate's block
/// decisions (and the skip ratio) depend on geometry alone.
fn lowmotion_clip(seed: u64) -> Result<Vec<RgbFrame>, BoxError> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x7374_7265_616d);
    let mut config = SyntheticVideoConfig::low_motion(64, 64, CLIP_FRAMES);
    config.background = std::array::from_fn(|_| rng.gen_range(0.0..=0.3));
    config.foreground = std::array::from_fn(|_| rng.gen_range(0.6..=1.0));
    config.pattern = MotionPattern::MovingSquare {
        size: 16,
        step: 1,
        hold: HOLD,
    };
    Ok(SyntheticVideo::new(config)?.collect())
}

/// Delivers clip frame `i` as a live camera would: a fresh stream on the
/// first frame, then one `resume_stream` call per frame.
fn stream_frame(
    session: &mut Session,
    clip: &[RgbFrame],
    i: usize,
) -> Result<StreamFrame, BoxError> {
    let report = if i == 0 {
        session.run_stream(once(&clip[0]))?
    } else {
        let state = session
            .stream_state()
            .ok_or("stream state missing after a processed frame")?;
        session.resume_stream(state, once(&clip[i]))?
    };
    report
        .frames
        .into_iter()
        .next()
        .ok_or_else(|| "a stream call returned no frame".into())
}

/// Calibration of the stream, one clip pass at a time (finer units would
/// put the reference slices' cache footprint into the short frames). The
/// two kinds of stream frame are bound by different resources: a frame
/// whose blocks all skip only copies the stream state and scans the scene
/// in the gate (memory-bound), while a frame that computes blocks runs CA
/// and the noisy MAC (compute-bound). Each is scaled by its own reference.
struct StreamCalibration {
    compute: Calibration,
    memory: Calibration,
}

impl StreamCalibration {
    fn new() -> Self {
        Self {
            compute: Calibration::new(Reference::Compute),
            memory: Calibration::new(Reference::Memory),
        }
    }

    fn open(&mut self) {
        self.compute.restart();
        self.memory.restart();
    }

    /// `(compute, memory)` factors of the pass that just finished.
    fn close(&mut self) -> (f64, f64) {
        (self.compute.factor(), self.memory.factor())
    }
}

/// One pass over the clip; returns each call's calibrated host ms and the
/// processed frames.
fn stream_pass(
    session: &mut Session,
    clip: &[RgbFrame],
    cal: &mut StreamCalibration,
) -> Result<(Vec<f64>, Vec<StreamFrame>), BoxError> {
    let mut times = Vec::with_capacity(clip.len());
    let mut frames = Vec::with_capacity(clip.len());
    cal.open();
    for i in 0..clip.len() {
        let t0 = Instant::now();
        let frame = stream_frame(session, clip, i)?;
        times.push(t0.elapsed().as_secs_f64());
        frames.push(frame);
    }
    let (compute, memory) = cal.close();
    let frame_ms = times
        .iter()
        .zip(&frames)
        .map(|(t, frame)| {
            t * 1e3
                * if frame.computed_blocks > 0 {
                    compute
                } else {
                    memory
                }
        })
        .collect();
    Ok((frame_ms, frames))
}

pub fn stream_lowmotion64(args: &Args) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    let mut cal = StreamCalibration::new();
    let clip = lowmotion_clip(args.seed)?;
    let workload = stream_workload();
    let (platform, mut session) =
        timed_setup(64, args.seed, &workload, &mut cal.compute, &mut out)?;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let share = if args.trace { UNTRACED_SHARE } else { 1.0 };
    let mut frame_ms = Vec::new();
    let mut first_pass = None;
    while frame_ms.is_empty() || start.elapsed() < budget.mul_f64(share) {
        out.attempted += clip.len() as u64;
        match stream_pass(&mut session, &clip, &mut cal) {
            Ok((times, frames)) => {
                frame_ms.extend(times);
                first_pass.get_or_insert(frames);
            }
            Err(err) => out.fail(format!("stream pass failed: {err}")),
        }
    }
    let untraced_fps = fps(&frame_ms);

    // A one-pass replay on a fresh session must equal both the first timed
    // pass and a single `run_stream` over the whole clip, bit for bit.
    let (_, replay) = stream_pass(&mut platform.session(workload.clone())?, &clip, &mut cal)?;
    let whole = platform.session(workload.clone())?.run_stream(&clip)?;
    out.check(first_pass.as_ref() == Some(&replay), || {
        "first timed stream pass differs from a fresh replay".into()
    });
    out.check(whole.frames == replay, || {
        "per-frame resume_stream differs from one run_stream call".into()
    });

    if !args.trace {
        out.host("frames_per_s", untraced_fps, "1/s");
        out.host("frame_ms_p50", percentile(&frame_ms, 0.5), "ms");
        out.host("frame_ms_p90", percentile(&frame_ms, 0.9), "ms");
        out.host("peak_rss_mib", crate::record::peak_rss_mib()?, "MiB");
        out.speed = cal.compute.speed();
        return Ok(out);
    }

    micro::run(args.seed, &mut out)?;
    let compile = compile_ms(&[workload], &platform, args.seed, &mut cal.compute)?;
    out.host("plan.compile_ms", compile, "ms");

    // Traced frames: the frame span is the `resume_stream` call. The gate and
    // the acquisition it performs are then timed on their own, outside the
    // span: a replica gate (`TemporalDifferencer::gate` against the last
    // computed scene per block) and `Session::acquire` when a block computes.
    // The replica must pick exactly as many blocks as the session computed.
    // Raw durations are calibrated per pass, like the untraced frames; the
    // gate scan by the memory reference, acquisition by the compute one.
    let recorder = TraceRecorder::with_capacity(1 << 17);
    let track = "host:stream-lowmotion64";
    let origin = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_nanos() as f64;
    let traced_budget = budget.saturating_sub(start.elapsed());
    let (mut frame_s, mut gate_s, mut acquire_s) = (Vec::new(), Vec::new(), Vec::new());
    while frame_s.is_empty() || origin.elapsed() < traced_budget {
        let mut gate = TemporalDifferencer::new(stream_config(), ACQUIRED, ACQUIRED, CA_WINDOW)?;
        let mut reference: Option<RgbFrame> = None;
        // Raw (frame, gate, acquire) durations and whether blocks computed.
        let mut pass = Vec::with_capacity(clip.len());
        cal.open();
        for (i, scene) in clip.iter().enumerate() {
            let index = session.next_frame_index();
            let t0 = Instant::now();
            let frame = stream_frame(&mut session, &clip, i);
            let t1 = Instant::now();
            recorder.record(
                TraceEvent::span("host", "stream.frame", track, at(t0), at(t1) - at(t0), 0.0)
                    .with_arg("frame", index),
            );
            let g0 = Instant::now();
            let mask = gate.gate(scene, reference.as_ref());
            let g1 = Instant::now();
            recorder.record(
                TraceEvent::span("host", "stream.gate", track, at(g0), at(g1) - at(g0), 0.0)
                    .with_arg("frame", index),
            );
            let computed = mask.iter().filter(|&&c| c).count();
            let acquired = if computed > 0 {
                let a0 = Instant::now();
                session.acquire(scene)?;
                let a1 = Instant::now();
                recorder.record(
                    TraceEvent::span("host", "ca.acquire", track, at(a0), at(a1) - at(a0), 0.0)
                        .with_arg("frame", index),
                );
                Some(a1 - a0)
            } else {
                None
            };
            pass.push((t1 - t0, g1 - g0, acquired, computed > 0));
            refresh_reference(&mut reference, scene, &mask)?;
            out.attempted += 1;
            match frame {
                Ok(frame) if frame.computed_blocks == computed => {}
                Ok(_) => out.fail(format!(
                    "stream frame {index}: replica gate disagrees with the session"
                )),
                Err(err) => out.fail(format!("stream frame {index} failed: {err}")),
            }
        }
        let (compute, memory) = cal.close();
        for (frame, gate, acquired, computes) in pass {
            let factor = if computes { compute } else { memory };
            frame_s.push(frame.as_secs_f64() * factor);
            gate_s.push(gate.as_secs_f64() * memory);
            acquire_s.extend(acquired.map(|d| d.as_secs_f64() * compute));
        }
    }
    write_trace("stream-lowmotion64", &recorder);

    let traced_fps = 1.0 / mean(&frame_s);
    out.host("ca.acquire_us", mean(&acquire_s) * 1e6, "us");
    out.host("stream.gate_us", mean(&gate_s) * 1e6, "us");
    let computed: usize = whole.frames.iter().map(|f| f.computed_blocks).sum();
    out.sim("stream.blocks_computed", computed as f64, "count");
    out.sim("stream.skip_ratio", whole.skip_ratio(), "fraction");
    out.host("trace.frame_ms", mean(&frame_s) * 1e3, "ms");
    out.host("trace.frame_self_us", mean(&frame_s) * 1e6, "us");
    out.host("trace.frames_per_s", traced_fps, "1/s");
    out.host("trace.untraced_frames_per_s", untraced_fps, "1/s");
    out.host(
        "trace.overhead_frames_per_s",
        untraced_fps - traced_fps,
        "1/s",
    );
    let stats = session.plan_stats();
    out.sim("plan.encodes", stats.encodes as f64, "count");
    out.sim("plan.hits", stats.cache_hits as f64, "count");
    let frames = whole.frames_processed() as f64;
    let peak_w = session.perf().max_power.watts();
    out.sim(
        "sim.frame_latency_ns",
        whole.sim_time.ns() / frames,
        "sim_ns",
    );
    out.sim(
        "sim.frame_energy_nj",
        whole.energy_per_frame().nj(),
        "sim_nJ",
    );
    out.sim("sim.kfps_per_w", whole.fps() / 1e3 / peak_w, "KFPS/W");
    out.speed = cal.compute.speed();
    Ok(out)
}

/// Updates the replica gate's reference: each computed block takes the
/// current scene's pixels, as the session's stream state does.
fn refresh_reference(
    reference: &mut Option<RgbFrame>,
    scene: &RgbFrame,
    mask: &[bool],
) -> Result<(), BoxError> {
    let Some(reference) = reference else {
        *reference = Some(scene.clone());
        return Ok(());
    };
    let cols = ACQUIRED / BLOCK;
    let span = BLOCK * CA_WINDOW;
    for (block, _) in mask.iter().enumerate().filter(|(_, &compute)| compute) {
        let (row0, col0) = ((block / cols) * span, (block % cols) * span);
        for row in row0..row0 + span {
            for col in col0..col0 + span {
                reference.set_pixel(row, col, scene.pixel(row, col)?)?;
            }
        }
    }
    Ok(())
}
