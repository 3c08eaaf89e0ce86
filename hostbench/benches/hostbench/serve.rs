//! `serve-open-loop`: `lightator-serve` with one shard per group (acquire
//! and 4-frame video streams) under open-loop seeded Poisson traffic from
//! `run_soak`. The run is a sequence of soak chunks, each on a freshly built
//! server, so every chunk contributes one `setup_s` sample. Host times are
//! calibrated per chunk (see `calib.rs`).

use std::time::Instant;

use lightator_core::platform::{ImageKernel, Platform, Workload};
use lightator_core::stream::StreamConfig;
use lightator_photonics::units::Time;
use lightator_sensor::frame::RgbFrame;
use lightator_serve::{
    run_soak, ArrivalProcess, MetricsSnapshot, Server, SloConfig, SoakConfig, SoakOutcome,
    TrafficMix,
};
use lightator_telemetry::{TraceEvent, TraceRecorder, TraceSink};

use crate::calib::{Calibration, Reference};
use crate::frames::compile_ms;
use crate::record::{mean, median, percentile, Outcome};
use crate::{micro, write_trace, Args, BoxError};

const SENSOR: usize = 8;
/// Requests offered per soak chunk.
const CHUNK_REQUESTS: u64 = 10_000;
/// Offered load on the simulated clock.
const OFFERED_QPS: f64 = 1e5;
/// Admission bound per workload group: a whole chunk, so admission never
/// sheds load. Drops here would only measure how the generator and shard
/// threads happen to interleave on the host, not the serving path.
const QUEUE_DEPTH: usize = CHUNK_REQUESTS as usize;
/// Share of a traced run spent on untraced chunks.
const UNTRACED_SHARE: f64 = 0.4;

fn workloads() -> [Workload; 2] {
    [
        Workload::Acquire,
        Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig {
                block_size: 2,
                delta_threshold: 0.05,
            },
        },
    ]
}

/// `ServerBuilder::build`: validate, per-shard compile and shard spawn.
fn build_server(platform: &Platform) -> Result<Server, BoxError> {
    let [acquire, stream] = workloads();
    Ok(Server::builder(platform.clone())
        .shards(1)
        .queue_depth(QUEUE_DEPTH)
        .slo(SloConfig {
            target_queue_wait: Time::from_us(40.0),
            min_batch: 1,
            max_batch: 64,
        })
        .workload(acquire)
        .workload(stream)
        .build()?)
}

fn soak_config(seed: u64, chunk: u64) -> SoakConfig {
    SoakConfig {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(chunk),
        requests: CHUNK_REQUESTS,
        width: SENSOR,
        height: SENSOR,
        frame_pool: 32,
        arrivals: ArrivalProcess::Poisson {
            mean_qps: OFFERED_QPS,
        },
        mix: TrafficMix {
            classify: 0.0,
            acquire: 0.8,
            kernel: 0.0,
            stream: 0.2,
            kernel_filter: ImageKernel::SobelX,
            stream_frames: 4,
            interactive_fraction: 0.7,
        },
    }
}

/// One soak chunk: the instants bounding build, submit (`run_soak`) and
/// drain (`Server::shutdown`), the calibration factor around it, and what
/// the harness and the server counted.
struct Chunk {
    at: [Instant; 4],
    factor: f64,
    outcome: SoakOutcome,
    snapshot: MetricsSnapshot,
}

impl Chunk {
    /// Calibrated seconds of phase `i` (0 build, 1 submit, 2 drain).
    fn phase_s(&self, i: usize) -> f64 {
        (self.at[i + 1] - self.at[i]).as_secs_f64() * self.factor
    }

    /// Calibrated serving seconds: submit plus drain.
    fn serve_s(&self) -> f64 {
        self.phase_s(1) + self.phase_s(2)
    }

    /// Calibrated host ms per served frame.
    fn frame_ms(&self) -> f64 {
        self.serve_s() * 1e3 / self.snapshot.served_frames.max(1) as f64
    }
}

fn run_chunk(
    platform: &Platform,
    seed: u64,
    index: u64,
    cal: &mut Calibration,
) -> Result<Chunk, BoxError> {
    cal.restart();
    let t0 = Instant::now();
    let server = build_server(platform)?;
    let t1 = Instant::now();
    let outcome = run_soak(&server, &soak_config(seed, index))?;
    let t2 = Instant::now();
    let snapshot = server.shutdown();
    let t3 = Instant::now();
    Ok(Chunk {
        at: [t0, t1, t2, t3],
        factor: cal.factor(),
        outcome,
        snapshot,
    })
}

/// Open-loop accounting and error checks of one chunk; drops and errors
/// count as failed requests.
fn check_chunk(chunk: &Chunk, index: u64, out: &mut Outcome) {
    let (o, s) = (&chunk.outcome, &chunk.snapshot);
    out.attempted += o.offered();
    out.failed += o.dropped() + s.errored;
    if o.dropped() + s.errored > 0 {
        out.problems.push(format!(
            "chunk {index}: {} dropped, {} errored",
            o.dropped(),
            s.errored
        ));
    }
    let exact = o.offered() == o.admitted() + o.dropped()
        && s.admitted() == o.admitted()
        && s.rejected == o.dropped()
        && s.completed + s.errored == s.admitted();
    if !exact {
        out.fail(format!(
            "chunk {index}: accounting broke (offered {}, admitted {}/{}, dropped {}/{}, completed {}, errored {})",
            o.offered(),
            o.admitted(),
            s.admitted(),
            o.dropped(),
            s.rejected,
            s.completed,
            s.errored
        ));
    }
}

fn frames_per_s(chunks: &[Chunk]) -> f64 {
    let frames: u64 = chunks.iter().map(|c| c.snapshot.served_frames).sum();
    frames as f64 / chunks.iter().map(Chunk::serve_s).sum::<f64>()
}

pub fn serve_open_loop(args: &Args) -> Result<Outcome, BoxError> {
    let mut out = Outcome::default();
    // The generator and two shard threads keep both cores busy.
    let mut cal = Calibration::across(Reference::Compute, 2);
    let platform = Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .workers(1)
        .seed(args.seed)
        .build()?;
    let start = Instant::now();
    let share = if args.trace { UNTRACED_SHARE } else { 1.0 };
    let mut chunks = Vec::new();
    while chunks.is_empty() || start.elapsed().as_secs_f64() < args.seconds * share {
        let index = chunks.len() as u64;
        let chunk = run_chunk(&platform, args.seed, index, &mut cal)?;
        check_chunk(&chunk, index, &mut out);
        chunks.push(chunk);
    }
    let untraced_fps = frames_per_s(&chunks);

    if !args.trace {
        let frame_ms: Vec<f64> = chunks.iter().map(Chunk::frame_ms).collect();
        let build_s: Vec<f64> = chunks.iter().map(|c| c.phase_s(0)).collect();
        out.host("frames_per_s", untraced_fps, "1/s");
        out.host("frame_ms_p50", percentile(&frame_ms, 0.5), "ms");
        out.host("frame_ms_p90", percentile(&frame_ms, 0.9), "ms");
        out.host("setup_s", median(&build_s), "s");
        out.host("peak_rss_mib", crate::record::peak_rss_mib()?, "MiB");
        out.speed = cal.speed();
        return Ok(out);
    }

    micro::run(args.seed, &mut out)?;
    out.host(
        "plan.compile_ms",
        compile_ms(&workloads(), &platform, args.seed, &mut cal)?,
        "ms",
    );

    // The acquire group's `Session::acquire` at the soak's sensor size.
    let session = platform.session(Workload::Acquire)?;
    let scenes = (0..32u32)
        .map(|i| RgbFrame::filled(SENSOR, SENSOR, [0.1 + 0.02 * f64::from(i), 0.5, 0.3]))
        .collect::<Result<Vec<_>, _>>()?;
    const ACQUIRES: usize = 20_000;
    cal.restart();
    let acquire_start = Instant::now();
    for i in 0..ACQUIRES {
        std::hint::black_box(session.acquire(&scenes[i % scenes.len()])?);
    }
    let acquire_s = acquire_start.elapsed().as_secs_f64() * cal.factor();
    out.host("ca.acquire_us", acquire_s * 1e6 / ACQUIRES as f64, "us");
    let perf = session.perf();
    out.sim("sim.frame_latency_ns", perf.frame_latency.ns(), "sim_ns");
    out.sim("sim.frame_energy_nj", perf.frame_energy.nj(), "sim_nJ");
    out.sim("sim.kfps_per_w", perf.kfps_per_watt(), "KFPS/W");

    // Traced chunks: a chunk span with build, submit and drain children.
    let recorder = TraceRecorder::with_capacity(1 << 16);
    let track = "host:serve-open-loop";
    let origin = Instant::now();
    let at = |t: Instant| t.duration_since(origin).as_nanos() as f64;
    let traced_budget = (args.seconds - start.elapsed().as_secs_f64()).max(0.0);
    let mut traced = Vec::new();
    while traced.is_empty() || origin.elapsed().as_secs_f64() < traced_budget {
        let index = (chunks.len() + traced.len()) as u64;
        let chunk = run_chunk(&platform, args.seed, index, &mut cal)?;
        let [t0, t1, t2, t3] = chunk.at;
        recorder.record(
            TraceEvent::span("host", "serve.chunk", track, at(t0), at(t3) - at(t0), 0.0)
                .with_arg("chunk", index),
        );
        for (name, from, to) in [
            ("serve.build", t0, t1),
            ("serve.submit", t1, t2),
            ("serve.drain", t2, t3),
        ] {
            recorder.record(
                TraceEvent::span("host", name, track, at(from), at(to) - at(from), 0.0)
                    .with_arg("chunk", index)
                    .with_arg("parent", "serve.chunk"),
            );
        }
        check_chunk(&chunk, index, &mut out);
        traced.push(chunk);
    }
    write_trace("serve-open-loop", &recorder);

    let traced_fps = frames_per_s(&traced);
    let all: Vec<&Chunk> = chunks.iter().chain(&traced).collect();
    let per = |f: fn(&Chunk) -> f64| all.iter().map(|c| f(c)).collect::<Vec<_>>();
    let sum = |f: fn(&Chunk) -> u64| all.iter().map(|c| f(c)).sum::<u64>() as f64;
    out.host("serve.submit_s", mean(&per(|c| c.phase_s(1))), "s");
    out.host("serve.drain_s", mean(&per(|c| c.phase_s(2))), "s");
    out.sim("serve.admitted", sum(|c| c.outcome.admitted()), "count");
    out.sim("serve.dropped", sum(|c| c.outcome.dropped()), "count");
    let batches = sum(|c| c.snapshot.shards.iter().map(|s| s.batches).sum());
    out.sim(
        "serve.batch_mean",
        sum(|c| c.snapshot.shards.iter().map(|s| s.frames).sum()) / batches.max(1.0),
        "count",
    );
    out.sim(
        "serve.stolen",
        sum(|c| c.snapshot.shards.iter().map(|s| s.steals).sum()),
        "count",
    );
    out.sim(
        "serve.queue_wait_p50_us",
        median(&per(|c| c.snapshot.p50_queue_wait.us())),
        "sim_us",
    );
    out.sim(
        "serve.queue_wait_p99_us",
        median(&per(|c| c.snapshot.p99_queue_wait.us())),
        "sim_us",
    );
    out.sim(
        "serve.sustained_qps",
        median(&per(|c| c.snapshot.sustained_qps())),
        "sim_1/s",
    );
    let blocks = sum(|c| c.snapshot.stream_blocks_total);
    let skipped = sum(|c| c.snapshot.stream_blocks_skipped);
    out.sim("stream.blocks_computed", blocks - skipped, "count");
    out.sim("stream.skip_ratio", skipped / blocks.max(1.0), "fraction");
    out.sim("plan.encodes", sum(|c| c.snapshot.plan_encodes), "count");
    out.sim("plan.hits", sum(|c| c.snapshot.plan_hits), "count");
    out.host("trace.frame_ms", mean(&per(Chunk::frame_ms)), "ms");
    out.host("trace.frames_per_s", traced_fps, "1/s");
    out.host("trace.untraced_frames_per_s", untraced_fps, "1/s");
    out.host(
        "trace.overhead_frames_per_s",
        untraced_fps - traced_fps,
        "1/s",
    );
    out.speed = cal.speed();
    Ok(out)
}
