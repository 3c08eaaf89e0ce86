//! Tracing overhead: a session with a [`TraceRecorder`] attached must stay
//! within **5%** of the untraced simulation throughput.
//!
//! The recorder is a lock-cheap ring buffer and every event is computed
//! from numbers the executor already has (stage latencies and energies of
//! the compiled plan), so attaching it should be close to free. This bench
//! measures frames simulated per wall-clock second on the 32×32 Sobel
//! kernel workload — the plan-cached hot path where fixed per-frame costs
//! show up most — with the recorder attached vs detached, interleaved so
//! both paths see the same machine state, asserts the median overhead is
//! ≤ 5%, and emits `BENCH_telemetry_overhead.json`.
//!
//! Smoke mode (`LIGHTATOR_BENCH_SMOKE=1`, used by the CI bench-smoke step)
//! runs one short round — enough to exercise the harness and validate the
//! emitted JSON without asserting the ratio on noisy shared runners.
//!
//! [`TraceRecorder`]: lightator_telemetry::TraceRecorder

use lightator_core::platform::{ImageKernel, Platform, Session, Workload};
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use lightator_telemetry::json::{self, BenchMetric};
use lightator_telemetry::TraceRecorder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

const SENSOR: usize = 32;

/// The optical 3×3 filter on a 32×32 sensor with ideal noise: the cheapest
/// per-frame simulation in the workspace, i.e. the worst case for any
/// fixed per-frame tracing cost.
fn kernel_session() -> Session {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .noise(NoiseConfig::ideal())
        .build()
        .expect("platform")
        .session(Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        })
        .expect("session")
}

fn scene() -> RgbFrame {
    let mut rng = SmallRng::seed_from_u64(41);
    let data: Vec<f64> = (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
    RgbFrame::new(SENSOR, SENSOR, data).expect("frame")
}

/// Frames per wall-clock second for `reps` runs of the closure.
fn throughput(reps: usize, mut run: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..reps {
        run();
    }
    reps as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::var("LIGHTATOR_BENCH_SMOKE").is_ok();
    let frame = scene();

    let mut detached = kernel_session();
    let mut attached = kernel_session();
    let recorder = Arc::new(TraceRecorder::new());
    attached.attach_recorder(recorder.clone());

    // Headline measurement: interleaved rounds, median ratio.
    let rounds = if smoke { 2 } else { 7 };
    let reps = if smoke { 50 } else { 400 };
    black_box(detached.run(&frame).expect("warm-up"));
    black_box(attached.run(&frame).expect("warm-up"));
    let mut ratios = Vec::new();
    let mut detached_fps = 0.0f64;
    let mut events_per_frame = 0.0f64;
    for _ in 0..rounds {
        let detached_tp = throughput(reps, || {
            black_box(detached.run(&frame).expect("run"));
        });
        // Keep the ring from wrapping between rounds so every round pays
        // the same (non-evicting) recording cost.
        recorder.clear();
        let before = recorder.recorded();
        let attached_tp = throughput(reps, || {
            black_box(attached.run(&frame).expect("run"));
        });
        events_per_frame = (recorder.recorded() - before) as f64 / reps as f64;
        detached_fps = detached_fps.max(detached_tp);
        ratios.push(attached_tp / detached_tp);
    }
    ratios.sort_by(|x, y| x.partial_cmp(y).expect("finite ratios"));
    let median_ratio = ratios[ratios.len() / 2];
    let overhead_pct = (1.0 - median_ratio) * 100.0;

    println!(
        "traced kernel simulation throughput vs untraced: {median_ratio:.3}x \
         ({overhead_pct:+.2}% overhead, budget 5%)"
    );

    let path = json::emit(
        "telemetry_overhead",
        &[
            BenchMetric::new("attached_over_detached_throughput", median_ratio, "x"),
            BenchMetric::new("overhead_pct", overhead_pct, "%"),
            BenchMetric::new(
                "detached_kernel_sim_throughput",
                detached_fps,
                "frames simulated per wall-clock second",
            ),
            BenchMetric::new("events_per_frame", events_per_frame, "events"),
        ],
    )
    .expect("BENCH_telemetry_overhead.json written and validated");
    println!("wrote {}", path.display());

    assert!(
        smoke || median_ratio >= 0.95,
        "tracing must cost <= 5% simulation throughput, measured \
         {median_ratio:.3}x (overhead {overhead_pct:.2}%)"
    );
}
