//! Worker tiling: one session, the MAC loops tiled across threads.
//!
//! The counter-based noise generator keys every Gaussian draw by
//! `(seed, frame, channel, element)`, so the conv/linear inner loops can
//! be tiled across `PlatformBuilder::workers(n)` worker threads without
//! moving a single draw — the parallel output is bit-identical to the
//! sequential one (asserted here before timing anything). This bench
//! measures the throughput side of that contract on the image-kernel
//! workload (the widest per-frame MAC loop), sweeping worker counts
//! {1, 2, 4, 8}, and emits the curve as `BENCH_parallel_scaling.json`
//! with a headline **≥ 3×** assertion at 8 workers. Eight workers can only
//! run in parallel on eight cores, so the ratio is asserted only when
//! `available_parallelism()` is at least 8; smaller hosts print why the
//! check was skipped, and the JSON records the core count either way.
//!
//! Smoke mode (`LIGHTATOR_BENCH_SMOKE=1`, used by the CI bench-smoke
//! step) runs one short round — enough to exercise the harness and
//! validate the emitted JSON without asserting the scaling ratio on
//! single-core or noisy shared runners.

#![expect(clippy::disallowed_methods, reason = "this bench times host execution")]

use lightator_core::platform::{ImageKernel, Platform, Session, Workload};
use lightator_sensor::frame::RgbFrame;
use lightator_telemetry::json::{self, BenchMetric};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const SENSOR: usize = 64;
const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// The paper's default platform — analog noise **on**, so the timed loop
/// includes the per-draw generator work — with a sensor wide enough that
/// one frame carries thousands of MAC segments to tile.
fn session(workers: usize) -> Session {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .workers(workers)
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

/// Frames simulated per wall-clock second over `rounds` single-frame runs.
fn throughput(rounds: usize, mut run: impl FnMut()) -> f64 {
    let start = std::time::Instant::now();
    for _ in 0..rounds {
        run();
    }
    rounds as f64 / start.elapsed().as_secs_f64()
}

fn main() {
    let smoke = std::env::var("LIGHTATOR_BENCH_SMOKE").is_ok();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let frame = scene();

    // The contract the speedup rides on: tiling must be bit-exact. Guard
    // it here so the bench can never publish a speedup for wrong answers.
    let mut sequential = session(1);
    let reference = sequential.run(&frame).expect("sequential run");
    for workers in WORKER_COUNTS {
        let mut tiled = session(workers);
        assert_eq!(
            reference,
            tiled.run(&frame).expect("tiled run"),
            "tiled output diverged from sequential at {workers} workers"
        );
    }

    // Headline measurement: sustained single-session simulation throughput
    // per worker count, medianed over interleaved rounds so every count
    // sees the same machine state.
    let rounds = if smoke { 1 } else { 5 };
    let reps = if smoke { 1 } else { 8 };
    let mut sessions: Vec<Session> = WORKER_COUNTS.iter().map(|&w| session(w)).collect();
    for s in &mut sessions {
        black_box(s.run(&frame).expect("warm-up"));
    }
    let mut samples: Vec<Vec<f64>> = vec![Vec::new(); WORKER_COUNTS.len()];
    for _ in 0..rounds {
        for (slot, s) in samples.iter_mut().zip(&mut sessions) {
            slot.push(throughput(reps, || {
                black_box(s.run(&frame).expect("run"));
            }));
        }
    }
    let median = |slot: &mut Vec<f64>| -> f64 {
        slot.sort_by(|x, y| x.partial_cmp(y).expect("finite throughput"));
        slot[slot.len() / 2]
    };
    let curve: Vec<f64> = samples.iter_mut().map(median).collect();
    let speedup_8 = curve[WORKER_COUNTS.len() - 1] / curve[0];

    let mut metrics = Vec::new();
    for (&workers, &fps) in WORKER_COUNTS.iter().zip(&curve) {
        println!(
            "image-kernel simulation throughput at {workers} worker(s): {fps:.1} frames/s \
             ({:.2}x vs sequential)",
            fps / curve[0]
        );
        metrics.push(BenchMetric::new(
            &format!("kernel_sim_throughput_{workers}_workers"),
            fps,
            "frames simulated per wall-clock second",
        ));
    }
    println!(
        "parallel speedup at 8 workers: {speedup_8:.2}x on {cores} core(s) \
         (target >= 3x on >= 8 cores)"
    );
    metrics.push(BenchMetric::new(
        "parallel_speedup_8_workers",
        speedup_8,
        "x",
    ));
    metrics.push(BenchMetric::new(
        "available_parallelism",
        cores as f64,
        "cores",
    ));

    let path = json::emit("parallel_scaling", &metrics)
        .expect("BENCH_parallel_scaling.json written and validated");
    println!("wrote {}", path.display());

    if smoke {
        println!("smoke run: the 8-worker speedup is not asserted");
    } else if cores < 8 {
        println!(
            "skipped the >= 3x check at 8 workers: available_parallelism() is {cores}, \
             so 8 workers cannot all run at once on this host"
        );
    } else {
        assert!(
            speedup_8 >= 3.0,
            "worker tiling must sustain >= 3x single-session simulation throughput at \
             8 workers, measured {speedup_8:.2}x"
        );
    }
}
