//! Open-loop serving soak: fixed micro-batching vs the adaptive
//! SLO-driven controller, plus a sustained mixed-traffic soak.
//!
//! Closed-loop serving benchmarks self-throttle — clients wait for
//! responses, so a slow server sees less load and queueing collapse
//! stays invisible. This harness offers traffic *open-loop* through
//! [`lightator_serve::load`]: seeded Poisson arrivals on the simulated
//! clock at a rate chosen above the fixed configuration's capacity, so
//! both configurations face the exact same overload.
//!
//! **Headline (asserted outside smoke mode):** on an encode-heavy
//! classifier (weight programming dominates the per-frame latency,
//! which is exactly where batch amortization pays), the adaptive
//! controller must either sustain **≥ 1.3×** the fixed configuration's
//! admitted throughput, or — if the fixed arm keeps up — cut the p99
//! queue wait by **≥ 2×** at the same offered load.
//!
//! A second scenario soaks the full request mix (acquire-dominated,
//! with image kernels, classifies and video streams on both priority
//! lanes) under bursty arrivals and reports sustained sim-QPS,
//! p50/p99/p99.9 queue wait and drop rate as `BENCH_serve_soak.json`.
//!
//! Smoke mode (`LIGHTATOR_BENCH_SMOKE=1`, the CI bench-smoke step) runs
//! thousands of requests instead of millions and skips the headline
//! assertion — shared runners measure nothing reliably; the full run is
//! the artifact that carries the claim.

use lightator_core::ca::CaConfig;
use lightator_core::config::OcGeometry;
use lightator_core::platform::{ImageKernel, Platform, Workload};
use lightator_core::stream::StreamConfig;
use lightator_core::CoreError;
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_photonics::units::Time;
use lightator_serve::{
    run_soak, ArrivalProcess, MetricsSnapshot, ServeError, Server, SloConfig, SoakConfig,
    SoakOutcome, TrafficMix,
};
use lightator_telemetry::json::{self, BenchMetric};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SENSOR: usize = 8;
const SHARDS: usize = 4;
/// Deep enough to absorb the arrivals that land while every shard is
/// mid-way through a maximum-size (64-frame) adaptive batch — large
/// batches make service bursty in simulated time, and a shallower queue
/// would charge that burstiness as drops rather than queue wait.
const QUEUE_DEPTH: usize = SHARDS * 128;
const FIXED_BATCH: usize = 4;
/// Offered load relative to the measured fixed-arm capacity: well past
/// saturation, where adaptive batching has headroom to harvest and the
/// fixed arm must shed load.
const OVERLOAD_FACTOR: f64 = 1.5;

/// The edge-sized classifier served by the comparison arms.
fn classifier() -> Result<Sequential, CoreError> {
    let mut rng = SmallRng::seed_from_u64(21);
    // CA halves the 8x8 sensor to [1, 4, 4] = 16 inputs.
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Flatten::new());
    model.push(Linear::new(16, 64, &mut rng)?);
    model.push(Activation::relu());
    model.push(Linear::new(64, 64, &mut rng)?);
    model.push(Activation::relu());
    model.push(Linear::new(64, 4, &mut rng)?);
    Ok(model)
}

/// The comparison arms run an *edge-sized* optical core: 12 banks, 8 of
/// them reserved for compressive acquisition, leaving ~216 compute MRs.
/// The 64x64 hidden layer (4096 weights) then needs 19 DAC reload passes
/// per frame, so weight encoding dominates the frame latency — exactly
/// the regime where batch amortization pays, since batched frames after
/// the first reuse the programmed weights and skip the encode stages.
fn edge_platform() -> Result<Platform, ServeError> {
    Ok(Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .compressive_acquisition(CaConfig::default())
        .geometry(OcGeometry {
            bank_columns: 4,
            bank_rows: 3,
            ..OcGeometry::default()
        })
        .build()?)
}

/// The paper-default platform (analog noise on) for the mixed soak.
fn platform() -> Result<Platform, ServeError> {
    Ok(Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .compressive_acquisition(CaConfig::default())
        .build()?)
}

/// The serving arms of the comparison.
#[derive(Clone, Copy)]
enum Arm {
    /// `max_batch = FIXED_BATCH`, constant flush deadline.
    Fixed,
    /// AIMD controller between 1 and 64 frames per batch.
    Adaptive,
}

impl Arm {
    fn name(self) -> &'static str {
        match self {
            Arm::Fixed => "fixed",
            Arm::Adaptive => "adaptive",
        }
    }
}

/// Builds one classify server for the requested arm. Both arms share
/// shard count, queue depth, shard assignment and lane weighting — the
/// only difference is the batching policy under test.
fn classify_server(arm: Arm) -> Result<Server, ServeError> {
    let builder = Server::builder(edge_platform()?)
        .shards(SHARDS)
        .queue_depth(QUEUE_DEPTH)
        .workload(Workload::Classify {
            model: classifier()?,
        });
    match arm {
        Arm::Fixed => builder
            .max_batch(FIXED_BATCH)
            .flush_deadline(Time::from_us(2.0)),
        Arm::Adaptive => builder.slo(SloConfig {
            target_queue_wait: Time::from_us(40.0),
            min_batch: 1,
            max_batch: 64,
        }),
    }
    .build()
}

/// One arm's soak result: harness tallies plus the server-side metrics.
struct ArmReport {
    outcome: SoakOutcome,
    snapshot: MetricsSnapshot,
}

/// Offers `requests` classify arrivals at `mean_qps` to a fresh server
/// for the arm.
fn soak_classify(arm: Arm, mean_qps: f64, requests: u64) -> Result<ArmReport, ServeError> {
    let server = classify_server(arm)?;
    let config = SoakConfig {
        seed: 11,
        requests,
        width: SENSOR,
        height: SENSOR,
        frame_pool: 32,
        arrivals: ArrivalProcess::Poisson { mean_qps },
        mix: TrafficMix::default(),
    };
    let outcome = run_soak(&server, &config)?;
    let snapshot = server.shutdown();
    assert_eq!(
        outcome.offered(),
        outcome.admitted() + outcome.dropped(),
        "open-loop accounting must be exact"
    );
    Ok(ArmReport { outcome, snapshot })
}

/// Measures the fixed arm's saturated service rate: offer far more than
/// it can serve and read back completed frames per simulated second.
fn fixed_capacity_qps(requests: u64) -> Result<f64, ServeError> {
    let report = soak_classify(Arm::Fixed, 1e9, requests)?;
    Ok(report.snapshot.sustained_qps())
}

/// The sustained mixed-traffic soak on the adaptive configuration:
/// all four request kinds, both lanes, bursty arrivals.
fn soak_mixed(requests: u64) -> Result<ArmReport, ServeError> {
    let server = Server::builder(platform()?)
        .shards(SHARDS)
        .queue_depth(QUEUE_DEPTH)
        .slo(SloConfig {
            target_queue_wait: Time::from_us(40.0),
            min_batch: 1,
            max_batch: 64,
        })
        .workload(Workload::Classify {
            model: classifier()?,
        })
        .workload(Workload::Acquire)
        .workload(Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        })
        .workload(Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig {
                block_size: 2,
                delta_threshold: 0.05,
            },
        })
        .build()?;
    let config = SoakConfig {
        seed: 29,
        requests,
        width: SENSOR,
        height: SENSOR,
        frame_pool: 32,
        arrivals: ArrivalProcess::Bursty {
            calm_qps: 2e5,
            burst_qps: 2e6,
            cycle: 1000,
            burst_len: 200,
        },
        mix: TrafficMix {
            classify: 0.15,
            acquire: 0.6,
            kernel: 0.15,
            stream: 0.1,
            kernel_filter: ImageKernel::SobelX,
            stream_frames: 4,
            interactive_fraction: 0.7,
        },
    };
    let outcome = run_soak(&server, &config)?;
    let snapshot = server.shutdown();
    Ok(ArmReport { outcome, snapshot })
}

fn print_arm(label: &str, report: &ArmReport) {
    let snap = &report.snapshot;
    println!(
        "  {label:<9} offered {:>9} ({:.0} qps) | sustained {:>9.0} qps | \
         drop {:>6.2}% | queue wait p50 {:.2} us, p99 {:.2} us, p99.9 {:.2} us",
        report.outcome.offered(),
        report.outcome.offered_qps(),
        snap.sustained_qps(),
        100.0 * snap.drop_rate(),
        snap.p50_queue_wait.us(),
        snap.p99_queue_wait.us(),
        snap.p99_9_queue_wait.us(),
    );
}

fn main() -> Result<(), ServeError> {
    let smoke = std::env::var("LIGHTATOR_BENCH_SMOKE").is_ok();
    let (probe_requests, arm_requests, mixed_requests) = if smoke {
        (500, 2_000, 2_000)
    } else {
        (10_000, 100_000, 2_000_000)
    };

    println!(
        "== open-loop serve soak ({}) ==",
        if smoke { "smoke" } else { "full" }
    );

    let capacity = fixed_capacity_qps(probe_requests)?;
    let offered = OVERLOAD_FACTOR * capacity;
    println!(
        "fixed-arm capacity {capacity:.0} qps (sim); offering {offered:.0} qps \
         ({OVERLOAD_FACTOR}x) to both arms"
    );

    let fixed = soak_classify(Arm::Fixed, offered, arm_requests)?;
    let adaptive = soak_classify(Arm::Adaptive, offered, arm_requests)?;
    print_arm(Arm::Fixed.name(), &fixed);
    print_arm(Arm::Adaptive.name(), &adaptive);

    let tput_ratio = adaptive.snapshot.sustained_qps() / fixed.snapshot.sustained_qps();
    let p99_ratio = fixed.snapshot.p99_queue_wait.ns() / adaptive.snapshot.p99_queue_wait.ns();
    println!(
        "adaptive vs fixed at equal offered load: {tput_ratio:.2}x sustained \
         throughput, {p99_ratio:.2}x lower p99 queue wait \
         (claim: >= 1.3x throughput or >= 2x lower p99)"
    );

    println!("mixed-traffic soak (adaptive, bursty arrivals):");
    let mixed = soak_mixed(mixed_requests)?;
    print_arm("mixed", &mixed);
    println!(
        "  lanes: interactive p99 {:.2} us over {} admitted, batch p99 {:.2} us over {} admitted",
        mixed.snapshot.p99_interactive_wait.us(),
        mixed.snapshot.admitted_interactive,
        mixed.snapshot.p99_batch_wait.us(),
        mixed.snapshot.admitted_batch,
    );

    let metrics = [
        BenchMetric::new("fixed_capacity_qps", capacity, "req/s"),
        BenchMetric::new("offered_qps", offered, "req/s"),
        BenchMetric::new(
            "fixed_sustained_qps",
            fixed.snapshot.sustained_qps(),
            "req/s",
        ),
        BenchMetric::new(
            "adaptive_sustained_qps",
            adaptive.snapshot.sustained_qps(),
            "req/s",
        ),
        BenchMetric::new(
            "fixed_p50_queue_wait_us",
            fixed.snapshot.p50_queue_wait.us(),
            "us",
        ),
        BenchMetric::new(
            "fixed_p99_queue_wait_us",
            fixed.snapshot.p99_queue_wait.us(),
            "us",
        ),
        BenchMetric::new(
            "fixed_p99_9_queue_wait_us",
            fixed.snapshot.p99_9_queue_wait.us(),
            "us",
        ),
        BenchMetric::new(
            "adaptive_p50_queue_wait_us",
            adaptive.snapshot.p50_queue_wait.us(),
            "us",
        ),
        BenchMetric::new(
            "adaptive_p99_queue_wait_us",
            adaptive.snapshot.p99_queue_wait.us(),
            "us",
        ),
        BenchMetric::new(
            "adaptive_p99_9_queue_wait_us",
            adaptive.snapshot.p99_9_queue_wait.us(),
            "us",
        ),
        BenchMetric::new("fixed_drop_rate", fixed.snapshot.drop_rate(), "fraction"),
        BenchMetric::new(
            "adaptive_drop_rate",
            adaptive.snapshot.drop_rate(),
            "fraction",
        ),
        BenchMetric::new("throughput_ratio", tput_ratio, "x"),
        BenchMetric::new("p99_ratio", p99_ratio, "x"),
        BenchMetric::new("mixed_offered", mixed.outcome.offered() as f64, "req"),
        BenchMetric::new(
            "mixed_sustained_qps",
            mixed.snapshot.sustained_qps(),
            "req/s",
        ),
        BenchMetric::new(
            "mixed_p50_queue_wait_us",
            mixed.snapshot.p50_queue_wait.us(),
            "us",
        ),
        BenchMetric::new(
            "mixed_p99_queue_wait_us",
            mixed.snapshot.p99_queue_wait.us(),
            "us",
        ),
        BenchMetric::new(
            "mixed_p99_9_queue_wait_us",
            mixed.snapshot.p99_9_queue_wait.us(),
            "us",
        ),
        BenchMetric::new("mixed_drop_rate", mixed.snapshot.drop_rate(), "fraction"),
    ];
    match json::emit("serve_soak", &metrics) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("failed to emit BENCH_serve_soak.json: {err}");
            std::process::exit(1);
        }
    }

    // Headline claim — full runs only; smoke exercises the harness.
    assert!(
        smoke || tput_ratio >= 1.3 || p99_ratio >= 2.0,
        "adaptive batching must beat fixed: got {tput_ratio:.2}x throughput, \
         {p99_ratio:.2}x p99 (need >= 1.3x or >= 2x)"
    );
    Ok(())
}
