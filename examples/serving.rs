//! Serving at scale: a closed-loop load generator hammering a sharded,
//! micro-batching `lightator-serve` server with mixed workloads.
//!
//! ```text
//! cargo run --release --example serving
//! ```
//!
//! Six client threads submit classify / acquire / Sobel-kernel requests in
//! a closed loop against a 2-shard-per-workload pool running the adaptive
//! SLO batching controller, with work stealing on and requests split
//! across the interactive and batch priority lanes. The example then
//! prints the server's metrics table — per-lane admissions and p99 queue
//! waits included — and emits the `BENCH_serve_metrics.json` artifact.

use lightator_suite::core::ca::CaConfig;
use lightator_suite::nn::layers::{Activation, Flatten, Linear};
use lightator_suite::nn::model::Sequential;
use lightator_suite::photonics::units::Time;
use lightator_suite::sensor::frame::RgbFrame;
use lightator_suite::serve::{Priority, Request, ServeError, Server, SloConfig};
use lightator_suite::telemetry::json::{self, BenchMetric};
use lightator_suite::{ImageKernel, Platform, Workload};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SENSOR: usize = 8;
const CLIENTS: usize = 6;
const FRAMES_PER_CLIENT: usize = 12;
const SHARDS: usize = 2;

fn classifier() -> Sequential {
    let mut rng = SmallRng::seed_from_u64(5);
    // 2x2 compressive acquisition halves the 8x8 sensor to [1, 4, 4].
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Flatten::new());
    model.push(Linear::new(16, 24, &mut rng).expect("linear"));
    model.push(Activation::relu());
    model.push(Linear::new(24, 4, &mut rng).expect("linear"));
    model
}

fn request_for(client: usize, index: usize, frame: RgbFrame) -> Request {
    match (client + index) % 3 {
        0 => Request::Classify { frame },
        1 => Request::Acquire { frame },
        _ => Request::ImageKernel {
            kernel: ImageKernel::SobelX,
            frame,
        },
    }
}

fn main() -> Result<(), ServeError> {
    let platform = Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .compressive_acquisition(CaConfig::default())
        .build()?;
    let server = Server::builder(platform)
        .shards(SHARDS)
        // Adaptive batching: each shard grows its batch limit while the
        // observed queue wait stays under the target (stealing defaults on).
        .slo(SloConfig {
            target_queue_wait: Time::from_us(20.0),
            min_batch: 1,
            max_batch: 8,
        })
        .interactive_weight(4)
        .queue_depth(4 * CLIENTS)
        .workload(Workload::Classify {
            model: classifier(),
        })
        .workload(Workload::Acquire)
        .workload(Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        })
        .build()?;
    println!(
        "serving {:?} with {SHARDS} shards per workload group\n",
        server.workloads()
    );

    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let server = &server;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(client as u64);
                for index in 0..FRAMES_PER_CLIENT {
                    let data: Vec<f64> =
                        (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
                    let frame = RgbFrame::new(SENSOR, SENSOR, data).expect("frame");
                    // Odd clients ride the background batch lane.
                    let lane = if client % 2 == 0 {
                        Priority::Interactive
                    } else {
                        Priority::Batch
                    };
                    loop {
                        let submitted = server
                            .submit_with_priority(request_for(client, index, frame.clone()), lane)
                            .and_then(|pending| pending.wait());
                        match submitted {
                            Ok(report) => {
                                if index == 0 {
                                    println!(
                                        "client {client}: first `{}` report in {:.3} us \
                                         ({:.1} KFPS/W)",
                                        report.workload,
                                        report.latency().us(),
                                        report.kfps_per_watt()
                                    );
                                }
                                break;
                            }
                            // Admission control pushed back: retry later.
                            Err(ServeError::Overloaded { .. }) => std::thread::yield_now(),
                            Err(err) => panic!("serving failed: {err}"),
                        }
                    }
                }
            });
        }
    });

    let metrics = server.shutdown();
    println!("\n== server metrics ==\n{}", metrics.table());
    println!(
        "lanes: {} interactive + {} batch admitted, p99 queue wait {:.3} / {:.3} us",
        metrics.admitted_interactive,
        metrics.admitted_batch,
        metrics.p99_interactive_wait.us(),
        metrics.p99_batch_wait.us(),
    );
    println!(
        "sustained pooled throughput: {:.0} frames per simulated second",
        metrics.throughput_fps()
    );
    assert_eq!(
        metrics.completed as usize,
        CLIENTS * FRAMES_PER_CLIENT,
        "every submitted frame is served before shutdown returns"
    );

    // Machine-readable artifact for the perf trajectory, next to the other
    // BENCH_*.json documents.
    let path = json::emit(
        "serve_metrics",
        &[
            BenchMetric::new("completed_requests", metrics.completed as f64, "requests"),
            BenchMetric::new("rejected_requests", metrics.rejected as f64, "requests"),
            BenchMetric::new("errored_requests", metrics.errored as f64, "requests"),
            BenchMetric::new("served_frames", metrics.served_frames as f64, "frames"),
            BenchMetric::new("throughput_fps", metrics.throughput_fps(), "frames/s"),
            BenchMetric::new("p50_queue_wait_us", metrics.p50_queue_wait.us(), "us"),
            BenchMetric::new("p99_queue_wait_us", metrics.p99_queue_wait.us(), "us"),
            BenchMetric::new(
                "admitted_interactive",
                metrics.admitted_interactive as f64,
                "requests",
            ),
            BenchMetric::new("admitted_batch", metrics.admitted_batch as f64, "requests"),
            BenchMetric::new(
                "p99_interactive_wait_us",
                metrics.p99_interactive_wait.us(),
                "us",
            ),
            BenchMetric::new("p99_batch_wait_us", metrics.p99_batch_wait.us(), "us"),
            BenchMetric::new("plan_encodes", metrics.plan_encodes as f64, "encodes"),
            BenchMetric::new("plan_cache_hits", metrics.plan_hits as f64, "hits"),
        ],
    )
    .expect("emit BENCH_serve_metrics.json");
    println!("wrote {}", path.display());
    Ok(())
}
