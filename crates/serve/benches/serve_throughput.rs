//! Sustained serving throughput: 1 shard vs 4 shards.
//!
//! Every shard is one virtual Lightator chip with its own simulated
//! timeline, so sustained throughput — completed frames per simulated
//! second under a saturating closed-loop load — must scale with the shard
//! count (target ≥ 2× at 4 shards) regardless of how many host CPUs run
//! the simulation. The clients run in rounds from one thread, so the ratio
//! is the same on every run and host.

use lightator_core::ca::CaConfig;
use lightator_core::platform::{Platform, Workload};
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use lightator_serve::{MetricsSnapshot, Request, Server};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

const SENSOR: usize = 8;
const MAX_BATCH: usize = 4;

fn classifier() -> Sequential {
    let mut rng = SmallRng::seed_from_u64(21);
    // CA halves the 8x8 sensor to [1, 4, 4].
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Flatten::new());
    model.push(Linear::new(16, 24, &mut rng).expect("linear"));
    model.push(Activation::relu());
    model.push(Linear::new(24, 4, &mut rng).expect("linear"));
    model
}

fn scenes(count: usize) -> Vec<RgbFrame> {
    let mut rng = SmallRng::seed_from_u64(33);
    (0..count)
        .map(|_| {
            let data: Vec<f64> = (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
            RgbFrame::new(SENSOR, SENSOR, data).expect("frame")
        })
        .collect()
}

fn server(shards: usize, queue_depth: usize) -> Server {
    let platform = Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .compressive_acquisition(CaConfig::default())
        .noise(NoiseConfig::ideal())
        .build()
        .expect("platform");
    Server::builder(platform)
        .shards(shards)
        .max_batch(MAX_BATCH)
        .queue_depth(queue_depth)
        .workload(Workload::Classify {
            model: classifier(),
        })
        .build()
        .expect("server")
}

/// Closed-loop load: `clients` clients, each submitting
/// `frames_per_client` classify requests back to back, then graceful
/// shutdown. The clients run in rounds from this thread: each round submits
/// one request per client at the server clock, then waits for every reply
/// in client order, so each client waits for its reply before it sends its
/// next request.
fn closed_loop(shards: usize, clients: usize, frames_per_client: usize) -> MetricsSnapshot {
    let server = server(shards, 2 * clients);
    let frames = scenes(clients);
    for _ in 0..frames_per_client {
        let pending: Vec<_> = frames
            .iter()
            .map(|frame| {
                server
                    .submit(Request::Classify {
                        frame: frame.clone(),
                    })
                    .expect("a round fits the queue")
            })
            .collect();
        for pending in pending {
            black_box(pending.wait().expect("served"));
        }
    }
    server.shutdown()
}

fn main() {
    // Saturating load for 4 shards: clients >= shards * max_batch.
    let clients = 4 * MAX_BATCH * 2;
    let frames_per_client = 3;

    // Headline: sustained simulated throughput must scale >= 2x from 1 to
    // 4 shards (each shard is an independent virtual chip). The scheduler
    // hands every batch to the earliest-free shard on the simulated clock,
    // and the clients submit in rounds from one thread, so neither the
    // batches nor their spread across shards hinges on host timing.
    let single = closed_loop(1, clients, 2 * frames_per_client);
    let pooled = closed_loop(4, clients, 2 * frames_per_client);
    let ratio = pooled.throughput_fps() / single.throughput_fps();
    println!(
        "sustained throughput: 1 shard {:.0} frames/s (sim), \
         4 shards {:.0} frames/s (sim) -> {ratio:.2}x (target >= 2x)",
        single.throughput_fps(),
        pooled.throughput_fps(),
    );
    assert!(
        ratio >= 2.0,
        "4-shard sustained throughput stayed below the 2x acceptance bar ({ratio:.2}x)"
    );
}
