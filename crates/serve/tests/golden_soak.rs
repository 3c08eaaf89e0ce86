//! Golden fixture for what `lightator-serve` decides and computes.
//!
//! `tests/golden/soak.golden` pins two phases, so a change to how the
//! server runs its batches on the host can be checked against the
//! decisions and outputs it must keep:
//!
//! * **Open-loop soaks.** A seeded bursty `run_soak` over acquire,
//!   classify, Sobel-X kernel and 4-frame stream traffic, on 2 shards per
//!   workload group and a queue shallow enough to drop, once with the fixed
//!   batcher and once with the adaptive one (the adaptive arm traced, so
//!   the stage rollup is pinned too). Every `SoakOutcome` and
//!   `MetricsSnapshot` field is written, `f64` values as hex bits, with
//!   every per-backend, per-shard and per-stage row.
//! * **Closed-loop rounds.** The clients run in rounds from one thread, as
//!   the `serve_throughput` bench drives them: each round submits one
//!   request per client at the server clock, then waits for every reply in
//!   client order. Each response's output and perf are pinned as an FNV-1a
//!   digest of its `Debug` text (which prints every float exactly), in
//!   ticket order per workload group, followed by the final snapshot.
//!
//! To regenerate after an *intentional* change of serving behaviour:
//!
//! ```text
//! cargo test -p lightator-serve --test golden_soak -- --ignored
//! ```

use lightator_core::ca::CaConfig;
use lightator_core::platform::{ImageKernel, Platform, Workload};
use lightator_core::stream::StreamConfig;
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_photonics::units::Time;
use lightator_sensor::frame::RgbFrame;
use lightator_sensor::video::{SyntheticVideo, SyntheticVideoConfig};
use lightator_serve::{
    run_soak, ArrivalProcess, BackendSnapshot, MetricsSnapshot, Priority, Request, Server,
    ServerBuilder, ShardSnapshot, SloConfig, SoakConfig, SoakOutcome, StageTotals, TrafficMix,
};
use lightator_telemetry::TraceRecorder;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

const SENSOR: usize = 8;
/// Closed-loop clients; client `i` sends the `i % 4`-th request kind.
const CLIENTS: usize = 8;
const ROUNDS: usize = 3;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("soak.golden")
}

/// The paper's default platform, analog noise on, on a small sensor.
fn platform() -> Platform {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .compressive_acquisition(CaConfig::default())
        .build()
        .expect("platform")
}

fn tiny_model() -> Sequential {
    let mut rng = SmallRng::seed_from_u64(5);
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Flatten::new());
    model.push(Linear::new(16, 12, &mut rng).expect("linear"));
    model.push(Activation::relu());
    model.push(Linear::new(12, 3, &mut rng).expect("linear"));
    model
}

/// One group per request kind the soak offers, 2 shards each.
fn builder() -> ServerBuilder {
    Server::builder(platform())
        .shards(2)
        .workload(Workload::Classify {
            model: tiny_model(),
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
}

/// Bursts at 100x the calm rate overload the shallow queues.
fn soak_config() -> SoakConfig {
    SoakConfig {
        seed: 31,
        requests: 2_000,
        width: SENSOR,
        height: SENSOR,
        frame_pool: 16,
        arrivals: ArrivalProcess::Bursty {
            calm_qps: 2e5,
            burst_qps: 2e7,
            cycle: 400,
            burst_len: 150,
        },
        mix: TrafficMix {
            classify: 0.2,
            acquire: 0.4,
            kernel: 0.2,
            stream: 0.2,
            kernel_filter: ImageKernel::SobelX,
            stream_frames: 4,
            interactive_fraction: 0.6,
        },
    }
}

fn bits(value: f64) -> String {
    format!("{:016x}", value.to_bits())
}

/// 64-bit FNV-1a.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn push_outcome(out: &mut String, outcome: &SoakOutcome) {
    let SoakOutcome {
        offered_interactive,
        offered_batch,
        admitted_interactive,
        admitted_batch,
        dropped_interactive,
        dropped_batch,
        last_arrival_ns,
    } = outcome;
    let _ = writeln!(
        out,
        "outcome offered {offered_interactive}/{offered_batch} \
         admitted {admitted_interactive}/{admitted_batch} \
         dropped {dropped_interactive}/{dropped_batch} last_arrival_ns {last_arrival_ns}"
    );
}

/// Every snapshot field, one per line; the destructuring has no `..`, so
/// a new field does not compile until it is pinned here.
fn push_snapshot(out: &mut String, snapshot: &MetricsSnapshot) {
    let MetricsSnapshot {
        completed,
        admitted_interactive,
        admitted_batch,
        rejected,
        rejected_interactive,
        rejected_batch,
        errored,
        served_frames,
        stream_frames,
        stream_blocks_total,
        stream_blocks_skipped,
        queued,
        p50_queue_wait,
        p95_queue_wait,
        p99_queue_wait,
        p99_9_queue_wait,
        p99_interactive_wait,
        p99_batch_wait,
        simulated_span,
        plan_encodes,
        plan_hits,
        backends,
        shards,
        stages,
    } = snapshot;
    let _ = writeln!(
        out,
        "completed {completed} errored {errored} queued {queued}\n\
         admitted {admitted_interactive}/{admitted_batch} \
         rejected {rejected} ({rejected_interactive}/{rejected_batch})\n\
         frames served {served_frames} stream {stream_frames} \
         blocks {stream_blocks_total} skipped {stream_blocks_skipped}\n\
         wait p50 {} p95 {} p99 {} p99.9 {} interactive p99 {} batch p99 {}\n\
         span {} plan {plan_encodes} encodes {plan_hits} hits",
        bits(p50_queue_wait.ns()),
        bits(p95_queue_wait.ns()),
        bits(p99_queue_wait.ns()),
        bits(p99_9_queue_wait.ns()),
        bits(p99_interactive_wait.ns()),
        bits(p99_batch_wait.ns()),
        bits(simulated_span.ns()),
    );
    for backend in backends {
        let BackendSnapshot {
            backend,
            shards,
            batches,
            frames,
            energy,
            plan_encodes,
            plan_hits,
            simulated_span,
        } = backend;
        let _ = writeln!(
            out,
            "backend {backend} shards {shards} batches {batches} frames {frames} \
             energy {} plan {plan_encodes}/{plan_hits} span {}",
            bits(energy.pj()),
            bits(simulated_span.ns()),
        );
    }
    for shard in shards {
        let ShardSnapshot {
            shard,
            backend,
            batches,
            frames,
            batch_sizes,
            steals,
            batch_limit,
            flush_deadline,
            plan_encodes,
            plan_hits,
            energy,
        } = shard;
        let _ = writeln!(
            out,
            "shard {shard} on {backend} batches {batches} frames {frames} sizes {batch_sizes:?} \
             steals {steals} limit {batch_limit} deadline {} plan {plan_encodes}/{plan_hits} \
             energy {}",
            bits(flush_deadline.ns()),
            bits(energy.pj()),
        );
    }
    for row in stages {
        let StageTotals {
            track,
            category,
            stage,
            count,
            sim_ns,
            energy_pj,
        } = row;
        let _ = writeln!(
            out,
            "stage {track} {category} {stage} x{count} {} {}",
            bits(*sim_ns),
            bits(*energy_pj),
        );
    }
}

/// The open-loop phase: the same schedule through a fixed and an adaptive
/// batcher.
fn soak_text(out: &mut String) {
    let arms = [
        (
            "fixed",
            builder()
                .max_batch(3)
                .queue_depth(6)
                .flush_deadline(Time::from_us(1.0)),
        ),
        (
            "adaptive",
            builder()
                .queue_depth(6)
                .slo(SloConfig {
                    target_queue_wait: Time::from_us(20.0),
                    min_batch: 1,
                    max_batch: 12,
                })
                .trace_recorder(Arc::new(TraceRecorder::new())),
        ),
    ];
    for (name, builder) in arms {
        let server = builder.build().expect("server");
        let outcome = run_soak(&server, &soak_config()).expect("soak");
        assert!(outcome.dropped() > 0, "the {name} arm must drop");
        let snapshot = server.shutdown();
        let _ = writeln!(out, "# soak {name}");
        push_outcome(out, &outcome);
        push_snapshot(out, &snapshot);
    }
}

/// Client `client`'s request in `round`: the four kinds in turn, each on
/// its own scenes; streams are 4-frame cuts of a low-motion clip.
fn request(client: usize, round: usize, video: &SyntheticVideo) -> Request {
    let mut rng = SmallRng::seed_from_u64((client * ROUNDS + round) as u64);
    let data: Vec<f64> = (0..SENSOR * SENSOR * 3).map(|_| rng.gen()).collect();
    let frame = RgbFrame::new(SENSOR, SENSOR, data).expect("frame");
    match client % 4 {
        0 => Request::Classify { frame },
        1 => Request::Acquire { frame },
        2 => Request::ImageKernel {
            kernel: ImageKernel::SobelX,
            frame,
        },
        _ => {
            let first = 4 * (client / 4 + 2 * round);
            Request::VideoStream {
                kernel: ImageKernel::SobelX,
                frames: (first..first + 4).map(|i| video.frame_at(i)).collect(),
            }
        }
    }
}

/// The closed-loop phase: rounds of one request per client from this
/// thread, every third client on the batch lane.
fn closed_loop_text(out: &mut String) {
    let server = builder()
        .max_batch(3)
        .queue_depth(2 * CLIENTS)
        .flush_deadline(Time::from_us(2.0))
        .build()
        .expect("server");
    let video = SyntheticVideo::new(SyntheticVideoConfig::low_motion(
        SENSOR,
        SENSOR,
        4 * CLIENTS * ROUNDS,
    ))
    .expect("video");
    let _ = writeln!(out, "# closed loop");
    let mut lines: Vec<(String, usize, String)> = Vec::new();
    for round in 0..ROUNDS {
        let pending: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let request = request(client, round, &video);
                let lane = if client % 3 == 2 {
                    Priority::Batch
                } else {
                    Priority::Interactive
                };
                let label = request.label();
                let pending = server
                    .submit_with_priority(request, lane)
                    .expect("a round fits the queue");
                (label, pending)
            })
            .collect();
        for (label, pending) in pending {
            let response = pending.wait_response().expect("served");
            let index = lines.iter().filter(|(l, ..)| *l == label).count();
            let digest = format!("{:016x}", fnv1a(&format!("{response:?}")));
            lines.push((label, index, digest));
        }
    }
    // Tickets follow submission order within a group.
    lines.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)));
    for (label, index, digest) in lines {
        let _ = writeln!(out, "response {label} #{index} {digest}");
    }
    push_snapshot(out, &server.shutdown());
}

fn golden_text() -> String {
    let mut out = String::new();
    soak_text(&mut out);
    closed_loop_text(&mut out);
    out
}

/// Every pinned decision and output is bit-exact against the fixture.
#[test]
fn serving_is_bit_exact_against_the_fixture() {
    let path = fixture_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with --ignored",
            path.display()
        )
    });
    let got = golden_text();
    for (line, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "serving drifted at fixture line {}", line + 1);
    }
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "fixture length drifted"
    );
}

/// Writes the fixture. Run explicitly after an intentional change:
/// `cargo test -p lightator-serve --test golden_soak -- --ignored`
#[test]
#[ignore = "regenerates the golden fixture in place"]
fn regenerate_golden_fixture() {
    std::fs::write(fixture_path(), golden_text()).expect("write soak fixture");
}
