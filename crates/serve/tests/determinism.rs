//! Determinism under concurrency: N frames served through a multi-shard
//! pool produce bit-identical `Report`s to a single sequential `Session`,
//! **with the paper's analog noise enabled**.
//!
//! The mechanism under test: every admitted request gets a ticket (its
//! global frame index), shards execute contiguous-ticket batches at those
//! indices, and the analog-noise stream is a pure function of
//! `(seed, frame index)` — so neither the shard count, the batching, nor
//! the thread interleaving can change a single bit of any outcome.

use lightator_core::ca::CaConfig;
use lightator_core::platform::{ImageKernel, Platform, Report, Workload};
use lightator_core::stream::{StreamConfig, StreamReport};
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_photonics::units::Time;
use lightator_sensor::frame::RgbFrame;
use lightator_sensor::video::{SyntheticVideo, SyntheticVideoConfig};
use lightator_serve::{
    run_soak, ArrivalProcess, MetricsSnapshot, Priority, Request, Server, SloConfig, SoakConfig,
    SoakOutcome, TrafficMix,
};
use proptest::proptest;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SENSOR: usize = 8;

/// The paper's default platform keeps its analog noise enabled; only the
/// sensor is shrunk so the property runs fast.
fn noisy_platform() -> Platform {
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
    model.push(Linear::new(16, 12, &mut rng).expect("ok"));
    model.push(Activation::relu());
    model.push(Linear::new(12, 3, &mut rng).expect("ok"));
    model
}

fn scenes(count: usize, seed: u64) -> Vec<RgbFrame> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let data: Vec<f64> = (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
            RgbFrame::new(SENSOR, SENSOR, data).expect("frame")
        })
        .collect()
}

/// Sequential reference: one session, frames in order.
fn sequential_reports(workload: Workload, frames: &[RgbFrame]) -> Vec<Report> {
    let mut session = noisy_platform().session(workload).expect("session");
    frames
        .iter()
        .map(|frame| session.run(frame).expect("run"))
        .collect()
}

/// Pooled run: submit every frame in order, wait in order.
fn pooled_reports(
    workload: Workload,
    frames: &[RgbFrame],
    shards: usize,
    max_batch: usize,
    flush_deadline: Time,
    request_of: impl Fn(RgbFrame) -> Request,
) -> Vec<Report> {
    let server = Server::builder(noisy_platform())
        .shards(shards)
        .max_batch(max_batch)
        .queue_depth(frames.len().max(1))
        .flush_deadline(flush_deadline)
        .workload(workload)
        .build()
        .expect("server");
    let pendings: Vec<_> = frames
        .iter()
        .map(|frame| {
            server
                .submit(request_of(frame.clone()))
                .expect("admitted: queue_depth covers all frames")
        })
        .collect();
    pendings
        .into_iter()
        .map(|pending| pending.wait().expect("served"))
        .collect()
}

proptest! {
    /// Classification through the pool is bit-identical to sequential
    /// classification, for any shard count / batch bound / load size.
    #[test]
    fn pooled_classification_is_bit_identical_to_sequential(
        shards in 1usize..=4,
        max_batch in 1usize..=5,
        frame_count in 1usize..=10,
        deadline_us in 0u64..=1,
    ) {
        let frames = scenes(frame_count, 0xC1A55 ^ frame_count as u64);
        let expected = sequential_reports(
            Workload::Classify { model: tiny_model() },
            &frames,
        );
        let got = pooled_reports(
            Workload::Classify { model: tiny_model() },
            &frames,
            shards,
            max_batch,
            Time::from_us(deadline_us as f64),
            |frame| Request::Classify { frame },
        );
        assert_eq!(expected, got, "pooled classify diverged from sequential");
    }

    /// Image kernels run through the optical core (noise included) and must
    /// be equally reproducible.
    #[test]
    fn pooled_image_kernels_are_bit_identical_to_sequential(
        shards in 1usize..=3,
        max_batch in 1usize..=4,
        frame_count in 1usize..=8,
    ) {
        let frames = scenes(frame_count, 0xF117E4 ^ frame_count as u64);
        let workload = || Workload::ImageKernel { kernel: ImageKernel::SobelX };
        let expected = sequential_reports(workload(), &frames);
        let got = pooled_reports(
            workload(),
            &frames,
            shards,
            max_batch,
            Time::from_ns(0.0),
            |frame| Request::ImageKernel { kernel: ImageKernel::SobelX, frame },
        );
        assert_eq!(expected, got, "pooled kernel diverged from sequential");
    }

    /// Intra-session worker tiling composes with shard pooling: a pool
    /// whose shards tile their MAC loops across worker threads stays
    /// bit-identical to one sequential single-worker session. The
    /// counter-based noise generator keys every draw by
    /// `(seed, frame, channel, element)`, so neither level of parallelism
    /// can move a draw.
    #[test]
    fn pooled_serving_with_intra_session_workers_matches_sequential(
        shards in 1usize..=3,
        workers in 1usize..=4,
        frame_count in 1usize..=8,
    ) {
        let frames = scenes(frame_count, 0x703B ^ frame_count as u64);
        let workload = || Workload::ImageKernel { kernel: ImageKernel::SobelX };
        let expected = sequential_reports(workload(), &frames);
        let platform = Platform::builder()
            .sensor_resolution(SENSOR, SENSOR)
            .compressive_acquisition(CaConfig::default())
            .workers(workers)
            .build()
            .expect("platform");
        let server = Server::builder(platform)
            .shards(shards)
            .max_batch(3)
            .queue_depth(frames.len().max(1))
            .workload(workload())
            .build()
            .expect("server");
        let pendings: Vec<_> = frames
            .iter()
            .map(|frame| {
                server
                    .submit(Request::ImageKernel {
                        kernel: ImageKernel::SobelX,
                        frame: frame.clone(),
                    })
                    .expect("admitted: queue_depth covers all frames")
            })
            .collect();
        let got: Vec<Report> = pendings
            .into_iter()
            .map(|pending| pending.wait().expect("served"))
            .collect();
        assert_eq!(
            expected, got,
            "pooled serving with {workers} intra-session workers diverged"
        );
    }

    /// The adaptive SLO controller, shard assignment, and the
    /// priority lanes only move *when* work executes and on *which*
    /// virtual chip — never what it computes. Tickets are assigned at
    /// admission in submission order and the analog-noise stream keys on
    /// the ticket, so any shard count × SLO configuration × lane mix must
    /// reproduce the sequential reports bit-for-bit, analog noise on.
    #[test]
    fn slo_shard_assignment_and_priority_lanes_never_change_report_bits(
        shards in 1usize..=4,
        target_us in 1u64..=50,
        min_batch in 1usize..=3,
        batch_headroom in 0usize..=6,
        lane_seed in 0u64..=1024,
        frame_count in 1usize..=12,
    ) {
        let frames = scenes(frame_count, 0x510 ^ frame_count as u64);
        let expected = sequential_reports(
            Workload::Classify { model: tiny_model() },
            &frames,
        );
        let server = Server::builder(noisy_platform())
            .shards(shards)
            .slo(SloConfig {
                target_queue_wait: Time::from_us(target_us as f64),
                min_batch,
                max_batch: min_batch + batch_headroom,
            })
            .queue_depth(frames.len().max(1))
            .workload(Workload::Classify { model: tiny_model() })
            .build()
            .expect("server");
        let mut lanes = SmallRng::seed_from_u64(lane_seed);
        let pendings: Vec<_> = frames
            .iter()
            .map(|frame| {
                let lane = if lanes.gen_bool(0.5) {
                    Priority::Interactive
                } else {
                    Priority::Batch
                };
                server
                    .submit_with_priority(Request::Classify { frame: frame.clone() }, lane)
                    .expect("admitted: queue_depth covers all frames")
            })
            .collect();
        let got: Vec<Report> = pendings
            .into_iter()
            .map(|pending| pending.wait().expect("served"))
            .collect();
        assert_eq!(
            expected, got,
            "SLO batching / shard assignment / lanes changed a report bit"
        );
    }
}

/// The video-stream workload the pooled/sequential property runs on: a
/// Sobel kernel under a 2×2-block delta gate on the 8×8 sensor (4×4
/// acquired map).
fn stream_workload() -> Workload {
    Workload::VideoStream {
        kernel: ImageKernel::SobelX,
        stream: StreamConfig {
            block_size: 2,
            delta_threshold: 0.05,
        },
    }
}

/// Mixed-motion stream requests: a low-motion synthetic video chopped into
/// per-request chunks, so some blocks skip and some recompute.
fn stream_requests(count: usize, frames_each: usize) -> Vec<Vec<RgbFrame>> {
    let video = SyntheticVideo::new(SyntheticVideoConfig::low_motion(
        SENSOR,
        SENSOR,
        count * frames_each,
    ))
    .expect("video");
    (0..count)
        .map(|i| {
            (0..frames_each)
                .map(|j| video.frame_at(i * frames_each + j))
                .collect()
        })
        .collect()
}

proptest! {
    /// Pooled (sharded) video-stream serving is bit-identical to running
    /// the same stream requests back to back on one sequential session —
    /// with the paper's analog noise enabled. Weighted tickets give every
    /// stream its first frame index; `run_stream` starts fresh per
    /// request; and the per-frame noise streams are pure functions of
    /// `(seed, frame index)`.
    #[test]
    fn pooled_video_streams_are_bit_identical_to_sequential(
        shards in 1usize..=3,
        max_batch in 1usize..=3,
        requests in 1usize..=4,
        frames_each in 1usize..=4,
    ) {
        let streams = stream_requests(requests, frames_each);

        let mut session = noisy_platform().session(stream_workload()).expect("session");
        let expected: Vec<StreamReport> = streams
            .iter()
            .map(|frames| session.run_stream(frames).expect("sequential stream"))
            .collect();

        let server = Server::builder(noisy_platform())
            .shards(shards)
            .max_batch(max_batch)
            .queue_depth(streams.len())
            .workload(stream_workload())
            .build()
            .expect("server");
        let pendings: Vec<_> = streams
            .iter()
            .map(|frames| {
                server
                    .submit(Request::VideoStream {
                        kernel: ImageKernel::SobelX,
                        frames: frames.clone(),
                    })
                    .expect("admitted")
            })
            .collect();
        let got: Vec<StreamReport> = pendings
            .into_iter()
            .map(|pending| pending.wait_stream().expect("served"))
            .collect();
        assert_eq!(expected, got, "pooled video streams diverged from sequential");
    }
}

/// `seek_frame` + `resume_stream` replay: the tail of a full stream run is
/// reproduced bit-exactly from an arbitrary frame index, with analog noise
/// enabled — the stream-workload extension of the frame-indexed noise
/// contract the pool relies on.
#[test]
fn stream_tail_replay_is_bit_exact_from_any_index() {
    let frames: Vec<RgbFrame> =
        SyntheticVideo::new(SyntheticVideoConfig::low_motion(SENSOR, SENSOR, 10))
            .expect("video")
            .collect();

    let mut full = noisy_platform()
        .session(stream_workload())
        .expect("session");
    let full_report = full.run_stream(&frames).expect("full run");

    for split in 1..frames.len() {
        let mut prefix = noisy_platform()
            .session(stream_workload())
            .expect("session");
        prefix.run_stream(&frames[..split]).expect("prefix");
        let state = prefix.stream_state().expect("state after prefix");

        let mut tail = noisy_platform()
            .session(stream_workload())
            .expect("session");
        tail.seek_frame(split as u64);
        let tail_report = tail
            .resume_stream(state, &frames[split..])
            .expect("tail replay");
        assert_eq!(
            tail_report.frames,
            full_report.frames[split..],
            "tail replay diverged when resuming from frame {split}"
        );
    }
}

/// Acquisition bypasses the executor entirely; pooled acquisition must
/// still match sequential acquisition frame for frame.
#[test]
fn pooled_acquisition_matches_sequential() {
    let frames = scenes(9, 0xAC);
    let expected = sequential_reports(Workload::Acquire, &frames);
    let got = pooled_reports(
        Workload::Acquire,
        &frames,
        3,
        2,
        Time::from_ns(0.0),
        |frame| Request::Acquire { frame },
    );
    assert_eq!(expected, got);
}

/// Determinism survives failed requests: an errored frame consumes its
/// ticket in the pool and its frame index in a sequential session alike,
/// so the frames after it still match bit for bit.
#[test]
fn pooled_serving_matches_sequential_around_errors() {
    let mut frames = scenes(6, 0xBAD);
    // Frame 2 acquires to [1, 3, 3] and is rejected by the [1, 4, 4] model.
    frames[2] = RgbFrame::filled(6, 6, [0.5, 0.5, 0.5]).expect("ok");

    let mut session = noisy_platform()
        .session(Workload::Classify {
            model: tiny_model(),
        })
        .expect("session");
    let expected: Vec<Option<Report>> = frames.iter().map(|f| session.run(f).ok()).collect();
    assert!(expected[2].is_none(), "frame 2 must fail sequentially");

    let got = {
        let server = Server::builder(noisy_platform())
            .shards(2)
            .max_batch(3)
            .queue_depth(frames.len())
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .build()
            .expect("server");
        let pendings: Vec<_> = frames
            .iter()
            .map(|frame| {
                server
                    .submit(Request::Classify {
                        frame: frame.clone(),
                    })
                    .expect("admitted")
            })
            .collect();
        pendings
            .into_iter()
            .map(|pending| pending.wait().ok())
            .collect::<Vec<Option<Report>>>()
    };
    assert_eq!(expected, got, "pooled outcomes diverged around the error");
}

/// The same pooled run repeated twice gives the same answer — the server
/// itself introduces no hidden nondeterminism.
#[test]
fn pooled_runs_are_reproducible_across_servers() {
    let frames = scenes(7, 0x5EED);
    let run = || {
        pooled_reports(
            Workload::Classify {
                model: tiny_model(),
            },
            &frames,
            2,
            3,
            Time::from_ns(0.0),
            |frame| Request::Classify { frame },
        )
    };
    assert_eq!(run(), run());
}

/// Plan reuse is the default serving path: pooled execution must stay
/// bit-identical to a sequential session **and** every shard must have
/// compiled its workload group's plan exactly once at spawn, however the
/// load was batched across shards.
#[test]
fn pooled_equals_sequential_with_plans_compiled_once_per_shard() {
    let frames = scenes(9, 0x9A5);
    let workload = || Workload::ImageKernel {
        kernel: ImageKernel::GaussianBlur,
    };
    let expected = sequential_reports(workload(), &frames);

    let server = Server::builder(noisy_platform())
        .shards(3)
        .max_batch(4)
        .queue_depth(frames.len())
        .workload(workload())
        .build()
        .expect("server");
    let pendings: Vec<_> = frames
        .iter()
        .map(|frame| {
            server
                .submit(Request::ImageKernel {
                    kernel: ImageKernel::GaussianBlur,
                    frame: frame.clone(),
                })
                .expect("admitted")
        })
        .collect();
    let got: Vec<Report> = pendings
        .into_iter()
        .map(|pending| pending.wait().expect("served"))
        .collect();
    assert_eq!(expected, got, "plan-cached pooled serving diverged");

    let snapshot = server.shutdown();
    for shard in &snapshot.shards {
        assert_eq!(
            shard.plan_encodes, 1,
            "shard {} re-encoded its plan after spawn",
            shard.shard
        );
    }
    assert_eq!(snapshot.plan_encodes, 3, "one compile per shard");
    assert_eq!(
        snapshot.plan_hits,
        frames.len() as u64,
        "every pooled frame must ride the cached encoding"
    );
}

/// Serving *metrics* are as reproducible as report bits: one scheduler per
/// group decides every batch, shard and drop on the simulated clock, so a
/// bursty open-loop soak that overloads a shallow queue reports the same
/// outcome and the same snapshot run after run, whatever the intra-session
/// worker count or the host's thread interleaving.
#[test]
fn open_loop_soak_metrics_do_not_depend_on_the_host() {
    let soak = |workers: usize| -> (SoakOutcome, MetricsSnapshot) {
        let platform = Platform::builder()
            .sensor_resolution(SENSOR, SENSOR)
            .compressive_acquisition(CaConfig::default())
            .workers(workers)
            .build()
            .expect("platform");
        let server = Server::builder(platform)
            .shards(2)
            .queue_depth(8)
            .slo(SloConfig {
                target_queue_wait: Time::from_us(40.0),
                min_batch: 1,
                max_batch: 16,
            })
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .workload(Workload::Acquire)
            .workload(stream_workload())
            .build()
            .expect("server");
        let config = SoakConfig {
            seed: 23,
            requests: 3_000,
            width: SENSOR,
            height: SENSOR,
            frame_pool: 16,
            arrivals: ArrivalProcess::Bursty {
                calm_qps: 2e5,
                burst_qps: 2e7,
                cycle: 500,
                burst_len: 200,
            },
            mix: TrafficMix {
                classify: 0.3,
                acquire: 0.5,
                kernel: 0.0,
                stream: 0.2,
                kernel_filter: ImageKernel::SobelX,
                stream_frames: 3,
                interactive_fraction: 0.6,
            },
        };
        let outcome = run_soak(&server, &config).expect("soak");
        let mut snapshot = server.shutdown();
        snapshot.stages.clear();
        (outcome, snapshot)
    };
    let first = soak(1);
    assert!(
        first.0.dropped() > 0,
        "the burst must overload the queue for the drops to be compared"
    );
    assert_eq!(first, soak(1), "two identical soaks disagreed");
    assert_eq!(
        first,
        soak(4),
        "the intra-session worker count moved a metric"
    );
}
