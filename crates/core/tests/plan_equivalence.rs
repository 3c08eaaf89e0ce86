//! The compiled-plan determinism contract, property-tested with the
//! paper's **analog noise enabled**: worker-tiled and resumed execution are
//! bit-exactly equal to one sequential `run` per frame for every workload,
//! across worker counts and stream split points.
//!
//! The noise a frame sees is a function of its global frame index alone,
//! so how frames are tiled across workers or split across sessions must
//! not move a single noise draw.

use lightator_core::platform::{ImageKernel, Platform, Workload};
use lightator_core::stream::StreamConfig;
use lightator_nn::layers::{Activation, Conv2d, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_sensor::frame::RgbFrame;
use proptest::proptest;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SENSOR: usize = 8;

/// The paper's default platform (noise **on**), shrunk to a small sensor,
/// tiling its MAC loops across `workers`.
fn noisy_platform(workers: usize) -> Platform {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .workers(workers)
        .build()
        .expect("platform")
}

/// A classify model with a conv and two linears, so both weighted layer
/// kinds ride the plan's encoded rows.
fn conv_classifier(seed: u64) -> Sequential {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Conv2d::new(1, 2, 3, 1, 1, &mut rng).expect("conv"));
    model.push(Activation::relu());
    model.push(Flatten::new());
    model.push(Linear::new(2 * 4 * 4, 8, &mut rng).expect("linear"));
    model.push(Activation::relu());
    model.push(Linear::new(8, 3, &mut rng).expect("head"));
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

/// Low-motion 16x16 stream scenes: a bright pixel hops along the top row.
fn stream_scenes(count: usize) -> Vec<RgbFrame> {
    (0..count)
        .map(|i| {
            let mut scene = RgbFrame::filled(16, 16, [0.2, 0.2, 0.2]).expect("ok");
            scene.set_pixel(0, i % 16, [0.9, 0.9, 0.9]).expect("ok");
            scene
        })
        .collect()
}

proptest! {
    /// Worker tiling: with analog noise **on**, every worker count replays
    /// the sequential noise stream bit for bit across classify, acquire
    /// and kernel workloads — the counter-based generator keys each draw
    /// by `(seed, frame, channel, element)`, so tiling is a pure
    /// throughput transform.
    #[test]
    fn worker_tiling_matches_sequential_across_workloads(
        worker_index in 0usize..4,
        kernel_index in 0usize..7,
        batch in 1usize..5,
        scene_seed in 1u64..256,
    ) {
        let workers = [1usize, 2, 4, 8][worker_index];
        let sequential_platform = noisy_platform(1);
        let tiled_platform = noisy_platform(workers);
        let frames = scenes(batch, scene_seed);
        for workload in [
            Workload::Classify { model: conv_classifier(7) },
            Workload::Acquire,
            Workload::ImageKernel { kernel: ImageKernel::ALL[kernel_index] },
        ] {
            let mut sequential = sequential_platform.session(workload.clone()).expect("session");
            let mut tiled = tiled_platform.session(workload).expect("session");
            for frame in &frames {
                assert_eq!(
                    sequential.run(frame).expect("sequential run"),
                    tiled.run(frame).expect("tiled run"),
                    "tiled run diverged at {workers} workers"
                );
            }
            assert_eq!(sequential.next_frame_index(), tiled.next_frame_index());
        }
    }
}

proptest! {
    /// Worker tiling, video streams: the per-block stream path produces
    /// identical frames at any worker count and any split point.
    #[test]
    fn worker_tiling_matches_sequential_for_video_streams(
        worker_index in 0usize..4,
        frame_count in 2usize..6,
    ) {
        let workers = [1usize, 2, 4, 8][worker_index];
        let platform = |workers| {
            Platform::builder()
                .sensor_resolution(16, 16)
                .workers(workers)
                .build()
                .expect("platform")
        };
        let workload = || Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig { block_size: 2, delta_threshold: 0.05 },
        };
        let frames = stream_scenes(frame_count);

        let mut sequential = platform(1).session(workload()).expect("session");
        let full = sequential.run_stream(&frames).expect("sequential stream");

        let mut tiled = platform(workers).session(workload()).expect("session");
        let tiled_full = tiled.run_stream(&frames).expect("tiled stream");
        assert_eq!(
            full.frames, tiled_full.frames,
            "tiled stream diverged at {workers} workers"
        );
    }
}

proptest! {
    /// Video streams, whole or split: a tail resumed at any split point on
    /// a fresh session replays the full run exactly.
    #[test]
    fn video_streams_match_across_plan_modes_and_split_points(
        frame_count in 2usize..7,
        split in 1usize..6,
    ) {
        proptest::prop_assume!(split < frame_count);
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        let workload = || Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig { block_size: 2, delta_threshold: 0.05 },
        };
        let frames = stream_scenes(frame_count);

        let mut session = platform.session(workload()).expect("session");
        let full = session.run_stream(&frames).expect("stream");

        let mut prefix = platform.session(workload()).expect("session");
        prefix.run_stream(&frames[..split]).expect("prefix");
        let state = prefix.stream_state().expect("state");
        let mut tail_session = platform.session(workload()).expect("session");
        tail_session.seek_frame(split as u64);
        let tail = tail_session
            .resume_stream(state, &frames[split..])
            .expect("tail");
        assert_eq!(
            tail.frames,
            full.frames[split..],
            "resumed tail diverged from the full run"
        );
    }
}
