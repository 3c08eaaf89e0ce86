//! Observational purity of tracing: attaching a [`TraceRecorder`] to a
//! session must not change a single output bit, even with analog noise on.
//!
//! Every property runs the same proptest-generated frames through two
//! sessions opened on the same platform — one with a recorder attached,
//! one without — and asserts the full [`Report`] / `StreamReport` values
//! compare equal (f64 equality, i.e. bit-exact for non-NaN outputs). The
//! platform keeps the **default analog noise** so the noisy execution path
//! is the one being compared, and each property also asserts the recorder
//! actually captured events, so the purity check can never pass vacuously.
//!
//! [`TraceRecorder`]: lightator_telemetry::TraceRecorder
//! [`Report`]: lightator_core::platform::Report

use lightator_core::ca::CaConfig;
use lightator_core::platform::{ImageKernel, Platform, Workload};
use lightator_core::stream::StreamConfig;
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_sensor::frame::RgbFrame;
use lightator_telemetry::TraceRecorder;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SENSOR: usize = 8;

/// An 8x8 platform with compressive acquisition and the default (noisy)
/// analog model: purity must hold on the path that draws noise.
fn platform() -> Platform {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .compressive_acquisition(CaConfig::default())
        .build()
        .expect("platform")
}

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

fn scenes(seed: u64, count: usize) -> Vec<RgbFrame> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let data: Vec<f64> = (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
            RgbFrame::new(SENSOR, SENSOR, data).expect("frame")
        })
        .collect()
}

/// Runs `frames` through a plain and a traced session of `workload` and
/// asserts bit-exact reports plus a non-empty trace.
fn assert_frame_workload_pure(workload: Workload, frames: &[RgbFrame]) {
    let platform = platform();
    let mut plain = platform.session(workload.clone()).expect("plain session");
    let mut traced = platform.session(workload).expect("traced session");
    let recorder = Arc::new(TraceRecorder::new());
    traced.attach_recorder(recorder.clone());

    for frame in frames {
        let expected = plain.run(frame).expect("plain run");
        let observed = traced.run(frame).expect("traced run");
        assert_eq!(expected, observed);
    }

    assert!(
        recorder.recorded() > 0,
        "the traced session must actually emit events"
    );
}

proptest! {
    /// Acquire: raw CA readout is identical with and without a recorder.
    #[test]
    fn acquire_is_pure_under_tracing(seed in 0u64..1 << 32, count in 1usize..4) {
        assert_frame_workload_pure(Workload::Acquire, &scenes(seed, count));
    }

    /// Image kernel: the optical 3x3 filter path is identical.
    #[test]
    fn image_kernel_is_pure_under_tracing(seed in 0u64..1 << 32, count in 1usize..4) {
        assert_frame_workload_pure(
            Workload::ImageKernel { kernel: ImageKernel::SobelX },
            &scenes(seed, count),
        );
    }

    /// Classify: full DNN inference (CA + MAC rows + activations) is
    /// identical, including the classification outputs.
    #[test]
    fn classify_is_pure_under_tracing(seed in 0u64..1 << 32, count in 1usize..3) {
        assert_frame_workload_pure(
            Workload::Classify { model: classifier() },
            &scenes(seed, count),
        );
    }

    /// Video stream: the delta-gated streaming path — including gate
    /// decisions, duty-scaled energy and the per-frame records — is
    /// identical with and without a recorder.
    #[test]
    fn video_stream_is_pure_under_tracing(seed in 0u64..1 << 32, count in 2usize..5) {
        let workload = Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig { block_size: 2, delta_threshold: 0.05 },
        };
        // Append a repeat of every frame so the delta gate exercises both
        // the recompute and the skip branch.
        let mut frames = scenes(seed, count);
        frames.extend(frames.clone());

        let platform = platform();
        let mut plain = platform.session(workload.clone()).expect("plain session");
        let mut traced = platform.session(workload).expect("traced session");
        let recorder = Arc::new(TraceRecorder::new());
        traced.attach_recorder(recorder.clone());

        let expected = plain.run_stream(&frames).expect("plain run_stream");
        let observed = traced.run_stream(&frames).expect("traced run_stream");
        prop_assert_eq!(expected, observed);
        prop_assert!(recorder.recorded() > 0);
    }

    /// Detaching mid-run is equally invisible: trace the first half of a
    /// batch only, and the outputs still match an untraced session.
    #[test]
    fn detach_mid_run_is_pure(seed in 0u64..1 << 32, count in 3usize..6) {
        let frames = scenes(seed, count);
        let platform = platform();
        let mut plain = platform.session(Workload::Acquire).expect("plain session");
        let mut traced = platform.session(Workload::Acquire).expect("traced session");
        let recorder = Arc::new(TraceRecorder::new());
        traced.attach_recorder(recorder.clone());
        for (i, frame) in frames.iter().enumerate() {
            if i == 2 {
                prop_assert!(traced.detach_recorder().is_some());
            }
            let expected = plain.run(frame).expect("plain run");
            let observed = traced.run(frame).expect("traced run");
            prop_assert_eq!(expected, observed);
        }
        prop_assert!(recorder.recorded() > 0);
        prop_assert!(!traced.has_recorder());
    }
}
