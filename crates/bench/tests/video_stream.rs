//! Streaming video through the frame-delta compressive path: the delta
//! gate skips the optical work of temporally static blocks, so a
//! low-motion stream must run ≥ 1.5× faster in simulated time than dense
//! per-frame execution of the same frames.

use lightator_core::platform::{ImageKernel, Platform, Session, Workload};
use lightator_core::stream::StreamConfig;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use lightator_sensor::video::{SyntheticVideo, SyntheticVideoConfig};

const SENSOR: usize = 32;
/// The acceptance bar: gated sim-time must beat dense sim-time by this.
const TARGET_SPEEDUP: f64 = 1.5;

fn session(delta_threshold: f64) -> Session {
    let stream = StreamConfig {
        block_size: 4,
        delta_threshold,
    };
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .noise(NoiseConfig::ideal())
        .build()
        .expect("platform")
        .session(Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream,
        })
        .expect("session")
}

#[test]
fn delta_skip_beats_dense_execution_on_a_low_motion_stream() {
    let video = SyntheticVideoConfig::low_motion(SENSOR, SENSOR, 16);
    let frames: Vec<RgbFrame> = SyntheticVideo::new(video).expect("video").collect();
    let dense = session(0.0).run_stream(&frames).expect("dense stream");
    let gated = session(0.05).run_stream(&frames).expect("gated stream");
    assert_eq!(dense.blocks_skipped(), 0, "a zero threshold runs densely");
    let speedup = dense.sim_time.ns() / gated.sim_time.ns();
    assert!(
        speedup >= TARGET_SPEEDUP,
        "delta-skip sim-time speedup {speedup:.2}x ({:.0}% blocks skipped) fell below \
         the {TARGET_SPEEDUP}x bar",
        gated.skip_ratio() * 100.0
    );
    // The report's own dense baseline agrees with the measured dense run.
    assert!((gated.dense_sim_time.ns() - dense.sim_time.ns()).abs() < 1.0);
}
