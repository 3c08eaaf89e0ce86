//! Cross-channel noise-ablation regression tests.
//!
//! The old sequential Box–Muller stream drew intensity, weight and
//! detection noise from **one** generator (with a cached spare), so
//! zeroing one sigma — e.g. `weight_sigma = 0` for an ablation study —
//! skipped draws and shifted *every* other channel's sequence, silently
//! changing the "unablated" noise. The counter-based generator keys each
//! draw by `(seed, frame, channel, element)`, making the channels
//! structurally independent. These tests pin that contract at the session
//! level, where the original bug corrupted published ablation numbers.

use lightator_core::platform::{ImageKernel, Outcome, Platform, Workload};
use lightator_photonics::NoiseConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use lightator_sensor::frame::RgbFrame;

const SENSOR: usize = 8;

fn platform_with(noise: NoiseConfig) -> Platform {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .noise(noise)
        .build()
        .expect("platform")
}

fn scene(seed: u64) -> RgbFrame {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data: Vec<f64> = (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
    RgbFrame::new(SENSOR, SENSOR, data).expect("frame")
}

/// Runs the Laplacian kernel once and returns the filtered pixels.
fn kernel_output(noise: NoiseConfig, frame: &RgbFrame) -> Vec<f32> {
    let platform = platform_with(noise);
    let mut session = platform
        .session(Workload::ImageKernel {
            kernel: ImageKernel::Laplacian,
        })
        .expect("session");
    match session.run(frame).expect("run").outcome {
        Outcome::Filtered { data, .. } => data,
        other => panic!("kernel workload produced {other:?}"),
    }
}

fn sub(a: &[f32], b: &[f32]) -> Vec<f32> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

fn assert_close(a: &[f32], b: &[f32], what: &str) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-4,
            "{what}: pixel {i} diverged ({x} vs {y})"
        );
    }
}

/// Zeroing `weight_sigma` (resp. `detector_relative_sigma`) must not move
/// a single draw of the other channels. The image-kernel datapath is
/// linear after photodetection, so each channel's *contribution* to the
/// output is the difference of two runs — and that contribution must be
/// identical whether the other channel is ablated or not. The old shared
/// stream fails both identities: zeroing one sigma shifted (and
/// spare-cached draws interleaved) the surviving channels' sequences.
#[test]
fn channel_contributions_are_invariant_under_other_channel_ablation() {
    let frame = scene(11);
    let full = NoiseConfig::default();
    let no_weight = NoiseConfig {
        weight_sigma: 0.0,
        ..full
    };
    let no_det = NoiseConfig {
        detector_relative_sigma: 0.0,
        ..full
    };
    let neither = NoiseConfig {
        weight_sigma: 0.0,
        detector_relative_sigma: 0.0,
        ..full
    };

    let out_full = kernel_output(full, &frame);
    let out_no_weight = kernel_output(no_weight, &frame);
    let out_no_det = kernel_output(no_det, &frame);
    let out_neither = kernel_output(neither, &frame);

    // Weight-noise contribution, measured with and without detection noise.
    let weight_with_det = sub(&out_full, &out_no_weight);
    let weight_without_det = sub(&out_no_det, &out_neither);
    assert!(
        weight_with_det.iter().any(|d| d.abs() > 1e-6),
        "weight noise had no effect; the identity would be vacuous"
    );
    assert_close(
        &weight_with_det,
        &weight_without_det,
        "weight-noise contribution changed when detection noise was ablated",
    );

    // Detection-noise contribution, measured with and without weight noise.
    let det_with_weight = sub(&out_full, &out_no_det);
    let det_without_weight = sub(&out_no_weight, &out_neither);
    assert!(
        det_with_weight.iter().any(|d| d.abs() > 1e-6),
        "detection noise had no effect; the identity would be vacuous"
    );
    assert_close(
        &det_with_weight,
        &det_without_weight,
        "detection-noise contribution changed when weight noise was ablated",
    );
}

/// An ablated classify platform must produce bit-identical logits on the
/// sequential path and the tiled multi-worker path: ablation composes with
/// worker tiling.
#[test]
fn ablated_classify_logits_are_bit_exact_across_execution_paths() {
    use lightator_nn::layers::{Activation, Conv2d, Flatten, Linear};
    use lightator_nn::model::Sequential;

    let mut rng = SmallRng::seed_from_u64(5);
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Conv2d::new(1, 2, 3, 1, 1, &mut rng).expect("conv"));
    model.push(Activation::relu());
    model.push(Flatten::new());
    model.push(Linear::new(2 * 4 * 4, 6, &mut rng).expect("linear"));
    model.push(Activation::relu());
    model.push(Linear::new(6, 3, &mut rng).expect("head"));

    let noise = NoiseConfig {
        weight_sigma: 0.0,
        ..NoiseConfig::default()
    };
    let workload = || Workload::Classify {
        model: model.clone(),
    };
    let frame = scene(23);

    let logits_of = |report: lightator_core::platform::Report| match report.outcome {
        Outcome::Classification { logits, .. } => logits,
        other => panic!("classify workload produced {other:?}"),
    };

    let on_workers = |workers| {
        Platform::builder()
            .sensor_resolution(SENSOR, SENSOR)
            .noise(noise)
            .workers(workers)
            .build()
            .expect("platform")
    };
    let mut sequential = on_workers(1).session(workload()).expect("session");
    let mut tiled = on_workers(4).session(workload()).expect("session");

    let expected = logits_of(sequential.run(&frame).expect("sequential"));
    let tiled_logits = logits_of(tiled.run(&frame).expect("tiled"));
    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&expected),
        bits(&tiled_logits),
        "tiled ablated logits diverged"
    );
}
