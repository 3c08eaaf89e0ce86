//! Differential test: the electronic fp32 reference backend against the
//! photonic backend with analog noise disabled.
//!
//! Both backends lower the *same* [`CompiledPlan`], so with noise off the
//! only differences between them are the photonic datapath's weight and
//! activation quantization (`[4:4]` MR transmissions and VCSEL drive
//! codes versus exact fp32 arithmetic). The test pins that property for
//! all seven image kernels and for classify logits — photonic-vs-electronic
//! agreement is a checked invariant of the backend abstraction, not a
//! hand-maintained table.
//!
//! [`CompiledPlan`]: lightator_core::plan::CompiledPlan

use std::sync::Arc;

use lightator_baselines::electronic::ElectronicBaseline;
use lightator_baselines::reference::ElectronicReference;
use lightator_core::backend::BackendId;
use lightator_core::platform::{ImageKernel, Platform, Session, Workload};
use lightator_nn::datasets::{generate, SyntheticConfig};
use lightator_nn::layers::{Activation, Flatten, Linear};
use lightator_nn::model::Sequential;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SENSOR: usize = 8;

/// Absolute tolerance between fp32 and `[4:4]`-quantized execution per
/// unit of L1 weight norm: the 4-bit weight grid contributes up to
/// `max_abs / 7` per tap and the 4-bit activation grid a comparable term,
/// so the accumulated error grows with the sum of |coefficients|. A wrong
/// kernel or a broken datapath produces errors an order of magnitude
/// larger.
const TOLERANCE_PER_L1: f32 = 0.1;

/// Tolerance for the classify logits (small two-layer head on unit-range
/// inputs).
const LOGIT_TOLERANCE: f32 = 0.35;

/// The paper platform, shrunk to an 8×8 sensor, with analog noise off and
/// the electronic reference registered alongside the photonic default.
fn platform() -> Platform {
    Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .noise(NoiseConfig::ideal())
        .register_backend(Arc::new(ElectronicReference::new(
            ElectronicBaseline::eyeriss(),
        )))
        .build()
        .expect("platform")
}

/// A deterministic scene mixing a gradient, an edge and a bright spot.
fn scene() -> RgbFrame {
    let mut data = Vec::with_capacity(SENSOR * SENSOR * 3);
    for row in 0..SENSOR {
        for col in 0..SENSOR {
            let gradient = (row * SENSOR + col) as f64 / (SENSOR * SENSOR) as f64;
            let edge = if col >= SENSOR / 2 { 0.55 } else { 0.1 };
            let spot = if row == 2 && col == 5 { 0.3 } else { 0.0 };
            data.push((0.5 * gradient + 0.4 * edge + spot).min(1.0));
            data.push((0.8 * gradient).min(1.0));
            data.push((0.25 + 0.3 * edge).min(1.0));
        }
    }
    RgbFrame::new(SENSOR, SENSOR, data).expect("valid scene")
}

fn electronic_id() -> BackendId {
    BackendId::new("electronic:eyeriss")
}

fn run_frame(session: &mut Session) -> Vec<f32> {
    let report = session.run(&scene()).expect("frame");
    match report.frame() {
        Some((_, data)) => data.to_vec(),
        None => report.logits().expect("classify outcome").to_vec(),
    }
}

fn assert_close(kind: &str, photonic: &[f32], electronic: &[f32], tolerance: f32) {
    assert_eq!(photonic.len(), electronic.len(), "{kind}: length mismatch");
    for (i, (p, e)) in photonic.iter().zip(electronic).enumerate() {
        assert!(
            (p - e).abs() < tolerance,
            "{kind}[{i}]: photonic {p} vs electronic {e} (tolerance {tolerance})"
        );
    }
}

#[test]
fn all_image_kernels_agree_across_backends() {
    let platform = platform();
    for kernel in ImageKernel::ALL {
        let workload = Workload::ImageKernel { kernel };
        let l1: f32 = kernel.coefficients().iter().map(|c| c.abs()).sum();
        let mut photonic = platform.session(workload.clone()).expect("photonic");
        let mut electronic = platform
            .session_on(workload, &electronic_id())
            .expect("electronic");
        let p = run_frame(&mut photonic);
        let e = run_frame(&mut electronic);
        assert_close(
            &format!("kernel {}", kernel.name()),
            &p,
            &e,
            TOLERANCE_PER_L1 * l1,
        );
    }
}

#[test]
fn classify_logits_agree_across_backends() {
    let platform = platform();
    let acquired = platform.acquired_shape();
    let features: usize = acquired.iter().product();
    let mut rng = SmallRng::seed_from_u64(11);
    let mut model = Sequential::new(&acquired);
    model.push(Flatten::new());
    model.push(Linear::new(features, 8, &mut rng).expect("hidden"));
    model.push(Activation::relu());
    model.push(Linear::new(8, 4, &mut rng).expect("head"));
    let workload = Workload::Classify { model };

    let mut photonic = platform.session(workload.clone()).expect("photonic");
    let mut electronic = platform
        .session_on(workload, &electronic_id())
        .expect("electronic");
    let p = run_frame(&mut photonic);
    let e = run_frame(&mut electronic);
    assert_eq!(p.len(), 4);
    assert_close("logits", &p, &e, LOGIT_TOLERANCE);
}

#[test]
fn electronic_sessions_report_the_electronic_cost_model() {
    let platform = platform();
    let workload = Workload::ImageKernel {
        kernel: ImageKernel::SobelX,
    };
    let mut electronic = platform
        .session_on(workload.clone(), &electronic_id())
        .expect("electronic");
    let mut photonic = platform.session(workload).expect("photonic");
    assert_eq!(electronic.backend(), &electronic_id());
    assert!(photonic.backend().is_photonic());
    let e = electronic.run(&scene()).expect("frame");
    let p = photonic.run(&scene()).expect("frame");
    // Eyeriss draws its board power; the photonic platform reports the
    // optical core's figure, so the two cost models must differ.
    assert_eq!(e.max_power().watts(), 0.278);
    assert!((e.max_power().watts() - p.max_power().watts()).abs() > 1e-6);
}

/// `Session::evaluate` runs through the session's lowered plan on every
/// executing backend: each sample is one frame and one plan-cache hit.
#[test]
fn evaluate_runs_through_the_lowered_plan_on_every_backend() {
    let platform = platform();
    let mut rng = SmallRng::seed_from_u64(13);
    let dataset = generate("tiny", SyntheticConfig::tiny(3), &mut rng).expect("dataset");
    let input = dataset.input_shape();
    let mut model = Sequential::new(&input);
    model.push(Flatten::new());
    model.push(Linear::new(input.iter().product(), 8, &mut rng).expect("hidden"));
    model.push(Activation::relu());
    model.push(Linear::new(8, 3, &mut rng).expect("head"));
    let workload = Workload::Classify { model };
    let samples = 5;

    let mut photonic = platform.session(workload.clone()).expect("photonic");
    photonic.seek_frame(2);
    let result = photonic.evaluate(&dataset, samples).expect("photonic");
    assert_eq!(result.samples, samples);
    assert_eq!(photonic.plan_stats().cache_hits, samples as u64);
    assert_eq!(photonic.next_frame_index(), 2 + samples as u64);

    let mut electronic = platform
        .session_on(workload, &electronic_id())
        .expect("electronic");
    let result = electronic.evaluate(&dataset, samples).expect("electronic");
    assert_eq!(result.samples, samples);
    assert_eq!(electronic.plan_stats().cache_hits, samples as u64);
    assert_eq!(electronic.next_frame_index(), samples as u64);
    // The fp32 reference executes the workload's own model, so its
    // accuracy is the digital accuracy exactly.
    assert_eq!(result.photonic, result.digital);
}

/// Past the last frame index, an electronic session's counter saturates
/// the way the photonic executor's does: two frames seeked to `u64::MAX`
/// run, and the session stays at `u64::MAX`.
#[test]
fn electronic_sessions_run_past_the_last_frame_index() {
    let platform = platform();
    let mut electronic = platform
        .session_on(
            Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            },
            &electronic_id(),
        )
        .expect("electronic");
    electronic.seek_frame(u64::MAX);
    let last = run_frame(&mut electronic);
    assert_eq!(run_frame(&mut electronic), last);
    assert_eq!(electronic.next_frame_index(), u64::MAX);
}
