//! A ring's weight error is drawn once per programming, not once per MAC.
//!
//! `NoiseConfig::weight_sigma` models tuning-DAC resolution and thermal
//! drift, which are fixed while a ring holds its weight, so every MAC of a
//! row in one frame reads the same realised weight: a fixed gain error per
//! output channel, the same whichever worker or stream tile runs the MAC,
//! and a new one in the next frame. Over many frames, one ring's error has
//! zero mean and an RMS of `weight_sigma`.

use lightator_core::exec::PhotonicExecutor;
use lightator_core::plan::CompiledPlan;
use lightator_core::platform::{Platform, Workload};
use lightator_nn::layers::Conv2d;
use lightator_nn::model::Sequential;
use lightator_nn::quant::{Precision, PrecisionSchedule};
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::NoiseConfig;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const SEED: u64 = 41;

fn weight_noise(sigma: f64) -> NoiseConfig {
    NoiseConfig {
        weight_sigma: sigma,
        ..NoiseConfig::ideal()
    }
}

/// A one-conv plan and an executor with only weight noise on.
fn setup(conv: Conv2d, input_shape: &[usize], sigma: f64) -> (CompiledPlan, PhotonicExecutor) {
    let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
    let mut model = Sequential::new(input_shape);
    model.push(conv);
    let platform = Platform::builder()
        .precision(schedule)
        .build()
        .expect("platform");
    let plan = CompiledPlan::compile(&Workload::Classify { model }, platform.config(), SEED)
        .expect("plan");
    let executor = PhotonicExecutor::new(schedule, weight_noise(sigma), SEED).expect("executor");
    (plan, executor)
}

/// Each output channel's single value, after checking that every output
/// position of the channel holds it.
fn channel_values(out: &Tensor, channels: usize) -> Vec<f32> {
    out.data()
        .chunks(out.data().len() / channels)
        .enumerate()
        .map(|(oc, plane)| {
            assert!(
                plane.iter().all(|v| v.to_bits() == plane[0].to_bits()),
                "channel {oc} varies over its positions: {plane:?}"
            );
            plane[0]
        })
        .collect()
}

/// With only weight noise on, a conv over a constant plane gives one value
/// per output channel at 1 and 4 workers and on every tile of a frame
/// batch, and the next frame draws another.
#[test]
fn weight_error_is_a_fixed_gain_per_output_channel() {
    const OUT: usize = 3;
    let conv = Conv2d::new(2, OUT, 3, 1, 0, &mut SmallRng::seed_from_u64(SEED)).expect("conv");
    let input = Tensor::from_vec(vec![0.7; 2 * 8 * 8], &[2, 8, 8]).expect("input");
    let sigma = NoiseConfig::default().weight_sigma;
    let mut frames = Vec::new();
    for workers in [1, 4] {
        let (mut plan, mut executor) = setup(conv.clone(), &[2, 8, 8], sigma);
        executor.set_workers(workers);
        let per_frame: Vec<Vec<f32>> = (0..2)
            .map(|_| {
                let out = executor.forward(&mut plan, &input).expect("forward");
                channel_values(&out, OUT)
            })
            .collect();
        let tiles = executor
            .forward_frame_batch(&mut plan, &[input.clone(), input.clone(), input.clone()])
            .expect("frame batch");
        for tile in &tiles {
            assert_eq!(channel_values(tile, OUT), channel_values(&tiles[0], OUT));
        }
        assert_ne!(
            per_frame[0], per_frame[1],
            "{workers} workers: the next frame redraws"
        );
        frames.push((per_frame, channel_values(&tiles[0], OUT)));
    }
    assert_eq!(
        frames[0], frames[1],
        "1 and 4 workers read the same weights"
    );
    let (mut plan, mut ideal) = setup(conv, &[2, 8, 8], 0.0);
    let nominal = channel_values(&ideal.forward(&mut plan, &input).expect("forward"), OUT);
    assert_ne!(frames[0].0[0], nominal, "the weight error moved the output");
}

/// Over 10⁴ frames, one ring's realised-minus-nominal weight has a mean
/// within 3σ/√n of zero and an RMS within 5% of `weight_sigma`. The conv is
/// 1×1 over two input channels, weights 1 and 0.5 and input `[0, 1]`, so
/// the output is the second ring's realised transmission.
#[test]
fn weight_error_has_the_configured_statistics() {
    const FRAMES: usize = 10_000;
    let mut conv = Conv2d::new(2, 1, 1, 1, 0, &mut SmallRng::seed_from_u64(SEED)).expect("conv");
    conv.weight_mut().data_mut().copy_from_slice(&[1.0, 0.5]);
    conv.bias_mut().data_mut().fill(0.0);
    let input = Tensor::from_vec(vec![0.0, 1.0], &[2, 1, 1]).expect("input");
    let sigma = NoiseConfig::default().weight_sigma;
    let (mut plan, mut ideal) = setup(conv.clone(), &[2, 1, 1], 0.0);
    let nominal = f64::from(ideal.forward(&mut plan, &input).expect("forward").data()[0]);
    assert!(
        (0.4..0.7).contains(&nominal),
        "nominal transmission {nominal}"
    );
    let (mut plan, mut noisy) = setup(conv, &[2, 1, 1], sigma);
    let errors: Vec<f64> = (0..FRAMES)
        .map(|_| f64::from(noisy.forward(&mut plan, &input).expect("forward").data()[0]) - nominal)
        .collect();
    let n = FRAMES as f64;
    let mean = errors.iter().sum::<f64>() / n;
    let rms = (errors.iter().map(|e| e * e).sum::<f64>() / n).sqrt();
    assert!(mean.abs() < 3.0 * sigma / n.sqrt(), "mean error {mean}");
    assert!(
        (rms / sigma - 1.0).abs() < 0.05,
        "RMS error {rms} against {sigma}"
    );
}
