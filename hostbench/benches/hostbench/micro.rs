//! MAC-component microbenchmarks: fixed call counts over seeded inputs for
//! the optical-core (`oc.*`) and photonics (`arm.*`, `wdm.*`, `noise.*`)
//! layers. Each figure is the median of several timed batches, in
//! calibrated host nanoseconds per call.

use std::hint::black_box;
use std::time::Instant;

use lightator_core::oc::PhotonicMacUnit;
use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::MicroringConfig;
use lightator_photonics::noise::{CounterRng, NoiseChannel, NoiseConfig};
use lightator_photonics::wdm::{CrosstalkModel, WdmGrid};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::calib::{Calibration, Reference};
use crate::record::{median, Outcome};
use crate::BoxError;

/// Distinct 9-element rows cycled through by every microbenchmark.
const POOL: usize = 64;
/// Timed batches per figure; the median is reported.
const BATCHES: usize = 5;

/// Median calibrated ns per call of `op` over `BATCHES` batches of
/// `calls` calls; `op` receives the call index.
fn ns_per_call(
    cal: &mut Calibration,
    calls: usize,
    mut op: impl FnMut(usize) -> Result<(), BoxError>,
) -> Result<f64, BoxError> {
    let mut batches = Vec::with_capacity(BATCHES);
    cal.restart();
    for _ in 0..BATCHES {
        let start = Instant::now();
        for i in 0..calls {
            op(i)?;
        }
        let ns = start.elapsed().as_nanos() as f64 / calls as f64;
        batches.push(ns * cal.factor());
    }
    Ok(median(&batches))
}

fn arm(noise: NoiseConfig) -> Result<OpticalArm, BoxError> {
    Ok(OpticalArm::new(ArmConfig {
        channels: 9,
        ring: MicroringConfig::default(),
        noise,
    })?)
}

/// Runs every microbenchmark and appends its figure to `out`.
pub fn run(seed: u64, out: &mut Outcome) -> Result<(), BoxError> {
    let cal = &mut Calibration::new(Reference::Compute);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x6d69_6372_6f62_656e);
    let weights: Vec<[f64; 9]> = (0..POOL)
        .map(|_| std::array::from_fn(|_| rng.gen_range(-1.0..=1.0)))
        .collect();
    let activations: Vec<[f64; 9]> = (0..POOL)
        .map(|_| std::array::from_fn(|_| rng.gen_range(0.0..=1.0)))
        .collect();
    let row = |i: usize| &weights[i % POOL];
    let act = |i: usize| &activations[i % POOL];

    // Weight-stationary MAC: one row programmed, activations streamed.
    let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), seed)?;
    unit.load_row(row(0))?;
    let v = ns_per_call(cal, 20_000, |i| {
        black_box(unit.mac_loaded(black_box(act(i)))?);
        Ok(())
    })?;
    out.host("oc.mac_loaded_ns", v, "ns");

    // One 9-element segment of `dot`: retune the ring row, then MAC.
    let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), seed)?;
    let v = ns_per_call(cal, 20_000, |i| {
        black_box(unit.dot(black_box(row(i)), black_box(act(i)))?);
        Ok(())
    })?;
    out.host("oc.dot_ns", v, "ns");

    for (name, noise) in [
        ("arm.mac_ns", NoiseConfig::default()),
        ("arm.mac_ideal_ns", NoiseConfig::ideal()),
    ] {
        let mut arm = arm(noise)?;
        arm.load_weights(row(1))?;
        arm.begin_frame(seed, 0);
        let v = ns_per_call(cal, 20_000, |i| {
            black_box(arm.mac(black_box(act(i)))?);
            Ok(())
        })?;
        out.host(name, v, "ns");
    }

    let mut arm = arm(NoiseConfig::default())?;
    let v = ns_per_call(cal, 20_000, |i| {
        arm.load_weights(black_box(row(i)))?;
        Ok(())
    })?;
    out.host("arm.load_weights_ns", v, "ns");

    // Each call starts from a fresh copy so repeated attenuation never
    // drives the intensities into subnormals.
    let crosstalk = CrosstalkModel::new(WdmGrid::lightator_arm(9)?, MicroringConfig::default());
    let v = ns_per_call(cal, 20_000, |i| {
        let mut intensities = *act(i);
        crosstalk.apply(black_box(&mut intensities))?;
        black_box(intensities);
        Ok(())
    })?;
    out.host("wdm.crosstalk_apply_ns", v, "ns");

    let draws = CounterRng::new(seed, 0);
    let v = ns_per_call(cal, 200_000, |i| {
        black_box(draws.standard_normal(NoiseChannel::Intensity, black_box(i as u64)));
        Ok(())
    })?;
    out.host("noise.draw_ns", v, "ns");
    Ok(())
}
