//! Scenario tests: a realistic Lightator arm on its WDM grid, exercising the
//! photonic substrate the way the core uses it.

use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::{MicroringConfig, MicroringResonator};
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::units::Power;
use lightator_photonics::wdm::WdmGrid;

/// The WDM grid keeps adjacent channels separated by several ring linewidths,
/// so per-channel weighting does not destroy its neighbours.
#[test]
fn wdm_spacing_exceeds_ring_linewidth() {
    let grid = WdmGrid::lightator_arm(9).expect("grid");
    let ring = MicroringConfig::default();
    let spacing_nm = grid.spacing().nm();
    let fwhm_nm = ring.fwhm().nm();
    assert!(
        spacing_nm > 3.0 * fwhm_nm,
        "channel spacing {spacing_nm} nm must be several times the ring FWHM {fwhm_nm} nm"
    );

    // Weighting channel 4 to the darkest value barely disturbs channel 5.
    let mut mr = MicroringResonator::new(ring, grid.wavelength(4).expect("channel")).expect("ring");
    mr.set_weight(0.05).expect("weight");
    let neighbour = grid.wavelength(5).expect("channel");
    assert!(mr.transmission_at(neighbour) > 0.9);
}

/// Running the same dot product on two arms with different noise seeds gives
/// answers that differ by no more than the expected analog spread, and both
/// remain close to the ideal value.
#[test]
fn analog_spread_is_bounded_across_seeds() {
    let weights = [0.6, -0.4, 0.2, 0.8, -0.7, 0.1, -0.2, 0.5, 0.3];
    let activations = [0.9, 0.3, 0.7, 0.2, 0.8, 0.5, 0.4, 0.6, 0.1];
    let exact: f64 = weights.iter().zip(activations).map(|(w, a)| w * a).sum();

    let mut results = Vec::new();
    for seed in 0..8u64 {
        let mut arm = OpticalArm::new(ArmConfig {
            noise: NoiseConfig::default(),
            ..ArmConfig::default()
        })
        .expect("arm");
        arm.load_weights(&weights).expect("weights");
        arm.begin_frame(seed, 0);
        results.push(arm.mac(&activations).expect("mac").value);
    }
    for value in &results {
        assert!(
            (value - exact).abs() < 0.2,
            "value {value} vs exact {exact}"
        );
    }
    let spread = results.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
        - results.iter().fold(f64::INFINITY, |m, &v| m.min(v));
    assert!(spread < 0.2, "seed-to-seed spread {spread} too large");
}

/// A dark arm (all activations zero) detects essentially nothing, regardless
/// of the loaded weights — the optical core has no "leakage MACs".
#[test]
fn dark_inputs_produce_no_output() {
    let mut arm = OpticalArm::new(ArmConfig {
        noise: NoiseConfig::ideal(),
        ..ArmConfig::default()
    })
    .expect("arm");
    arm.load_weights(&[1.0, -1.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.9])
        .expect("weights");
    arm.begin_frame(3, 0);
    let out = arm.mac(&[0.0; 9]).expect("mac");
    assert!(out.value.abs() < 1e-9);
    assert_eq!(out.ideal, 0.0);
    let _ = Power::zero();
}
