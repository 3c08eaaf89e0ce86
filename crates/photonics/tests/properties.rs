//! Property-based tests for the photonic device models.

use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::{MicroringConfig, MicroringResonator};
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::photodetector::{BalancedPhotodetector, PhotodetectorConfig};
use lightator_photonics::units::{Power, Wavelength};
use lightator_photonics::vcsel::{ModulatedVcsel, VcselConfig};
use lightator_photonics::waveguide::{LinkBudget, WaveguideConfig};
use lightator_photonics::wdm::{CrosstalkModel, WdmGrid};
use proptest::prelude::*;

proptest! {
    /// Any representable weight programmed onto an MR yields a transmission
    /// inside [0, 1] and within a small tolerance of the requested weight.
    #[test]
    fn mr_transmission_tracks_weight(weight in 0.0f64..0.95) {
        let mut mr = MicroringResonator::new(
            MicroringConfig::default(),
            Wavelength::from_nm(1550.0),
        ).unwrap();
        mr.set_weight(weight).unwrap();
        let t = mr.channel_transmission();
        prop_assert!((0.0..=1.0).contains(&t));
        prop_assert!((t - weight).abs() < 0.05, "weight {} realised {}", weight, t);
    }

    /// The cached channel transmission equals its reference definition,
    /// `transmission_at(channel)`, bit for bit after any sequence of
    /// programming steps (a negative step parks the ring).
    #[test]
    fn mr_cached_transmission_matches_reference(
        steps in proptest::collection::vec(-0.5f64..1.0, 0..12),
        channel_nm in 1540.0f64..1560.0,
    ) {
        let channel = Wavelength::from_nm(channel_nm);
        let mut mr = MicroringResonator::new(MicroringConfig::default(), channel).unwrap();
        prop_assert_eq!(
            mr.channel_transmission().to_bits(),
            mr.transmission_at(channel).to_bits()
        );
        for step in steps {
            if step < 0.0 {
                mr.park();
            } else {
                mr.set_weight(step).unwrap();
            }
            prop_assert_eq!(
                mr.channel_transmission().to_bits(),
                mr.transmission_at(channel).to_bits()
            );
        }
    }

    /// Through-port transmission is bounded in [0, 1] for any probe
    /// wavelength and any tuning state.
    #[test]
    fn mr_transmission_always_physical(
        weight in 0.0f64..1.0,
        probe_nm in 1500.0f64..1600.0,
    ) {
        let mut mr = MicroringResonator::new(
            MicroringConfig::default(),
            Wavelength::from_nm(1550.0),
        ).unwrap();
        mr.set_weight(weight).unwrap();
        let t = mr.transmission_at(Wavelength::from_nm(probe_nm));
        prop_assert!((0.0..=1.0).contains(&t));
        let d = mr.drop_transmission_at(Wavelength::from_nm(probe_nm));
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!(t + d <= 1.0 + 1e-9);
    }

    /// MR tuning power is non-negative and monotonically non-increasing in
    /// the programmed weight (heavier attenuation costs more heater power).
    #[test]
    fn mr_tuning_power_monotone(w_low in 0.05f64..0.45, delta in 0.05f64..0.5) {
        let w_high = w_low + delta;
        let mut mr = MicroringResonator::new(
            MicroringConfig::default(),
            Wavelength::from_nm(1550.0),
        ).unwrap();
        mr.set_weight(w_low).unwrap();
        let p_low = mr.tuning_power().mw();
        mr.set_weight(w_high).unwrap();
        let p_high = mr.tuning_power().mw();
        prop_assert!(p_low >= 0.0 && p_high >= 0.0);
        prop_assert!(p_low >= p_high - 1e-12,
            "weight {} costs {} mW but weight {} costs {} mW", w_low, p_low, w_high, p_high);
    }

    /// VCSEL modulation produces intensities that are monotone in the code
    /// and bounded in [0, 1].
    #[test]
    fn vcsel_codes_monotone(levels in 2u16..64) {
        let m = ModulatedVcsel::new(
            VcselConfig::default(),
            Wavelength::from_nm(1550.0),
            levels,
        ).unwrap();
        let mut last = -1.0;
        for level in 0..levels {
            let i = m.normalized_intensity(level).unwrap();
            prop_assert!((0.0..=1.0).contains(&i));
            prop_assert!(i >= last);
            last = i;
        }
    }

    /// The balanced detector output is antisymmetric under swapping its
    /// inputs and bounded by the full-scale clamp.
    #[test]
    fn bpd_antisymmetric(p_pos in 0.0f64..2.0, p_neg in 0.0f64..2.0) {
        let bpd = BalancedPhotodetector::new(PhotodetectorConfig::default()).unwrap();
        let full = Power::from_mw(2.0);
        let a = bpd.normalized_output(Power::from_mw(p_pos), Power::from_mw(p_neg), full).unwrap();
        let b = bpd.normalized_output(Power::from_mw(p_neg), Power::from_mw(p_pos), full).unwrap();
        prop_assert!((-1.0..=1.0).contains(&a));
        prop_assert!((a + b).abs() < 1e-9);
    }

    /// Link budgets: delivered power never exceeds launch power, and the
    /// required-launch/delivered pair are mutually consistent.
    #[test]
    fn link_budget_consistency(
        length_mm in 0.0f64..50.0,
        couplers in 0u32..4,
        stages in 0u32..6,
        rings in 0u32..54,
        launch_mw in 0.01f64..10.0,
    ) {
        let link = LinkBudget::new(WaveguideConfig::default())
            .with_length_mm(length_mm)
            .with_couplers(couplers)
            .with_splitter_stages(stages)
            .with_rings_passed(rings);
        let launch = Power::from_mw(launch_mw);
        let delivered = link.delivered_power(launch).unwrap();
        prop_assert!(delivered.mw() <= launch.mw() + 1e-12);
        let needed = link.required_launch_power(delivered).unwrap();
        prop_assert!((needed.mw() - launch.mw()).abs() < 1e-6);
    }

    /// Crosstalk factors always lie in [0, 1] and the ideal model never
    /// changes an intensity vector.
    #[test]
    fn crosstalk_bounded(channels in 2usize..12, value in 0.0f64..1.0) {
        let grid = WdmGrid::lightator_arm(channels).unwrap();
        let model = CrosstalkModel::new(grid.clone(), MicroringConfig::default());
        let m = model.matrix().unwrap();
        for row in &m {
            for &x in row {
                prop_assert!((0.0..=1.0).contains(&x));
            }
        }
        let ideal = CrosstalkModel::ideal(grid, MicroringConfig::default());
        let mut v = vec![value; channels];
        ideal.apply(&mut v).unwrap();
        prop_assert!(v.iter().all(|&x| (x - value).abs() < 1e-15));
    }

    /// An ideal (noise-free) optical arm reproduces the exact dot product to
    /// within the error allowed by finite extinction ratio, for arbitrary
    /// weights and activations.
    #[test]
    fn arm_mac_approximates_dot_product(
        weights in proptest::collection::vec(-1.0f64..1.0, 9),
        activations in proptest::collection::vec(0.0f64..1.0, 9),
        seed in 0u64..1_000,
    ) {
        let mut arm = OpticalArm::new(ArmConfig {
            noise: NoiseConfig::ideal(),
            ..ArmConfig::default()
        }).unwrap();
        arm.load_weights(&weights).unwrap();
        arm.begin_frame(seed, 0);
        let out = arm.mac(&activations).unwrap();
        let exact: f64 = weights.iter().zip(&activations).map(|(w, a)| w * a).sum();
        prop_assert!((out.ideal - exact).abs() < 1e-12);
        // 9 products, each off by at most ~2% of its magnitude.
        prop_assert!((out.value - exact).abs() < 0.2, "value {} exact {}", out.value, exact);
    }

    /// Arm tuning power scales with the number of active (non-zero) weights.
    #[test]
    fn arm_tuning_power_nonnegative(
        weights in proptest::collection::vec(-1.0f64..1.0, 0..9),
    ) {
        let mut arm = OpticalArm::new(ArmConfig::default()).unwrap();
        arm.load_weights(&weights).unwrap();
        prop_assert!(arm.tuning_power().mw() >= 0.0);
        if arm.active_rings() == 0 {
            prop_assert!(arm.tuning_power().mw() == 0.0);
        }
    }
}
