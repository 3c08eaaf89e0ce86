//! Property-based tests for the photonic device models.

use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::{MicroringConfig, MicroringResonator};
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::units::Wavelength;
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
}
