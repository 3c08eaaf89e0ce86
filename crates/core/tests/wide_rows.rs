//! Rows wider than one arm: `PhotonicMacUnit::load_row` programs one arm
//! per 9-element segment and `mac_loaded` runs the segments at consecutive
//! MAC cursors. The reference is built here from a bare `OpticalArm`,
//! reprogrammed for every 9-chunk as that segment of the row (so its rings
//! draw the row's weight errors) and evaluated once per chunk, so the unit
//! must reproduce it bit for bit with either noise setting.

use lightator_core::oc::PhotonicMacUnit;
use lightator_core::CoreError;
use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::MicroringConfig;
use lightator_photonics::noise::{NoiseConfig, RowId};
use lightator_photonics::PhotonicsError;
use proptest::prelude::*;

const SEED: u64 = 23;
const SEGMENT: usize = 9;

fn noise(ideal: bool) -> NoiseConfig {
    if ideal {
        NoiseConfig::ideal()
    } else {
        NoiseConfig::default()
    }
}

/// `Σ wᵢ·aᵢ` from one arm reloaded per 9-chunk as segment `s` of row 0 of
/// layer 0, the row `load_row` keys, one MAC per chunk at consecutive
/// cursors from `cursor`, partial sums added in order. Returns the sum and
/// the arm's cursor afterwards.
fn per_segment_reference(
    noise: NoiseConfig,
    frame: u64,
    cursor: u64,
    weights: &[f64],
    activations: &[f64],
) -> (f64, u64) {
    let mut arm = OpticalArm::new(ArmConfig {
        channels: SEGMENT,
        ring: MicroringConfig::default(),
        noise,
    })
    .expect("valid arm");
    arm.begin_frame(SEED, frame);
    arm.set_mac_cursor(cursor);
    let mut total = 0.0;
    let chunks = weights.chunks(SEGMENT).zip(activations.chunks(SEGMENT));
    for (s, (w, a)) in (0u64..).zip(chunks) {
        arm.load_segment(RowId::default(), s, w)
            .expect("weights in range");
        total += arm.mac(a).expect("activations in range").value;
    }
    (total, arm.mac_cursor())
}

fn unit_at(noise: NoiseConfig, frame: u64, cursor: u64) -> PhotonicMacUnit {
    let mut unit = PhotonicMacUnit::new(noise, SEED).expect("valid unit");
    unit.begin_frame(frame);
    unit.set_mac_cursor(cursor);
    unit
}

/// Checks `load_row` + `mac_loaded` and `dot` against the reference for
/// one row, including the cursor and segment-count contract.
fn assert_matches_reference(
    noise: NoiseConfig,
    frame: u64,
    cursor: u64,
    weights: &[f64],
    activations: &[f64],
) {
    let segments = weights.len().div_ceil(SEGMENT) as u64;
    let (expected, expected_cursor) =
        per_segment_reference(noise, frame, cursor, weights, activations);
    assert_eq!(expected_cursor, cursor + segments);

    let mut unit = unit_at(noise, frame, cursor);
    unit.load_row(weights).expect("row in range");
    let got = unit.mac_loaded(activations).expect("activations in range");
    assert_eq!(
        got.to_bits(),
        expected.to_bits(),
        "len {} frame {frame} cursor {cursor}: {got} vs {expected}",
        weights.len()
    );
    assert_eq!(unit.mac_cursor(), cursor + segments);
    assert_eq!(unit.segments_evaluated(), segments);

    let mut unit = unit_at(noise, frame, cursor);
    let dot = unit.dot(weights, activations).expect("in range");
    assert_eq!(dot.to_bits(), expected.to_bits());
    assert_eq!(unit.mac_cursor(), cursor + segments);
    assert_eq!(unit.segments_evaluated(), segments);
}

/// Deterministic rows: weights on a quarter-step grid over `[-1, 1]` (zeros
/// included, so some rings stay parked) and activations on a tenth-step
/// grid over `[0, 1]`.
fn grid_row(len: usize) -> (Vec<f64>, Vec<f64>) {
    let weights = (0..len)
        .map(|j| ((j * 7 + 3) % 9) as f64 / 4.0 - 1.0)
        .collect();
    let activations = (0..len).map(|j| ((j * 5 + 1) % 11) as f64 / 10.0).collect();
    (weights, activations)
}

#[test]
fn every_row_length_up_to_200_matches_the_per_segment_reference() {
    for ideal in [false, true] {
        for len in 1..=200 {
            let (weights, activations) = grid_row(len);
            assert_matches_reference(noise(ideal), 3, 17, &weights, &activations);
        }
    }
}

proptest! {
    /// Random rows, frames and cursors: the wide-row unit equals the
    /// per-segment reference bit for bit, and streaming a second activation
    /// row against the same loaded row lands on the next cursors.
    #[test]
    fn wide_rows_equal_the_per_segment_reference(
        pairs in proptest::collection::vec((-1.0f64..=1.0, 0.0f64..=1.0), 1..=200),
        frame in 0u64..1_000,
        cursor in 0u64..1_000_000,
        ideal in proptest::bool::ANY,
    ) {
        // Snap small weights to zero so parked rings are covered too.
        let weights: Vec<f64> = pairs
            .iter()
            .map(|&(w, _)| if w.abs() < 0.1 { 0.0 } else { w })
            .collect();
        let activations: Vec<f64> = pairs.iter().map(|&(_, a)| a).collect();
        assert_matches_reference(noise(ideal), frame, cursor, &weights, &activations);

        let segments = weights.len().div_ceil(SEGMENT) as u64;
        let reversed: Vec<f64> = activations.iter().rev().copied().collect();
        let (expected, _) =
            per_segment_reference(noise(ideal), frame, cursor + segments, &weights, &reversed);
        let mut unit = unit_at(noise(ideal), frame, cursor);
        unit.load_row(&weights).unwrap();
        unit.mac_loaded(&activations).unwrap();
        prop_assert_eq!(unit.mac_loaded(&reversed).unwrap().to_bits(), expected.to_bits());
        prop_assert_eq!(unit.mac_cursor(), cursor + 2 * segments);
        prop_assert_eq!(unit.segments_evaluated(), 2 * segments);
    }

    /// Activations longer than the loaded row are a length error, never
    /// silently truncated, and evaluate no segment.
    #[test]
    fn activations_longer_than_the_row_are_rejected(
        len in 0usize..=40,
        extra in 1usize..=20,
    ) {
        let (weights, _) = grid_row(len);
        let mut unit = unit_at(NoiseConfig::default(), 0, 5);
        unit.load_row(&weights).unwrap();
        let err = unit.mac_loaded(&vec![0.5; len + extra]).unwrap_err();
        prop_assert!(
            matches!(
                err,
                CoreError::Photonics(PhotonicsError::LengthMismatch { expected, actual })
                    if expected == len && actual == len + extra
            ),
            "unexpected error {err:?}"
        );
        prop_assert_eq!(unit.mac_cursor(), 5);
        prop_assert_eq!(unit.segments_evaluated(), 0);
    }
}

#[test]
fn the_empty_row_evaluates_zero_segments() {
    for ideal in [false, true] {
        let mut unit = unit_at(noise(ideal), 1, 9);
        assert_eq!(unit.dot(&[], &[]).unwrap().to_bits(), 0.0f64.to_bits());
        unit.load_row(&[0.5; 20]).unwrap();
        unit.load_row(&[]).unwrap();
        assert_eq!(unit.mac_loaded(&[]).unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(unit.mac_cursor(), 9);
        assert_eq!(unit.segments_evaluated(), 0);
    }
}

#[test]
fn a_failed_load_leaves_no_row_loaded() {
    let mut unit = unit_at(NoiseConfig::default(), 0, 0);
    unit.load_row(&[0.5; 20]).unwrap();
    let mut bad = vec![0.5; 20];
    bad[15] = 1.5;
    assert!(unit.load_row(&bad).is_err());
    assert!(unit.mac_loaded(&[0.5]).is_err());
    assert_eq!(unit.segments_evaluated(), 0);
}
