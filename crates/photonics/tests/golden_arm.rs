//! Golden-vector regression tests for single-arm MACs.
//!
//! `tests/golden/arm_mac.golden` holds the bit-exact [`OpticalArm::mac`]
//! output (analog value and ideal value) for arm widths {1, 4, 9, 16} under
//! four noise settings — the paper default, ideal optics, crosstalk only and
//! VCSEL noise only — at several MAC cursors. Weight and activation rows
//! always have the arm's width. Every arm is reprogrammed from row to row,
//! so the fixture also pins ring state carried across `load_weights` calls.
//! These are arm configurations the core kernel fixtures (9 channels, paper
//! noise only) never reach. Values are hex-encoded IEEE-754 bits, so the
//! assertion is exact to the last bit.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test -p lightator-photonics --test golden_arm -- --ignored
//! ```

use lightator_photonics::arm::{ArmConfig, OpticalArm};
use lightator_photonics::microring::MicroringConfig;
use lightator_photonics::noise::NoiseConfig;
use std::path::PathBuf;

const CHANNELS: [usize; 4] = [1, 4, 9, 16];
const CURSORS: [u64; 4] = [0, 1, 5, 4096];
const ROWS: usize = 3;
const SEED: u64 = 11;
const FRAME: u64 = 3;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("arm_mac.golden")
}

fn noise_settings() -> [(&'static str, NoiseConfig); 4] {
    let silent = NoiseConfig::ideal();
    [
        ("default", NoiseConfig::default()),
        ("ideal", silent),
        (
            "crosstalk",
            NoiseConfig {
                apply_crosstalk: true,
                ..silent
            },
        ),
        (
            "vcsel",
            NoiseConfig {
                vcsel_relative_sigma: NoiseConfig::default().vcsel_relative_sigma,
                ..silent
            },
        ),
    ]
}

/// Weights on a quarter-step grid over `[-1, 1]` (zeros and both extremes
/// included) and activations on a tenth-step grid over `[0, 1]`.
fn rows(channels: usize, cursor: u64, row: usize) -> (Vec<f64>, Vec<f64>) {
    let shift = cursor as usize % 7 + 3 * row;
    let weights = (0..channels)
        .map(|j| ((j * 7 + shift) % 9) as f64 / 4.0 - 1.0)
        .collect();
    let activations = (0..channels)
        .map(|j| ((j * 5 + 2 * shift) % 11) as f64 / 10.0)
        .collect();
    (weights, activations)
}

/// One fixture line per (width, noise, cursor, row):
/// `channels noise cursor row value_bits ideal_bits`.
fn golden_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for channels in CHANNELS {
        for (name, noise) in noise_settings() {
            let mut arm = OpticalArm::new(ArmConfig {
                channels,
                ring: MicroringConfig::default(),
                noise,
            })
            .expect("valid arm");
            for cursor in CURSORS {
                for row in 0..ROWS {
                    let (weights, activations) = rows(channels, cursor, row);
                    arm.load_weights(&weights).expect("weights in range");
                    arm.begin_frame(SEED, FRAME);
                    arm.set_mac_cursor(cursor);
                    let out = arm.mac(&activations).expect("activations in range");
                    lines.push(format!(
                        "{channels} {name} {cursor} {row} {:016x} {:016x}",
                        out.value.to_bits(),
                        out.ideal.to_bits()
                    ));
                }
            }
        }
    }
    lines
}

#[test]
fn arm_macs_are_bit_exact_against_the_fixture() {
    let path = fixture_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with --ignored",
            path.display()
        )
    });
    let expected: Vec<&str> = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .collect();
    let got = golden_lines();
    assert_eq!(got.len(), expected.len(), "fixture length drifted");
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(
            g, e,
            "arm MAC drifted (channels noise cursor row value ideal)"
        );
    }
}

/// Writes the fixture. Run explicitly after an intentional numerical
/// change: `cargo test -p lightator-photonics --test golden_arm -- --ignored`
#[test]
#[ignore = "regenerates the golden fixture in place"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create golden dir");
    let mut text = String::from("# channels noise cursor row value_bits ideal_bits (f64 hex)\n");
    for line in golden_lines() {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write arm fixture");
}
