//! Golden-vector regression test for LeNet-5 classification.
//!
//! `tests/golden/lenet.golden` holds the bit-exact logits of a seeded
//! `build_lenet(10, …)` on the paper platform with a 56×56 sensor (2×2 CA
//! down to LeNet's 28×28 input, `[4:4]` precision, seed 7): two seeded
//! scenes, each at frame indices 0 and 1, once with the default analog
//! noise and once with ideal optics. Unlike the 3×3 image-kernel fixtures,
//! this reaches conv rows wider than one arm (25 and 150 weights) and the
//! linear layers (400, 120 and 84 weights). Values are hex-encoded
//! IEEE-754 bits, so the assertion is exact to the last bit. The fixture is
//! checked at the default worker count and again with three workers, so
//! the threaded MAC-loop driver is pinned on wide rows in every test run.
//!
//! To regenerate after an *intentional* numerical change:
//!
//! ```text
//! cargo test -p lightator-core --test golden_lenet -- --ignored
//! ```

use lightator_core::platform::{Platform, Workload};
use lightator_nn::models::build_lenet;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

const SENSOR: usize = 56;
const SEED: u64 = 7;
const SCENES: usize = 2;
const FRAMES: [u64; 2] = [0, 1];

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("lenet.golden")
}

/// Uniformly random RGB scenes from a fixed seed.
fn scenes() -> Vec<RgbFrame> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    (0..SCENES)
        .map(|_| {
            let data = (0..SENSOR * SENSOR * 3).map(|_| rng.gen::<f64>()).collect();
            RgbFrame::new(SENSOR, SENSOR, data).expect("valid scene")
        })
        .collect()
}

/// One fixture line per (noise, scene, frame):
/// `noise scene frame` followed by the ten logits' f32 bits. `workers`
/// overrides the platform's default MAC worker count.
fn golden_lines(workers: Option<usize>) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(SEED);
    let model = build_lenet(10, &mut rng).expect("lenet");
    let scenes = scenes();
    let mut lines = Vec::new();
    for (name, noise) in [
        ("default", NoiseConfig::default()),
        ("ideal", NoiseConfig::ideal()),
    ] {
        let mut builder = Platform::builder()
            .sensor_resolution(SENSOR, SENSOR)
            .noise(noise)
            .seed(SEED);
        if let Some(workers) = workers {
            builder = builder.workers(workers);
        }
        let platform = builder.build().expect("paper platform");
        let mut session = platform
            .session(Workload::Classify {
                model: model.clone(),
            })
            .expect("session");
        for (index, scene) in scenes.iter().enumerate() {
            for frame in FRAMES {
                session.seek_frame(frame);
                let report = session.run(scene).expect("classified");
                let logits = report.logits().expect("logits");
                let bits: Vec<String> = logits
                    .iter()
                    .map(|l| format!("{:08x}", l.to_bits()))
                    .collect();
                lines.push(format!("{name} {index} {frame} {}", bits.join(" ")));
            }
        }
    }
    lines
}

fn check_fixture(workers: Option<usize>) {
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
    let got = golden_lines(workers);
    assert_eq!(got.len(), expected.len(), "fixture length drifted");
    for (g, e) in got.iter().zip(&expected) {
        assert_eq!(g, e, "LeNet logits drifted (noise scene frame logits)");
    }
}

#[test]
fn lenet_logits_are_bit_exact_against_the_fixture() {
    check_fixture(None);
}

#[test]
fn lenet_logits_are_bit_exact_against_the_fixture_with_three_workers() {
    check_fixture(Some(3));
}

/// Writes the fixture. Run explicitly after an intentional numerical
/// change: `cargo test -p lightator-core --test golden_lenet -- --ignored`
#[test]
#[ignore = "regenerates the golden fixture in place"]
fn regenerate_golden_fixture() {
    let path = fixture_path();
    std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create golden dir");
    let mut text = String::from("# noise scene frame logit_bits x10 (f32 hex)\n");
    for line in golden_lines(None) {
        text.push_str(&line);
        text.push('\n');
    }
    std::fs::write(&path, text).expect("write lenet fixture");
}
