//! Golden-vector regression test for the ADC-less sensor read-out.
//!
//! `tests/golden/capture.golden` holds the bit-exact output of
//! `Session::acquire` on platforms without compressive acquisition, where
//! the acquired tensor is the sensor's normalised 4-bit read-out: the
//! RGGB Bayer sampling, the pixel's light-to-voltage model and the
//! 15-reference comparator ladder, with nothing after them. The scenes are
//! two seeded random scenes at 16×16, one at an odd 7×5, flat 0.0 and 1.0
//! scenes, and a 32×32 grey ramp whose 1,024 levels step the pixel
//! voltage by about 0.7 mV, so every comparator the pixel swing reaches
//! flips somewhere on it. Values are hex-encoded IEEE-754 bits, one row of
//! photosites per line, so the assertion is exact to the last bit.
//!
//! To regenerate after an *intentional* change of the sensor model:
//!
//! ```text
//! cargo test -p lightator-core --test golden_capture -- --ignored
//! ```

use lightator_core::platform::{Platform, Workload};
use lightator_sensor::frame::RgbFrame;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("capture.golden")
}

/// A uniformly random RGB scene from `seed`.
fn random_scene(height: usize, width: usize, seed: u64) -> RgbFrame {
    let mut rng = SmallRng::seed_from_u64(seed);
    let data = (0..height * width * 3).map(|_| rng.gen::<f64>()).collect();
    RgbFrame::new(height, width, data).expect("valid scene")
}

/// A grey ramp from 0.0 to 1.0 in row-major photosite order.
fn ramp_scene(size: usize) -> RgbFrame {
    let last = (size * size - 1) as f64;
    let data = (0..size * size)
        .flat_map(|i| [i as f64 / last; 3])
        .collect();
    RgbFrame::new(size, size, data).expect("valid scene")
}

/// The named scenes the fixture pins.
fn scenes() -> Vec<(&'static str, RgbFrame)> {
    vec![
        ("random-16x16-seed-1", random_scene(16, 16, 1)),
        ("random-16x16-seed-2", random_scene(16, 16, 2)),
        ("random-7x5-seed-3", random_scene(7, 5, 3)),
        (
            "flat-0.0",
            RgbFrame::filled(16, 16, [0.0; 3]).expect("scene"),
        ),
        (
            "flat-1.0",
            RgbFrame::filled(16, 16, [1.0; 3]).expect("scene"),
        ),
        ("ramp-32x32", ramp_scene(32)),
    ]
}

/// The fixture text: per scene a `# name height x width` header, then one
/// line of f32 bits per row of the acquired tensor.
fn golden_text() -> String {
    let mut out = String::new();
    for (name, scene) in scenes() {
        let session = Platform::builder()
            .sensor_resolution(scene.height(), scene.width())
            .without_compressive_acquisition()
            .build()
            .expect("platform")
            .session(Workload::Acquire)
            .expect("session");
        let acquired = session.acquire(&scene).expect("acquired");
        assert_eq!(acquired.shape(), &[1, scene.height(), scene.width()]);
        out.push_str(&format!("# {name} {}x{}\n", scene.height(), scene.width()));
        for row in acquired.data().chunks(scene.width()) {
            let words: Vec<String> = row.iter().map(|v| format!("{:08x}", v.to_bits())).collect();
            out.push_str(&words.join(" "));
            out.push('\n');
        }
    }
    out
}

/// Every scene's read-out is bit-exact against the fixture.
#[test]
fn capture_is_bit_exact_against_the_fixture() {
    let path = fixture_path();
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with --ignored",
            path.display()
        )
    });
    let got = golden_text();
    for (line, (g, e)) in got.lines().zip(expected.lines()).enumerate() {
        assert_eq!(g, e, "capture drifted at fixture line {}", line + 1);
    }
    assert_eq!(
        got.lines().count(),
        expected.lines().count(),
        "fixture length drifted"
    );
}

/// Writes the fixture. Run explicitly after an intentional change:
/// `cargo test -p lightator-core --test golden_capture -- --ignored`
#[test]
#[ignore = "regenerates the golden fixture in place"]
fn regenerate_golden_fixture() {
    std::fs::write(fixture_path(), golden_text()).expect("write capture fixture");
}
