//! Capture scenarios: the ADC-less read-out chain under structured scenes,
//! exercising the sensor the way the Lightator node uses it.

use lightator_sensor::array::{SensorArray, SensorArrayConfig};
use lightator_sensor::bayer;
use lightator_sensor::frame::{Channel, RgbFrame};

fn gradient_scene(size: usize) -> RgbFrame {
    let mut data = Vec::with_capacity(size * size * 3);
    for row in 0..size {
        for col in 0..size {
            data.push(row as f64 / (size - 1) as f64);
            data.push(col as f64 / (size - 1) as f64);
            data.push(((row + col) as f64 / (2 * (size - 1)) as f64).clamp(0.0, 1.0));
        }
    }
    RgbFrame::new(size, size, data).expect("frame")
}

/// A horizontal red gradient produces monotonically non-decreasing codes down
/// the red photosite columns — the 4-bit read-out preserves scene structure.
#[test]
fn codes_follow_scene_gradients() {
    let sensor = SensorArray::new(SensorArrayConfig::with_resolution(16, 16).expect("config"))
        .expect("sensor");
    let frame = sensor.capture(&gradient_scene(16)).expect("capture");
    // Red sites live at even rows/even cols for RGGB; walk one column of them.
    let mut last = 0u8;
    for row in (0..16).step_by(2) {
        let code = frame.codes()[row * 16];
        assert_eq!(bayer::channel_at(row, 0), Channel::Red);
        assert!(
            code >= last,
            "red gradient must not decrease: {code} < {last}"
        );
        last = code;
    }
}

/// Full-well scenes never overflow the 4-bit range, and the darkest scene
/// produces all-zero codes: the CRC ladder covers exactly the pixel swing.
#[test]
fn code_range_is_exactly_four_bits() {
    let sensor = SensorArray::new(SensorArrayConfig::with_resolution(8, 8).expect("config"))
        .expect("sensor");
    let white = sensor
        .capture(&RgbFrame::filled(8, 8, [1.0, 1.0, 1.0]).expect("scene"))
        .expect("capture");
    assert!(white.codes().iter().all(|&c| c <= 15));
    assert!(white.codes().iter().any(|&c| c >= 13));
    let black = sensor
        .capture(&RgbFrame::black(8, 8).expect("scene"))
        .expect("capture");
    assert!(black.codes().iter().all(|&c| c == 0));
}

/// Normalised codes and the raw mosaic (each photosite's RGGB channel of
/// the scene) stay ordered the same way: the ADC-less path is a monotone
/// (if coarse) transform of the analog scene.
#[test]
fn normalized_codes_track_mosaic_intensities() {
    let sensor = SensorArray::new(SensorArrayConfig::with_resolution(16, 16).expect("config"))
        .expect("sensor");
    let scene = gradient_scene(16);
    let mosaic = |row: usize, col: usize| {
        scene.pixel(row, col).expect("analog")[bayer::channel_at(row, col).index()]
    };
    let digital = sensor.capture(&scene).expect("capture");
    let normalized = digital.normalized();
    for row in 0..16 {
        for col in 0..15 {
            let a_analog = mosaic(row, col);
            let b_analog = mosaic(row, col + 1);
            let a_code = normalized[row * 16 + col];
            let b_code = normalized[row * 16 + col + 1];
            if a_analog + 0.12 < b_analog {
                assert!(a_code <= b_code, "codes must follow clear analog ordering");
            }
        }
    }
}
