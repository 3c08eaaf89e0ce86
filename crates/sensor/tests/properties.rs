//! Property-based tests for the ADC-less sensor models.

use lightator_sensor::array::{SensorArray, SensorArrayConfig};
use lightator_sensor::crc::ComparatorReadCircuit;
use lightator_sensor::frame::{GrayFrame, RgbFrame};
use lightator_sensor::pixel::{Pixel, RESET_VOLTAGE_V, SATURATION_VOLTAGE_V};
use proptest::prelude::*;

proptest! {
    /// The pixel voltage is a non-increasing function of illumination and
    /// never leaves the [saturation, reset] range.
    #[test]
    fn pixel_voltage_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let v_lo = Pixel.output_voltage(lo).unwrap().volts();
        let v_hi = Pixel.output_voltage(hi).unwrap().volts();
        prop_assert!(v_hi <= v_lo + 1e-12);
        for v in [v_lo, v_hi] {
            prop_assert!(v <= RESET_VOLTAGE_V + 1e-12);
            prop_assert!(v >= SATURATION_VOLTAGE_V - 1e-12);
        }
    }

    /// CRC codes are monotone in illumination and fit in 4 bits.
    #[test]
    fn crc_codes_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let code_lo = ComparatorReadCircuit.read_code(Pixel.output_voltage(lo).unwrap());
        let code_hi = ComparatorReadCircuit.read_code(Pixel.output_voltage(hi).unwrap());
        prop_assert!(code_hi >= code_lo);
        prop_assert!(code_hi <= 15);
    }

    /// Grayscale conversion stays within [min, max] of the RGB components
    /// (it is a convex combination).
    #[test]
    fn grayscale_is_convex_combination(r in 0.0f64..1.0, g in 0.0f64..1.0, b in 0.0f64..1.0) {
        let frame = RgbFrame::filled(2, 2, [r, g, b]).unwrap();
        let gray = frame.to_grayscale();
        let v = gray.value(0, 0).unwrap();
        let min = r.min(g).min(b);
        let max = r.max(g).max(b);
        prop_assert!(v >= min - 1e-12 && v <= max + 1e-12);
    }

    /// Average pooling preserves the global mean of the frame.
    #[test]
    fn average_pool_preserves_mean(values in proptest::collection::vec(0.0f64..1.0, 16)) {
        let frame = GrayFrame::new(4, 4, values.clone()).unwrap();
        let pooled = frame.average_pool(2).unwrap();
        let mean_in: f64 = values.iter().sum::<f64>() / 16.0;
        let mean_out: f64 = pooled.data().iter().sum::<f64>() / 4.0;
        prop_assert!((mean_in - mean_out).abs() < 1e-12);
    }

    /// Capturing any uniform scene produces codes bounded by 15 and
    /// monotone with respect to a brighter uniform scene.
    #[test]
    fn capture_codes_bounded_and_monotone(level in 0.0f64..0.9, boost in 0.0f64..0.1) {
        let sensor = SensorArray::new(SensorArrayConfig::with_resolution(4, 4).unwrap()).unwrap();
        let dim = sensor.capture(&RgbFrame::filled(4, 4, [level, level, level]).unwrap()).unwrap();
        let lvl2 = (level + boost).min(1.0);
        let bright = sensor.capture(&RgbFrame::filled(4, 4, [lvl2, lvl2, lvl2]).unwrap()).unwrap();
        for (d, b) in dim.codes().iter().zip(bright.codes()) {
            prop_assert!(*d <= 15 && *b <= 15);
            prop_assert!(b >= d);
        }
    }
}
