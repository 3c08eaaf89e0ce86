//! Comparator-based pixel Reading Circuit (CRC).
//!
//! Lightator removes per-column ADCs: each pixel's output voltage is compared
//! against 15 reference voltages spanning the pixel swing, producing a
//! 15-bit thermometer code that directly selects how many VCSEL driving
//! transistors turn on (paper §3, Fig. 4(a) and 4(d)). The thermometer code
//! is equivalent to a 4-bit digital value (0–15), the number of comparators
//! that fired.

use crate::pixel::{RESET_VOLTAGE_V, SATURATION_VOLTAGE_V};
use lightator_photonics::units::Voltage;

/// Number of comparators in a CRC unit (paper Fig. 4(a)).
pub const CRC_COMPARATORS: usize = 15;

/// The comparator references: 15 uniformly spaced voltages that split the
/// pixel swing into 16 equal steps ("15 reference voltages which are
/// spanned in the range of pixel output voltage"), strictly decreasing from
/// just below the reset voltage.
const REFERENCES_V: [f64; CRC_COMPARATORS] = {
    let step = (RESET_VOLTAGE_V - SATURATION_VOLTAGE_V) / (CRC_COMPARATORS + 1) as f64;
    let mut references = [0.0; CRC_COMPARATORS];
    let mut k = 0;
    while k < CRC_COMPARATORS {
        references[k] = RESET_VOLTAGE_V - step * (k + 1) as f64;
        k += 1;
    }
    references
};

/// A comparator read circuit converting pixel voltages to 4-bit codes.
///
/// ```
/// use lightator_sensor::crc::ComparatorReadCircuit;
/// use lightator_sensor::pixel::Pixel;
///
/// # fn main() -> Result<(), lightator_sensor::SensorError> {
/// let bright = ComparatorReadCircuit.read_code(Pixel.output_voltage(1.0)?);
/// let dark = ComparatorReadCircuit.read_code(Pixel.output_voltage(0.0)?);
/// assert!(bright > dark);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ComparatorReadCircuit;

impl ComparatorReadCircuit {
    /// Compares the pixel voltage against the ladder and counts the
    /// comparators that fired. Comparator `k` fires when the pixel voltage
    /// has dropped below reference `k` (more light = lower voltage = more
    /// comparators firing = larger code), exactly the waveform behaviour of
    /// the paper's Fig. 4(d).
    #[must_use]
    pub fn read_code(self, pixel_voltage: Voltage) -> u8 {
        REFERENCES_V
            .iter()
            .filter(|&&reference| pixel_voltage.volts() < reference)
            .count() as u8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    #[test]
    fn uniform_ladder_has_fifteen_decreasing_references() {
        let references = REFERENCES_V.to_vec();
        assert_eq!(references.len(), CRC_COMPARATORS);
        for w in references.windows(2) {
            assert!(w[1] < w[0]);
        }
        // The ladder sits strictly inside the pixel swing.
        assert!(references[0] < RESET_VOLTAGE_V);
        assert!(references[CRC_COMPARATORS - 1] > SATURATION_VOLTAGE_V);
    }

    #[test]
    fn dark_pixel_codes_to_zero_and_bright_to_near_full_scale() {
        let dark = ComparatorReadCircuit.read_code(Pixel.output_voltage(0.0).expect("ok"));
        let bright = ComparatorReadCircuit.read_code(Pixel.output_voltage(1.0).expect("ok"));
        assert_eq!(dark, 0);
        assert!(
            bright >= 13,
            "full-scale illumination should fire almost all comparators, got {bright}"
        );
    }

    #[test]
    fn thermometer_code_is_always_contiguous() {
        // The decreasing ladder makes the fired comparators a prefix of it,
        // so their count is the value of the thermometer code.
        for i in 0..=50 {
            let voltage = Pixel.output_voltage(f64::from(i) / 50.0).expect("ok");
            let fired = REFERENCES_V.map(|reference| voltage.volts() < reference);
            let code = usize::from(ComparatorReadCircuit.read_code(voltage));
            assert!(fired[..code].iter().all(|&f| f), "gap below code {code}");
            assert!(fired[code..].iter().all(|&f| !f), "fired above code {code}");
        }
    }

    #[test]
    fn code_is_monotone_in_illumination() {
        let mut last = 0;
        for i in 0..=20 {
            let illum = f64::from(i) / 20.0;
            let code = ComparatorReadCircuit.read_code(Pixel.output_voltage(illum).expect("ok"));
            assert!(code >= last, "code must not decrease with illumination");
            last = code;
        }
    }
}
