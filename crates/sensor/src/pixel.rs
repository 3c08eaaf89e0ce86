//! Photodiode pixel model.
//!
//! Each pixel of the Lightator imager integrates photo-current during the
//! global-shutter exposure; the accumulated charge discharges the pixel node
//! from its reset voltage, so brighter light produces a larger voltage drop
//! `V_PD` (paper §3, "ADC-Less Imager"). The comparator read circuit then
//! digitises that drop with 15 reference levels.

use crate::error::{Result, SensorError};
use lightator_photonics::units::{Time, Voltage};

/// Reset (dark) output voltage of the pixel, in volts.
pub const RESET_VOLTAGE_V: f64 = 1.0;
/// Minimum output voltage, reached at full-well illumination, in volts.
pub const SATURATION_VOLTAGE_V: f64 = 0.2;
/// Photocurrent at unit (full-scale) illumination, in nA.
const FULL_SCALE_PHOTOCURRENT_NA: f64 = 2.88;
/// Integration capacitance of the sense node, in fF.
const NODE_CAPACITANCE_FF: f64 = 4.0;
/// Global-shutter exposure (integration) time.
const EXPOSURE: Time = Time::from_ns(1_000.0);
/// Dark current in pA (a small drop even with no light).
const DARK_CURRENT_PA: f64 = 2.0;

/// A photodiode pixel of the paper's imager.
///
/// ```
/// use lightator_sensor::pixel::Pixel;
///
/// # fn main() -> Result<(), lightator_sensor::SensorError> {
/// let dark = Pixel.output_voltage(0.0)?;
/// let bright = Pixel.output_voltage(1.0)?;
/// assert!(dark.volts() > bright.volts());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Pixel;

impl Pixel {
    /// Output voltage of the pixel after exposure to a normalised
    /// illumination in `[0, 1]`: the reset voltage minus the drop the
    /// photo- and dark current integrate on the sense node, clamped at the
    /// saturation voltage.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::IntensityOutOfRange`] if `illumination` is not
    /// inside `[0, 1]`.
    pub fn output_voltage(self, illumination: f64) -> Result<Voltage> {
        if !illumination.is_finite() || !(0.0..=1.0).contains(&illumination) {
            return Err(SensorError::IntensityOutOfRange {
                value: illumination,
            });
        }
        let photo_a = illumination * FULL_SCALE_PHOTOCURRENT_NA * 1e-9 + DARK_CURRENT_PA * 1e-12;
        let charge_c = photo_a * EXPOSURE.seconds();
        let drop = charge_c / (NODE_CAPACITANCE_FF * 1e-15);
        Ok(Voltage::from_volts(
            (RESET_VOLTAGE_V - drop).max(SATURATION_VOLTAGE_V),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dark_pixel_stays_near_reset() {
        let v = Pixel.output_voltage(0.0).expect("ok");
        assert!((v.volts() - RESET_VOLTAGE_V).abs() < 0.05);
    }

    #[test]
    fn brighter_light_drops_more_voltage() {
        let v_dim = Pixel.output_voltage(0.2).expect("ok");
        let v_bright = Pixel.output_voltage(0.8).expect("ok");
        assert!(v_bright.volts() < v_dim.volts());
    }

    #[test]
    fn output_never_falls_below_saturation() {
        let v = Pixel.output_voltage(1.0).expect("ok");
        assert!(v.volts() >= SATURATION_VOLTAGE_V - 1e-12);
    }

    #[test]
    fn normalized_drop_is_monotone_and_bounded() {
        // The drop below reset as a fraction of the swing: what the
        // comparator ladder digitises.
        let mut last = -1.0;
        for i in 0..=10 {
            let v = Pixel
                .output_voltage(f64::from(i) / 10.0)
                .expect("ok")
                .volts();
            let d = (RESET_VOLTAGE_V - v) / (RESET_VOLTAGE_V - SATURATION_VOLTAGE_V);
            assert!((0.0..=1.0).contains(&d));
            assert!(d >= last);
            last = d;
        }
    }

    #[test]
    fn rejects_out_of_range_illumination() {
        assert!(Pixel.output_voltage(-0.1).is_err());
        assert!(Pixel.output_voltage(1.1).is_err());
        assert!(Pixel.output_voltage(f64::NAN).is_err());
    }

    #[test]
    fn default_exposure_uses_most_of_the_swing() {
        // Full illumination should reach a large portion of the available
        // swing so the CRC has dynamic range to digitise.
        let v = Pixel.output_voltage(1.0).expect("ok").volts();
        let d = (RESET_VOLTAGE_V - v) / (RESET_VOLTAGE_V - SATURATION_VOLTAGE_V);
        assert!(d > 0.8, "full-scale drop {d} uses too little of the swing");
    }
}
