//! Physical unit newtypes used throughout the photonic device models.
//!
//! The simulator mixes optical and electrical quantities; wrapping them in
//! dedicated newtypes keeps call sites self-documenting and prevents a
//! wavelength from being accidentally passed where a power is expected
//! (C-NEWTYPE).
//!
//! All newtypes are thin wrappers over `f64`, are `Copy`, and expose their
//! canonical unit through an accessor named after the unit (`nm()`, `mw()`,
//! `ns()`, ...). Conversions to secondary units (`watts()`, `um()`, ...) are
//! provided where they are commonly needed.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit_newtype {
    ($(#[$meta:meta])* $name:ident, $unit:literal, $accessor:ident, $ctor:ident) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
        pub struct $name(f64);

        impl $name {
            #[doc = concat!("Creates a value expressed in ", $unit, ".")]
            #[must_use]
            pub const fn $ctor(value: f64) -> Self {
                Self(value)
            }

            #[doc = concat!("Returns the value in ", $unit, ".")]
            #[must_use]
            pub const fn $accessor(&self) -> f64 {
                self.0
            }

            /// Returns the zero value.
            #[must_use]
            pub const fn zero() -> Self {
                Self(0.0)
            }

            /// Returns `true` if the value is exactly zero.
            #[must_use]
            pub fn is_zero(&self) -> bool {
                self.0 == 0.0
            }

            /// Returns the absolute value.
            #[must_use]
            pub fn abs(&self) -> Self {
                Self(self.0.abs())
            }

            /// Returns the larger of `self` and `other`.
            #[must_use]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[must_use]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = Self;
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }
    };
}

unit_newtype!(
    /// Optical wavelength, canonically expressed in nanometres.
    ///
    /// ```
    /// use lightator_photonics::units::Wavelength;
    /// let c_band = Wavelength::from_nm(1550.0);
    /// assert!((c_band.um() - 1.55).abs() < 1e-12);
    /// ```
    Wavelength, "nm", nm, from_nm
);

impl Wavelength {
    /// Returns the wavelength in micrometres.
    #[must_use]
    pub fn um(&self) -> f64 {
        self.nm() / 1e3
    }

    /// Returns the wavelength in metres.
    #[must_use]
    pub fn meters(&self) -> f64 {
        self.nm() * 1e-9
    }
}

unit_newtype!(
    /// Optical or electrical power, canonically expressed in milliwatts.
    ///
    /// ```
    /// use lightator_photonics::units::Power;
    /// let p = Power::from_mw(1.0);
    /// assert!((p.watts() - 1e-3).abs() < 1e-15);
    /// ```
    Power, "mW", mw, from_mw
);

impl Power {
    /// Creates a power value from watts.
    #[must_use]
    pub fn from_watts(watts: f64) -> Self {
        Self::from_mw(watts * 1e3)
    }

    /// Returns the power in watts.
    #[must_use]
    pub fn watts(&self) -> f64 {
        self.mw() / 1e3
    }
}

unit_newtype!(
    /// Electrical voltage, canonically expressed in volts.
    Voltage, "V", volts, from_volts
);

impl Voltage {
    /// Returns the voltage in millivolts.
    #[must_use]
    pub fn mv(&self) -> f64 {
        self.volts() * 1e3
    }
}

unit_newtype!(
    /// Energy, canonically expressed in picojoules.
    Energy, "pJ", pj, from_pj
);

impl Energy {
    /// Creates an energy from femtojoules.
    #[must_use]
    pub fn from_fj(fj: f64) -> Self {
        Self::from_pj(fj / 1e3)
    }

    /// Returns the energy in femtojoules.
    #[must_use]
    pub fn fj(&self) -> f64 {
        self.pj() * 1e3
    }

    /// Returns the energy in nanojoules.
    #[must_use]
    pub fn nj(&self) -> f64 {
        self.pj() / 1e3
    }

    /// Returns the energy in joules.
    #[must_use]
    pub fn joules(&self) -> f64 {
        self.pj() * 1e-12
    }

    /// Average power dissipated when this energy is spent over `duration`.
    #[must_use]
    pub fn over(&self, duration: Time) -> Power {
        if duration.is_zero() {
            return Power::zero();
        }
        Power::from_watts(self.joules() / duration.seconds())
    }
}

unit_newtype!(
    /// Time duration, canonically expressed in nanoseconds.
    Time, "ns", ns, from_ns
);

impl Time {
    /// Creates a time from microseconds.
    #[must_use]
    pub fn from_us(us: f64) -> Self {
        Self::from_ns(us * 1e3)
    }

    /// Creates a time from seconds.
    #[must_use]
    pub fn from_seconds(s: f64) -> Self {
        Self::from_ns(s * 1e9)
    }

    /// Returns the time in picoseconds.
    #[must_use]
    pub fn ps(&self) -> f64 {
        self.ns() * 1e3
    }

    /// Returns the time in microseconds.
    #[must_use]
    pub fn us(&self) -> f64 {
        self.ns() / 1e3
    }

    /// Returns the time in milliseconds.
    #[must_use]
    pub fn ms(&self) -> f64 {
        self.ns() / 1e6
    }

    /// Returns the time in seconds.
    #[must_use]
    pub fn seconds(&self) -> f64 {
        self.ns() * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wavelength_unit_conversions() {
        let w = Wavelength::from_nm(1550.0);
        assert!((w.um() - 1.55).abs() < 1e-12);
        assert!((w.meters() - 1.55e-6).abs() < 1e-18);
    }

    #[test]
    fn energy_over_time_gives_power() {
        let e = Energy::from_pj(1000.0); // 1 nJ
        let t = Time::from_ns(1.0);
        // 1 nJ over 1 ns = 1 W
        assert!((e.over(t).watts() - 1.0).abs() < 1e-12);
        assert_eq!(e.over(Time::zero()), Power::zero());
    }

    #[test]
    fn time_conversions_consistent() {
        let t = Time::from_us(2000.0);
        assert!((t.ms() - 2.0).abs() < 1e-12);
        assert!((t.seconds() - 0.002).abs() < 1e-15);
        assert!((Time::from_seconds(0.002).ns() - t.ns()).abs() < 1e-6);
    }

    #[test]
    fn arithmetic_operators_behave() {
        let a = Power::from_mw(1.5);
        let b = Power::from_mw(0.5);
        assert_eq!((a + b).mw(), 2.0);
        assert_eq!((a - b).mw(), 1.0);
        assert_eq!((a * 2.0).mw(), 3.0);
        assert_eq!((a / 3.0).mw(), 0.5);
        assert_eq!(a / b, 3.0);
        let total: Power = [a, b, b].into_iter().sum();
        assert_eq!(total.mw(), 2.5);
    }

    #[test]
    fn display_includes_unit() {
        assert_eq!(format!("{}", Wavelength::from_nm(1550.0)), "1550 nm");
        assert_eq!(format!("{}", Power::from_mw(2.0)), "2 mW");
    }
}
