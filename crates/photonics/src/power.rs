//! Device-level power constants and clock periods.
//!
//! The paper's architecture simulator consumes per-device circuit parameters
//! extracted from Cadence Spectre / SPICE runs (Fig. 7) for its one 45 nm
//! design. Here those extracted numbers are one constant table,
//! [`DevicePowerTable::PAPER`], from which the architecture-level power
//! breakdowns (Figs. 8 and 9) are regenerated. Its values are chosen to
//! reproduce the paper's reported component shares: DACs dominating
//! weight-tuning designs, DMVA and BPD an order of magnitude below, ADCs
//! only where a design converts activations.
//!
//! [`DevicePowerTable`] is the single source of device power: the energy
//! model reads every VCSEL, BPD, MR-tuning and CRC term from it, and its
//! misc power is the controller plus SRAM leakage. Every row is a power or
//! a clock period; the table has no per-operation energy rows, because
//! frame energy is layer power times layer latency. No device model in this
//! workspace computes a second number for any of its rows. The claims
//! ledger (`crates/bench/tests/claims_ledger.rs`) pins the headline numbers
//! these constants produce.

use crate::units::{Power, Time};
use serde::{Deserialize, Serialize};

/// Per-device power table used by architecture-level simulations.
///
/// All quantities are per *instance*: one DAC, one ADC, one MR being tuned,
/// one VCSEL being driven, one KiB of SRAM, etc. Architecture models
/// multiply by their instance counts and duty cycles.
///
/// Each row is a per-device constant from the paper's circuit-level
/// extraction, not derived from a device model: the ring model in
/// [`microring`](crate::microring) computes transmission, not tuning power,
/// and the sensor crate computes codes, not CRC or VCSEL power.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DevicePowerTable {
    /// Power of one weight-tuning DAC at full (4-bit) resolution, mW.
    pub dac_power_mw: f64,
    /// Power of one ADC used for detector read-out, mW.
    pub adc_power_mw: f64,
    /// Average tuning power per actively weighted MR, mW.
    pub mr_tuning_power_mw: f64,
    /// Power of one comparator in the CRC, µW.
    pub crc_comparator_power_uw: f64,
    /// Power of one driven VCSEL (laser + driver) at mid-scale, mW.
    pub vcsel_power_mw: f64,
    /// Power of one balanced photodetector + TIA, mW.
    pub bpd_power_mw: f64,
    /// Controller / timing / miscellaneous power for the whole chip, mW.
    pub controller_power_mw: f64,
    /// SRAM leakage power per KiB, µW.
    pub sram_leakage_per_kib_uw: f64,
    /// Optical cycle time of the core (symbol period), ns.
    pub optical_cycle_ns: f64,
    /// Electronic clock period of the periphery, ns.
    pub electronic_cycle_ns: f64,
}

impl DevicePowerTable {
    /// The paper's 45 nm table, the one set of device figures the energy
    /// model and the simulator read.
    pub const PAPER: Self = Self {
        // 45 nm-class mixed-signal blocks; values representative of the
        // per-component shares reported in the paper's Figs. 8-9 (DACs
        // programming the MR weights dominate, everything else is one to
        // two orders of magnitude below).
        dac_power_mw: 7.9,
        adc_power_mw: 2.6,
        mr_tuning_power_mw: 0.06,
        crc_comparator_power_uw: 7.5,
        vcsel_power_mw: 0.05,
        bpd_power_mw: 0.12,
        controller_power_mw: 18.0,
        sram_leakage_per_kib_uw: 1.6,
        optical_cycle_ns: 0.2,
        electronic_cycle_ns: 1.0,
    };

    /// DAC power when driving a reduced weight bit-width.
    ///
    /// The paper attributes its ~2.4× average power saving at lower weight
    /// precision to power-gating the DAC slices belonging to the unused bits
    /// (Fig. 8 discussion). In a binary-weighted current-steering DAC the
    /// slice for bit *k* sources `2^k` units of current, so a DAC serving
    /// `bits` of a native 4-bit design draws a `(2^bits − 1)/(2^4 − 1)` share
    /// of the full-precision power: dropping the MSB roughly halves it.
    #[must_use]
    pub fn dac_power_at_bits(&self, bits: u8) -> Power {
        let bits = bits.clamp(1, 4);
        let share = f64::from((1u32 << bits) - 1) / 15.0;
        Power::from_mw(self.dac_power_mw * share)
    }

    /// Power of one driven VCSEL as a [`Power`].
    #[must_use]
    pub fn vcsel_power(&self) -> Power {
        Power::from_mw(self.vcsel_power_mw)
    }

    /// Power of one balanced photodetector as a [`Power`].
    #[must_use]
    pub fn bpd_power(&self) -> Power {
        Power::from_mw(self.bpd_power_mw)
    }

    /// Power of one actively tuned MR as a [`Power`].
    #[must_use]
    pub fn mr_tuning_power(&self) -> Power {
        Power::from_mw(self.mr_tuning_power_mw)
    }

    /// Power of a complete CRC unit (15 comparators, paper Fig. 4(a)).
    #[must_use]
    pub fn crc_power(&self) -> Power {
        Power::from_mw(15.0 * self.crc_comparator_power_uw / 1e3)
    }

    /// The optical symbol period as a [`Time`].
    #[must_use]
    pub fn optical_cycle(&self) -> Time {
        Time::from_ns(self.optical_cycle_ns)
    }

    /// The electronic clock period as a [`Time`].
    #[must_use]
    pub fn electronic_cycle(&self) -> Time {
        Time::from_ns(self.electronic_cycle_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_table_has_positive_entries() {
        let t = DevicePowerTable::PAPER;
        assert!(t.dac_power_mw > 0.0);
        assert!(t.adc_power_mw > 0.0);
        assert!(t.mr_tuning_power_mw > 0.0);
        assert!(t.vcsel_power_mw > 0.0);
        assert!(t.bpd_power_mw > 0.0);
        assert!(t.optical_cycle_ns > 0.0);
    }

    #[test]
    fn dac_power_scales_down_with_bits() {
        let t = DevicePowerTable::PAPER;
        let p4 = t.dac_power_at_bits(4);
        let p3 = t.dac_power_at_bits(3);
        let p2 = t.dac_power_at_bits(2);
        assert!(p4.mw() > p3.mw());
        assert!(p3.mw() > p2.mw());
        // Full precision equals the nominal value.
        assert!((p4.mw() - t.dac_power_mw).abs() < 1e-12);
        // Dropping the MSB (4 -> 3 bits) roughly halves the DAC power, the
        // mechanism behind the paper's ~2x total saving per dropped bit.
        assert!(p4.mw() / p3.mw() > 1.8 && p4.mw() / p3.mw() < 2.5);
        assert!((p3.mw() / t.dac_power_mw - 7.0 / 15.0).abs() < 1e-9);
        assert!((p2.mw() / t.dac_power_mw - 3.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn dac_power_clamps_bits_above_native() {
        let t = DevicePowerTable::PAPER;
        assert_eq!(t.dac_power_at_bits(8), t.dac_power_at_bits(4));
    }

    #[test]
    fn crc_power_counts_fifteen_comparators() {
        let t = DevicePowerTable::PAPER;
        assert!((t.crc_power().mw() - 15.0 * t.crc_comparator_power_uw / 1e3).abs() < 1e-12);
    }
}
