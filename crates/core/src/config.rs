//! Lightator configuration: the optical-core geometry and the analog noise
//! a platform varies, and the paper's periphery and timing constants.
//!
//! The paper's power and latency figures come from one 45 nm design, so the
//! periphery counts ([`PeripheryCounts::PAPER`]), the timing counts
//! ([`TimingConfig::PAPER`]) and the device figures
//! ([`DevicePowerTable::PAPER`](lightator_photonics::power::DevicePowerTable::PAPER))
//! are constants, not settings.

use crate::error::{CoreError, Result};
use lightator_photonics::noise::NoiseConfig;
use serde::{Deserialize, Serialize};

/// Largest optical core a configuration may describe, in MRs. The paper's
/// core has 5,184; the bound keeps every geometry product (banks, arms,
/// MRs) and the mapper's per-MR arithmetic far from `usize` overflow.
pub const MAX_MRS: usize = 1 << 24;

/// Geometry of the optical core's MVM banks.
///
/// The paper's design (§4): 9 MRs per arm (one 3×3 kernel stride), 6 arms per
/// bank, 96 banks arranged as 8 columns × 12 rows — 5184 MRs in total, hence
/// at most 5184 MAC operations per optical cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OcGeometry {
    /// MRs per arm.
    pub mrs_per_arm: usize,
    /// Arms per bank.
    pub arms_per_bank: usize,
    /// Bank-array columns.
    pub bank_columns: usize,
    /// Bank-array rows.
    pub bank_rows: usize,
    /// Number of banks reserved for the compressive acquisitor.
    pub ca_banks: usize,
}

impl Default for OcGeometry {
    fn default() -> Self {
        Self {
            mrs_per_arm: 9,
            arms_per_bank: 6,
            bank_columns: 8,
            bank_rows: 12,
            ca_banks: 8,
        }
    }
}

impl OcGeometry {
    /// The paper's geometry (identical to [`Default`]).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Total number of banks.
    #[must_use]
    pub fn banks(&self) -> usize {
        self.bank_columns * self.bank_rows
    }

    /// Total number of arms.
    #[must_use]
    pub fn arms(&self) -> usize {
        self.banks() * self.arms_per_bank
    }

    /// Total number of MRs.
    #[must_use]
    pub fn mrs(&self) -> usize {
        self.arms() * self.mrs_per_arm
    }

    /// MRs per bank.
    #[must_use]
    pub fn mrs_per_bank(&self) -> usize {
        self.arms_per_bank * self.mrs_per_arm
    }

    /// Maximum MAC operations per optical cycle (one per MR).
    #[must_use]
    pub fn macs_per_cycle(&self) -> usize {
        self.mrs()
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if any extent is zero, the core
    /// holds more than [`MAX_MRS`] MRs, or the CA reservation exceeds the
    /// number of banks.
    pub fn validate(&self) -> Result<()> {
        let params = [
            ("mrs_per_arm", self.mrs_per_arm),
            ("arms_per_bank", self.arms_per_bank),
            ("bank_columns", self.bank_columns),
            ("bank_rows", self.bank_rows),
        ];
        for (name, value) in params {
            if value == 0 {
                return Err(CoreError::invalid_config(
                    name,
                    value as f64,
                    "every optical-core extent must be at least 1 (a zero extent leaves no MRs to map onto)",
                ));
            }
        }
        let mrs = params
            .iter()
            .try_fold(1usize, |mrs, &(_, value)| mrs.checked_mul(value))
            .filter(|&mrs| mrs <= MAX_MRS);
        if mrs.is_none() {
            return Err(CoreError::invalid_config(
                "mrs",
                params.iter().map(|&(_, value)| value as f64).product(),
                format!(
                    "the optical core may hold at most {MAX_MRS} MRs \
                     (mrs_per_arm x arms_per_bank x bank_columns x bank_rows; \
                     the paper's core has 5184)"
                ),
            ));
        }
        if self.ca_banks > self.banks() {
            return Err(CoreError::invalid_config(
                "ca_banks",
                self.ca_banks as f64,
                format!(
                    "the CA reservation cannot exceed the {} banks of the array \
                     ({} columns x {} rows)",
                    self.banks(),
                    self.bank_columns,
                    self.bank_rows
                ),
            ));
        }
        Ok(())
    }
}

/// Counts of the electronic periphery blocks surrounding the optical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PeripheryCounts {
    /// Weight-programming DACs per arm.
    pub dacs_per_arm: usize,
    /// Read-out ADCs per bank.
    pub adcs_per_bank: usize,
    /// VCSELs per arm (one per wavelength).
    pub vcsels_per_arm: usize,
    /// CRC units active during first-layer acquisition (shared across pixel
    /// columns).
    pub crc_units: usize,
    /// Weight-buffer SRAM capacity in KiB.
    pub weight_sram_kib: usize,
    /// Activation (in/out buffer) SRAM capacity in KiB.
    pub activation_sram_kib: usize,
}

impl PeripheryCounts {
    /// The paper's periphery, the one the energy model charges.
    pub const PAPER: Self = Self {
        dacs_per_arm: 1,
        adcs_per_bank: 1,
        vcsels_per_arm: 9,
        crc_units: 256,
        weight_sram_kib: 256,
        activation_sram_kib: 128,
    };
}

/// Timing parameters of the platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimingConfig {
    /// Electronic cycles needed to rewrite the weights of one bank (54 MRs)
    /// through its DACs.
    pub weight_reload_cycles_per_bank: usize,
    /// Electronic cycles of post-processing (activation function, buffering)
    /// per 1024 output activations.
    pub electronic_post_cycles_per_kilo_output: usize,
    /// Optical cycles required per MAC wave (symbol + detection settling).
    pub optical_cycles_per_wave: usize,
}

impl TimingConfig {
    /// The paper's timing, the one the simulator charges.
    pub const PAPER: Self = Self {
        weight_reload_cycles_per_bank: 54,
        electronic_post_cycles_per_kilo_output: 64,
        optical_cycles_per_wave: 1,
    };
}

/// The hardware settings of a Lightator platform: the optical-core geometry
/// and the analog noise. Everything else about the hardware is one of the
/// paper's constants (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct LightatorConfig {
    /// Optical-core geometry.
    pub geometry: OcGeometry,
    /// Analog noise / non-ideality configuration for functional simulation.
    pub noise: NoiseConfig,
}

impl LightatorConfig {
    /// The paper's configuration (identical to [`Default`]).
    #[must_use]
    pub fn paper() -> Self {
        Self::default()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an invalid geometry (see
    /// [`OcGeometry::validate`]). The builder validates the noise.
    pub fn validate(&self) -> Result<()> {
        self.geometry.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry_matches_section_four() {
        let g = OcGeometry::paper();
        assert_eq!(g.banks(), 96);
        assert_eq!(g.arms(), 576);
        assert_eq!(g.mrs(), 5184);
        assert_eq!(g.mrs_per_bank(), 54);
        assert_eq!(g.macs_per_cycle(), 5184);
        g.validate().expect("paper geometry is valid");
    }

    #[test]
    fn geometry_validation_rejects_zeros_and_bad_ca() {
        let g = OcGeometry {
            mrs_per_arm: 0,
            ..OcGeometry::default()
        };
        assert!(g.validate().is_err());
        let g = OcGeometry {
            ca_banks: 1000,
            ..OcGeometry::default()
        };
        assert!(g.validate().is_err());
    }

    #[test]
    fn default_config_is_valid() {
        LightatorConfig::default().validate().expect("valid");
    }
}
