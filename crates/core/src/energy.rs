//! Power and energy model of the Lightator platform.
//!
//! Reproduces the component breakdown the paper reports in Figs. 8 and 9:
//! ADCs, DACs, DMVA (CRC + VCSELs + drivers), MR tuning (TUN), balanced
//! photodetectors (BPD) and miscellaneous electronics (the controller plus
//! the leakage of the weight and activation SRAMs).
//! The absolute constants live in [`DevicePowerTable::PAPER`] and the
//! instance counts in [`PeripheryCounts::PAPER`]; this module multiplies
//! them by the utilisations implied by a layer's [`LayerMapping`]. Every
//! term is a power; the simulator turns it into energy by the layer's
//! latency, so no term is charged per access.

use crate::config::{LightatorConfig, OcGeometry, PeripheryCounts};
use crate::error::Result;
use crate::mapping::LayerMapping;
use lightator_nn::quant::Precision;
use lightator_photonics::power::DevicePowerTable;
use lightator_photonics::units::Power;
use serde::{Deserialize, Serialize};

/// Per-component power of one layer (the bars of Figs. 8 and 9).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ComponentPower {
    /// Read-out ADCs.
    pub adcs: Power,
    /// Weight-programming DACs.
    pub dacs: Power,
    /// DMVA: CRC comparators, VCSELs and their drivers.
    pub dmva: Power,
    /// MR tuning (thermal/PIN) power.
    pub tuning: Power,
    /// Balanced photodetectors.
    pub bpd: Power,
    /// Controller, buffers and other peripheral electronics.
    pub misc: Power,
}

impl ComponentPower {
    /// Total power of the layer.
    #[must_use]
    pub fn total(&self) -> Power {
        self.adcs + self.dacs + self.dmva + self.tuning + self.bpd + self.misc
    }

    /// Fraction contributed by the DACs.
    ///
    /// The paper reports DACs above 85% of every VGG9 layer's power (Fig. 9).
    /// This model gives 67.3–77.0% per layer on VGG9 at `[3:4]`
    /// (`fig9_vgg9_power`; 70.0% for L8). The claims ledger in ROADMAP.md
    /// (item 5a) is to name the constants behind the gap.
    #[must_use]
    pub fn dac_share(&self) -> f64 {
        let total = self.total();
        if total.mw() == 0.0 {
            return 0.0;
        }
        self.dacs / total
    }

    /// The component labels in the order the paper's figures use.
    pub const LABELS: [&'static str; 6] = ["ADCs", "DACs", "DMVA", "TUN", "BPD", "Misc."];

    /// The component values in label order.
    #[must_use]
    pub fn values(&self) -> [Power; 6] {
        [
            self.adcs,
            self.dacs,
            self.dmva,
            self.tuning,
            self.bpd,
            self.misc,
        ]
    }
}

/// The Lightator energy model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// The optical-core geometry, the model's one platform input; the
    /// device figures are the [`DevicePowerTable::PAPER`] constants.
    geometry: OcGeometry,
}

impl EnergyModel {
    /// Creates an energy model for a platform configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig)
    /// if the configuration is invalid.
    pub fn new(config: LightatorConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            geometry: config.geometry,
        })
    }

    /// Number of arms engaged each cycle for a mapping.
    fn arms_active(&self, mapping: &LayerMapping) -> usize {
        let geometry = &self.geometry;
        let engaged =
            mapping.strides_per_cycle.min(mapping.total_strides) * mapping.arms_per_stride;
        engaged.min(geometry.arms())
    }

    /// Per-component power while a mapped layer is executing.
    ///
    /// `precision` selects the weight bit-width (which gates DAC slices) and
    /// `is_first_layer` decides whether the CRC path of the DMVA is active
    /// (only the first layer reads the pixel array).
    #[must_use]
    pub fn layer_power(
        &self,
        mapping: &LayerMapping,
        precision: Precision,
        is_first_layer: bool,
    ) -> ComponentPower {
        let geometry = &self.geometry;
        let periphery = &PeripheryCounts::PAPER;
        let table = &DevicePowerTable::PAPER;

        let arms_active = self.arms_active(mapping);
        let banks_active = arms_active.div_ceil(geometry.arms_per_bank).max(1);
        let mrs_active_per_cycle = (arms_active * geometry.mrs_per_arm)
            .saturating_sub(
                mapping.unused_mrs_per_stride
                    * mapping.strides_per_cycle.min(mapping.total_strides),
            )
            .min(mapping.active_mrs.max(1));

        // DACs re-program the MR weights; one DAC per arm, gated by the
        // weight bit-width. The paper puts DACs above 85% of VGG9's power;
        // here they come to 67.3–77.0% (see `ComponentPower::dac_share`).
        let dacs = table.dac_power_at_bits(precision.weight_bits)
            * (arms_active * periphery.dacs_per_arm) as f64;

        // MR tuning power for every ring that currently holds a weight.
        let tuning = table.mr_tuning_power() * mrs_active_per_cycle as f64;

        // DMVA: VCSELs + drivers for every active wavelength; the CRC ladder
        // only burns power while the pixel array is being read (first layer).
        let vcsels = table.vcsel_power() * (arms_active * periphery.vcsels_per_arm) as f64;
        let crc = if is_first_layer {
            table.crc_power() * periphery.crc_units as f64
        } else {
            Power::zero()
        };
        let dmva = vcsels + crc;

        // Balanced photodetector per arm.
        let bpd = table.bpd_power() * arms_active as f64;

        // Read-out ADCs per active bank.
        let adcs =
            Power::from_mw(table.adc_power_mw) * (banks_active * periphery.adcs_per_bank) as f64;

        // Controller plus the leakage of the weight and activation SRAMs.
        let sram_leakage =
            |kib: usize| Power::from_mw(table.sram_leakage_per_kib_uw * kib as f64 / 1e3);
        let misc = Power::from_mw(table.controller_power_mw)
            + sram_leakage(periphery.weight_sram_kib)
            + sram_leakage(periphery.activation_sram_kib);

        ComponentPower {
            adcs,
            dacs,
            dmva,
            tuning,
            bpd,
            misc,
        }
    }

    /// Peak (maximum) platform power: every arm, MR, DAC and detector active
    /// at the given weight precision — the "Max Power" column of Table 1.
    #[must_use]
    pub fn max_power(&self, precision: Precision) -> ComponentPower {
        let geometry = &self.geometry;
        let full = LayerMapping {
            arms_per_stride: 1,
            strides_per_bank: geometry.arms_per_bank,
            unused_mrs_per_stride: 0,
            summation: crate::mapping::SummationUsage::None,
            total_strides: geometry.arms() * 4,
            strides_per_cycle: geometry.arms(),
            compute_cycles: 4,
            weight_reloads: 1,
            active_mrs: geometry.mrs(),
            uses_ca_banks: false,
        };
        self.layer_power(&full, precision, true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OcGeometry;
    use crate::mapping::HardwareMapper;
    use lightator_nn::spec::{ConvSpec, LayerSpec};

    fn model() -> EnergyModel {
        EnergyModel::new(LightatorConfig::paper()).expect("valid")
    }

    fn conv_mapping() -> LayerMapping {
        let mapper = HardwareMapper::new(OcGeometry::paper()).expect("valid");
        mapper
            .map_layer(&LayerSpec::Conv(ConvSpec {
                in_channels: 64,
                out_channels: 64,
                kernel: 3,
                stride: 1,
                padding: 1,
                in_height: 32,
                in_width: 32,
            }))
            .expect("ok")
    }

    #[test]
    fn dacs_dominate_the_breakdown() {
        let power = model().layer_power(&conv_mapping(), Precision::w3a4(), false);
        assert!(
            power.dac_share() > 0.6,
            "DACs must dominate, got share {}",
            power.dac_share()
        );
        assert!(power.total().mw() > 0.0);
    }

    #[test]
    fn lower_weight_precision_saves_power() {
        let m = model();
        let mapping = conv_mapping();
        let p4 = m.layer_power(&mapping, Precision::w4a4(), false).total();
        let p3 = m.layer_power(&mapping, Precision::w3a4(), false).total();
        let p2 = m.layer_power(&mapping, Precision::w2a4(), false).total();
        assert!(p4.mw() > p3.mw());
        assert!(p3.mw() > p2.mw());
        // The paper reports ~2.4x average efficiency gain from bit-width
        // reduction; the 4-bit to 2-bit ratio should be of that order.
        let ratio = p4.mw() / p2.mw();
        assert!(ratio > 1.5 && ratio < 4.5, "4-bit/2-bit ratio {ratio}");
    }

    #[test]
    fn first_layer_pays_for_the_crc() {
        let m = model();
        let mapping = conv_mapping();
        let first = m.layer_power(&mapping, Precision::w4a4(), true);
        let later = m.layer_power(&mapping, Precision::w4a4(), false);
        assert!(first.dmva.mw() > later.dmva.mw());
        assert_eq!(first.dacs, later.dacs);
    }

    #[test]
    fn max_power_lands_in_the_papers_range() {
        let m = model();
        let p44 = m.max_power(Precision::w4a4()).total();
        let p34 = m.max_power(Precision::w3a4()).total();
        let p24 = m.max_power(Precision::w2a4()).total();
        // Paper Table 1: 5.28 W, 2.71 W, 1.46 W. Allow a generous band since
        // our circuit constants are representative, not extracted.
        assert!(p44.watts() > 3.0 && p44.watts() < 8.0, "[4:4] {p44}");
        assert!(p34.watts() > 1.5 && p34.watts() < 4.5, "[3:4] {p34}");
        assert!(p24.watts() > 0.7 && p24.watts() < 2.5, "[2:4] {p24}");
        // And the ordering/ratios follow the paper's trend.
        assert!(p44.watts() / p34.watts() > 1.5);
        assert!(p34.watts() / p24.watts() > 1.3);
    }

    #[test]
    fn component_labels_align_with_values() {
        let power = model().layer_power(&conv_mapping(), Precision::w4a4(), false);
        assert_eq!(ComponentPower::LABELS.len(), power.values().len());
        let sum: f64 = power.values().iter().map(|p| p.mw()).sum();
        assert!((sum - power.total().mw()).abs() < 1e-9);
    }

    #[test]
    fn small_layers_draw_less_power_than_the_peak() {
        let m = model();
        let mapper = HardwareMapper::new(OcGeometry::paper()).expect("valid");
        let tiny = mapper
            .map_layer(&LayerSpec::Conv(ConvSpec {
                in_channels: 1,
                out_channels: 2,
                kernel: 3,
                stride: 1,
                padding: 1,
                in_height: 8,
                in_width: 8,
            }))
            .expect("ok");
        let tiny_power = m.layer_power(&tiny, Precision::w4a4(), false).total();
        let peak = m.max_power(Precision::w4a4()).total();
        assert!(tiny_power.mw() < peak.mw());
    }
}
