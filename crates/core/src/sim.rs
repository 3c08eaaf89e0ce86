//! Architecture-level simulator.
//!
//! The paper's "custom in-house simulator" consumes the network's layer
//! parameters together with the circuit-level constants and produces, per
//! layer, the execution time and the component power breakdown, plus
//! platform-level figures of merit (frames per second, KFPS/W). This module
//! is that simulator.

use crate::config::{LightatorConfig, OcGeometry, TimingConfig};
use crate::energy::{ComponentPower, EnergyModel};
use crate::error::Result;
use crate::mapping::{HardwareMapper, LayerMapping};
use lightator_nn::quant::PrecisionSchedule;
use lightator_nn::spec::{LayerSpec, NetworkSpec};
use lightator_photonics::power::DevicePowerTable;
use lightator_photonics::units::{Energy, Power, Time};
use serde::{Deserialize, Serialize};

/// The three timing phases a layer's latency decomposes into.
///
/// For an optically mapped layer: DAC weight encoding (reload passes), the
/// optical MAC-row sweep, and electronic readout/activation. Layers that
/// stay in the electronic periphery (max pool) spend everything in the
/// readout phase. The phases sum exactly to the layer's
/// [`latency`](LayerReport::latency), which per-stage trace attribution
/// relies on.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct LayerPhases {
    /// Electronic DAC weight-reload time.
    pub weight_encode: Time,
    /// Optical MAC-row compute time.
    pub mac: Time,
    /// Electronic post-processing (readout, activation, buffering) time.
    pub readout: Time,
}

impl LayerPhases {
    /// Sum of the three phases — the layer latency.
    #[must_use]
    pub fn total(&self) -> Time {
        self.weight_encode + self.mac + self.readout
    }
}

/// Per-layer simulation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LayerReport {
    /// Layer index in the network (0-based, matching `L1..Ln` minus one).
    pub index: usize,
    /// Layer kind (`conv`, `fc`, `pool`).
    pub kind: String,
    /// How the layer was mapped, if it runs on the optical core.
    pub mapping: Option<LayerMapping>,
    /// Execution latency of the layer.
    pub latency: Time,
    /// Phase decomposition of `latency` (weight-encode / MAC rows / readout).
    pub phases: LayerPhases,
    /// Component power while the layer executes.
    pub power: ComponentPower,
    /// Energy consumed by the layer (power × latency).
    pub energy: Energy,
    /// MAC operations executed.
    pub macs: usize,
}

/// Whole-network simulation result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationReport {
    /// Network name.
    pub network: String,
    /// Precision schedule label (e.g. `[4:4]` or `[4:4][3:4]`).
    pub precision: String,
    /// Per-layer results.
    pub layers: Vec<LayerReport>,
    /// End-to-end latency of one frame.
    pub frame_latency: Time,
    /// Peak platform power (Table 1's "Max Power").
    pub max_power: Power,
    /// Latency-weighted average power.
    pub average_power: Power,
    /// Total energy per frame.
    pub frame_energy: Energy,
}

impl SimulationReport {
    /// Frames per second.
    #[must_use]
    pub fn fps(&self) -> f64 {
        if self.frame_latency.seconds() == 0.0 {
            return 0.0;
        }
        1.0 / self.frame_latency.seconds()
    }

    /// Kilo-frames per second per watt of peak power — the figure of merit
    /// of Table 1.
    #[must_use]
    pub fn kfps_per_watt(&self) -> f64 {
        if self.max_power.watts() == 0.0 {
            return 0.0;
        }
        self.fps() / 1e3 / self.max_power.watts()
    }

    /// Total MAC count of the simulated network.
    #[must_use]
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(|l| l.macs).sum()
    }
}

/// The Lightator architecture simulator.
#[derive(Debug, Clone)]
pub struct ArchitectureSimulator {
    geometry: OcGeometry,
    mapper: HardwareMapper,
    energy: EnergyModel,
}

impl ArchitectureSimulator {
    /// Creates a simulator for a platform configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`](crate::CoreError::InvalidConfig)
    /// if the configuration is invalid.
    pub fn new(config: LightatorConfig) -> Result<Self> {
        config.validate()?;
        let geometry = config.geometry;
        let mapper = HardwareMapper::new(geometry)?;
        let energy = EnergyModel::new(config)?;
        Ok(Self {
            geometry,
            mapper,
            energy,
        })
    }

    /// Phase timing of one optically mapped layer.
    fn layer_phases(&self, layer: &LayerSpec, mapping: &LayerMapping) -> LayerPhases {
        let timing = &TimingConfig::PAPER;
        let optical_cycle = DevicePowerTable::PAPER.optical_cycle();
        let electronic_cycle = DevicePowerTable::PAPER.electronic_cycle();

        let compute =
            optical_cycle * (mapping.compute_cycles * timing.optical_cycles_per_wave) as f64;
        // Weight reloads rewrite every occupied bank through its DACs; banks
        // reload in parallel, so the cost is per reload pass.
        let reload = electronic_cycle
            * (mapping.weight_reloads * timing.weight_reload_cycles_per_bank) as f64;
        // Electronic post-processing (activation function, buffering).
        let outputs = layer.output_elements();
        let post = electronic_cycle
            * (outputs.div_ceil(1024) * timing.electronic_post_cycles_per_kilo_output) as f64;
        LayerPhases {
            weight_encode: reload,
            mac: compute,
            readout: post,
        }
    }

    /// Phase timing of a layer that stays in the electronic periphery (max
    /// pool): everything is post-processing.
    fn electronic_layer_phases(&self, layer: &LayerSpec) -> LayerPhases {
        let electronic_cycle = DevicePowerTable::PAPER.electronic_cycle();
        let outputs = layer.output_elements();
        LayerPhases {
            weight_encode: Time::zero(),
            mac: Time::zero(),
            readout: electronic_cycle
                * (outputs.div_ceil(1024)
                    * TimingConfig::PAPER.electronic_post_cycles_per_kilo_output
                    * 2) as f64,
        }
    }

    /// Power of an electronically executed layer: controller + buffers only.
    fn electronic_layer_power(&self) -> ComponentPower {
        ComponentPower {
            misc: Power::from_mw(DevicePowerTable::PAPER.controller_power_mw),
            ..ComponentPower::default()
        }
    }

    /// Simulates one network under a precision schedule, layer by layer as
    /// given, on the network's own input size.
    ///
    /// No CA pass is added. The paper's Fig. 9 setup, in which CA shrinks
    /// the first layer's input, is
    /// [`ArchitectureSimulator::simulate_with_ca`].
    ///
    /// # Errors
    ///
    /// Propagates mapping errors for layers the optical core cannot execute.
    pub fn simulate(
        &self,
        network: &NetworkSpec,
        schedule: PrecisionSchedule,
    ) -> Result<SimulationReport> {
        let mappings = self.mapper.map_network(network.layers())?;
        let mut layers = Vec::with_capacity(network.layers().len());
        let mut weighted_index = 0usize;
        let mut frame_latency = Time::zero();
        let mut frame_energy = Energy::zero();
        let mut max_power = Power::zero();

        for (index, (layer, mapping)) in network.layers().iter().zip(&mappings).enumerate() {
            let precision = schedule.for_layer(weighted_index);
            let is_first_layer = index == 0;
            let (phases, power) = match mapping {
                Some(mapping) => (
                    self.layer_phases(layer, mapping),
                    self.energy.layer_power(mapping, precision, is_first_layer),
                ),
                None => (
                    self.electronic_layer_phases(layer),
                    self.electronic_layer_power(),
                ),
            };
            if layer.is_weighted() {
                weighted_index += 1;
            }
            let latency = phases.total();
            let energy = Energy::from_pj(power.total().watts() * latency.seconds() * 1e12);
            frame_latency += latency;
            frame_energy += energy;
            max_power = max_power.max(power.total());
            layers.push(LayerReport {
                index,
                kind: layer.kind_name().to_string(),
                mapping: *mapping,
                latency,
                phases,
                power,
                energy,
                macs: layer.mac_count(),
            });
        }

        // Table 1's "Max Power" column reports the platform's peak power for
        // the configuration (all banks engaged), which large networks reach
        // and small networks do not exceed.
        let platform_peak = self.energy.max_power(schedule.for_layer(1)).total();
        let max_power = max_power.max(Power::zero()).min(platform_peak).max(
            // never report below the largest per-layer draw
            layers
                .iter()
                .map(|l| l.power.total())
                .fold(Power::zero(), Power::max),
        );

        let average_power = if frame_latency.seconds() > 0.0 {
            Power::from_watts(frame_energy.joules() / frame_latency.seconds())
        } else {
            Power::zero()
        };

        Ok(SimulationReport {
            network: network.name().to_string(),
            precision: schedule.label(),
            layers,
            frame_latency,
            max_power,
            average_power,
            frame_energy,
        })
    }

    /// Platform peak power for a network under a (possibly mixed) precision
    /// schedule — the "Max Power" column of Table 1.
    ///
    /// For mixed-precision schedules the banks holding the first layer's
    /// weights keep their DAC slices at the first layer's precision while the
    /// remaining banks run at the lower precision, so the peak is the
    /// arm-share-weighted blend of the two uniform peaks. For uniform
    /// schedules this reduces to the uniform peak.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn platform_max_power(
        &self,
        network: &NetworkSpec,
        schedule: PrecisionSchedule,
    ) -> Result<Power> {
        let mappings = self.mapper.map_network(network.layers())?;
        let first_mapping = network
            .layers()
            .iter()
            .zip(&mappings)
            .find(|(layer, _)| layer.is_weighted())
            .and_then(|(_, mapping)| *mapping);
        let arms = self.geometry.arms().max(1);
        let share = first_mapping
            .map(|m| {
                let engaged = m.strides_per_cycle.min(m.total_strides) * m.arms_per_stride;
                (engaged.min(arms)) as f64 / arms as f64
            })
            .unwrap_or(0.0);
        let peak_first = self.energy.max_power(schedule.for_layer(0)).total();
        let peak_rest = self.energy.max_power(schedule.for_layer(1)).total();
        Ok(peak_first * share + peak_rest * (1.0 - share))
    }

    /// Simulates the network preceded by a compressive-acquisition pass that
    /// shrinks the input frame (mean pooling across channels + strided
    /// weighted sum, paper step 2). Returns the report plus the relative
    /// first-layer energy saving the CA provides, the quantity the paper
    /// highlights for Fig. 9 (a 42.2 % reduction).
    ///
    /// # Errors
    ///
    /// Propagates mapping/simulation errors, and returns
    /// [`crate::error::CoreError::Nn`] if a layer of `network` does not fit
    /// the input reduced by `pooling_window`.
    pub fn simulate_with_ca(
        &self,
        network: &NetworkSpec,
        schedule: PrecisionSchedule,
        pooling_window: usize,
    ) -> Result<(SimulationReport, f64)> {
        let baseline = self.simulate(network, schedule)?;
        // With CA enabled the first conv layer sees a spatially reduced
        // input: rebuild the spec with the reduced first-layer geometry.
        let reduced = reduce_first_layer(network, pooling_window)?;
        let compressed = self.simulate(&reduced, schedule)?;
        let first_energy_before = baseline
            .layers
            .first()
            .map(|l| l.energy.joules())
            .unwrap_or(0.0);
        let first_energy_after = compressed
            .layers
            .first()
            .map(|l| l.energy.joules())
            .unwrap_or(0.0);
        let saving = if first_energy_before > 0.0 {
            1.0 - first_energy_after / first_energy_before
        } else {
            0.0
        };
        Ok((compressed, saving))
    }
}

/// Builds a copy of `network` whose first layer runs on an input frame
/// spatially reduced by `window` (the effect of the CA pass).
///
/// # Errors
///
/// Returns [`crate::error::CoreError::Nn`] when a layer no longer fits the
/// reduced frame, such as a kernel or pooling window larger than the map
/// it now sees: a saving measured on any other network would be reported
/// for this one.
fn reduce_first_layer(network: &NetworkSpec, window: usize) -> Result<NetworkSpec> {
    use lightator_nn::spec::NetworkSpecBuilder;
    let window = window.max(1);
    let [c, h, w] = network.input_shape();
    let mut builder = NetworkSpecBuilder::new(
        &format!("{}+CA", network.name()),
        [c, (h / window).max(1), (w / window).max(1)],
    );
    for layer in network.layers() {
        builder = match layer {
            LayerSpec::Conv(conv) => {
                builder.conv(conv.out_channels, conv.kernel, conv.stride, conv.padding)?
            }
            LayerSpec::Pool(pool) => {
                builder.pool_strided(pool.window, pool.stride, pool.average)?
            }
            LayerSpec::Linear(linear) => builder.linear(linear.out_features)?,
        };
    }
    Ok(builder.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_nn::quant::{Precision, PrecisionSchedule};

    fn simulator() -> ArchitectureSimulator {
        ArchitectureSimulator::new(LightatorConfig::paper()).expect("valid")
    }

    #[test]
    fn lenet_simulation_produces_seven_layer_reports() {
        let report = simulator()
            .simulate(
                &NetworkSpec::lenet(),
                PrecisionSchedule::Uniform(Precision::w4a4()),
            )
            .expect("ok");
        assert_eq!(report.layers.len(), 7);
        assert!(report.frame_latency.ns() > 0.0);
        assert!(report.fps() > 0.0);
        assert!(report.kfps_per_watt() > 0.0);
        assert_eq!(report.total_macs(), NetworkSpec::lenet().total_macs());
    }

    #[test]
    fn lower_precision_raises_kfps_per_watt() {
        let sim = simulator();
        let net = NetworkSpec::vgg9(10);
        let p44 = sim
            .simulate(&net, PrecisionSchedule::Uniform(Precision::w4a4()))
            .expect("ok");
        let p34 = sim
            .simulate(&net, PrecisionSchedule::Uniform(Precision::w3a4()))
            .expect("ok");
        let p24 = sim
            .simulate(&net, PrecisionSchedule::Uniform(Precision::w2a4()))
            .expect("ok");
        assert!(p34.max_power.watts() < p44.max_power.watts());
        assert!(p24.max_power.watts() < p34.max_power.watts());
        assert!(p34.kfps_per_watt() > p44.kfps_per_watt());
        assert!(p24.kfps_per_watt() > p34.kfps_per_watt());
    }

    #[test]
    fn mixed_precision_sits_between_uniform_configurations() {
        let sim = simulator();
        let net = NetworkSpec::vgg9(100);
        let uniform_hi = sim
            .simulate(&net, PrecisionSchedule::Uniform(Precision::w4a4()))
            .expect("ok");
        let uniform_lo = sim
            .simulate(&net, PrecisionSchedule::Uniform(Precision::w3a4()))
            .expect("ok");
        let mixed = sim
            .simulate(
                &net,
                PrecisionSchedule::Mixed {
                    first: Precision::w4a4(),
                    rest: Precision::w3a4(),
                },
            )
            .expect("ok");
        assert!(mixed.max_power.watts() <= uniform_hi.max_power.watts() + 1e-9);
        assert!(mixed.max_power.watts() >= uniform_lo.max_power.watts() - 1e-9);
    }

    #[test]
    fn larger_networks_take_longer() {
        let sim = simulator();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        let lenet = sim.simulate(&NetworkSpec::lenet(), schedule).expect("ok");
        let vgg9 = sim.simulate(&NetworkSpec::vgg9(10), schedule).expect("ok");
        let alexnet = sim.simulate(&NetworkSpec::alexnet(), schedule).expect("ok");
        assert!(vgg9.frame_latency.ns() > lenet.frame_latency.ns());
        assert!(alexnet.frame_latency.ns() > vgg9.frame_latency.ns());
    }

    #[test]
    fn dacs_dominate_vgg9_power_breakdown() {
        // Fig. 9: "consistently across all layers, DACs contribute to more
        // than 85% of the total power consumption".
        let report = simulator()
            .simulate(
                &NetworkSpec::vgg9(10),
                PrecisionSchedule::Uniform(Precision::w3a4()),
            )
            .expect("ok");
        let conv_layers: Vec<&LayerReport> =
            report.layers.iter().filter(|l| l.kind == "conv").collect();
        assert!(!conv_layers.is_empty());
        for layer in conv_layers {
            assert!(
                layer.power.dac_share() > 0.5,
                "layer {} DAC share {}",
                layer.index,
                layer.power.dac_share()
            );
        }
    }

    #[test]
    fn ca_compression_reduces_first_layer_power() {
        let sim = simulator();
        let (report, saving) = sim
            .simulate_with_ca(
                &NetworkSpec::vgg9(10),
                PrecisionSchedule::Uniform(Precision::w3a4()),
                2,
            )
            .expect("ok");
        assert!(!report.layers.is_empty());
        // Fig. 9 reports a 42.2% first-layer power reduction; require a
        // meaningful saving without demanding the exact number.
        assert!(saving > 0.15, "CA saving {saving}");
        assert!(saving < 0.95);
    }

    /// Regression: a layer that no longer fit the reduced input used to be
    /// dropped (a pool) or to restart the network from an empty builder (a
    /// conv or linear layer), and the saving of that other network was
    /// reported.
    #[test]
    fn ca_reduction_that_cannot_build_the_network_is_an_error() {
        use crate::error::CoreError;
        use lightator_nn::spec::NetworkSpecBuilder;
        use lightator_nn::NnError;
        // On 8×8 both build; the 2×2 reduction leaves 4×4, which holds
        // neither a 5×5 unpadded kernel nor an 8×8 pooling window.
        let conv = NetworkSpecBuilder::new("conv5", [1, 8, 8])
            .conv(4, 5, 1, 0)
            .and_then(|b| b.linear(10))
            .expect("builds on 8x8");
        let pool = NetworkSpecBuilder::new("pool8", [1, 8, 8])
            .conv(4, 3, 1, 1)
            .and_then(|b| b.pool(8, true))
            .and_then(|b| b.linear(10))
            .expect("builds on 8x8");
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        for (network, field) in [(conv.build(), "kernel"), (pool.build(), "window")] {
            let err = simulator()
                .simulate_with_ca(&network, schedule, 2)
                .expect_err("the reduced network cannot be built");
            assert!(
                matches!(err, CoreError::Nn(NnError::InvalidParameter { name, .. }) if name == field),
                "{}: {err:?}",
                network.name()
            );
        }
    }

    #[test]
    fn max_power_is_bounded_by_platform_peak() {
        let sim = simulator();
        let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
        let report = sim.simulate(&NetworkSpec::vgg16(), schedule).expect("ok");
        let peak = sim.energy.max_power(Precision::w4a4()).total();
        assert!(report.max_power.watts() <= peak.watts() + 1e-9);
    }

    #[test]
    fn average_power_not_above_max_power() {
        let report = simulator()
            .simulate(
                &NetworkSpec::vgg9(10),
                PrecisionSchedule::Uniform(Precision::w4a4()),
            )
            .expect("ok");
        assert!(report.average_power.watts() <= report.max_power.watts() + 1e-9);
    }

    #[test]
    fn layer_phases_sum_exactly_to_layer_latency() {
        let report = simulator()
            .simulate(
                &NetworkSpec::lenet(),
                PrecisionSchedule::Uniform(Precision::w4a4()),
            )
            .expect("ok");
        for layer in &report.layers {
            assert_eq!(
                layer.phases.total().ns(),
                layer.latency.ns(),
                "layer {} phase decomposition must be exact",
                layer.index
            );
            if layer.mapping.is_none() {
                assert!(layer.phases.weight_encode.is_zero());
                assert!(layer.phases.mac.is_zero());
            } else {
                assert!(layer.phases.mac.ns() > 0.0);
            }
        }
    }

    #[test]
    fn energy_is_consistent_with_power_and_latency() {
        let report = simulator()
            .simulate(
                &NetworkSpec::lenet(),
                PrecisionSchedule::Uniform(Precision::w4a4()),
            )
            .expect("ok");
        let summed: f64 = report.layers.iter().map(|l| l.energy.joules()).sum();
        assert!((summed - report.frame_energy.joules()).abs() < 1e-12);
    }
}
