//! The analytical roofline backend: [`OpticalBaseline`] performance
//! models behind the [`Backend`] interface.
//!
//! The Table-1 photonic baselines (LightBulb, HolyLight, HQNNA, Robin,
//! CrossLight) are modelled analytically — component counts × per-device
//! costs for power, an effective MAC rate for throughput. They cannot run
//! a workload, so [`RooflineBackend`] answers [`Backend::performance`]
//! while its [`Backend::lower`] refuses every workload with a typed error.
//! Putting them behind the same trait as the executable backends lets the
//! Table-1 harness iterate one registry for every row.

use lightator_core::backend::{Backend, BackendId, LoweredPlan};
use lightator_core::platform::{PlatformConfig, Workload};
use lightator_core::sim::SimulationReport;
use lightator_core::{CoreError, Result};
use lightator_nn::spec::NetworkSpec;
use lightator_photonics::units::Energy;

use crate::optical::OpticalBaseline;
use crate::reference::slug;

/// An [`OpticalBaseline`] as an analytical (non-executing) [`Backend`].
///
/// Its [`BackendId`] is `roofline:<design>` (`roofline:lightbulb`, ...).
#[derive(Debug, Clone)]
pub struct RooflineBackend {
    baseline: OpticalBaseline,
    id: BackendId,
}

impl RooflineBackend {
    /// Wraps an optical baseline as an analytical backend.
    #[must_use]
    pub fn new(baseline: OpticalBaseline) -> Self {
        let id = BackendId::new(format!("roofline:{}", slug(baseline.name())));
        Self { baseline, id }
    }

    /// The underlying analytical model.
    #[must_use]
    pub fn baseline(&self) -> &OpticalBaseline {
        &self.baseline
    }
}

impl Backend for RooflineBackend {
    fn id(&self) -> BackendId {
        self.id.clone()
    }

    fn name(&self) -> String {
        format!("{} (analytical roofline)", self.baseline.name())
    }

    fn lower(
        &self,
        _workload: &Workload,
        _config: &PlatformConfig,
        _seed: u64,
    ) -> Result<Box<dyn LoweredPlan>> {
        Err(CoreError::ModelMismatch {
            reason: format!(
                "backend '{}' is an analytical roofline model and cannot execute workloads",
                self.id
            ),
        })
    }

    fn performance(
        &self,
        network: &NetworkSpec,
        _config: &PlatformConfig,
    ) -> Result<SimulationReport> {
        let frame_latency = self.baseline.execution_time(network);
        let max_power = self.baseline.max_power();
        let frame_energy = Energy::from_pj(max_power.watts() * frame_latency.seconds() * 1e12);
        Ok(SimulationReport {
            network: network.name().to_string(),
            precision: self.precision_label(),
            layers: Vec::new(),
            frame_latency,
            max_power,
            average_power: max_power,
            frame_energy,
        })
    }
}

impl RooflineBackend {
    fn precision_label(&self) -> String {
        let p = self.baseline.precision();
        format!("[{}:{}]", p.weight_bits, p.activation_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_core::platform::{ImageKernel, Platform};

    #[test]
    fn roofline_backends_do_not_execute() {
        let backend = RooflineBackend::new(OpticalBaseline::lightbulb());
        assert_eq!(backend.id().as_str(), "roofline:lightbulb");
        let workload = Workload::ImageKernel {
            kernel: ImageKernel::Identity,
        };
        let platform = Platform::paper().expect("platform");
        assert!(backend.lower(&workload, platform.config(), 1).is_err());
    }

    #[test]
    fn performance_matches_the_analytical_model() {
        let platform = Platform::paper().expect("platform");
        let net = NetworkSpec::lenet();
        for design in OpticalBaseline::table1_designs() {
            let expected_t = design.execution_time(&net);
            let expected_p = design.max_power();
            let report = RooflineBackend::new(design)
                .performance(&net, platform.config())
                .expect("report");
            assert_eq!(report.frame_latency.seconds(), expected_t.seconds());
            assert_eq!(report.max_power.watts(), expected_p.watts());
            // The registry derives Table 1's KFPS/W directly from the
            // report, so it must match the model's own figure of merit.
            assert!(
                (report.kfps_per_watt() - report.fps() / 1e3 / expected_p.watts()).abs() < 1e-12
            );
        }
    }

    #[test]
    fn precision_labels_follow_the_designs() {
        let platform = Platform::paper().expect("platform");
        let robin = RooflineBackend::new(OpticalBaseline::robin());
        let report = robin
            .performance(&NetworkSpec::lenet(), platform.config())
            .expect("report");
        assert_eq!(report.precision, "[1:4]");
    }
}
