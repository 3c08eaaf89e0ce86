//! The electronic reference backend: digital fp32 execution of compiled
//! plans, charged at an [`ElectronicBaseline`]'s latency/power model.
//!
//! [`ElectronicReference`] makes the Fig. 10 electronic designs (and the
//! GPU baseline) *executable* targets of the platform: it lowers the same
//! [`CompiledPlan`] a photonic session uses, but runs the lowered model
//! digitally in fp32 — no weight quantization to MR transmissions, no
//! analog noise — while every [`Backend::performance`] report carries the
//! electronic design's execution time and board power. This turns
//! photonic-vs-electronic agreement into a differential property (the
//! `backend_differential` test in `lightator-core`) instead of a
//! hand-checked table.
//!
//! The frame counter is maintained exactly like the photonic executor's —
//! one index per `forward`, one per frame batch, saturating at `u64::MAX`
//! — so seek/replay semantics are identical across backends even though
//! the digital path draws no noise.

use lightator_core::backend::{Backend, BackendId, LoweredPlan};
use lightator_core::plan::CompiledPlan;
use lightator_core::platform::{PlatformConfig, Workload};
use lightator_core::sim::SimulationReport;
use lightator_core::{CoreError, Result};
use lightator_nn::spec::NetworkSpec;
use lightator_nn::tensor::Tensor;
use lightator_photonics::units::Energy;

use crate::electronic::ElectronicBaseline;

/// Lowercases a design name into the id segment after the family prefix
/// (`"RTX 3060 Ti"` → `"rtx-3060-ti"`).
pub(crate) fn slug(name: &str) -> String {
    name.to_lowercase().replace(' ', "-")
}

/// An [`ElectronicBaseline`] as an executable [`Backend`].
///
/// Executes workloads digitally in fp32 through the shared
/// [`CompiledPlan`] lowering while charging the electronic design's
/// analytical latency/power model. Its [`BackendId`] is
/// `electronic:<design>` (`electronic:eyeriss`, `electronic:rtx-3060-ti`).
#[derive(Debug, Clone)]
pub struct ElectronicReference {
    baseline: ElectronicBaseline,
    id: BackendId,
}

impl ElectronicReference {
    /// Wraps an electronic baseline as a backend.
    #[must_use]
    pub fn new(baseline: ElectronicBaseline) -> Self {
        let id = BackendId::new(format!("electronic:{}", slug(baseline.name())));
        Self { baseline, id }
    }

    /// The underlying analytical model.
    #[must_use]
    pub fn baseline(&self) -> &ElectronicBaseline {
        &self.baseline
    }
}

impl Backend for ElectronicReference {
    fn id(&self) -> BackendId {
        self.id.clone()
    }

    fn name(&self) -> String {
        format!("{} (electronic fp32 reference)", self.baseline.name())
    }

    fn lower(
        &self,
        workload: &Workload,
        config: &PlatformConfig,
        seed: u64,
    ) -> Result<Box<dyn LoweredPlan>> {
        let plan = CompiledPlan::compile(workload, config, seed)?;
        Ok(Box::new(ElectronicLowered {
            plan,
            next_frame: 0,
        }))
    }

    fn performance(
        &self,
        network: &NetworkSpec,
        _config: &PlatformConfig,
    ) -> Result<SimulationReport> {
        let frame_latency = self.baseline.execution_time(network);
        let power = self.baseline.power();
        let frame_energy = Energy::from_pj(power.watts() * frame_latency.seconds() * 1e12);
        Ok(SimulationReport {
            network: network.name().to_string(),
            precision: "[32:32]".to_string(),
            layers: Vec::new(),
            frame_latency,
            max_power: power,
            average_power: power,
            frame_energy,
        })
    }
}

/// A workload lowered onto the electronic reference: the shared
/// [`CompiledPlan`] executed digitally in fp32.
///
/// The pre-encoded MR weight bank in the plan is carried but unused — the
/// digital path runs the lowered model's fp32 weights directly. Cache-hit
/// accounting mirrors the photonic executor so [`PlanStats`] reads the
/// same on every backend.
///
/// [`PlanStats`]: lightator_core::plan::PlanStats
#[derive(Debug, Clone)]
pub struct ElectronicLowered {
    plan: CompiledPlan,
    next_frame: u64,
}

impl ElectronicLowered {
    fn model_forward(plan: &mut CompiledPlan, input: &Tensor) -> Result<Tensor> {
        let model = plan.model_mut().ok_or_else(|| CoreError::ModelMismatch {
            reason: "this plan carries no lowered model to execute".to_string(),
        })?;
        Ok(model.forward(input)?)
    }
}

impl LoweredPlan for ElectronicLowered {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.next_frame = self.next_frame.saturating_add(1);
        self.plan.record_hits(1);
        Self::model_forward(&mut self.plan, input)
    }

    fn forward_frame_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.next_frame = self.next_frame.saturating_add(1);
        self.plan.record_hits(1);
        inputs
            .iter()
            .map(|input| Self::model_forward(&mut self.plan, input))
            .collect()
    }

    fn next_frame_index(&self) -> u64 {
        self.next_frame
    }

    fn set_next_frame_index(&mut self, index: u64) {
        self.next_frame = index;
    }

    fn plan(&self) -> &CompiledPlan {
        &self.plan
    }

    fn plan_mut(&mut self) -> &mut CompiledPlan {
        &mut self.plan
    }

    fn clone_box(&self) -> Box<dyn LoweredPlan> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_core::platform::{ImageKernel, Platform};

    #[test]
    fn ids_slug_the_design_name() {
        let gpu = ElectronicReference::new(ElectronicBaseline::gpu_rtx3060ti());
        assert_eq!(gpu.id().as_str(), "electronic:rtx-3060-ti");
        let eyeriss = ElectronicReference::new(ElectronicBaseline::eyeriss());
        assert_eq!(eyeriss.id().as_str(), "electronic:eyeriss");
    }

    #[test]
    fn performance_charges_the_electronic_model() {
        let backend = ElectronicReference::new(ElectronicBaseline::eyeriss());
        let platform = Platform::paper().expect("platform");
        let net = NetworkSpec::lenet();
        let report = backend
            .performance(&net, platform.config())
            .expect("report");
        let expected = ElectronicBaseline::eyeriss().execution_time(&net);
        assert_eq!(report.frame_latency.seconds(), expected.seconds());
        assert_eq!(report.max_power.watts(), 0.278);
        assert_eq!(report.precision, "[32:32]");
        let joules = report.frame_energy.joules();
        assert!((joules - 0.278 * expected.seconds()).abs() < 1e-12);
    }

    #[test]
    fn lowered_plans_execute_digitally_and_count_frames() {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let backend = ElectronicReference::new(ElectronicBaseline::envision());
        let workload = Workload::ImageKernel {
            kernel: ImageKernel::Sharpen,
        };
        let mut lowered = backend
            .lower(&workload, platform.config(), 7)
            .expect("lowered");
        let shape = lowered
            .plan()
            .model()
            .expect("model")
            .input_shape()
            .to_vec();
        let n: usize = shape.iter().product();
        let input = Tensor::from_vec((0..n).map(|i| i as f32 / n as f32).collect(), &shape)
            .expect("tensor");
        let out = lowered.forward(&input).expect("forward");
        assert_eq!(lowered.next_frame_index(), 1);
        assert_eq!(lowered.plan().stats().cache_hits, 1);
        assert_eq!(lowered.plan().stats().encodes, 1);

        // The digital path is exactly the lowered model's fp32 forward.
        let mut reference = lowered.plan().model().expect("model").clone();
        let expected = reference.forward(&input).expect("digital");
        assert_eq!(out.data(), expected.data());

        // A frame batch advances the counter like the photonic executor:
        // one index for the whole frame, however many inputs it carries.
        lowered
            .forward_frame_batch(&[input.clone(), input])
            .expect("frame batch");
        assert_eq!(lowered.next_frame_index(), 2);
    }
}
