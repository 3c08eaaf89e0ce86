//! Execution backends: pluggable lowering targets for [`CompiledPlan`]s.
//!
//! Lightator's headline numbers are *comparisons* — the photonic core
//! against electronic accelerators and other optical designs. This module
//! turns those comparison points into first-class execution targets: a
//! [`Backend`] lowers a [`Workload`] + [`PlatformConfig`] pair into a
//! [`LoweredPlan`] (the executable form a
//! [`Session`](crate::platform::Session) drives) and reports the
//! workload's performance model.
//!
//! Three implementations exist across the workspace:
//!
//! * [`PhotonicBackend`] (here) — the paper's optical near-sensor core,
//!   wrapping [`PhotonicExecutor`]. This is the **default** backend: a
//!   session opened without an explicit [`BackendId`] resolves to it and
//!   behaves bit-for-bit like the pre-trait `Session` (same plan, same
//!   frame-indexed analog-noise stream, same reports).
//! * `ElectronicReference` (in `lightator-baselines`) — executes the same
//!   compiled plans digitally in fp32 while charging the
//!   `ElectronicBaseline` latency/power model, so photonic-vs-electronic
//!   agreement is a differential property test instead of a hand-checked
//!   table.
//! * `RooflineBackend` (in `lightator-baselines`) — the `OpticalBaseline`
//!   analytical roofline models; it answers [`Backend::performance`], and
//!   its [`Backend::lower`] refuses every workload with a typed error.
//!
//! Backends are registered on a
//! [`PlatformBuilder`](crate::platform::PlatformBuilder) and resolved by
//! [`BackendId`] when a session opens
//! ([`Platform::session_on`](crate::platform::Platform::session_on)); the
//! serve crate routes request groups to shards by `(workload, backend)`
//! through the same registry.

use std::fmt;

use crate::error::Result;
use crate::exec::PhotonicExecutor;
use crate::plan::CompiledPlan;
use crate::platform::{PlatformConfig, Workload};
use crate::sim::{ArchitectureSimulator, SimulationReport};
use lightator_nn::quant::PrecisionSchedule;
use lightator_nn::spec::NetworkSpec;
use lightator_nn::tensor::Tensor;

/// Identifier of one execution backend (`"photonic"`,
/// `"electronic:eyeriss"`, `"roofline:lightbulb"`, ...).
///
/// Ids are plain lowercase strings, printed unchanged in group labels,
/// metrics and traces. The photonic default is always resolvable, even on
/// platforms that never registered a backend.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BackendId(String);

impl BackendId {
    /// The default photonic backend's id.
    #[must_use]
    pub fn photonic() -> Self {
        Self("photonic".to_string())
    }

    /// Builds an id from an arbitrary label.
    #[must_use]
    pub fn new(id: impl Into<String>) -> Self {
        Self(id.into())
    }

    /// The id as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether this is the default photonic backend.
    #[must_use]
    pub fn is_photonic(&self) -> bool {
        self.0 == "photonic"
    }
}

impl fmt::Display for BackendId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for BackendId {
    fn from(id: &str) -> Self {
        Self::new(id)
    }
}

/// A workload lowered onto one backend: the executable object a
/// [`Session`](crate::platform::Session) drives.
///
/// A lowered plan owns its [`CompiledPlan`] (CA operator, lowered model,
/// encoded weight bank, reuse counters) plus whatever per-backend execution
/// state it needs — the photonic implementation carries the frame-indexed
/// [`PhotonicExecutor`]. The `Session` keeps all workload-level logic
/// (shape checks, outcome construction, the stream gate); the lowered plan
/// only answers "run these tensors".
///
/// **Determinism contract.** `forward` consumes exactly one frame index;
/// `forward_frame_batch` runs every input inside a *single* frame's noise
/// stream (the video-stream tile path). Backends without analog noise
/// still maintain the frame counter so seek/replay semantics are identical
/// across backends.
pub trait LoweredPlan: fmt::Debug + Send + Sync {
    /// Runs one input through the lowered model as one frame.
    ///
    /// # Errors
    ///
    /// Propagates backend execution errors.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor>;

    /// Runs every input inside one frame's noise stream (the per-block
    /// stream tile path), consuming exactly one frame index.
    ///
    /// # Errors
    ///
    /// Propagates backend execution errors.
    fn forward_frame_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>>;

    /// Index of the global frame the next forward executes as.
    fn next_frame_index(&self) -> u64;

    /// Positions the lowered plan at global frame `index`.
    fn set_next_frame_index(&mut self, index: u64);

    /// The compiled plan this lowering executes.
    fn plan(&self) -> &CompiledPlan;

    /// Mutable access to the compiled plan (hit accounting, tile buffers).
    fn plan_mut(&mut self) -> &mut CompiledPlan;

    /// Clones the lowered plan behind the trait object (keeps `Session`
    /// cloneable).
    fn clone_box(&self) -> Box<dyn LoweredPlan>;
}

impl Clone for Box<dyn LoweredPlan> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// One execution target a platform can lower workloads onto.
///
/// A backend is stateless: [`Backend::lower`] produces a fresh
/// [`LoweredPlan`] per session, and [`Backend::performance`] produces the
/// per-frame latency/power/energy model a
/// [`Report`](crate::platform::Report) carries.
pub trait Backend: fmt::Debug + Send + Sync {
    /// Stable identifier used for registry lookup and serve routing.
    fn id(&self) -> BackendId;

    /// Human-readable backend name (`"Lightator photonic core"`, ...).
    fn name(&self) -> String;

    /// Lowers a workload into an executable plan.
    ///
    /// # Errors
    ///
    /// Propagates plan compilation errors; analytical backends reject
    /// lowering outright.
    fn lower(
        &self,
        workload: &Workload,
        config: &PlatformConfig,
        seed: u64,
    ) -> Result<Box<dyn LoweredPlan>>;

    /// Per-frame performance model of a network on this backend.
    ///
    /// # Errors
    ///
    /// Propagates mapping/simulation errors.
    fn performance(
        &self,
        network: &NetworkSpec,
        config: &PlatformConfig,
    ) -> Result<SimulationReport>;
}

/// The paper's optical near-sensor core as a [`Backend`].
///
/// The zero-argument [`PhotonicBackend::new`] is the **default** backend:
/// it lowers with the platform's own precision schedule, so sessions
/// opened through it are bit-identical to the pre-trait execution path.
/// [`PhotonicBackend::with_schedule`] builds named variants that override
/// the schedule (the bench registry uses this for the Table-1 Lightator
/// precision sweep).
#[derive(Debug, Clone)]
pub struct PhotonicBackend {
    id: BackendId,
    name: String,
    schedule: Option<PrecisionSchedule>,
}

impl PhotonicBackend {
    /// The default photonic backend: platform schedule, id `"photonic"`.
    #[must_use]
    pub fn new() -> Self {
        Self {
            id: BackendId::photonic(),
            name: "Lightator photonic core".to_string(),
            schedule: None,
        }
    }

    /// A named photonic variant pinned to an explicit precision schedule.
    #[must_use]
    pub fn with_schedule(
        id: impl Into<String>,
        name: impl Into<String>,
        schedule: PrecisionSchedule,
    ) -> Self {
        Self {
            id: BackendId::new(id),
            name: name.into(),
            schedule: Some(schedule),
        }
    }

    /// The platform configuration this backend actually executes under:
    /// the input configuration with the schedule override applied.
    fn effective<'c>(&self, config: &'c PlatformConfig) -> std::borrow::Cow<'c, PlatformConfig> {
        match self.schedule {
            None => std::borrow::Cow::Borrowed(config),
            Some(schedule) if schedule == config.schedule => std::borrow::Cow::Borrowed(config),
            Some(schedule) => {
                let mut overridden = config.clone();
                overridden.schedule = schedule;
                std::borrow::Cow::Owned(overridden)
            }
        }
    }
}

impl Default for PhotonicBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl Backend for PhotonicBackend {
    fn id(&self) -> BackendId {
        self.id.clone()
    }

    fn name(&self) -> String {
        self.name.clone()
    }

    fn lower(
        &self,
        workload: &Workload,
        config: &PlatformConfig,
        seed: u64,
    ) -> Result<Box<dyn LoweredPlan>> {
        let config = self.effective(config);
        let mut executor = PhotonicExecutor::new(config.schedule, config.hardware.noise, seed)?;
        executor.set_workers(config.workers);
        let plan = CompiledPlan::compile(workload, &config, seed)?;
        Ok(Box::new(PhotonicLowered { executor, plan }))
    }

    fn performance(
        &self,
        network: &NetworkSpec,
        config: &PlatformConfig,
    ) -> Result<SimulationReport> {
        let config = self.effective(config);
        ArchitectureSimulator::new(config.hardware.clone())?.simulate(network, config.schedule)
    }
}

/// A workload lowered onto the photonic core: the frame-indexed
/// [`PhotonicExecutor`] plus the session's [`CompiledPlan`].
#[derive(Debug, Clone)]
pub struct PhotonicLowered {
    executor: PhotonicExecutor,
    plan: CompiledPlan,
}

impl LoweredPlan for PhotonicLowered {
    fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        self.executor.forward(&mut self.plan, input)
    }

    fn forward_frame_batch(&mut self, inputs: &[Tensor]) -> Result<Vec<Tensor>> {
        self.executor.forward_frame_batch(&mut self.plan, inputs)
    }

    fn next_frame_index(&self) -> u64 {
        self.executor.next_frame_index()
    }

    fn set_next_frame_index(&mut self, index: u64) {
        self.executor.set_next_frame_index(index);
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
    use crate::platform::Platform;
    use lightator_nn::quant::Precision;

    #[test]
    fn backend_ids_compare_and_display() {
        assert!(BackendId::photonic().is_photonic());
        assert!(!BackendId::new("electronic:eyeriss").is_photonic());
        assert_eq!(BackendId::photonic().to_string(), "photonic");
        assert_eq!(BackendId::from("x"), BackendId::new("x"));
    }

    #[test]
    fn default_photonic_backend_reports_the_platform_schedule() {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let backend = PhotonicBackend::new();
        assert_eq!(backend.id(), BackendId::photonic());
        let lowered = backend
            .lower(&Workload::Acquire, platform.config(), 1)
            .expect("lowered");
        assert_eq!(lowered.plan().schedule().label(), "[4:4]");
    }

    #[test]
    fn schedule_variants_override_the_platform_precision() {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let variant = PhotonicBackend::with_schedule(
            "photonic:w2a4",
            "Lightator [2:4]",
            PrecisionSchedule::Uniform(Precision::w2a4()),
        );
        let lowered = variant
            .lower(&Workload::Acquire, platform.config(), 1)
            .expect("lowered");
        assert_eq!(lowered.plan().schedule().label(), "[2:4]");
        let spec = NetworkSpec::lenet();
        let low = variant
            .performance(&spec, platform.config())
            .expect("simulated");
        let full = PhotonicBackend::new()
            .performance(&spec, platform.config())
            .expect("simulated");
        assert!(low.max_power.watts() < full.max_power.watts());
    }

    #[test]
    fn default_backend_performance_matches_the_platform_simulator() {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        let spec = NetworkSpec::lenet();
        let via_backend = PhotonicBackend::new()
            .performance(&spec, platform.config())
            .expect("ok");
        let via_platform = platform.simulate(&spec).expect("ok");
        assert_eq!(via_backend, via_platform);
    }
}
