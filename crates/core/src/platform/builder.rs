//! Platform configuration and construction: [`PlatformConfig`], the fluent
//! [`PlatformBuilder`] and the validated [`Platform`] front door.
//!
//! A [`Platform`] is immutable once built: [`PlatformBuilder::build`]
//! validates the whole configuration exactly once (geometry, noise,
//! workers, sensor, CA divisibility) so that opening sessions and compiling
//! plans can assume a consistent device. The builder starts from the
//! paper's platform and has a chainable setter for every setting a caller
//! varies.

use crate::backend::{Backend, BackendId, PhotonicBackend};
use crate::ca::CaConfig;
use crate::config::{LightatorConfig, OcGeometry};
use crate::error::{CoreError, Result};
use crate::exec::{check_schedule, MAX_WORKERS};
use crate::platform::session::Session;
use crate::platform::workload::Workload;
use crate::sim::{ArchitectureSimulator, SimulationReport};
use lightator_nn::quant::{Precision, PrecisionSchedule};
use lightator_nn::spec::NetworkSpec;
use lightator_photonics::noise::NoiseConfig;
use lightator_photonics::PhotonicsError;
use lightator_sensor::array::SensorArrayConfig;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Largest sensor extent per axis, in photosites. The paper's sensor is
/// 256×256; the bound keeps every per-frame shape product exact.
pub const MAX_SENSOR_AXIS: usize = 4096;

/// Complete description of one Lightator platform: hardware, sensor,
/// acquisition mode, precision schedule and the analog noise seed.
///
/// Build values through [`PlatformBuilder`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformConfig {
    /// Optical-core geometry and analog noise.
    pub hardware: LightatorConfig,
    /// The ADC-less sensor design in front of the optical core.
    pub sensor: SensorArrayConfig,
    /// Compressive-acquisition configuration (`None` bypasses the CA banks).
    pub ca: Option<CaConfig>,
    /// Precision schedule applied to every weighted layer.
    pub schedule: PrecisionSchedule,
    /// Seed of the analog-noise stream (deterministic runs for a fixed seed).
    pub seed: u64,
    /// Worker threads each session tiles its MAC loops across
    /// (1 = sequential, at most [`MAX_WORKERS`]). Tiling is bit-exact for
    /// any worker count — noise draws are keyed by
    /// `(seed, frame, channel, element)`, not by evaluation order — so this
    /// knob trades wall-clock time only.
    pub workers: usize,
}

impl PlatformConfig {
    /// Shape of the tensor the acquisition path feeds to the first DNN
    /// layer (`[1, h, w]`): the CA-compressed map when CA is enabled, the
    /// raw photosite grid otherwise.
    #[must_use]
    pub fn acquired_shape(&self) -> [usize; 3] {
        match &self.ca {
            Some(ca) => [
                1,
                self.sensor.height / ca.pooling_window,
                self.sensor.width / ca.pooling_window,
            ],
            None => [1, self.sensor.height, self.sensor.width],
        }
    }
}

/// Fluent builder for a [`Platform`].
///
/// All setters are chainable; [`PlatformBuilder::build`] validates the whole
/// configuration once and returns rich [`CoreError::InvalidConfig`] errors
/// naming the violated constraint.
#[derive(Debug, Clone)]
pub struct PlatformBuilder {
    config: PlatformConfig,
    backends: Vec<Arc<dyn Backend>>,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::paper()
    }
}

impl PlatformBuilder {
    /// The paper's platform: 96×6×9 optical core, 256×256 sensor, 2×2 CA,
    /// uniform `[4:4]` precision, default analog noise.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            config: PlatformConfig {
                hardware: LightatorConfig::paper(),
                sensor: SensorArrayConfig::paper_default(),
                ca: Some(CaConfig::default()),
                schedule: PrecisionSchedule::Uniform(Precision::w4a4()),
                seed: 7,
                workers: crate::exec::default_workers(),
            },
            backends: Vec::new(),
        }
    }

    /// Sets the optical-core geometry.
    #[must_use]
    pub fn geometry(mut self, geometry: OcGeometry) -> Self {
        self.config.hardware.geometry = geometry;
        self
    }

    /// Sets the analog noise / non-ideality configuration.
    #[must_use]
    pub fn noise(mut self, noise: NoiseConfig) -> Self {
        self.config.hardware.noise = noise;
        self
    }

    /// Sets the precision schedule applied to weighted layers.
    #[must_use]
    pub fn precision(mut self, schedule: PrecisionSchedule) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Enables compressive acquisition with the given configuration.
    #[must_use]
    pub fn compressive_acquisition(mut self, ca: CaConfig) -> Self {
        self.config.ca = Some(ca);
        self
    }

    /// Disables compressive acquisition (full-resolution raw readout).
    #[must_use]
    pub fn without_compressive_acquisition(mut self) -> Self {
        self.config.ca = None;
        self
    }

    /// Sets the sensor resolution (photosites); the pixel and comparator
    /// designs are the paper's.
    #[must_use]
    pub fn sensor_resolution(mut self, height: usize, width: usize) -> Self {
        self.config.sensor.height = height;
        self.config.sensor.width = width;
        self
    }

    /// Sets the analog-noise seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the number of worker threads each session tiles its MAC loops
    /// across (1 = sequential, the default unless the
    /// `LIGHTATOR_DEFAULT_WORKERS` environment variable overrides it; at
    /// most [`MAX_WORKERS`]). Tiling is bit-exact for any worker count, so
    /// this knob trades wall-clock time only, never results.
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Registers an execution backend, making its [`BackendId`] resolvable
    /// through [`Platform::backend`] / [`Platform::session_on`].
    ///
    /// The photonic default is always resolvable and never needs
    /// registration. Registering a backend whose id matches an earlier
    /// registration (or `"photonic"`) overrides the earlier resolution.
    #[must_use]
    pub fn register_backend(mut self, backend: Arc<dyn Backend>) -> Self {
        self.backends.push(backend);
        self
    }

    /// Validates the configuration once and builds the platform.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] describing the violated
    /// constraint: an invalid optical-core geometry (see
    /// [`OcGeometry::validate`]), a negative or non-finite noise sigma, a
    /// worker count of zero or above [`MAX_WORKERS`], a sensor axis of zero
    /// or above [`MAX_SENSOR_AXIS`] photosites, a CA window that does not
    /// divide the sensor resolution, a degenerate CA configuration, or a
    /// schedule with a weight width outside 2–8 bits or an activation width
    /// outside 1–8 bits on some layer.
    pub fn build(self) -> Result<Platform> {
        let Self { config, backends } = self;
        config.hardware.validate()?;
        config.hardware.noise.validate().map_err(|err| match err {
            PhotonicsError::InvalidParameter { name, value } => CoreError::invalid_config(
                name,
                value,
                format!(
                    "noise sigmas are RMS magnitudes and must be finite and \
                         non-negative; use NoiseConfig::scaled with a non-negative \
                         factor (negative factors are clamped to zero) or zero the \
                         `{name}` channel explicitly to ablate it"
                ),
            ),
            other => CoreError::Photonics(other),
        })?;
        check_schedule(config.schedule)?;
        if !(1..=MAX_WORKERS).contains(&config.workers) {
            return Err(CoreError::invalid_config(
                "workers",
                config.workers as f64,
                format!(
                    "sessions need between 1 and {MAX_WORKERS} execution workers \
                     (1 = sequential; larger counts tile the MAC loops \
                     bit-exactly, one scoped thread each)"
                ),
            ));
        }
        let (height, width) = (config.sensor.height, config.sensor.width);
        if !(1..=MAX_SENSOR_AXIS).contains(&height) || !(1..=MAX_SENSOR_AXIS).contains(&width) {
            return Err(CoreError::invalid_config(
                "sensor_resolution",
                height as f64 * width as f64,
                format!(
                    "the sensor needs between 1 and {MAX_SENSOR_AXIS} photosites \
                     per axis (got {height}x{width})"
                ),
            ));
        }
        if let Some(ca) = &config.ca {
            ca.validate()?;
            if !config.sensor.height.is_multiple_of(ca.pooling_window)
                || !config.sensor.width.is_multiple_of(ca.pooling_window)
            {
                return Err(CoreError::invalid_config(
                    "pooling_window",
                    ca.pooling_window as f64,
                    format!(
                        "the CA pooling window must divide the sensor resolution \
                         ({}x{} is not divisible by {})",
                        config.sensor.height, config.sensor.width, ca.pooling_window
                    ),
                ));
            }
        }
        let simulator = ArchitectureSimulator::new(config.hardware.clone())?;
        Ok(Platform {
            config,
            simulator,
            backends,
        })
    }
}

/// A validated Lightator platform: the single entry point for opening
/// workload [`Session`]s and for architecture-level what-if simulation.
#[derive(Debug, Clone)]
pub struct Platform {
    config: PlatformConfig,
    simulator: ArchitectureSimulator,
    /// Registered execution backends (the photonic default is implicit).
    backends: Vec<Arc<dyn Backend>>,
}

impl Platform {
    /// Starts a fluent builder seeded with the paper's configuration.
    #[must_use]
    pub fn builder() -> PlatformBuilder {
        PlatformBuilder::paper()
    }

    /// The paper's platform, built directly.
    ///
    /// # Errors
    ///
    /// Never fails for the built-in defaults; the `Result` mirrors
    /// [`PlatformBuilder::build`].
    pub fn paper() -> Result<Self> {
        PlatformBuilder::paper().build()
    }

    /// The validated configuration.
    #[must_use]
    pub fn config(&self) -> &PlatformConfig {
        &self.config
    }

    /// The architecture simulator bound to this platform's hardware.
    #[must_use]
    pub fn simulator(&self) -> &ArchitectureSimulator {
        &self.simulator
    }

    /// Simulates a network spec under the platform's precision schedule.
    ///
    /// # Errors
    ///
    /// Propagates mapping/simulation errors.
    pub fn simulate(&self, network: &NetworkSpec) -> Result<SimulationReport> {
        self.simulator.simulate(network, self.config.schedule)
    }

    /// Simulates a network spec under an explicit precision schedule (for
    /// precision sweeps that keep the rest of the platform fixed).
    ///
    /// # Errors
    ///
    /// Propagates mapping/simulation errors.
    pub fn simulate_with(
        &self,
        network: &NetworkSpec,
        schedule: PrecisionSchedule,
    ) -> Result<SimulationReport> {
        self.simulator.simulate(network, schedule)
    }

    /// Shape of the tensor the acquisition path feeds to the first DNN layer
    /// (`[1, h, w]`): the CA-compressed map when CA is enabled, the raw
    /// photosite grid otherwise.
    #[must_use]
    pub fn acquired_shape(&self) -> [usize; 3] {
        self.config.acquired_shape()
    }

    /// Opens a session running `workload` on this platform.
    ///
    /// The session owns the full sensor → CA → optical-core state, the
    /// workload's **compiled plan** (pre-encoded MR weight bank, reused by
    /// every later execution) and a workload-specific performance model, so
    /// every [`Session::run`] yields a complete
    /// [`Report`](crate::platform::Report).
    ///
    /// # Errors
    ///
    /// Propagates sensor/CA/executor/plan construction errors and
    /// mapping/simulation errors for the workload's performance spec, and
    /// rejects a classify model whose layers do not chain or whose output
    /// shape is empty.
    pub fn session(&self, workload: Workload) -> Result<Session> {
        Session::open(self, workload, &BackendId::photonic())
    }

    /// Opens a session like [`Platform::session`], but lowered onto the
    /// backend registered under `backend` instead of the photonic default.
    ///
    /// # Errors
    ///
    /// Same as [`Platform::session`], plus an error when the backend id is
    /// unknown or names an analytical backend that cannot execute.
    pub fn session_on(&self, workload: Workload, backend: &BackendId) -> Result<Session> {
        Session::open(self, workload, backend)
    }

    /// Resolves a registered backend by id.
    ///
    /// The photonic default resolves even on platforms that registered
    /// nothing; registered backends take precedence over the implicit
    /// default when ids collide.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown id, listing the
    /// resolvable ids.
    pub fn backend(&self, id: &BackendId) -> Result<Arc<dyn Backend>> {
        if let Some(backend) = self.backends.iter().find(|b| &b.id() == id) {
            return Ok(Arc::clone(backend));
        }
        if id.is_photonic() {
            return Ok(Arc::new(PhotonicBackend::new()));
        }
        let mut known: Vec<String> = self.backends.iter().map(|b| b.id().to_string()).collect();
        known.insert(0, BackendId::photonic().to_string());
        Err(CoreError::ModelMismatch {
            reason: format!(
                "no backend registered under `{id}` on this platform \
                 (resolvable: {})",
                known.join(", ")
            ),
        })
    }

    /// Ids of every backend this platform resolves: the implicit photonic
    /// default followed by the registered backends, in registration order.
    #[must_use]
    pub fn backend_ids(&self) -> Vec<BackendId> {
        let mut ids = vec![BackendId::photonic()];
        for backend in &self.backends {
            let id = backend.id();
            if !ids.contains(&id) {
                ids.push(id);
            }
        }
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::{ImageKernel, Workload};

    #[test]
    fn builder_rejects_indivisible_ca_window() {
        let err = Platform::builder()
            .sensor_resolution(10, 10)
            .compressive_acquisition(CaConfig {
                pooling_window: 4,
                rgb_to_grayscale: true,
            })
            .build()
            .expect_err("10 is not divisible by 4");
        assert!(err.to_string().contains("divide the sensor resolution"));
    }

    #[test]
    fn builder_rejects_zero_sensor() {
        assert!(Platform::builder().sensor_resolution(0, 8).build().is_err());
    }

    #[test]
    fn builder_rejects_negative_noise_sigmas() {
        // Regression: `NoiseConfig::scaled(-1.0)` used to produce negative
        // sigmas that the sampler silently treated as sign-flipped noise.
        let err = Platform::builder()
            .noise(NoiseConfig {
                weight_sigma: -0.004,
                ..NoiseConfig::default()
            })
            .build()
            .expect_err("negative sigma must be rejected");
        let message = err.to_string();
        assert!(message.contains("weight_sigma"), "{message}");
        assert!(message.contains("non-negative"), "{message}");
        assert!(Platform::builder()
            .noise(NoiseConfig {
                vcsel_relative_sigma: f64::NAN,
                ..NoiseConfig::default()
            })
            .build()
            .is_err());
        assert!(Platform::builder()
            .noise(NoiseConfig {
                detector_relative_sigma: -1.0,
                ..NoiseConfig::default()
            })
            .build()
            .is_err());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            for (field, noise) in [
                (
                    "vcsel_relative_sigma",
                    NoiseConfig {
                        vcsel_relative_sigma: bad,
                        ..NoiseConfig::default()
                    },
                ),
                (
                    "detector_relative_sigma",
                    NoiseConfig {
                        detector_relative_sigma: bad,
                        ..NoiseConfig::default()
                    },
                ),
                (
                    "weight_sigma",
                    NoiseConfig {
                        weight_sigma: bad,
                        ..NoiseConfig::default()
                    },
                ),
            ] {
                let err = Platform::builder()
                    .noise(noise)
                    .build()
                    .expect_err("invalid sigma must be rejected");
                assert!(
                    matches!(err, CoreError::InvalidConfig { name, .. } if name == field),
                    "{field} = {bad}: {err}"
                );
            }
        }
        // ... and the documented clamp keeps `scaled` safe to pass through.
        assert!(Platform::builder()
            .noise(NoiseConfig::default().scaled(-1.0))
            .build()
            .is_ok());
    }

    #[test]
    fn builder_rejects_zero_workers_and_accepts_many() {
        let err = Platform::builder()
            .workers(0)
            .build()
            .expect_err("zero workers must be rejected");
        assert!(err.to_string().contains("workers"));
        let platform = Platform::builder().workers(8).build().expect("ok");
        assert_eq!(platform.config().workers, 8);
    }

    #[test]
    fn builder_rejects_worker_counts_above_the_bound() {
        // Each worker is a scoped thread per layer, so an unbounded count
        // used to build and then panic on the first frame. No frame runs
        // here: the build alone must fail.
        for workers in [MAX_WORKERS + 1, 4097, usize::MAX] {
            let err = Platform::builder()
                .workers(workers)
                .build()
                .expect_err("workers above the bound must be rejected");
            assert!(
                matches!(
                    err,
                    CoreError::InvalidConfig {
                        name: "workers",
                        ..
                    }
                ),
                "{workers} workers: {err}"
            );
        }
        let platform = Platform::builder()
            .workers(MAX_WORKERS)
            .build()
            .expect("the bound itself builds");
        assert_eq!(platform.config().workers, MAX_WORKERS);
    }

    /// Each case used to panic on overflow while building or opening a
    /// session.
    #[test]
    fn extreme_platform_inputs_fail_the_build_with_typed_errors() {
        let paper = OcGeometry::paper();
        for (case, builder) in [
            (
                "bank_columns = usize::MAX, bank_rows = 2",
                Platform::builder().geometry(OcGeometry {
                    bank_columns: usize::MAX,
                    bank_rows: 2,
                    ..paper
                }),
            ),
            (
                "mrs_per_arm = usize::MAX",
                Platform::builder().geometry(OcGeometry {
                    mrs_per_arm: usize::MAX,
                    ..paper
                }),
            ),
            (
                "arms_per_bank = usize::MAX",
                Platform::builder().geometry(OcGeometry {
                    arms_per_bank: usize::MAX,
                    ..paper
                }),
            ),
            (
                "sensor 2^32 x 2^32",
                Platform::builder().sensor_resolution(1 << 32, 1 << 32),
            ),
        ] {
            assert!(
                matches!(builder.build(), Err(CoreError::InvalidConfig { .. })),
                "`{case}` must fail the build with InvalidConfig"
            );
        }
    }

    /// Values tried against every numeric setting: small counts, one past
    /// each bound, `2^32`, `u64::MAX` and one beyond it, a negative, NaN,
    /// infinities and the float extremes. A setting takes the values its
    /// type holds.
    const EXTREMES: [&str; 15] = [
        "0",
        "1",
        "3",
        "4097",
        "16385",
        "1048577",
        "4294967296",
        "18446744073709551615",
        "18446744073709551616",
        "-1",
        "NaN",
        "inf",
        "-inf",
        "1e308",
        "1e-308",
    ];

    /// How a sweep row writes its value into the configuration.
    enum Set {
        Count(fn(&mut PlatformConfig, usize)),
        Real(fn(&mut PlatformConfig, f64)),
    }

    /// Every numeric setting of [`PlatformConfig`]. A CA window set on a
    /// platform without CA stays unused.
    const NUMERIC_SETTINGS: [(&str, Set); 12] = [
        (
            "geometry.mrs_per_arm",
            Set::Count(|c, v| c.hardware.geometry.mrs_per_arm = v),
        ),
        (
            "geometry.arms_per_bank",
            Set::Count(|c, v| c.hardware.geometry.arms_per_bank = v),
        ),
        (
            "geometry.bank_columns",
            Set::Count(|c, v| c.hardware.geometry.bank_columns = v),
        ),
        (
            "geometry.bank_rows",
            Set::Count(|c, v| c.hardware.geometry.bank_rows = v),
        ),
        (
            "geometry.ca_banks",
            Set::Count(|c, v| c.hardware.geometry.ca_banks = v),
        ),
        ("sensor.height", Set::Count(|c, v| c.sensor.height = v)),
        ("sensor.width", Set::Count(|c, v| c.sensor.width = v)),
        (
            "ca.pooling_window",
            Set::Count(|c, v| {
                if let Some(ca) = &mut c.ca {
                    ca.pooling_window = v;
                }
            }),
        ),
        (
            "noise.vcsel_relative_sigma",
            Set::Real(|c, v| c.hardware.noise.vcsel_relative_sigma = v),
        ),
        (
            "noise.detector_relative_sigma",
            Set::Real(|c, v| c.hardware.noise.detector_relative_sigma = v),
        ),
        (
            "noise.weight_sigma",
            Set::Real(|c, v| c.hardware.noise.weight_sigma = v),
        ),
        ("workers", Set::Count(|c, v| c.workers = v)),
    ];

    /// Every numeric setting takes every extreme value on four base
    /// platforms. Each platform builds or fails with `InvalidConfig`, and a
    /// platform that builds opens its sessions without a panic. No frame
    /// runs, so no extreme worker count ever starts a thread.
    #[test]
    fn every_setting_takes_extreme_values_without_a_panic() {
        let bases = [
            Platform::builder(),
            Platform::builder().without_compressive_acquisition(),
            Platform::builder().sensor_resolution(4096, 4096),
            Platform::builder().geometry(OcGeometry {
                bank_columns: 4096,
                bank_rows: 4096,
                arms_per_bank: 1,
                mrs_per_arm: 1,
                ..OcGeometry::paper()
            }),
        ];
        for base in &bases {
            for (name, set) in NUMERIC_SETTINGS {
                for value in EXTREMES {
                    let mut builder = base.clone();
                    match set {
                        Set::Count(set) => match value.parse() {
                            Ok(value) => set(&mut builder.config, value),
                            Err(_) => continue,
                        },
                        Set::Real(set) => match value.parse() {
                            Ok(value) => set(&mut builder.config, value),
                            Err(_) => continue,
                        },
                    }
                    let platform = match builder.build() {
                        Ok(platform) => platform,
                        Err(CoreError::InvalidConfig { .. }) => continue,
                        Err(err) => {
                            panic!("{name} = {value}: failed with {err:?}, not InvalidConfig")
                        }
                    };
                    let _ = platform.session(Workload::Acquire);
                    let _ = platform.session(Workload::ImageKernel {
                        kernel: ImageKernel::SobelX,
                    });
                }
            }
        }
    }

    /// Regression: a 1-bit weight precision built, then every frame failed
    /// with a NaN weight (`quantize_symmetric` divides by `q_max = 0`).
    #[test]
    fn builder_rejects_one_bit_weight_precisions() {
        use lightator_sensor::frame::RgbFrame;
        let one_bit: Precision = "[1:4]".parse().expect("a valid label");
        for schedule in [
            PrecisionSchedule::Uniform(one_bit),
            PrecisionSchedule::Mixed {
                first: one_bit,
                rest: Precision::w4a4(),
            },
            PrecisionSchedule::Mixed {
                first: Precision::w4a4(),
                rest: one_bit,
            },
        ] {
            let err = Platform::builder()
                .precision(schedule)
                .build()
                .expect_err("1-bit weights must be rejected");
            assert!(
                matches!(
                    err,
                    CoreError::InvalidConfig {
                        name: "weight_bits",
                        ..
                    }
                ),
                "{}: {err}",
                schedule.label()
            );
        }
        // Two bits still build and run.
        let mut session = Platform::builder()
            .sensor_resolution(16, 16)
            .precision(PrecisionSchedule::Uniform(Precision::w2a4()))
            .build()
            .expect("[2:4] builds")
            .session(Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            })
            .expect("session");
        let scene = RgbFrame::filled(16, 16, [0.4, 0.6, 0.2]).expect("scene");
        assert!(session.run(&scene).is_ok());
    }

    /// Every weight and activation width 0..=255, in a uniform schedule
    /// and in either half of a mixed one, goes through `build` and
    /// `Session::open`. A width the datapath holds (2–8 weight bits, 1–8
    /// activation bits) builds and runs a frame of a one-layer kernel and
    /// of a two-layer classifier, so a mixed schedule's `rest` runs too;
    /// any other fails the build with `InvalidConfig` naming the width, as
    /// does lowering it through a schedule-pinned backend. Nothing panics.
    #[test]
    fn every_precision_width_builds_and_runs_or_fails_with_invalid_config() {
        use lightator_nn::layers::{Flatten, Linear};
        use lightator_nn::model::Sequential;
        use lightator_sensor::frame::RgbFrame;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let scene = RgbFrame::filled(16, 16, [0.4, 0.6, 0.2]).expect("scene");
        let mut rng = SmallRng::seed_from_u64(3);
        let mut classifier = Sequential::new(&[1, 8, 8]);
        classifier.push(Flatten::new());
        classifier.push(Linear::new(64, 4, &mut rng).expect("linear"));
        classifier.push(Linear::new(4, 2, &mut rng).expect("head"));
        let workloads = [
            Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            },
            Workload::Classify { model: classifier },
        ];
        let paper = Precision::w4a4();
        let at = |weight_bits, activation_bits| Precision {
            weight_bits,
            activation_bits,
        };
        for bits in 0..=255u8 {
            for (name, width) in [
                ("weight_bits", at(bits, 4)),
                ("activation_bits", at(4, bits)),
            ] {
                // `Precision::new`'s range, with the 2 bits a signed weight needs.
                let holds = Precision::new(width.weight_bits, width.activation_bits).is_ok()
                    && width.weight_bits >= 2;
                for schedule in [
                    PrecisionSchedule::Uniform(width),
                    PrecisionSchedule::Mixed {
                        first: width,
                        rest: paper,
                    },
                    PrecisionSchedule::Mixed {
                        first: paper,
                        rest: width,
                    },
                ] {
                    let label = schedule.label();
                    match Platform::builder()
                        .sensor_resolution(16, 16)
                        .precision(schedule)
                        .build()
                    {
                        Ok(platform) => {
                            assert!(holds, "{label} built");
                            for workload in &workloads {
                                let mut session =
                                    platform.session(workload.clone()).expect("session opens");
                                session.run(&scene).expect("a frame runs");
                            }
                        }
                        Err(CoreError::InvalidConfig { name: got, .. }) => {
                            assert!(!holds, "{label} was rejected");
                            assert_eq!(got, name, "{label}");
                            let pinned = Platform::builder()
                                .sensor_resolution(16, 16)
                                .register_backend(Arc::new(PhotonicBackend::with_schedule(
                                    "photonic:pinned",
                                    "pinned",
                                    schedule,
                                )))
                                .build()
                                .expect("the platform's own schedule is valid");
                            let err = pinned
                                .session_on(
                                    workloads[0].clone(),
                                    &BackendId::new("photonic:pinned"),
                                )
                                .expect_err("the pinned schedule must not lower");
                            assert!(
                                matches!(err, CoreError::InvalidConfig { name: got, .. } if got == name),
                                "{label}: {err:?}"
                            );
                        }
                        Err(err) => panic!("{label}: failed with {err:?}, not InvalidConfig"),
                    }
                }
            }
        }
    }

    #[test]
    fn config_and_platform_agree_on_the_acquired_shape() {
        let with_ca = Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform");
        assert_eq!(with_ca.config().acquired_shape(), [1, 8, 8]);
        assert_eq!(with_ca.acquired_shape(), with_ca.config().acquired_shape());
        let without = Platform::builder()
            .sensor_resolution(16, 16)
            .without_compressive_acquisition()
            .build()
            .expect("platform");
        assert_eq!(without.acquired_shape(), [1, 16, 16]);
    }

    #[test]
    fn platform_simulates_specs_directly() {
        let platform = Platform::paper().expect("paper");
        let report = platform.simulate(&NetworkSpec::lenet()).expect("ok");
        assert!(report.kfps_per_watt() > 0.0);
        let lower = platform
            .simulate_with(
                &NetworkSpec::lenet(),
                PrecisionSchedule::Uniform(Precision::w2a4()),
            )
            .expect("ok");
        assert!(lower.max_power.watts() < report.max_power.watts());
    }
}
