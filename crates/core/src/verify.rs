//! Static plan verification: prove a [`CompiledPlan`] and a [`Backend`]
//! agree *before* any frame executes.
//!
//! Lowering a workload produces a plan; running it trusts that the plan's
//! label, precision schedule, model shapes and weight encodings all match
//! what the backend will actually execute. This module checks that
//! agreement statically:
//!
//! * [`verify_plan_structural`] — the pure plan/backend contract: the
//!   backend executes and supports the workload, the plan was lowered from
//!   *this* workload, the weight bank was encoded under the precision the
//!   backend runs at, every weighted layer carries an encoding, and shape
//!   propagation through the lowered model succeeds and lands on the
//!   workload's expected input/output shapes.
//! * [`verify_plan`] — everything structural **plus** energy-model
//!   presence: the backend can produce a [`SimulationReport`] for the
//!   workload's performance spec (latency, power, KFPS/W), so a report
//!   built from this pair is never missing its figures of merit.
//! * [`capability_matrix`] — the `supports()`/`executes()`/verified view
//!   of every backend a [`Platform`] resolves against a workload list.
//!
//! [`Session::open`](crate::platform::Session) runs the structural pass on
//! every lowering, and `lightator-analysis` re-exports the whole module as
//! its semantic layer; the serve crate dry-runs entire `ServeConfig`s
//! through it at build time.
//!
//! [`SimulationReport`]: crate::sim::SimulationReport

use crate::backend::{Backend, BackendId};
use crate::error::{CoreError, Result};
use crate::plan::CompiledPlan;
use crate::platform::{Platform, PlatformConfig, Workload};
use lightator_nn::quant::PrecisionSchedule;
use lightator_nn::spec::{NetworkSpec, NetworkSpecBuilder};

/// Successful outcome of a plan verification: which backend/workload pair
/// passed and the names of the individual checks that ran.
///
/// The check names are stable strings (`"backend-executes"`,
/// `"schedule-consistent"`, ...) so diagnostics and tests can assert which
/// layers of the contract were exercised.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCheck {
    /// The backend the plan was verified against.
    pub backend: BackendId,
    /// Label of the verified workload (`"classify"`, `"kernel:sobel-x"`, ...).
    pub workload: String,
    /// Names of the checks that ran and passed, in execution order.
    pub checks: Vec<&'static str>,
}

/// One row of the [`capability_matrix`]: what a backend claims about a
/// workload and whether a lowered plan actually verifies against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capability {
    /// The backend this row describes.
    pub backend: BackendId,
    /// Whether the backend executes plans at all (`false` for rooflines).
    pub executes: bool,
    /// Label of the workload this row describes.
    pub workload: String,
    /// The backend's own [`Backend::supports`] answer.
    pub supported: bool,
    /// Whether compiling and structurally verifying a plan succeeds
    /// end to end (always `false` when `executes` or `supported` is).
    pub verified: bool,
}

fn mismatch(reason: String) -> CoreError {
    CoreError::ModelMismatch { reason }
}

/// Structurally verifies `plan` against `backend` for `workload`:
/// capability, identity, precision-schedule, encoding and shape checks,
/// without running the backend's performance model.
///
/// This is the pass `Session::open` runs on every lowering — cheap enough
/// for the hot path, strict enough that a plan/backend mismatch can never
/// reach execution.
///
/// # Errors
///
/// Returns [`CoreError::ModelMismatch`] naming the first violated check:
/// a non-executing (analytical) backend, an unsupported workload, a plan
/// lowered from a different workload, a weight bank encoded under a
/// schedule the backend does not run at, a weighted layer without its
/// encoding, or a lowered model whose shapes do not propagate to the
/// workload's expected input/output.
pub fn verify_plan_structural(
    plan: &CompiledPlan,
    workload: &Workload,
    config: &PlatformConfig,
    backend: &dyn Backend,
) -> Result<PlanCheck> {
    let mut checks = Vec::new();
    let label = workload.label();

    if !backend.executes() {
        return Err(mismatch(format!(
            "backend `{}` is analytical (executes() == false) and cannot run \
             the `{label}` plan; it only answers performance queries",
            backend.id()
        )));
    }
    checks.push("backend-executes");

    if !backend.supports(workload) {
        return Err(mismatch(format!(
            "backend `{}` does not support the `{label}` workload",
            backend.id()
        )));
    }
    checks.push("workload-supported");

    if plan.label() != label {
        return Err(mismatch(format!(
            "plan was lowered from workload `{}` but is being verified \
             against `{label}`",
            plan.label()
        )));
    }
    checks.push("plan-identity");

    // Schedule consistency: when the backend's precision label parses as a
    // photonic precision schedule, the plan's weight bank must have been
    // encoded under exactly that schedule. Labels outside the photonic
    // precision range (the fp32 reference's "[32:32]") are opaque here —
    // those backends re-quantize from the lowered model themselves.
    match PrecisionSchedule::parse_label(&backend.precision(config)) {
        Ok(precision) => {
            if precision != plan.schedule() {
                return Err(mismatch(format!(
                    "plan weight bank was encoded under schedule {} but \
                     backend `{}` executes at {}",
                    plan.schedule().label(),
                    backend.id(),
                    precision.label()
                )));
            }
            checks.push("schedule-consistent");
        }
        Err(_) => checks.push("schedule-opaque"),
    }

    // Shape propagation through the lowered model, against the shape the
    // workload contract promises.
    let acquired = config.acquired_shape();
    match workload {
        Workload::Acquire => {
            if plan.model().is_some() {
                return Err(mismatch(
                    "acquisition-only plans must not carry a lowered model".to_string(),
                ));
            }
        }
        Workload::Classify { .. } | Workload::ImageKernel { .. } | Workload::VideoStream { .. } => {
            let model = plan.model().ok_or_else(|| {
                mismatch(format!("the `{label}` plan is missing its lowered model"))
            })?;
            // Classify models are exempt from the acquired-shape check at
            // this (structural) layer: `Session::evaluate` feeds dataset
            // tensors to the model directly, bypassing the sensor, so a
            // 28x28 MNIST model on a 128x128 platform is a legal session.
            // The frame-ingest check runs in `verify_plan`, which guards
            // the serving path where every input *is* an acquired frame.
            let expected_input: Option<Vec<usize>> = match workload {
                Workload::VideoStream { stream, .. } => {
                    let edge = stream.block_size + 2;
                    Some(vec![1, edge, edge])
                }
                Workload::ImageKernel { .. } => Some(acquired.to_vec()),
                _ => None,
            };
            if let Some(expected) = expected_input {
                if model.input_shape() != expected.as_slice() {
                    return Err(mismatch(format!(
                        "the `{label}` plan's lowered model takes input shape \
                         {:?} but the platform feeds it {:?}",
                        model.input_shape(),
                        expected
                    )));
                }
            }
            let output = model.output_shape()?;
            if output.is_empty() || output.contains(&0) {
                return Err(mismatch(format!(
                    "the `{label}` plan's lowered model propagates to a \
                     degenerate output shape {output:?}"
                )));
            }
            let weighted = model.weighted_layer_count();
            if plan.encoded_layer_count() != weighted {
                return Err(mismatch(format!(
                    "the `{label}` plan encodes {} of {weighted} weighted \
                     layers; the MR weight bank is incomplete",
                    plan.encoded_layer_count()
                )));
            }
            checks.push("weights-encoded");
        }
    }
    checks.push("shape-propagation");

    Ok(PlanCheck {
        backend: backend.id(),
        workload: label,
        checks,
    })
}

/// Fully verifies `plan` against `backend`: every
/// [`verify_plan_structural`] check plus energy-model presence — the
/// backend must produce a performance report for the workload's spec, so
/// any [`Report`](crate::platform::Report) built from this pair carries
/// its latency/power/KFPS/W figures.
///
/// # Errors
///
/// Everything [`verify_plan_structural`] rejects, plus mapping/simulation
/// errors from the backend's performance model.
pub fn verify_plan(
    plan: &CompiledPlan,
    workload: &Workload,
    config: &PlatformConfig,
    backend: &dyn Backend,
) -> Result<PlanCheck> {
    let mut check = verify_plan_structural(plan, workload, config, backend)?;
    // Frame-ingest shape: on the serving path every input is an acquired
    // frame, so a classify model must take exactly the acquired shape
    // (structurally legal evaluate-only sessions are not served frames).
    if let Workload::Classify { .. } = workload {
        if let Some(model) = plan.model() {
            let acquired = config.acquired_shape();
            if model.input_shape() != acquired {
                return Err(mismatch(format!(
                    "the classify model takes input shape {:?} but acquired \
                     frames have shape {acquired:?}; it cannot serve frames \
                     on this platform",
                    model.input_shape()
                )));
            }
        }
        check.checks.push("frame-ingest-shape");
    }
    let spec = performance_spec(workload, config)?;
    backend.performance(&spec, config).map_err(|source| {
        mismatch(format!(
            "backend `{}` has no energy/performance model for the \
             `{}` workload: {source}",
            backend.id(),
            workload.label()
        ))
    })?;
    check.checks.push("energy-model");
    Ok(check)
}

/// The `supports()`/`executes()` capability matrix of every backend a
/// platform resolves, crossed with `workloads`: each row records the
/// backend's own claims plus whether a plan actually compiles and
/// verifies against it.
///
/// Rows are ordered backend-major in [`Platform::backend_ids`] order, so
/// the matrix is deterministic for a fixed platform.
#[must_use]
pub fn capability_matrix(platform: &Platform, workloads: &[Workload]) -> Vec<Capability> {
    let config = platform.config();
    let mut rows = Vec::new();
    for id in platform.backend_ids() {
        let Ok(backend) = platform.backend(&id) else {
            continue;
        };
        for workload in workloads {
            let supported = backend.supports(workload);
            let verified = backend.executes()
                && supported
                && CompiledPlan::compile(workload, config, config.seed)
                    .and_then(|plan| {
                        verify_plan_structural(&plan, workload, config, backend.as_ref())
                    })
                    .is_ok();
            rows.push(Capability {
                backend: id.clone(),
                executes: backend.executes(),
                workload: workload.label(),
                supported,
                verified,
            });
        }
    }
    rows
}

/// Derives the performance spec a [`Report`](crate::platform::Report) for
/// `workload` would simulate: the model-derived network for classify, the
/// acquisition conv for acquire, the 3×3 filter conv for kernels/streams.
/// Opening a session derives its performance model from this spec.
///
/// # Errors
///
/// Propagates spec-construction errors (e.g. a classify model whose input
/// shape cannot be mapped onto the simulator).
pub fn performance_spec(workload: &Workload, config: &PlatformConfig) -> Result<NetworkSpec> {
    let label = workload.label();
    match workload {
        Workload::Classify { model } => crate::platform::workload::network_spec_of(model, &label),
        Workload::Acquire => acquisition_spec_of(config),
        Workload::ImageKernel { .. } | Workload::VideoStream { .. } => {
            Ok(NetworkSpecBuilder::new(&label, config.acquired_shape())
                .conv(1, 3, 1, 1)
                .map_err(CoreError::from)?
                .build())
        }
    }
}

/// Spec of the acquisition pass itself: the fused CA convolution, or the
/// per-photosite readout without CA. Video-stream sessions also charge it
/// for every computed block.
pub(crate) fn acquisition_spec_of(config: &PlatformConfig) -> Result<NetworkSpec> {
    let (h, w) = (config.sensor.height, config.sensor.width);
    let builder = match &config.ca {
        Some(ca) => NetworkSpecBuilder::new("acquire+ca", [3, h, w]).conv(
            1,
            ca.pooling_window,
            ca.pooling_window,
            0,
        ),
        None => NetworkSpecBuilder::new("acquire", [1, h, w]).conv(1, 1, 1, 0),
    };
    Ok(builder.map_err(CoreError::from)?.build())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::PhotonicBackend;
    use crate::platform::ImageKernel;
    use lightator_nn::quant::{Precision, PrecisionSchedule};

    fn paper_platform() -> Platform {
        Platform::builder()
            .sensor_resolution(16, 16)
            .build()
            .expect("platform")
    }

    #[test]
    fn matching_plan_and_backend_verify_with_all_checks() {
        let platform = paper_platform();
        let config = platform.config();
        let workload = Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        };
        let plan = CompiledPlan::compile(&workload, config, config.seed).expect("plan");
        let backend = PhotonicBackend::new();
        let check = verify_plan(&plan, &workload, config, &backend).expect("verified");
        assert_eq!(check.backend, BackendId::photonic());
        assert_eq!(check.workload, "kernel:sobel-x");
        for name in [
            "backend-executes",
            "workload-supported",
            "plan-identity",
            "schedule-consistent",
            "weights-encoded",
            "shape-propagation",
            "energy-model",
        ] {
            assert!(check.checks.contains(&name), "missing check `{name}`");
        }
    }

    #[test]
    fn schedule_mismatch_is_rejected() {
        let platform = paper_platform();
        let config = platform.config();
        let workload = Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        };
        // Plan encoded under the platform's [4:4]; backend executes [2:4].
        let plan = CompiledPlan::compile(&workload, config, config.seed).expect("plan");
        let variant = PhotonicBackend::with_schedule(
            "photonic:w2a4",
            "Lightator [2:4]",
            PrecisionSchedule::Uniform(Precision::w2a4()),
        );
        let err = verify_plan_structural(&plan, &workload, config, &variant)
            .expect_err("schedule mismatch");
        assert!(err.to_string().contains("encoded under schedule"));
    }

    #[test]
    fn plan_workload_identity_mismatch_is_rejected() {
        let platform = paper_platform();
        let config = platform.config();
        let lowered_from = Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        };
        let verified_against = Workload::Acquire;
        let plan = CompiledPlan::compile(&lowered_from, config, config.seed).expect("plan");
        let err = verify_plan_structural(&plan, &verified_against, config, &PhotonicBackend::new())
            .expect_err("identity mismatch");
        assert!(err.to_string().contains("lowered from workload"));
    }

    #[test]
    fn acquire_plans_verify_without_a_model() {
        let platform = paper_platform();
        let config = platform.config();
        let plan = CompiledPlan::compile(&Workload::Acquire, config, config.seed).expect("plan");
        let check = verify_plan(&plan, &Workload::Acquire, config, &PhotonicBackend::new())
            .expect("verified");
        assert!(check.checks.contains(&"shape-propagation"));
        assert!(!check.checks.contains(&"weights-encoded"));
    }

    #[test]
    fn classify_frame_shape_mismatch_fails_the_full_verify_only() {
        use lightator_nn::layers::{Flatten, Linear};
        use lightator_nn::model::Sequential;
        use rand::rngs::SmallRng;
        use rand::SeedableRng;
        let platform = paper_platform(); // acquired [1, 8, 8]
        let config = platform.config();
        let mut rng = SmallRng::seed_from_u64(3);
        // A 4x4-input model on an 8x8-acquired platform.
        let mut model = Sequential::new(&[1, 4, 4]);
        model.push(Flatten::new());
        model.push(Linear::new(16, 3, &mut rng).expect("linear"));
        let workload = Workload::Classify { model };
        let plan = CompiledPlan::compile(&workload, config, config.seed).expect("plan");
        let backend = PhotonicBackend::new();
        // Structurally fine (evaluate-only sessions are legal) ...
        verify_plan_structural(&plan, &workload, config, &backend).expect("structural ok");
        // ... but the frame-serving contract rejects it.
        let err = verify_plan(&plan, &workload, config, &backend).expect_err("frame shape");
        assert!(err.to_string().contains("cannot serve frames"));
    }

    #[test]
    fn capability_matrix_covers_every_backend_workload_pair() {
        let platform = paper_platform();
        let workloads = [
            Workload::Acquire,
            Workload::ImageKernel {
                kernel: ImageKernel::Laplacian,
            },
        ];
        let matrix = capability_matrix(&platform, &workloads);
        assert_eq!(matrix.len(), 2); // photonic default only
        assert!(matrix.iter().all(|row| row.executes && row.supported));
        assert!(matrix.iter().all(|row| row.verified));
    }
}
