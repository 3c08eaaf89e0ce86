//! Unified results: what a workload produced ([`Outcome`]) and the
//! [`Report`] pairing it with the platform's performance numbers.
//!
//! Every execution entry point of a [`Session`](crate::platform::Session)
//! returns the same [`Report`] shape, so callers read the functional
//! result (class/logits, acquired frame, filtered frame) and the
//! architecture figures of merit (latency, power, energy, FPS, KFPS/W)
//! from one place.

use crate::error::{CoreError, Result};
use crate::sim::SimulationReport;
use lightator_nn::tensor::Tensor;
use lightator_photonics::units::{Energy, Power, Time};
use serde::{Deserialize, Serialize};

/// What a workload produced for one frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// A classification result.
    Classification {
        /// Predicted class (argmax of the logits).
        class: usize,
        /// Logit vector produced by the final layer.
        logits: Vec<f32>,
        /// Shape of the tensor fed to the first DNN layer.
        dnn_input_shape: Vec<usize>,
    },
    /// An acquired (optionally CA-compressed) frame.
    Acquisition {
        /// Shape of the acquired tensor (`[1, h, w]`).
        shape: Vec<usize>,
        /// Acquired values, row-major.
        data: Vec<f32>,
    },
    /// A filtered frame from an image kernel.
    Filtered {
        /// Name of the applied kernel.
        kernel: String,
        /// Shape of the filtered tensor (`[1, h, w]`).
        shape: Vec<usize>,
        /// Filtered values, row-major.
        data: Vec<f32>,
    },
}

/// Unified result of one [`Session::run`](crate::platform::Session::run):
/// the functional outcome plus the architecture-level performance numbers
/// for the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Workload label (`classify`, `acquire`, `kernel:sobel-x`, ...).
    pub workload: String,
    /// What the workload produced.
    pub outcome: Outcome,
    /// Latency / power / energy of the workload on this platform.
    pub perf: SimulationReport,
}

impl Report {
    /// Predicted class, for classification outcomes.
    #[must_use]
    pub fn class(&self) -> Option<usize> {
        match &self.outcome {
            Outcome::Classification { class, .. } => Some(*class),
            _ => None,
        }
    }

    /// Logits, for classification outcomes.
    #[must_use]
    pub fn logits(&self) -> Option<&[f32]> {
        match &self.outcome {
            Outcome::Classification { logits, .. } => Some(logits),
            _ => None,
        }
    }

    /// Frame data, for acquisition and filtered outcomes.
    #[must_use]
    pub fn frame(&self) -> Option<(&[usize], &[f32])> {
        match &self.outcome {
            Outcome::Acquisition { shape, data } | Outcome::Filtered { shape, data, .. } => {
                Some((shape, data))
            }
            Outcome::Classification { .. } => None,
        }
    }

    /// End-to-end latency of the workload for one frame.
    #[must_use]
    pub fn latency(&self) -> Time {
        self.perf.frame_latency
    }

    /// Peak platform power while serving the workload.
    #[must_use]
    pub fn max_power(&self) -> Power {
        self.perf.max_power
    }

    /// Energy consumed per frame.
    #[must_use]
    pub fn energy(&self) -> Energy {
        self.perf.frame_energy
    }

    /// Frames per second.
    #[must_use]
    pub fn fps(&self) -> f64 {
        self.perf.fps()
    }

    /// Kilo-frames per second per watt — the paper's figure of merit.
    #[must_use]
    pub fn kfps_per_watt(&self) -> f64 {
        self.perf.kfps_per_watt()
    }

    /// The frame's stage rollup on track `session:<workload>`, ready to
    /// merge into a wider [`StageBreakdown`](lightator_telemetry::StageBreakdown).
    #[must_use]
    pub fn stage_breakdown(&self) -> lightator_telemetry::StageBreakdown {
        crate::trace::stage_breakdown(&format!("session:{}", self.workload), &self.perf)
    }
}

pub(crate) fn model_mismatch(acquired: &[usize], expected: &[usize]) -> CoreError {
    CoreError::ModelMismatch {
        reason: format!(
            "acquired tensor {acquired:?} does not match the model input {expected:?}; \
             choose a sensor resolution and CA window that produce the model's input"
        ),
    }
}

/// The error of a classify model whose logit vector is empty.
pub(crate) fn empty_logits() -> CoreError {
    CoreError::ModelMismatch {
        reason: "model produced an empty logit vector".to_string(),
    }
}

pub(crate) fn classification_from_logits(
    logits: &Tensor,
    input_shape: &[usize],
) -> Result<Outcome> {
    let class = logits.argmax().ok_or_else(empty_logits)?;
    Ok(Outcome::Classification {
        class,
        logits: logits.data().to_vec(),
        dnn_input_shape: input_shape.to_vec(),
    })
}

pub(crate) fn acquisition_outcome(input: &Tensor) -> Outcome {
    Outcome::Acquisition {
        shape: input.shape().to_vec(),
        data: input.data().to_vec(),
    }
}

/// Builds a filtered outcome from an already-computed frame tensor.
pub(crate) fn filtered_from(filtered: &Tensor, kernel: &str) -> Outcome {
    Outcome::Filtered {
        kernel: kernel.to_string(),
        shape: filtered.shape().to_vec(),
        data: filtered.data().to_vec(),
    }
}
