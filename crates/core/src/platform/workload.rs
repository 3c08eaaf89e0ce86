//! Typed workloads and the optical image kernels — what a [`Session`]
//! (see [`crate::platform::session`]) can be opened for.
//!
//! A [`Workload`] is the *source* program of the facade's
//! acquire → compile → execute pipeline: opening a session lowers it into a
//! [`crate::plan::CompiledPlan`] (the pre-encoded MR weight bank and CA
//! operator) which every later execution reuses.
//!
//! [`Session`]: crate::platform::Session

use crate::error::{CoreError, Result};
use crate::platform::PlatformConfig;
use lightator_nn::layers::LayerNode;
use lightator_nn::model::Sequential;
use lightator_nn::spec::{NetworkSpec, NetworkSpecBuilder};
use serde::{Deserialize, Serialize};

use crate::stream::StreamConfig;

/// The typed workloads a [`Session`](crate::platform::Session) can serve —
/// the paper's "versatile image processing" surface.
#[derive(Debug, Clone)]
pub enum Workload {
    /// DNN inference: classify acquired frames with a trained model.
    Classify {
        /// The trained (and typically weight-quantized) model.
        model: Sequential,
    },
    /// Acquisition only: raw ADC-less readout, or the CA-compressed map when
    /// the platform enables compressive acquisition.
    Acquire,
    /// A classic 3×3 image-processing kernel executed on the optical core.
    ImageKernel {
        /// The filter to apply.
        kernel: ImageKernel,
    },
    /// A continuous video stream filtered by a 3×3 kernel under the
    /// frame-delta gate: blocks whose scene delta stays below the
    /// configured threshold ride the DMVA feedback path instead of waking
    /// the optical core. Served through
    /// [`Session::run_stream`](crate::platform::Session::run_stream).
    VideoStream {
        /// The filter applied to every (recomputed) block.
        kernel: ImageKernel,
        /// Block grid and delta threshold of the temporal gate.
        stream: StreamConfig,
    },
}

impl Workload {
    /// Short label used in reports and performance specs.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Workload::Classify { .. } => "classify".to_string(),
            Workload::Acquire => "acquire".to_string(),
            Workload::ImageKernel { kernel } => format!("kernel:{}", kernel.name()),
            Workload::VideoStream { kernel, .. } => format!("stream:{}", kernel.name()),
        }
    }
}

/// The 3×3 image-processing kernels the optical core serves directly
/// (weights in MR transmissions, one stride per arm).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ImageKernel {
    /// Pass-through (useful for calibration).
    Identity,
    /// 3×3 box blur.
    BoxBlur,
    /// 3×3 Gaussian blur.
    GaussianBlur,
    /// Sharpening filter.
    Sharpen,
    /// Horizontal Sobel edge detector.
    SobelX,
    /// Vertical Sobel edge detector.
    SobelY,
    /// Laplacian edge detector.
    Laplacian,
}

impl ImageKernel {
    /// Every supported kernel.
    pub const ALL: [ImageKernel; 7] = [
        ImageKernel::Identity,
        ImageKernel::BoxBlur,
        ImageKernel::GaussianBlur,
        ImageKernel::Sharpen,
        ImageKernel::SobelX,
        ImageKernel::SobelY,
        ImageKernel::Laplacian,
    ];

    /// Human-readable kernel name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            ImageKernel::Identity => "identity",
            ImageKernel::BoxBlur => "box-blur",
            ImageKernel::GaussianBlur => "gaussian-blur",
            ImageKernel::Sharpen => "sharpen",
            ImageKernel::SobelX => "sobel-x",
            ImageKernel::SobelY => "sobel-y",
            ImageKernel::Laplacian => "laplacian",
        }
    }

    /// Row-major 3×3 coefficients, as programmed into one bank arm.
    #[must_use]
    pub fn coefficients(&self) -> [f32; 9] {
        match self {
            ImageKernel::Identity => [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
            ImageKernel::BoxBlur => [1.0 / 9.0; 9],
            ImageKernel::GaussianBlur => {
                let mut k = [1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0];
                for v in &mut k {
                    *v /= 16.0;
                }
                k
            }
            ImageKernel::Sharpen => [0.0, -1.0, 0.0, -1.0, 5.0, -1.0, 0.0, -1.0, 0.0],
            ImageKernel::SobelX => [-1.0, 0.0, 1.0, -2.0, 0.0, 2.0, -1.0, 0.0, 1.0],
            ImageKernel::SobelY => [-1.0, -2.0, -1.0, 0.0, 0.0, 0.0, 1.0, 2.0, 1.0],
            ImageKernel::Laplacian => [0.0, 1.0, 0.0, 1.0, -4.0, 1.0, 0.0, 1.0, 0.0],
        }
    }
}

/// Derives the architecture-simulator spec of a trained [`Sequential`]
/// model, so one session reports accuracy and performance from one place.
fn network_spec_of(model: &Sequential, name: &str) -> Result<NetworkSpec> {
    let shape = model.input_shape();
    let input: [usize; 3] = match *shape {
        [c, h, w] => [c, h, w],
        [h, w] => [1, h, w],
        [n] => [1, 1, n],
        _ => {
            return Err(CoreError::ModelMismatch {
                reason: format!(
                    "cannot derive a performance spec for a model with input shape {shape:?}"
                ),
            })
        }
    };
    let mut builder = NetworkSpecBuilder::new(name, input);
    for layer in model.layers() {
        builder = match layer {
            LayerNode::Conv2d(conv) => builder
                .conv(
                    conv.out_channels(),
                    conv.kernel(),
                    conv.stride(),
                    conv.padding(),
                )
                .map_err(CoreError::from)?,
            LayerNode::Linear(linear) => builder
                .linear(linear.out_features())
                .map_err(CoreError::from)?,
            LayerNode::MaxPool2d(pool) => builder
                .pool(pool.window(), false)
                .map_err(CoreError::from)?,
            LayerNode::AvgPool2d(pool) => {
                builder.pool(pool.window(), true).map_err(CoreError::from)?
            }
            LayerNode::Activation(_) | LayerNode::Flatten(_) => builder,
        };
    }
    Ok(builder.build())
}

/// Derives the performance spec a [`Report`](crate::platform::Report) for
/// `workload` simulates: the model-derived network for classify, the
/// acquisition pass for acquire, the 3×3 filter conv for kernels and
/// streams.
pub(crate) fn performance_spec(
    workload: &Workload,
    config: &PlatformConfig,
) -> Result<NetworkSpec> {
    let label = workload.label();
    match workload {
        Workload::Classify { model } => network_spec_of(model, &label),
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
