//! Quantized DNN stack for the Lightator reproduction.
//!
//! The paper's application layer ("Developing PyTorch Model for Quantized
//! DNN", Fig. 7) is reproduced here as a dependency-free Rust stack:
//!
//! * [`tensor`] — a minimal dense tensor;
//! * [`layers`] — convolution, linear, pooling, activation and flatten layers
//!   with forward and backward passes;
//! * [`model`] — the [`model::Sequential`] container;
//! * [`quant`] — `[W:A]` precision configurations, uniform quantization and
//!   the paper's mixed-precision schedules;
//! * [`train`] — SGD training, evaluation and quantization-aware fine-tuning;
//! * [`spec`] — structural topology descriptions (LeNet, VGG9/13/16, AlexNet)
//!   consumed by the architecture simulator;
//! * [`datasets`] — procedurally generated MNIST/CIFAR-like datasets
//!   (substituting the real image sets; the module doc says why);
//! * [`models`] — executable model builders for the accuracy experiments.
//!
//! # Example
//!
//! Train a small model on the synthetic dataset and quantize it the way
//! Lightator would map it:
//!
//! ```
//! use lightator_nn::datasets::{generate, SyntheticConfig};
//! use lightator_nn::models::build_mlp;
//! use lightator_nn::quant::{quantize_model_weights, Precision, PrecisionSchedule};
//! use lightator_nn::train::{evaluate, train, TrainConfig};
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! # fn main() -> Result<(), lightator_nn::NnError> {
//! let mut rng = SmallRng::seed_from_u64(0);
//! let dataset = generate("demo", SyntheticConfig::tiny(3), &mut rng)?;
//! let mut model = build_mlp(&dataset.input_shape(), 3, 16, &mut rng)?;
//! train(&mut model, &dataset, TrainConfig { epochs: 2, ..TrainConfig::default() })?;
//! quantize_model_weights(&mut model, PrecisionSchedule::Uniform(Precision::w4a4()));
//! let accuracy = evaluate(&mut model, &dataset)?;
//! assert!((0.0..=1.0).contains(&accuracy));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod datasets;
pub mod error;
pub mod layers;
pub mod model;
pub mod models;
pub mod quant;
pub mod spec;
pub mod tensor;
pub mod train;

pub use error::{NnError, Result};
pub use layers::{
    Activation, ActivationKind, AvgPool2d, Conv2d, Flatten, LayerNode, Linear, MaxPool2d,
};
pub use model::Sequential;
pub use quant::{Precision, PrecisionSchedule};
pub use spec::{ConvSpec, LayerSpec, LinearSpec, NetworkSpec, NetworkSpecBuilder, PoolSpec};
pub use tensor::Tensor;
