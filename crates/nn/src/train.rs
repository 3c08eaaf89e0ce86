//! Loss functions, SGD training and evaluation.
//!
//! The paper trains its models in PyTorch and then applies six epochs of
//! quantization-aware fine-tuning. This module provides the equivalent
//! pure-Rust machinery: softmax cross-entropy, per-sample SGD, accuracy
//! evaluation, and a quantization-aware fine-tuning loop that re-projects the
//! weights onto the quantized grid after every epoch.

use crate::datasets::Dataset;
use crate::error::{NnError, Result};
use crate::model::Sequential;
use crate::quant::{quantize_model_weights, PrecisionSchedule};
use crate::tensor::Tensor;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Numerically stable softmax, computed in place on a copy of the logits.
#[must_use]
pub fn softmax(logits: &Tensor) -> Tensor {
    let max = logits
        .data()
        .iter()
        .fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut probabilities = logits.clone();
    for x in probabilities.data_mut() {
        *x = (*x - max).exp();
    }
    let sum: f32 = probabilities.data().iter().sum();
    for p in probabilities.data_mut() {
        *p /= sum;
    }
    probabilities
}

/// Softmax cross-entropy loss and its gradient with respect to the logits.
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] if `label` is outside the logit
/// vector.
pub fn cross_entropy(logits: &Tensor, label: usize) -> Result<(f32, Tensor)> {
    if label >= logits.len() {
        return Err(NnError::InvalidParameter {
            name: "label",
            value: label as f64,
        });
    }
    let probabilities = softmax(logits);
    let loss = -(probabilities.data()[label].max(1e-12)).ln();
    let mut grad = probabilities;
    grad.data_mut()[label] -= 1.0;
    Ok((loss, grad))
}

/// Hyper-parameters of the SGD trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Number of passes over the training split.
    pub epochs: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Seed for the per-epoch shuffle of the training split. Samples are
    /// generated class-by-class, so shuffling is essential for per-sample
    /// SGD not to collapse onto the last class seen.
    pub shuffle_seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.05,
            epochs: 8,
            lr_decay: 0.9,
            shuffle_seed: 0x11_9447,
        }
    }
}

/// Per-epoch training statistics.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss.
    pub mean_loss: f64,
    /// Accuracy on the training split.
    pub train_accuracy: f64,
}

/// Trains a model with per-sample SGD on the dataset's training split.
///
/// Returns the per-epoch statistics.
///
/// # Errors
///
/// Propagates shape errors if the model does not fit the dataset.
pub fn train(
    model: &mut Sequential,
    dataset: &Dataset,
    config: TrainConfig,
) -> Result<Vec<EpochStats>> {
    let mut stats = Vec::with_capacity(config.epochs);
    let mut lr = config.learning_rate;
    let mut shuffle_rng = SmallRng::seed_from_u64(config.shuffle_seed);
    for epoch in 0..config.epochs {
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut order: Vec<usize> = (0..dataset.train().len()).collect();
        order.shuffle(&mut shuffle_rng);
        for &sample_index in &order {
            let sample = &dataset.train()[sample_index];
            let logits = model.forward(&sample.input)?;
            if logits.argmax() == Some(sample.label) {
                correct += 1;
            }
            let (loss, grad) = cross_entropy(&logits, sample.label)?;
            total_loss += f64::from(loss);
            model.backward(&grad)?;
            model.apply_gradients(lr);
        }
        let n = dataset.train().len().max(1);
        stats.push(EpochStats {
            epoch,
            mean_loss: total_loss / n as f64,
            train_accuracy: correct as f64 / n as f64,
        });
        lr *= config.lr_decay;
    }
    Ok(stats)
}

/// Evaluates top-1 accuracy on the dataset's test split.
///
/// # Errors
///
/// Propagates shape errors if the model does not fit the dataset.
pub fn evaluate(model: &mut Sequential, dataset: &Dataset) -> Result<f64> {
    evaluate_samples(model, dataset, dataset.test().len())
}

/// Evaluates top-1 accuracy on at most `limit` test samples (useful when the
/// photonic functional simulation makes full evaluation slow).
///
/// # Errors
///
/// Propagates shape errors if the model does not fit the dataset.
pub fn evaluate_samples(model: &mut Sequential, dataset: &Dataset, limit: usize) -> Result<f64> {
    let samples = dataset.test().iter().take(limit.max(1));
    let mut total = 0usize;
    let mut correct = 0usize;
    for sample in samples {
        total += 1;
        if model.predict(&sample.input)? == sample.label {
            correct += 1;
        }
    }
    if total == 0 {
        return Ok(0.0);
    }
    Ok(correct as f64 / total as f64)
}

/// Quantization-aware fine-tuning: trains for `epochs` additional epochs,
/// re-projecting the weights onto the quantized grid of `schedule` after each
/// epoch, and leaves the model with quantized weights. Mirrors the paper's
/// "additional six epochs of training employing quantization-aware
/// techniques".
///
/// # Errors
///
/// Propagates shape errors if the model does not fit the dataset.
pub fn fine_tune_quantized(
    model: &mut Sequential,
    dataset: &Dataset,
    schedule: PrecisionSchedule,
    epochs: usize,
    learning_rate: f32,
) -> Result<Vec<EpochStats>> {
    let mut stats = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let epoch_stats = train(
            model,
            dataset,
            TrainConfig {
                learning_rate,
                epochs: 1,
                lr_decay: 1.0,
                shuffle_seed: 0x51_0000 + epoch as u64,
            },
        )?;
        quantize_model_weights(model, schedule);
        stats.push(EpochStats {
            epoch,
            ..epoch_stats[0]
        });
    }
    if epochs == 0 {
        quantize_model_weights(model, schedule);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datasets::{generate, SyntheticConfig};
    use crate::models::build_mlp;
    use crate::quant::{Precision, PrecisionSchedule};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_is_a_distribution() {
        let logits = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).expect("ok");
        let p = softmax(&logits);
        assert!((p.sum() - 1.0).abs() < 1e-6);
        assert!(p.data().iter().all(|&x| x > 0.0));
        assert_eq!(p.argmax(), Some(2));
    }

    #[test]
    fn cross_entropy_gradient_sums_to_zero() {
        let logits = Tensor::from_vec(vec![0.5, -1.0, 2.0], &[3]).expect("ok");
        let (loss, grad) = cross_entropy(&logits, 1).expect("ok");
        assert!(loss > 0.0);
        assert!(grad.sum().abs() < 1e-6);
        assert!(cross_entropy(&logits, 3).is_err());
    }

    #[test]
    fn correct_prediction_has_lower_loss() {
        let confident = Tensor::from_vec(vec![5.0, -5.0], &[2]).expect("ok");
        let (loss_right, _) = cross_entropy(&confident, 0).expect("ok");
        let (loss_wrong, _) = cross_entropy(&confident, 1).expect("ok");
        assert!(loss_right < loss_wrong);
    }

    #[test]
    fn training_improves_accuracy_on_synthetic_task() {
        let mut rng = SmallRng::seed_from_u64(21);
        let dataset = generate("tiny", SyntheticConfig::tiny(3), &mut rng).expect("ok");
        let mut model = build_mlp(&dataset.input_shape(), 3, 24, &mut rng).expect("ok");
        let before = evaluate(&mut model, &dataset).expect("ok");
        let stats = train(
            &mut model,
            &dataset,
            TrainConfig {
                epochs: 6,
                ..TrainConfig::default()
            },
        )
        .expect("ok");
        let after = evaluate(&mut model, &dataset).expect("ok");
        assert!(stats.last().expect("non-empty").mean_loss < stats[0].mean_loss * 1.05);
        assert!(
            after >= before && after > 0.5,
            "training should beat chance: before {before}, after {after}"
        );
    }

    #[test]
    fn quantization_aware_fine_tuning_leaves_quantized_weights() {
        let mut rng = SmallRng::seed_from_u64(22);
        let dataset = generate("tiny", SyntheticConfig::tiny(2), &mut rng).expect("ok");
        let mut model = build_mlp(&dataset.input_shape(), 2, 16, &mut rng).expect("ok");
        train(
            &mut model,
            &dataset,
            TrainConfig {
                epochs: 3,
                ..TrainConfig::default()
            },
        )
        .expect("ok");
        let schedule = PrecisionSchedule::Uniform(Precision::w2a4());
        fine_tune_quantized(&mut model, &dataset, schedule, 2, 0.01).expect("ok");
        // Every weighted layer must now hold at most 2^2 = 4 distinct
        // magnitude levels (plus sign) -> at most 7 distinct values.
        for layer in model.layers() {
            if let Some(w) = layer.weight() {
                let mut values: Vec<i64> = w
                    .data()
                    .iter()
                    .map(|&x| (f64::from(x) * 1e6).round() as i64)
                    .collect();
                values.sort_unstable();
                values.dedup();
                assert!(
                    values.len() <= 7,
                    "layer has {} distinct weight values",
                    values.len()
                );
            }
        }
    }

    #[test]
    fn evaluate_samples_respects_limit() {
        let mut rng = SmallRng::seed_from_u64(23);
        let dataset = generate("tiny", SyntheticConfig::tiny(2), &mut rng).expect("ok");
        let mut model = build_mlp(&dataset.input_shape(), 2, 8, &mut rng).expect("ok");
        let acc = evaluate_samples(&mut model, &dataset, 3).expect("ok");
        assert!((0.0..=1.0).contains(&acc));
    }
}
