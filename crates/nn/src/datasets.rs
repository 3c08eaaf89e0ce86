//! Procedurally generated, class-structured synthetic datasets.
//!
//! The paper evaluates on MNIST, CIFAR-10 and CIFAR-100. Those image files
//! are not available in this environment, so the reproduction substitutes
//! procedurally generated datasets with the same tensor shapes and class
//! counts: [`SyntheticConfig::mnist_like`] and
//! [`SyntheticConfig::cifar10_like`]. Each class is defined by a
//! deterministic prototype pattern (an oriented sinusoidal grating plus a
//! class-specific blob); samples are noisy, slightly shifted instances of
//! their class prototype. The resulting classification task is learnable by
//! the same topologies the paper trains, and — crucially for the
//! reproduction — its accuracy degrades with weight quantization and analog
//! noise the same way a natural-image task does.

use crate::error::{NnError, Result};
use crate::tensor::Tensor;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// One labelled sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Input tensor of shape `[C, H, W]`, values in `[0, 1]`.
    pub input: Tensor,
    /// Class label in `0..classes`.
    pub label: usize,
}

/// A labelled dataset split into train and test portions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    name: String,
    classes: usize,
    input_shape: [usize; 3],
    train: Vec<Sample>,
    test: Vec<Sample>,
}

impl Dataset {
    /// Dataset name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Shape of every input tensor.
    #[must_use]
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// Training samples.
    #[must_use]
    pub fn train(&self) -> &[Sample] {
        &self.train
    }

    /// Test samples.
    #[must_use]
    pub fn test(&self) -> &[Sample] {
        &self.test
    }
}

/// Configuration of the synthetic dataset generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticConfig {
    /// Number of classes.
    pub classes: usize,
    /// Channels (1 = grayscale, 3 = RGB).
    pub channels: usize,
    /// Image height.
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Training samples per class.
    pub train_per_class: usize,
    /// Test samples per class.
    pub test_per_class: usize,
    /// Additive noise amplitude applied to every pixel.
    pub noise: f64,
    /// Maximum spatial jitter (in pixels) applied to each sample.
    pub max_shift: usize,
}

impl SyntheticConfig {
    /// MNIST-like configuration: 10 classes of 1×28×28 images.
    #[must_use]
    pub fn mnist_like() -> Self {
        Self {
            classes: 10,
            channels: 1,
            height: 28,
            width: 28,
            train_per_class: 30,
            test_per_class: 10,
            noise: 0.08,
            max_shift: 2,
        }
    }

    /// CIFAR-10-like configuration: 10 classes of 3×32×32 images.
    #[must_use]
    pub fn cifar10_like() -> Self {
        Self {
            classes: 10,
            channels: 3,
            height: 32,
            width: 32,
            train_per_class: 30,
            test_per_class: 10,
            noise: 0.08,
            max_shift: 2,
        }
    }

    /// A very small configuration for fast unit tests.
    #[must_use]
    pub fn tiny(classes: usize) -> Self {
        Self {
            classes,
            channels: 1,
            height: 12,
            width: 12,
            train_per_class: 12,
            test_per_class: 4,
            noise: 0.05,
            max_shift: 1,
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidDataset`] for zero classes, channels,
    /// dimensions or sample counts.
    pub fn validate(&self) -> Result<()> {
        if self.classes == 0
            || self.channels == 0
            || self.height == 0
            || self.width == 0
            || self.train_per_class == 0
        {
            return Err(NnError::InvalidDataset {
                reason: "classes, channels, dimensions and train_per_class must be non-zero"
                    .to_string(),
            });
        }
        if !self.noise.is_finite() || self.noise < 0.0 {
            return Err(NnError::InvalidDataset {
                reason: format!(
                    "noise amplitude {} must be a non-negative number",
                    self.noise
                ),
            });
        }
        Ok(())
    }
}

/// The value of class `label`'s prototype pattern at `(channel, row, col)`.
///
/// The pattern is an oriented sinusoidal grating whose orientation, frequency
/// and phase are deterministic functions of the class, superposed with a
/// class-positioned Gaussian blob. Channels see phase-shifted copies so RGB
/// datasets carry colour structure.
fn prototype_value(
    label: usize,
    classes: usize,
    channel: usize,
    row: f64,
    col: f64,
    height: f64,
    width: f64,
) -> f64 {
    let t = label as f64 / classes.max(1) as f64;
    let angle = t * std::f64::consts::PI;
    let frequency = 2.0 + 4.0 * t;
    let phase = t * 7.0 + channel as f64 * 0.9;
    let u = (row / height) - 0.5;
    let v = (col / width) - 0.5;
    let axis = u * angle.cos() + v * angle.sin();
    let grating = 0.5 + 0.35 * (axis * frequency * std::f64::consts::TAU + phase).sin();

    // Class-specific blob position on a ring.
    let blob_row = 0.5 + 0.3 * (t * std::f64::consts::TAU).sin();
    let blob_col = 0.5 + 0.3 * (t * std::f64::consts::TAU).cos();
    let dr = row / height - blob_row;
    let dc = col / width - blob_col;
    let blob = 0.45 * (-(dr * dr + dc * dc) / 0.02).exp();

    (grating * 0.7 + blob).clamp(0.0, 1.0)
}

/// Generates a synthetic dataset.
///
/// # Errors
///
/// Returns [`NnError::InvalidDataset`] for an invalid configuration.
pub fn generate<R: Rng + ?Sized>(
    name: &str,
    config: SyntheticConfig,
    rng: &mut R,
) -> Result<Dataset> {
    config.validate()?;
    let mut train = Vec::with_capacity(config.classes * config.train_per_class);
    let mut test = Vec::with_capacity(config.classes * config.test_per_class);
    for label in 0..config.classes {
        for sample_index in 0..config.train_per_class + config.test_per_class {
            let sample = generate_sample(label, config, rng)?;
            if sample_index < config.train_per_class {
                train.push(sample);
            } else {
                test.push(sample);
            }
        }
    }
    Ok(Dataset {
        name: name.to_string(),
        classes: config.classes,
        input_shape: [config.channels, config.height, config.width],
        train,
        test,
    })
}

fn generate_sample<R: Rng + ?Sized>(
    label: usize,
    config: SyntheticConfig,
    rng: &mut R,
) -> Result<Sample> {
    let (c_n, h_n, w_n) = (config.channels, config.height, config.width);
    let shift_r = if config.max_shift == 0 {
        0i64
    } else {
        rng.gen_range(-(config.max_shift as i64)..=config.max_shift as i64)
    };
    let shift_c = if config.max_shift == 0 {
        0i64
    } else {
        rng.gen_range(-(config.max_shift as i64)..=config.max_shift as i64)
    };
    let mut data = Vec::with_capacity(c_n * h_n * w_n);
    for channel in 0..c_n {
        for row in 0..h_n {
            for col in 0..w_n {
                let r = (row as i64 + shift_r).rem_euclid(h_n as i64) as f64;
                let c = (col as i64 + shift_c).rem_euclid(w_n as i64) as f64;
                let clean =
                    prototype_value(label, config.classes, channel, r, c, h_n as f64, w_n as f64);
                let noise = (rng.gen::<f64>() * 2.0 - 1.0) * config.noise;
                data.push(((clean + noise).clamp(0.0, 1.0)) as f32);
            }
        }
    }
    Ok(Sample {
        input: Tensor::from_vec(data, &[c_n, h_n, w_n])?,
        label,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn config_validation() {
        assert!(SyntheticConfig::tiny(0).validate().is_err());
        let mut bad = SyntheticConfig::tiny(2);
        bad.noise = -1.0;
        assert!(bad.validate().is_err());
        assert!(SyntheticConfig::mnist_like().validate().is_ok());
    }

    #[test]
    fn generated_dataset_has_declared_shape_and_counts() {
        let mut rng = SmallRng::seed_from_u64(1);
        let config = SyntheticConfig::tiny(3);
        let ds = generate("tiny", config, &mut rng).expect("ok");
        assert_eq!(ds.classes(), 3);
        assert_eq!(ds.train().len(), 3 * config.train_per_class);
        assert_eq!(ds.test().len(), 3 * config.test_per_class);
        assert_eq!(ds.input_shape(), [1, 12, 12]);
        for s in ds.train().iter().chain(ds.test()) {
            assert_eq!(s.input.shape(), &[1, 12, 12]);
            assert!(s.label < 3);
            assert!(s.input.data().iter().all(|&v| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn every_class_is_represented_in_both_splits() {
        let mut rng = SmallRng::seed_from_u64(2);
        let ds = generate("tiny", SyntheticConfig::tiny(4), &mut rng).expect("ok");
        for label in 0..4 {
            assert!(ds.train().iter().any(|s| s.label == label));
            assert!(ds.test().iter().any(|s| s.label == label));
        }
    }

    #[test]
    fn class_prototypes_are_distinguishable() {
        // The mean absolute difference between prototypes of two different
        // classes must exceed the within-class noise, otherwise the synthetic
        // task would be unlearnable.
        let mut rng = SmallRng::seed_from_u64(3);
        let config = SyntheticConfig {
            noise: 0.0,
            max_shift: 0,
            ..SyntheticConfig::tiny(5)
        };
        let ds = generate("tiny", config, &mut rng).expect("ok");
        let a = &ds.train()[0];
        let b = ds
            .train()
            .iter()
            .find(|s| s.label != a.label)
            .expect("exists");
        let diff: f32 = a
            .input
            .data()
            .iter()
            .zip(b.input.data())
            .map(|(x, y)| (x - y).abs())
            .sum::<f32>()
            / a.input.len() as f32;
        assert!(diff > 0.05, "inter-class mean difference {diff} too small");
    }

    #[test]
    fn same_seed_reproduces_dataset() {
        let config = SyntheticConfig::tiny(2);
        let a = generate("a", config, &mut SmallRng::seed_from_u64(9)).expect("ok");
        let b = generate("b", config, &mut SmallRng::seed_from_u64(9)).expect("ok");
        assert_eq!(a.train()[0].input, b.train()[0].input);
    }
}
