//! Executable model builders.
//!
//! [`NetworkSpec`](crate::spec::NetworkSpec) describes topologies
//! structurally for the architecture simulator; the builders here construct
//! *trainable* [`Sequential`] models for the functional accuracy experiments.
//! The LeNet builder is full-size; the VGG-style builder is width-reduced so
//! that training on a laptop-scale budget stays tractable. It trains on the
//! synthetic stand-ins for the paper's image sets; the
//! [`datasets`](crate::datasets) module doc says why they stand in.

use crate::error::{NnError, Result};
use crate::layers::{Activation, AvgPool2d, Conv2d, Flatten, Linear, MaxPool2d};
use crate::model::Sequential;
use rand::Rng;

/// Builds a small multi-layer perceptron: flatten → hidden ReLU → logits.
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] for zero classes or hidden units.
pub fn build_mlp<R: Rng + ?Sized>(
    input_shape: &[usize; 3],
    classes: usize,
    hidden: usize,
    rng: &mut R,
) -> Result<Sequential> {
    if classes == 0 || hidden == 0 {
        return Err(NnError::InvalidParameter {
            name: "classes_or_hidden",
            value: 0.0,
        });
    }
    let input_features = input_shape.iter().product();
    let mut model = Sequential::new(input_shape);
    model.push(Flatten::new());
    model.push(Linear::new(input_features, hidden, rng)?);
    model.push(Activation::relu());
    model.push(Linear::new(hidden, classes, rng)?);
    Ok(model)
}

/// Builds the full LeNet-5 used for the MNIST experiments: two 5×5
/// convolutions with average pooling followed by three fully connected
/// layers, ReLU activations throughout (as supported by the Lightator
/// periphery).
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] for zero classes.
pub fn build_lenet<R: Rng + ?Sized>(classes: usize, rng: &mut R) -> Result<Sequential> {
    if classes == 0 {
        return Err(NnError::InvalidParameter {
            name: "classes",
            value: 0.0,
        });
    }
    let mut model = Sequential::new(&[1, 28, 28]);
    model.push(Conv2d::new(1, 6, 5, 1, 2, rng)?);
    model.push(Activation::relu());
    model.push(AvgPool2d::new(2)?);
    model.push(Conv2d::new(6, 16, 5, 1, 0, rng)?);
    model.push(Activation::relu());
    model.push(AvgPool2d::new(2)?);
    model.push(Flatten::new());
    model.push(Linear::new(400, 120, rng)?);
    model.push(Activation::relu());
    model.push(Linear::new(120, 84, rng)?);
    model.push(Activation::relu());
    model.push(Linear::new(84, classes, rng)?);
    Ok(model)
}

/// Builds a width-reduced VGG9-style CNN for 3×32×32 inputs: three conv/pool
/// stages followed by two fully connected layers. `width` scales the channel
/// counts (the paper's full VGG9 corresponds to `width = 64`; the accuracy
/// experiments default to a narrower, faster variant).
///
/// # Errors
///
/// Returns [`NnError::InvalidParameter`] for zero classes or width.
pub fn build_vgg_small<R: Rng + ?Sized>(
    classes: usize,
    width: usize,
    rng: &mut R,
) -> Result<Sequential> {
    if classes == 0 || width == 0 {
        return Err(NnError::InvalidParameter {
            name: "classes_or_width",
            value: 0.0,
        });
    }
    let w1 = width;
    let w2 = width * 2;
    let w3 = width * 4;
    let mut model = Sequential::new(&[3, 32, 32]);
    model.push(Conv2d::new(3, w1, 3, 1, 1, rng)?);
    model.push(Activation::relu());
    model.push(MaxPool2d::new(2)?);
    model.push(Conv2d::new(w1, w2, 3, 1, 1, rng)?);
    model.push(Activation::relu());
    model.push(MaxPool2d::new(2)?);
    model.push(Conv2d::new(w2, w3, 3, 1, 1, rng)?);
    model.push(Activation::relu());
    model.push(MaxPool2d::new(2)?);
    model.push(Flatten::new());
    model.push(Linear::new(w3 * 4 * 4, 64, rng)?);
    model.push(Activation::relu());
    model.push(Linear::new(64, classes, rng)?);
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn mlp_shapes_check_out() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut model = build_mlp(&[1, 12, 12], 3, 16, &mut rng).expect("ok");
        assert_eq!(model.output_shape().expect("ok"), vec![3]);
        let y = model.forward(&Tensor::full(&[1, 12, 12], 0.4)).expect("ok");
        assert_eq!(y.shape(), &[3]);
        assert!(build_mlp(&[1, 12, 12], 0, 16, &mut rng).is_err());
    }

    #[test]
    fn lenet_matches_classic_dimensions() {
        let mut rng = SmallRng::seed_from_u64(2);
        let model = build_lenet(10, &mut rng).expect("ok");
        assert_eq!(model.output_shape().expect("ok"), vec![10]);
        assert_eq!(model.weighted_layer_count(), 5);
        // Classic LeNet-5 parameter count is about 61.7k.
        let params = model.parameter_count();
        assert!(
            params > 55_000 && params < 70_000,
            "LeNet parameters {params}"
        );
    }

    #[test]
    fn lenet_forward_runs() {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut model = build_lenet(10, &mut rng).expect("ok");
        let y = model.forward(&Tensor::full(&[1, 28, 28], 0.5)).expect("ok");
        assert_eq!(y.shape(), &[10]);
    }

    #[test]
    fn vgg_small_shapes_check_out() {
        let mut rng = SmallRng::seed_from_u64(4);
        let model = build_vgg_small(10, 8, &mut rng).expect("ok");
        assert_eq!(model.output_shape().expect("ok"), vec![10]);
        assert_eq!(model.weighted_layer_count(), 5);
        assert!(build_vgg_small(10, 0, &mut rng).is_err());
    }

    #[test]
    fn vgg_small_forward_runs() {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = build_vgg_small(10, 4, &mut rng).expect("ok");
        let y = model.forward(&Tensor::full(&[3, 32, 32], 0.5)).expect("ok");
        assert_eq!(y.shape(), &[10]);
    }
}
