//! Sequential model container.

use crate::error::{NnError, Result};
use crate::layers::LayerNode;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// A feed-forward stack of layers applied in order.
///
/// ```
/// use lightator_nn::layers::{Activation, Flatten, Linear};
/// use lightator_nn::model::Sequential;
/// use lightator_nn::tensor::Tensor;
/// use rand::SeedableRng;
/// use rand::rngs::SmallRng;
///
/// # fn main() -> Result<(), lightator_nn::NnError> {
/// let mut rng = SmallRng::seed_from_u64(0);
/// let mut model = Sequential::new(&[4]);
/// model.push(Linear::new(4, 8, &mut rng)?);
/// model.push(Activation::relu());
/// model.push(Linear::new(8, 3, &mut rng)?);
/// let logits = model.forward(&Tensor::full(&[4], 0.5))?;
/// assert_eq!(logits.shape(), &[3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sequential {
    input_shape: Vec<usize>,
    layers: Vec<LayerNode>,
}

impl Sequential {
    /// Creates an empty model expecting inputs of the given shape.
    #[must_use]
    pub fn new(input_shape: &[usize]) -> Self {
        Self {
            input_shape: input_shape.to_vec(),
            layers: Vec::new(),
        }
    }

    /// Appends a layer.
    pub fn push(&mut self, layer: impl Into<LayerNode>) {
        self.layers.push(layer.into());
    }

    /// The expected input shape.
    #[must_use]
    pub fn input_shape(&self) -> &[usize] {
        &self.input_shape
    }

    /// The layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[LayerNode] {
        &self.layers
    }

    /// Mutable access to the layers (used by quantization passes).
    pub fn layers_mut(&mut self) -> &mut [LayerNode] {
        &mut self.layers
    }

    /// Number of layers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Whether the model has no layers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of layers carrying trainable weights.
    #[must_use]
    pub fn weighted_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// Total number of trainable parameters.
    #[must_use]
    pub fn parameter_count(&self) -> usize {
        self.layers.iter().map(LayerNode::parameter_count).sum()
    }

    /// Output shape of the full model, checking layer compatibility.
    ///
    /// # Errors
    ///
    /// Returns a shape error at the first incompatible layer.
    pub fn output_shape(&self) -> Result<Vec<usize>> {
        let mut shape = self.input_shape.clone();
        for layer in &self.layers {
            shape = layer.output_shape(&shape)?;
        }
        Ok(shape)
    }

    /// Total MAC count of one inference.
    ///
    /// # Errors
    ///
    /// Returns a shape error at the first incompatible layer.
    pub fn total_macs(&self) -> Result<usize> {
        let mut shape = self.input_shape.clone();
        let mut total = 0;
        for layer in &self.layers {
            total += layer.mac_count(&shape)?;
            shape = layer.output_shape(&shape)?;
        }
        Ok(total)
    }

    /// Forward pass through every layer.
    ///
    /// # Errors
    ///
    /// Returns a shape error if the input does not match the declared input
    /// shape or a layer rejects its input.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor> {
        if input.shape() != self.input_shape.as_slice() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{:?}", self.input_shape),
                actual: input.shape().to_vec(),
            });
        }
        let mut value = input.clone();
        for layer in &mut self.layers {
            value = layer.forward(&value)?;
        }
        Ok(value)
    }

    /// Backward pass; returns the gradient with respect to the model input.
    ///
    /// # Errors
    ///
    /// Propagates layer errors ([`NnError::BackwardBeforeForward`] if
    /// `forward` has not run).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut grad = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            grad = layer.backward(&grad)?;
        }
        Ok(grad)
    }

    /// Applies accumulated gradients on every layer with a plain SGD step.
    pub fn apply_gradients(&mut self, learning_rate: f32) {
        for layer in &mut self.layers {
            layer.apply_gradients(learning_rate);
        }
    }

    /// Clears accumulated gradients on every layer.
    pub fn zero_gradients(&mut self) {
        for layer in &mut self.layers {
            layer.zero_gradients();
        }
    }

    /// Predicted class (argmax of the logits).
    ///
    /// # Errors
    ///
    /// Same as [`Sequential::forward`].
    pub fn predict(&mut self, input: &Tensor) -> Result<usize> {
        let logits = self.forward(input)?;
        logits.argmax().ok_or(NnError::InvalidDataset {
            reason: "model produced an empty logit vector".to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Activation, AvgPool2d, Conv2d, Flatten, Linear};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn tiny_cnn() -> Sequential {
        let mut rng = SmallRng::seed_from_u64(3);
        let mut model = Sequential::new(&[1, 8, 8]);
        model.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng).expect("ok"));
        model.push(Activation::relu());
        model.push(AvgPool2d::new(2).expect("ok"));
        model.push(Flatten::new());
        model.push(Linear::new(4 * 4 * 4, 3, &mut rng).expect("ok"));
        model
    }

    #[test]
    fn output_shape_chains_layers() {
        let model = tiny_cnn();
        assert_eq!(model.output_shape().expect("ok"), vec![3]);
        assert_eq!(model.weighted_layer_count(), 2);
        assert!(model.parameter_count() > 0);
        assert!(model.total_macs().expect("ok") > 0);
    }

    #[test]
    fn forward_produces_logits() {
        let mut model = tiny_cnn();
        let x = Tensor::full(&[1, 8, 8], 0.5);
        let y = model.forward(&x).expect("ok");
        assert_eq!(y.shape(), &[3]);
        let class = model.predict(&x).expect("ok");
        assert!(class < 3);
    }

    #[test]
    fn forward_rejects_wrong_input_shape() {
        let mut model = tiny_cnn();
        assert!(model.forward(&Tensor::zeros(&[1, 4, 4])).is_err());
    }

    #[test]
    fn backward_then_update_changes_parameters() {
        let mut model = tiny_cnn();
        let x = Tensor::full(&[1, 8, 8], 0.3);
        let before = model.parameter_fingerprint();
        let logits = model.forward(&x).expect("ok");
        let grad = Tensor::full(logits.shape(), 1.0);
        model.backward(&grad).expect("ok");
        model.apply_gradients(0.05);
        let after = model.parameter_fingerprint();
        assert_ne!(before, after, "an SGD step must move the parameters");
    }

    impl Sequential {
        fn parameter_fingerprint(&self) -> Vec<f32> {
            self.layers
                .iter()
                .filter_map(LayerNode::weight)
                .flat_map(|w| w.data().iter().copied())
                .collect()
        }
    }
}
