//! Architecture-level network descriptions.
//!
//! The Lightator architecture simulator, the baseline accelerator models and
//! the benchmark harness all reason about networks *structurally* — how many
//! MACs and weights each layer has, what kernel sizes occur, where pooling
//! layers sit — without needing trained parameters. [`NetworkSpec`] captures
//! exactly that, and provides the topologies evaluated in the paper: LeNet,
//! VGG9, VGG13, VGG16 and AlexNet.

use crate::error::{NnError, Result};
use serde::{Deserialize, Serialize};

/// Structural description of a convolutional layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConvSpec {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (filters).
    pub out_channels: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding per border.
    pub padding: usize,
    /// Input height.
    pub in_height: usize,
    /// Input width.
    pub in_width: usize,
}

impl ConvSpec {
    /// Output `[C, H, W]` shape.
    #[must_use]
    pub fn output_shape(&self) -> [usize; 3] {
        let oh = (self.in_height + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (self.in_width + 2 * self.padding - self.kernel) / self.stride + 1;
        [self.out_channels, oh, ow]
    }

    /// Number of weights (excluding bias).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.out_channels * self.in_channels * self.kernel * self.kernel
    }

    /// Number of MAC operations per inference.
    #[must_use]
    pub fn mac_count(&self) -> usize {
        let [c, h, w] = self.output_shape();
        c * h * w * self.in_channels * self.kernel * self.kernel
    }

    /// Number of kernel strides — `k²`-element dot products — the Lightator
    /// mapper schedules onto bank arms: one per output position, per output
    /// channel, per input channel.
    #[must_use]
    pub fn stride_count(&self) -> usize {
        let [c, h, w] = self.output_shape();
        c * h * w * self.in_channels
    }
}

/// Structural description of a fully connected layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearSpec {
    /// Input features.
    pub in_features: usize,
    /// Output features.
    pub out_features: usize,
}

impl LinearSpec {
    /// Number of weights (excluding bias).
    #[must_use]
    pub fn weight_count(&self) -> usize {
        self.in_features * self.out_features
    }

    /// Number of MAC operations per inference.
    #[must_use]
    pub fn mac_count(&self) -> usize {
        self.weight_count()
    }
}

/// Structural description of a pooling layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolSpec {
    /// Channels (unchanged by pooling).
    pub channels: usize,
    /// Square pooling window.
    pub window: usize,
    /// Pooling stride (equal to `window` for non-overlapping pooling).
    pub stride: usize,
    /// Input height.
    pub in_height: usize,
    /// Input width.
    pub in_width: usize,
    /// `true` for average pooling (mappable onto CA banks), `false` for max.
    pub average: bool,
}

impl PoolSpec {
    /// Output `[C, H, W]` shape.
    #[must_use]
    pub fn output_shape(&self) -> [usize; 3] {
        [
            self.channels,
            (self.in_height - self.window) / self.stride + 1,
            (self.in_width - self.window) / self.stride + 1,
        ]
    }

    /// Equivalent MAC count when the pooling is executed as a weighted sum on
    /// CA banks (window² multiplications per output element); zero for max
    /// pooling, which stays in the electronic domain.
    #[must_use]
    pub fn ca_mac_count(&self) -> usize {
        if !self.average {
            return 0;
        }
        let [c, h, w] = self.output_shape();
        c * h * w * self.window * self.window
    }
}

/// One layer of a [`NetworkSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LayerSpec {
    /// Convolutional layer.
    Conv(ConvSpec),
    /// Fully connected layer.
    Linear(LinearSpec),
    /// Pooling layer.
    Pool(PoolSpec),
}

impl LayerSpec {
    /// Short name used in per-layer reports (`conv`, `fc`, `pool`).
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            LayerSpec::Conv(_) => "conv",
            LayerSpec::Linear(_) => "fc",
            LayerSpec::Pool(_) => "pool",
        }
    }

    /// Whether the layer holds weights that must be mapped onto MRs.
    #[must_use]
    pub fn is_weighted(&self) -> bool {
        matches!(self, LayerSpec::Conv(_) | LayerSpec::Linear(_))
    }

    /// Number of weights mapped onto the optical core for this layer.
    #[must_use]
    pub fn weight_count(&self) -> usize {
        match self {
            LayerSpec::Conv(c) => c.weight_count(),
            LayerSpec::Linear(l) => l.weight_count(),
            LayerSpec::Pool(_) => 0,
        }
    }

    /// Number of MAC operations executed per inference (for pooling, the CA
    /// weighted-sum equivalent).
    #[must_use]
    pub fn mac_count(&self) -> usize {
        match self {
            LayerSpec::Conv(c) => c.mac_count(),
            LayerSpec::Linear(l) => l.mac_count(),
            LayerSpec::Pool(p) => p.ca_mac_count(),
        }
    }

    /// Number of activation values produced by the layer.
    #[must_use]
    pub fn output_elements(&self) -> usize {
        match self {
            LayerSpec::Conv(c) => {
                let [a, b, d] = c.output_shape();
                a * b * d
            }
            LayerSpec::Linear(l) => l.out_features,
            LayerSpec::Pool(p) => {
                let [a, b, d] = p.output_shape();
                a * b * d
            }
        }
    }
}

/// A complete network topology.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetworkSpec {
    name: String,
    input_shape: [usize; 3],
    layers: Vec<LayerSpec>,
}

/// Incrementally builds a [`NetworkSpec`], tracking the current feature-map
/// shape so layer parameters do not have to be repeated.
#[derive(Debug, Clone)]
pub struct NetworkSpecBuilder {
    name: String,
    input_shape: [usize; 3],
    current: [usize; 3],
    flattened: bool,
    layers: Vec<LayerSpec>,
}

impl NetworkSpecBuilder {
    /// Starts a builder for a network with `[C, H, W]` inputs.
    #[must_use]
    pub fn new(name: &str, input_shape: [usize; 3]) -> Self {
        Self {
            name: name.to_string(),
            input_shape,
            current: input_shape,
            flattened: false,
            layers: Vec::new(),
        }
    }

    /// Appends a convolution with the given filter count, kernel, stride and
    /// padding.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] after a `linear` layer or for a
    /// kernel larger than the current feature map.
    pub fn conv(
        mut self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if self.flattened {
            return Err(NnError::InvalidParameter {
                name: "conv_after_linear",
                value: 0.0,
            });
        }
        let [c, h, w] = self.current;
        if h + 2 * padding < kernel || w + 2 * padding < kernel || stride == 0 || kernel == 0 {
            return Err(NnError::InvalidParameter {
                name: "kernel",
                value: kernel as f64,
            });
        }
        let spec = ConvSpec {
            in_channels: c,
            out_channels,
            kernel,
            stride,
            padding,
            in_height: h,
            in_width: w,
        };
        self.current = spec.output_shape();
        self.layers.push(LayerSpec::Conv(spec));
        Ok(self)
    }

    /// Appends a non-overlapping pooling layer (`average = true` maps onto
    /// CA banks, which requires the window to divide the feature map).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] if the window does not divide
    /// the current feature map.
    pub fn pool(self, window: usize, average: bool) -> Result<Self> {
        let [_, h, w] = self.current;
        if window == 0 || h % window != 0 || w % window != 0 {
            return Err(NnError::InvalidParameter {
                name: "window",
                value: window as f64,
            });
        }
        self.pool_strided(window, window, average)
    }

    /// Appends a pooling layer with an explicit stride (overlapping pooling,
    /// as used by AlexNet's 3×3/stride-2 max pools).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] if the window is larger than the
    /// feature map or the stride is zero.
    pub fn pool_strided(mut self, window: usize, stride: usize, average: bool) -> Result<Self> {
        if self.flattened {
            return Err(NnError::InvalidParameter {
                name: "pool_after_linear",
                value: 0.0,
            });
        }
        let [c, h, w] = self.current;
        if window == 0 || stride == 0 || window > h || window > w {
            return Err(NnError::InvalidParameter {
                name: "window",
                value: window as f64,
            });
        }
        let spec = PoolSpec {
            channels: c,
            window,
            stride,
            in_height: h,
            in_width: w,
            average,
        };
        self.current = spec.output_shape();
        self.layers.push(LayerSpec::Pool(spec));
        Ok(self)
    }

    /// Appends a fully connected layer; the first one implicitly flattens the
    /// current feature map.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] for zero output features.
    pub fn linear(mut self, out_features: usize) -> Result<Self> {
        if out_features == 0 {
            return Err(NnError::InvalidParameter {
                name: "out_features",
                value: 0.0,
            });
        }
        let in_features = if self.flattened {
            self.current[0]
        } else {
            self.current[0] * self.current[1] * self.current[2]
        };
        self.flattened = true;
        self.current = [out_features, 1, 1];
        self.layers.push(LayerSpec::Linear(LinearSpec {
            in_features,
            out_features,
        }));
        Ok(self)
    }

    /// Finalises the specification.
    #[must_use]
    pub fn build(self) -> NetworkSpec {
        NetworkSpec {
            name: self.name,
            input_shape: self.input_shape,
            layers: self.layers,
        }
    }
}

impl NetworkSpec {
    /// Network name (e.g. `"LeNet"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input `[C, H, W]` shape.
    #[must_use]
    pub fn input_shape(&self) -> [usize; 3] {
        self.input_shape
    }

    /// The layers in execution order.
    #[must_use]
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    /// Number of mapped layers (conv + pool + fc), matching the paper's
    /// per-layer figures.
    #[must_use]
    pub fn layer_count(&self) -> usize {
        self.layers.len()
    }

    /// Number of weighted layers.
    #[must_use]
    pub fn weighted_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weighted()).count()
    }

    /// Total MACs per inference.
    #[must_use]
    pub fn total_macs(&self) -> usize {
        self.layers.iter().map(LayerSpec::mac_count).sum()
    }

    /// LeNet-5 on 28×28 grayscale inputs (MNIST): the 7 mapped layers of the
    /// paper's Fig. 8 (2 conv, 2 average pool, 3 fully connected).
    ///
    /// # Panics
    ///
    /// Never panics; the topology is statically valid.
    #[must_use]
    pub fn lenet() -> Self {
        #[expect(clippy::expect_used, reason = "the topology is statically valid")]
        NetworkSpecBuilder::new("LeNet", [1, 28, 28])
            .conv(6, 5, 1, 2)
            .and_then(|b| b.pool(2, true))
            .and_then(|b| b.conv(16, 5, 1, 0))
            .and_then(|b| b.pool(2, true))
            .and_then(|b| b.linear(120))
            .and_then(|b| b.linear(84))
            .and_then(|b| b.linear(10))
            .expect("LeNet topology is statically valid")
            .build()
    }

    /// VGG9 on 32×32 RGB inputs (CIFAR-10/100): 6 conv + 3 pool + 3 fc = the
    /// 12 mapped layers of the paper's Fig. 9.
    ///
    /// # Panics
    ///
    /// Never panics; the topology is statically valid.
    #[must_use]
    pub fn vgg9(classes: usize) -> Self {
        #[expect(clippy::expect_used, reason = "the topology is statically valid")]
        NetworkSpecBuilder::new("VGG9", [3, 32, 32])
            .conv(64, 3, 1, 1)
            .and_then(|b| b.conv(64, 3, 1, 1))
            .and_then(|b| b.pool(2, true))
            .and_then(|b| b.conv(128, 3, 1, 1))
            .and_then(|b| b.conv(128, 3, 1, 1))
            .and_then(|b| b.pool(2, true))
            .and_then(|b| b.conv(256, 3, 1, 1))
            .and_then(|b| b.conv(256, 3, 1, 1))
            .and_then(|b| b.pool(2, true))
            .and_then(|b| b.linear(512))
            .and_then(|b| b.linear(512))
            .and_then(|b| b.linear(classes))
            .expect("VGG9 topology is statically valid")
            .build()
    }

    /// VGG13 on 224×224 RGB inputs (used as the paper does when substituting
    /// YodaNN's VGG16 results).
    ///
    /// # Panics
    ///
    /// Never panics; the topology is statically valid.
    #[must_use]
    pub fn vgg13() -> Self {
        Self::vgg_imagenet("VGG13", &[2, 2, 2, 2, 2])
    }

    /// VGG16 on 224×224 RGB inputs (Fig. 10 workload).
    ///
    /// # Panics
    ///
    /// Never panics; the topology is statically valid.
    #[must_use]
    pub fn vgg16() -> Self {
        Self::vgg_imagenet("VGG16", &[2, 2, 3, 3, 3])
    }

    // One expectation for the three sites: two of them are assignments,
    // which take no attribute.
    #[expect(clippy::expect_used, reason = "the topology is statically valid")]
    fn vgg_imagenet(name: &str, convs_per_stage: &[usize]) -> Self {
        let widths = [64usize, 128, 256, 512, 512];
        let mut builder = NetworkSpecBuilder::new(name, [3, 224, 224]);
        for (stage, &reps) in convs_per_stage.iter().enumerate() {
            for _ in 0..reps {
                builder = builder
                    .conv(widths[stage], 3, 1, 1)
                    .expect("VGG topology is statically valid");
            }
            builder = builder
                .pool(2, false)
                .expect("VGG topology is statically valid");
        }
        builder
            .linear(4096)
            .and_then(|b| b.linear(4096))
            .and_then(|b| b.linear(1000))
            .expect("VGG topology is statically valid")
            .build()
    }

    /// AlexNet on 224×224 RGB inputs (Fig. 10 workload).
    ///
    /// # Panics
    ///
    /// Never panics; the topology is statically valid.
    #[must_use]
    pub fn alexnet() -> Self {
        #[expect(clippy::expect_used, reason = "the topology is statically valid")]
        NetworkSpecBuilder::new("AlexNet", [3, 224, 224])
            .conv(64, 11, 4, 2)
            .and_then(|b| b.pool_strided(3, 2, false))
            .and_then(|b| b.conv(192, 5, 1, 2))
            .and_then(|b| b.pool_strided(3, 2, false))
            .and_then(|b| b.conv(384, 3, 1, 1))
            .and_then(|b| b.conv(256, 3, 1, 1))
            .and_then(|b| b.conv(256, 3, 1, 1))
            .and_then(|b| b.pool_strided(3, 2, false))
            .and_then(|b| b.linear(4096))
            .and_then(|b| b.linear(4096))
            .and_then(|b| b.linear(1000))
            .expect("AlexNet topology is statically valid")
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_spec_arithmetic() {
        let spec = ConvSpec {
            in_channels: 3,
            out_channels: 64,
            kernel: 3,
            stride: 1,
            padding: 1,
            in_height: 32,
            in_width: 32,
        };
        assert_eq!(spec.output_shape(), [64, 32, 32]);
        assert_eq!(spec.weight_count(), 64 * 3 * 9);
        assert_eq!(spec.mac_count(), 64 * 32 * 32 * 27);
    }

    #[test]
    fn pool_spec_arithmetic() {
        let spec = PoolSpec {
            channels: 16,
            window: 2,
            stride: 2,
            in_height: 10,
            in_width: 10,
            average: true,
        };
        assert_eq!(spec.output_shape(), [16, 5, 5]);
        assert_eq!(spec.ca_mac_count(), 16 * 25 * 4);
        let max = PoolSpec {
            average: false,
            ..spec
        };
        assert_eq!(max.ca_mac_count(), 0);
        // Overlapping pooling, AlexNet style: 3x3 window, stride 2 on 55x55.
        let overlapping = PoolSpec {
            channels: 64,
            window: 3,
            stride: 2,
            in_height: 55,
            in_width: 55,
            average: false,
        };
        assert_eq!(overlapping.output_shape(), [64, 27, 27]);
    }

    #[test]
    fn lenet_matches_paper_layer_count() {
        let lenet = NetworkSpec::lenet();
        // Fig. 8 shows 7 mapped layers (L1..L7): conv, pool, conv, pool, 3 fc.
        assert_eq!(lenet.layer_count(), 7);
        assert_eq!(lenet.weighted_layer_count(), 5);
        // Classic LeNet-5 sizes: conv2 output 16x5x5 gives a 400-wide fc1.
        if let LayerSpec::Linear(fc1) = lenet.layers()[4] {
            assert_eq!(fc1.in_features, 400);
            assert_eq!(fc1.out_features, 120);
        } else {
            panic!("layer 5 of LeNet must be fully connected");
        }
    }

    #[test]
    fn vgg9_matches_paper_layer_count() {
        let vgg9 = NetworkSpec::vgg9(10);
        // Fig. 9 shows 12 mapped layers (L1..L12).
        assert_eq!(vgg9.layer_count(), 12);
        assert_eq!(vgg9.weighted_layer_count(), 9, "VGG9 has 9 weighted layers");
        assert!(
            vgg9.total_macs() > 100_000_000,
            "VGG9 on CIFAR is >100 MMAC"
        );
    }

    #[test]
    fn vgg16_and_alexnet_have_expected_weighted_layers() {
        assert_eq!(NetworkSpec::vgg16().weighted_layer_count(), 16);
        assert_eq!(NetworkSpec::vgg13().weighted_layer_count(), 13);
        assert_eq!(NetworkSpec::alexnet().weighted_layer_count(), 8);
        // VGG16 is roughly 15.5 GMAC at 224x224; accept a generous band.
        let macs = NetworkSpec::vgg16().total_macs();
        assert!(
            macs > 10_000_000_000 && macs < 20_000_000_000,
            "VGG16 MACs {macs}"
        );
        // AlexNet is roughly 0.7 GMAC.
        let macs = NetworkSpec::alexnet().total_macs();
        assert!(
            macs > 400_000_000 && macs < 1_500_000_000,
            "AlexNet MACs {macs}"
        );
    }

    #[test]
    fn builder_rejects_invalid_orders() {
        let builder = NetworkSpecBuilder::new("bad", [1, 8, 8])
            .linear(4)
            .expect("ok");
        assert!(builder.conv(4, 3, 1, 1).is_err());
        let builder = NetworkSpecBuilder::new("bad", [1, 8, 8]);
        assert!(
            builder.pool(3, true).is_err(),
            "window must divide the extent"
        );
        let builder = NetworkSpecBuilder::new("bad", [1, 4, 4]);
        assert!(
            builder.conv(4, 7, 1, 0).is_err(),
            "kernel larger than input"
        );
    }

    #[test]
    fn spec_counts_are_consistent() {
        let net = NetworkSpec::vgg9(100);
        for layer in net.layers() {
            if layer.is_weighted() {
                assert!(layer.weight_count() > 0);
                assert!(layer.mac_count() >= layer.weight_count());
            }
        }
    }

    #[test]
    fn last_linear_matches_class_count() {
        for classes in [10, 100] {
            let net = NetworkSpec::vgg9(classes);
            if let Some(LayerSpec::Linear(last)) = net.layers().last() {
                assert_eq!(last.out_features, classes);
            } else {
                panic!("VGG9 must end with a fully connected layer");
            }
        }
    }
}
