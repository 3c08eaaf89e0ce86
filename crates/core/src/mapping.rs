//! Hardware mapping of DNN layers onto the optical core.
//!
//! Implements the methodology of paper §4 and Fig. 6: each arm holds 9 MRs so
//! a 3×3 kernel stride fits in one arm (6 strides per bank, summation tree
//! idle), a 5×5 kernel needs 3 arms (2 strides per bank, first summation
//! stage active) and a 7×7 kernel needs the whole bank (1 stride, both
//! summation stages active). Fully connected layers are segmented into
//! 9-MAC chunks whose partial sums are combined in the summation tree.

use crate::config::OcGeometry;
use crate::error::{CoreError, Result};
use lightator_nn::spec::LayerSpec;
use serde::{Deserialize, Serialize};

/// Which summation-tree stages a mapping activates (paper Fig. 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SummationUsage {
    /// BPD output is final; both summation stages are idle (3×3 kernels).
    None,
    /// First stage combines the partial sums of one stride (5×5 kernels).
    FirstStage,
    /// Both stages combine partial sums (7×7 kernels, wide FC segments).
    BothStages,
}

/// How one layer is mapped onto the MVM banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LayerMapping {
    /// Arms ganged together to evaluate one kernel stride / output segment.
    pub arms_per_stride: usize,
    /// Strides evaluated concurrently per bank.
    pub strides_per_bank: usize,
    /// MRs left unused in each occupied arm group (gray MRs in Fig. 6).
    pub unused_mrs_per_stride: usize,
    /// Which summation stages are active.
    pub summation: SummationUsage,
    /// Total kernel strides (9-MAC work units) the layer requires.
    pub total_strides: usize,
    /// Strides the whole optical core can evaluate per optical cycle.
    pub strides_per_cycle: usize,
    /// Optical compute cycles needed for the layer.
    pub compute_cycles: usize,
    /// Times the MR weights must be rewritten because the layer's weights
    /// exceed the core capacity.
    pub weight_reloads: usize,
    /// Number of MRs that hold useful weights during the layer (≤ core MRs).
    pub active_mrs: usize,
    /// Whether the layer executes on CA banks (average pooling / compression)
    /// rather than the convolution/FC banks.
    pub uses_ca_banks: bool,
}

impl LayerMapping {
    /// Fraction of the optical core's MRs doing useful work for this layer.
    #[must_use]
    pub fn mr_utilization(&self, geometry: &OcGeometry) -> f64 {
        if geometry.mrs() == 0 {
            return 0.0;
        }
        self.active_mrs as f64 / geometry.mrs() as f64
    }
}

/// Maps layers onto a given optical-core geometry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HardwareMapper {
    geometry: OcGeometry,
}

impl HardwareMapper {
    /// Creates a mapper for a geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the geometry is invalid.
    pub fn new(geometry: OcGeometry) -> Result<Self> {
        geometry.validate()?;
        Ok(Self { geometry })
    }

    /// The geometry this mapper targets.
    #[must_use]
    pub fn geometry(&self) -> &OcGeometry {
        &self.geometry
    }

    /// Arms needed to hold one `elements`-long dot-product segment.
    fn arms_for_elements(&self, elements: usize) -> usize {
        elements.div_ceil(self.geometry.mrs_per_arm).max(1)
    }

    fn summation_for(arms_per_stride: usize) -> SummationUsage {
        match arms_per_stride {
            0 | 1 => SummationUsage::None,
            2 | 3 => SummationUsage::FirstStage,
            _ => SummationUsage::BothStages,
        }
    }

    /// Maps a single layer.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnmappableLayer`] for max-pooling layers (they
    /// stay in the electronic domain) or degenerate layers with no work.
    pub fn map_layer(&self, layer: &LayerSpec) -> Result<LayerMapping> {
        match layer {
            LayerSpec::Conv(conv) => {
                let kernel_elements = conv.kernel * conv.kernel;
                let arms_per_stride = self.arms_for_elements(kernel_elements);
                if arms_per_stride > self.geometry.arms() {
                    return Err(CoreError::UnmappableLayer {
                        reason: format!(
                            "a {k}x{k} kernel needs {arms_per_stride} arms but the core has only {}",
                            self.geometry.arms(),
                            k = conv.kernel
                        ),
                    });
                }
                // Kernels wider than a bank (e.g. AlexNet's 11x11) gang arms
                // across neighbouring banks; their partial sums meet in the
                // second summation stage, so strides_per_bank drops to zero.
                let strides_per_bank = self.geometry.arms_per_bank / arms_per_stride;
                let unused = arms_per_stride * self.geometry.mrs_per_arm - kernel_elements;
                let total_strides = conv.stride_count();
                // Each distinct (output-channel, input-channel) kernel is
                // mapped once; its output positions stream through the same
                // arm group, so the concurrency is capped by the number of
                // distinct kernels.
                let distinct_kernels = conv.out_channels * conv.in_channels;
                self.finish_mapping(
                    arms_per_stride,
                    strides_per_bank,
                    unused,
                    total_strides,
                    layer.weight_count(),
                    false,
                    Some(distinct_kernels),
                )
            }
            LayerSpec::Linear(linear) => {
                // Each output neuron's dot product is cut into 9-MAC segments
                // (paper §4); a segment is one stride. Every segment carries
                // distinct weights, so concurrency is limited only by the
                // core capacity.
                let segments_per_output = linear.in_features.div_ceil(self.geometry.mrs_per_arm);
                let total_strides = segments_per_output * linear.out_features;
                let last_segment = linear.in_features % self.geometry.mrs_per_arm;
                let unused = if last_segment == 0 {
                    0
                } else {
                    self.geometry.mrs_per_arm - last_segment
                };
                self.finish_mapping(
                    1,
                    self.geometry.arms_per_bank,
                    unused,
                    total_strides,
                    layer.weight_count(),
                    false,
                    None,
                )
            }
            LayerSpec::Pool(pool) => {
                if !pool.average {
                    return Err(CoreError::UnmappableLayer {
                        reason: "max pooling is executed in the electronic periphery, not the optical core"
                            .to_string(),
                    });
                }
                let window_elements = pool.window * pool.window;
                let arms_per_stride = self.arms_for_elements(window_elements);
                let strides_per_bank = (self.geometry.arms_per_bank / arms_per_stride).max(1);
                let unused = arms_per_stride * self.geometry.mrs_per_arm
                    - window_elements.min(arms_per_stride * self.geometry.mrs_per_arm);
                let [c, oh, ow] = pool.output_shape();
                let total_strides = c * oh * ow;
                // CA pooling coefficients are pre-set constants, so they are
                // freely replicated across every CA arm.
                self.finish_mapping(
                    arms_per_stride,
                    strides_per_bank,
                    unused,
                    total_strides,
                    window_elements,
                    true,
                    None,
                )
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_mapping(
        &self,
        arms_per_stride: usize,
        strides_per_bank: usize,
        unused_mrs_per_stride: usize,
        total_strides: usize,
        weight_count: usize,
        uses_ca_banks: bool,
        max_concurrent_strides: Option<usize>,
    ) -> Result<LayerMapping> {
        if total_strides == 0 {
            return Err(CoreError::UnmappableLayer {
                reason: "layer has no work to schedule".to_string(),
            });
        }
        let banks_available = if uses_ca_banks {
            self.geometry.ca_banks.max(1)
        } else {
            self.geometry.banks() - self.geometry.ca_banks.min(self.geometry.banks() - 1)
        };
        // Strides that fit per cycle: bank-local packing when a stride fits
        // inside a bank, otherwise arms ganged across banks; additionally
        // capped by the number of distinct weight sets that exist (a kernel
        // mapped once serves its output positions sequentially).
        let capacity = if strides_per_bank > 0 {
            banks_available * strides_per_bank
        } else {
            (banks_available * self.geometry.arms_per_bank / arms_per_stride.max(1)).max(1)
        };
        let strides_per_cycle = max_concurrent_strides
            .unwrap_or(capacity)
            .min(capacity)
            .min(total_strides)
            .max(1);
        let compute_cycles = total_strides.div_ceil(strides_per_cycle);
        let core_mrs = banks_available * self.geometry.mrs_per_bank();
        let active_mrs = weight_count.min(core_mrs);
        let weight_reloads = weight_count.div_ceil(core_mrs.max(1)).max(1);
        Ok(LayerMapping {
            arms_per_stride,
            strides_per_bank,
            unused_mrs_per_stride,
            summation: Self::summation_for(arms_per_stride),
            total_strides,
            strides_per_cycle,
            compute_cycles,
            weight_reloads,
            active_mrs,
            uses_ca_banks,
        })
    }

    /// Maps every optically executed layer of a network, skipping max-pool
    /// layers (returned as `None` entries so indices stay aligned with the
    /// network's layer list).
    ///
    /// # Errors
    ///
    /// Propagates mapping errors other than the expected max-pool skip.
    pub fn map_network(&self, layers: &[LayerSpec]) -> Result<Vec<Option<LayerMapping>>> {
        let mut mappings = Vec::with_capacity(layers.len());
        for layer in layers {
            match self.map_layer(layer) {
                Ok(mapping) => mappings.push(Some(mapping)),
                Err(CoreError::UnmappableLayer { .. }) if matches!(layer, LayerSpec::Pool(p) if !p.average) =>
                {
                    mappings.push(None);
                }
                Err(err) => return Err(err),
            }
        }
        Ok(mappings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_nn::spec::{ConvSpec, LinearSpec, NetworkSpec, PoolSpec};

    fn mapper() -> HardwareMapper {
        HardwareMapper::new(OcGeometry::paper()).expect("valid")
    }

    fn conv(kernel: usize) -> LayerSpec {
        LayerSpec::Conv(ConvSpec {
            in_channels: 3,
            out_channels: 16,
            kernel,
            stride: 1,
            padding: kernel / 2,
            in_height: 32,
            in_width: 32,
        })
    }

    #[test]
    fn three_by_three_uses_one_arm_and_six_strides() {
        let m = mapper().map_layer(&conv(3)).expect("ok");
        assert_eq!(m.arms_per_stride, 1);
        assert_eq!(m.strides_per_bank, 6);
        assert_eq!(m.unused_mrs_per_stride, 0);
        assert_eq!(m.summation, SummationUsage::None);
    }

    #[test]
    fn five_by_five_uses_three_arms_and_two_strides() {
        let m = mapper().map_layer(&conv(5)).expect("ok");
        assert_eq!(m.arms_per_stride, 3);
        assert_eq!(m.strides_per_bank, 2);
        assert_eq!(m.unused_mrs_per_stride, 2);
        assert_eq!(m.summation, SummationUsage::FirstStage);
    }

    #[test]
    fn seven_by_seven_uses_whole_bank() {
        let m = mapper().map_layer(&conv(7)).expect("ok");
        assert_eq!(m.arms_per_stride, 6);
        assert_eq!(m.strides_per_bank, 1);
        assert_eq!(m.unused_mrs_per_stride, 5);
        assert_eq!(m.summation, SummationUsage::BothStages);
    }

    #[test]
    fn oversized_kernels_span_banks() {
        let spec = LayerSpec::Conv(ConvSpec {
            in_channels: 1,
            out_channels: 1,
            kernel: 11,
            stride: 4,
            padding: 2,
            in_height: 224,
            in_width: 224,
        });
        // 11x11 = 121 weights -> 14 arms, more than one bank's 6 arms: the
        // stride spans banks and no bank-local packing is possible.
        let m = mapper().map_layer(&spec).expect("ok");
        assert_eq!(m.arms_per_stride, 14);
        assert_eq!(m.strides_per_bank, 0);
        assert_eq!(m.summation, SummationUsage::BothStages);
        assert!(m.strides_per_cycle >= 1);
    }

    #[test]
    fn fully_connected_segments_into_nine_mac_chunks() {
        let spec = LayerSpec::Linear(LinearSpec {
            in_features: 400,
            out_features: 120,
        });
        let m = mapper().map_layer(&spec).expect("ok");
        // ceil(400 / 9) = 45 segments per output neuron.
        assert_eq!(m.total_strides, 45 * 120);
        assert_eq!(m.arms_per_stride, 1);
        // 400 = 44*9 + 4 -> 5 unused MRs in the last segment.
        assert_eq!(m.unused_mrs_per_stride, 5);
    }

    #[test]
    fn average_pooling_maps_to_ca_banks() {
        let spec = LayerSpec::Pool(PoolSpec {
            channels: 6,
            window: 2,
            stride: 2,
            in_height: 28,
            in_width: 28,
            average: true,
        });
        let m = mapper().map_layer(&spec).expect("ok");
        assert!(m.uses_ca_banks);
        assert_eq!(m.total_strides, 6 * 14 * 14);
    }

    #[test]
    fn max_pooling_is_not_optically_mapped() {
        let spec = LayerSpec::Pool(PoolSpec {
            channels: 6,
            window: 2,
            stride: 2,
            in_height: 28,
            in_width: 28,
            average: false,
        });
        assert!(matches!(
            mapper().map_layer(&spec),
            Err(CoreError::UnmappableLayer { .. })
        ));
    }

    #[test]
    fn compute_cycles_cover_all_strides() {
        let m = mapper().map_layer(&conv(3)).expect("ok");
        assert!(m.compute_cycles * m.strides_per_cycle >= m.total_strides);
        assert!((m.compute_cycles - 1) * m.strides_per_cycle < m.total_strides);
    }

    #[test]
    fn weight_reloads_grow_with_layer_size() {
        let small = mapper().map_layer(&conv(3)).expect("ok");
        let big = mapper()
            .map_layer(&LayerSpec::Linear(LinearSpec {
                in_features: 25088,
                out_features: 4096,
            }))
            .expect("ok");
        assert!(big.weight_reloads > small.weight_reloads);
        assert!(small.weight_reloads >= 1);
    }

    #[test]
    fn utilization_is_bounded() {
        let geometry = OcGeometry::paper();
        for kernel in [3, 5, 7] {
            let m = mapper().map_layer(&conv(kernel)).expect("ok");
            let u = m.mr_utilization(&geometry);
            assert!(
                (0.0..=1.0).contains(&u),
                "utilization {u} for kernel {kernel}"
            );
        }
    }

    #[test]
    fn map_network_aligns_with_layers() {
        let net = NetworkSpec::alexnet();
        let mappings = mapper().map_network(net.layers()).expect("ok");
        assert_eq!(mappings.len(), net.layers().len());
        // AlexNet's max pools are not optically mapped.
        let unmapped = mappings.iter().filter(|m| m.is_none()).count();
        assert_eq!(unmapped, 3);
    }

    #[test]
    fn lenet_maps_completely() {
        let net = NetworkSpec::lenet();
        let mappings = mapper().map_network(net.layers()).expect("ok");
        assert!(
            mappings.iter().all(Option::is_some),
            "LeNet uses only avg pools"
        );
    }
}
