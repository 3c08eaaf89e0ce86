//! Convolution shapes the golden fixtures never reach — up to three input
//! channels, 1×1 and 5×5 kernels, stride 2 and padding up to 2 — run
//! through `PhotonicExecutor::forward` with analog noise on, one worker and
//! three. The reference is built here in the executor's original order,
//! from the conv alone: its rows are the weights rounded by
//! `quantize_symmetric` under their largest magnitude, as the plan encodes
//! them; for every stride it gathers the raw `f32` patch (zeros for
//! padding), quantizes each element with `quantize_unsigned` and streams
//! the codes through a `PhotonicMacUnit`, each output channel's row loaded
//! as row `oc` of layer 0 so its rings draw the executor's weight errors,
//! at the cursors a sequential walk reaches. The executor quantizes each layer input once and gathers drive
//! codes from that plane, so it must reproduce the reference bit for bit.

use lightator_core::exec::PhotonicExecutor;
use lightator_core::oc::PhotonicMacUnit;
use lightator_core::plan::CompiledPlan;
use lightator_core::platform::{Platform, Workload};
use lightator_nn::layers::Conv2d;
use lightator_nn::model::Sequential;
use lightator_nn::quant::{quantize_symmetric, quantize_unsigned, Precision, PrecisionSchedule};
use lightator_nn::tensor::Tensor;
use lightator_photonics::noise::{NoiseConfig, RowId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SEED: u64 = 29;
const WEIGHT_BITS: u8 = 4;

/// The executor's conv on a fresh frame 0, computed stride by stride:
/// `WEIGHT_BITS`-bit MR rows, raw patch, per-element quantization, one
/// `mac_loaded` per stride.
fn reference(conv: &Conv2d, input: &Tensor, activation_bits: u8) -> Vec<f32> {
    let [in_c, in_h, in_w] = [input.shape()[0], input.shape()[1], input.shape()[2]];
    let out_shape = conv.output_shape(input.shape()).expect("valid shape");
    let (k, stride, padding) = (conv.kernel(), conv.stride(), conv.padding());
    let weight_scale = conv.weight().max_abs();
    let weights: Vec<f64> = conv
        .weight()
        .data()
        .iter()
        .map(|&w| {
            let q = quantize_symmetric(w, weight_scale, WEIGHT_BITS);
            if weight_scale == 0.0 {
                0.0
            } else {
                f64::from(q / weight_scale).clamp(-1.0, 1.0)
            }
        })
        .collect();
    let scale = input.data().iter().fold(0.0f32, |m, &x| m.max(x.max(0.0)));
    let mut unit = PhotonicMacUnit::new(NoiseConfig::default(), SEED).expect("valid unit");
    unit.begin_frame(0);
    let mut out = Vec::new();
    for (oc, row) in weights.chunks(in_c * k * k).enumerate() {
        let id = RowId {
            layer: 0,
            row: oc as u64,
        };
        unit.load_row_as(id, row).expect("row in range");
        for oh in 0..out_shape[1] {
            for ow in 0..out_shape[2] {
                let mut codes = Vec::with_capacity(in_c * k * k);
                for ic in 0..in_c {
                    for kh in 0..k {
                        for kw in 0..k {
                            let ih = (oh * stride + kh).checked_sub(padding);
                            let iw = (ow * stride + kw).checked_sub(padding);
                            let raw = match (ih, iw) {
                                (Some(ih), Some(iw)) if ih < in_h && iw < in_w => {
                                    input.data()[(ic * in_h + ih) * in_w + iw]
                                }
                                _ => 0.0,
                            };
                            let q = quantize_unsigned(raw.max(0.0), scale, activation_bits);
                            codes.push(if scale == 0.0 {
                                0.0
                            } else {
                                f64::from(q / scale).clamp(0.0, 1.0)
                            });
                        }
                    }
                }
                let normalized = unit.mac_loaded(&codes).expect("codes in range");
                let value = normalized * f64::from(weight_scale) * f64::from(scale);
                out.push(value as f32 + conv.bias().data()[oc]);
            }
        }
    }
    out
}

proptest! {
    #[test]
    fn conv_forward_matches_the_per_stride_reference(
        in_c in 1usize..=3,
        out_c in 1usize..=3,
        side in 1usize..=9,
        kernel_index in 0usize..3,
        stride in 1usize..=2,
        padding in 0usize..=2,
        activation_bits in 1u8..=8,
        data_seed in 0u64..u64::MAX,
    ) {
        let k = [1usize, 3, 5][kernel_index];
        // The padded input must hold at least one kernel window.
        let side = side.max(k.saturating_sub(2 * padding)).max(1);
        let mut rng = SmallRng::seed_from_u64(data_seed);
        let conv = Conv2d::new(in_c, out_c, k, stride, padding, &mut rng).expect("conv");
        // Negative entries clamp to zero; some inputs are all-dark.
        let dark = rng.gen_bool(0.1);
        let data: Vec<f32> = (0..in_c * side * side)
            .map(|_| if dark { 0.0 } else { rng.gen_range(-0.5f32..1.5) })
            .collect();
        let input = Tensor::from_vec(data, &[in_c, side, side]).expect("input");
        let mut model = Sequential::new(&[in_c, side, side]);
        model.push(conv.clone());

        let schedule = PrecisionSchedule::Uniform(
            Precision::new(WEIGHT_BITS, activation_bits).expect("precision"),
        );
        let platform = Platform::builder()
            .precision(schedule)
            .build()
            .expect("platform");
        let mut plan = CompiledPlan::compile(&Workload::Classify { model }, platform.config(), SEED)
            .expect("plan");
        let expected = reference(&conv, &input, activation_bits);
        for workers in [1usize, 3] {
            let mut executor =
                PhotonicExecutor::new(schedule, NoiseConfig::default(), SEED).expect("executor");
            executor.set_workers(workers);
            let got = executor.forward(&mut plan, &input).expect("forward");
            let got_bits: Vec<u32> = got.data().iter().map(|v| v.to_bits()).collect();
            let expected_bits: Vec<u32> = expected.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                got_bits,
                expected_bits,
                "in_c {} side {} k {} stride {} padding {} workers {}",
                in_c,
                side,
                k,
                stride,
                padding,
                workers
            );
        }
    }
}
