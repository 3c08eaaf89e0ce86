//! Uniform quantization of weights and activations.
//!
//! Lightator maps quantized weights onto MR transmissions and quantized
//! activations onto VCSEL drive codes, so the DNN stack must express the
//! paper's `[Weight : Activation]` precision configurations (\[4:4\], \[3:4\],
//! \[2:4\]) and the mixed-precision variants (first layer at \[4:4\], remaining
//! layers lower).

use crate::error::{NnError, Result};
use crate::model::Sequential;
use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A `[weight_bits : activation_bits]` precision configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Precision {
    /// Bit-width of the weights mapped onto MRs.
    pub weight_bits: u8,
    /// Bit-width of the activations driven onto VCSELs.
    pub activation_bits: u8,
}

impl Precision {
    /// Creates a precision configuration.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidParameter`] if either bit-width is zero or
    /// larger than 8.
    pub fn new(weight_bits: u8, activation_bits: u8) -> Result<Self> {
        for (name, bits) in [
            ("weight_bits", weight_bits),
            ("activation_bits", activation_bits),
        ] {
            if bits == 0 || bits > 8 {
                return Err(NnError::InvalidParameter {
                    name,
                    value: f64::from(bits),
                });
            }
        }
        Ok(Self {
            weight_bits,
            activation_bits,
        })
    }

    /// The paper's \[4:4\] configuration.
    #[must_use]
    pub const fn w4a4() -> Self {
        Self {
            weight_bits: 4,
            activation_bits: 4,
        }
    }

    /// The paper's \[3:4\] configuration.
    #[must_use]
    pub const fn w3a4() -> Self {
        Self {
            weight_bits: 3,
            activation_bits: 4,
        }
    }

    /// The paper's \[2:4\] configuration.
    #[must_use]
    pub const fn w2a4() -> Self {
        Self {
            weight_bits: 2,
            activation_bits: 4,
        }
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}:{}]", self.weight_bits, self.activation_bits)
    }
}

impl std::str::FromStr for Precision {
    type Err = NnError;

    /// Parses the paper's `[W:A]` notation (e.g. `[4:4]`), the inverse of
    /// [`Display`](fmt::Display).
    fn from_str(s: &str) -> Result<Self> {
        let reject = || NnError::InvalidLabel {
            what: "precision",
            input: s.to_string(),
        };
        let inner = s
            .trim()
            .strip_prefix('[')
            .and_then(|rest| rest.strip_suffix(']'))
            .ok_or_else(reject)?;
        let (w, a) = inner.split_once(':').ok_or_else(reject)?;
        let parse = |text: &str| text.trim().parse::<u8>().map_err(|_| reject());
        Precision::new(parse(w)?, parse(a)?)
    }
}

/// A per-layer precision schedule.
///
/// `Uniform` applies the same precision everywhere; `Mixed` keeps the first
/// (most sensitive) layer at one precision and the remaining layers at
/// another — the paper's "Lightator-MX" variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecisionSchedule {
    /// Same precision for every weighted layer.
    Uniform(Precision),
    /// First weighted layer at `first`, all later weighted layers at `rest`.
    Mixed {
        /// Precision of the first weighted layer.
        first: Precision,
        /// Precision of every subsequent weighted layer.
        rest: Precision,
    },
}

impl PrecisionSchedule {
    /// Precision applied to the `index`-th *weighted* layer.
    #[must_use]
    pub fn for_layer(&self, index: usize) -> Precision {
        match self {
            PrecisionSchedule::Uniform(p) => *p,
            PrecisionSchedule::Mixed { first, rest } => {
                if index == 0 {
                    *first
                } else {
                    *rest
                }
            }
        }
    }

    /// The paper's naming for the configuration (e.g. `[4:4]` or
    /// `[4:4][3:4]`).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PrecisionSchedule::Uniform(p) => p.to_string(),
            PrecisionSchedule::Mixed { first, rest } => format!("{first}{rest}"),
        }
    }

    /// Parses a schedule label produced by [`PrecisionSchedule::label`]:
    /// `[W:A]` for uniform schedules, `[W:A][W:A]` for mixed ones.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidLabel`] carrying the rejected input for
    /// malformed labels.
    pub fn parse_label(label: &str) -> Result<Self> {
        let reject = || NnError::InvalidLabel {
            what: "schedule",
            input: label.to_string(),
        };
        let trimmed = label.trim();
        let brackets = trimmed.matches('[').count();
        match brackets {
            1 => Ok(PrecisionSchedule::Uniform(trimmed.parse()?)),
            2 => {
                let split = trimmed.find("][").ok_or_else(reject)?;
                let (first, rest) = trimmed.split_at(split + 1);
                Ok(PrecisionSchedule::Mixed {
                    first: first.parse()?,
                    rest: rest.parse()?,
                })
            }
            _ => Err(reject()),
        }
    }

    /// Average weight bit-width over `layer_count` weighted layers (used by
    /// power models).
    #[must_use]
    pub fn mean_weight_bits(&self, layer_count: usize) -> f64 {
        if layer_count == 0 {
            return 0.0;
        }
        (0..layer_count)
            .map(|i| f64::from(self.for_layer(i).weight_bits))
            .sum::<f64>()
            / layer_count as f64
    }
}

/// Symmetric uniform quantization of a signed value to `bits` bits.
///
/// The value is mapped onto the integer grid `{-(2^(b-1)-1), ..., 2^(b-1)-1}`
/// scaled by `scale`, then de-quantized back to a float. A `scale` of zero
/// returns zero (an all-zero tensor stays all-zero).
#[must_use]
pub fn quantize_symmetric(value: f32, scale: f32, bits: u8) -> f32 {
    if scale == 0.0 {
        return 0.0;
    }
    let q_max = ((1u32 << (bits - 1)) - 1) as f32;
    let q = (value / scale * q_max).round().clamp(-q_max, q_max);
    q / q_max * scale
}

/// Unsigned uniform quantization of a non-negative value in `[0, scale]` to
/// `bits` bits.
#[must_use]
pub fn quantize_unsigned(value: f32, scale: f32, bits: u8) -> f32 {
    if scale == 0.0 {
        return 0.0;
    }
    let q_max = ((1u32 << bits) - 1) as f32;
    let q = (value / scale * q_max).round().clamp(0.0, q_max);
    q / q_max * scale
}

/// Quantizes a tensor symmetrically with a per-tensor scale equal to its
/// maximum absolute value; returns the de-quantized tensor and the scale.
#[must_use]
pub fn quantize_tensor_symmetric(tensor: &Tensor, bits: u8) -> (Tensor, f32) {
    let scale = tensor.max_abs();
    let quantized = tensor.map(|x| quantize_symmetric(x, scale, bits));
    (quantized, scale)
}

/// Quantizes the weights of every weighted layer of a model in place
/// according to the schedule (post-training quantization). Returns the number
/// of weighted layers touched.
pub fn quantize_model_weights(model: &mut Sequential, schedule: PrecisionSchedule) -> usize {
    let mut weighted_index = 0;
    for layer in model.layers_mut() {
        if let Some(weight) = layer.weight_mut() {
            let precision = schedule.for_layer(weighted_index);
            let (quantized, _) = quantize_tensor_symmetric(weight, precision.weight_bits);
            *weight = quantized;
            weighted_index += 1;
        }
    }
    weighted_index
}

/// Root-mean-square quantization error of a tensor at a given bit-width —
/// useful for sensitivity reports.
#[must_use]
pub fn quantization_rmse(tensor: &Tensor, bits: u8) -> f64 {
    if tensor.is_empty() {
        return 0.0;
    }
    let (quantized, _) = quantize_tensor_symmetric(tensor, bits);
    let sum: f64 = tensor
        .data()
        .iter()
        .zip(quantized.data())
        .map(|(&a, &b)| f64::from(a - b).powi(2))
        .sum();
    (sum / tensor.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precision_construction_and_presets() {
        assert!(Precision::new(0, 4).is_err());
        assert!(Precision::new(4, 9).is_err());
        assert_eq!(Precision::w4a4().to_string(), "[4:4]");
    }

    #[test]
    fn schedule_selects_per_layer_precision() {
        let mx = PrecisionSchedule::Mixed {
            first: Precision::w4a4(),
            rest: Precision::w3a4(),
        };
        assert_eq!(mx.for_layer(0), Precision::w4a4());
        assert_eq!(mx.for_layer(1), Precision::w3a4());
        assert_eq!(mx.for_layer(5), Precision::w3a4());
        assert_eq!(mx.label(), "[4:4][3:4]");
        let uniform = PrecisionSchedule::Uniform(Precision::w2a4());
        assert_eq!(uniform.for_layer(3), Precision::w2a4());
        assert_eq!(uniform.label(), "[2:4]");
    }

    #[test]
    fn precision_labels_round_trip_through_from_str() {
        for p in [Precision::w4a4(), Precision::w3a4(), Precision::w2a4()] {
            assert_eq!(p.to_string().parse::<Precision>().unwrap(), p);
        }
        assert!("[0:4]".parse::<Precision>().is_err());
        assert!("4:4".parse::<Precision>().is_err());
        let err = "[4-4]".parse::<Precision>().expect_err("bad separator");
        assert!(
            err.to_string().contains("[4-4]"),
            "parse error should carry the rejected input: {err}"
        );
    }

    #[test]
    fn schedule_labels_round_trip_through_parse_label() {
        let schedules = [
            PrecisionSchedule::Uniform(Precision::w2a4()),
            PrecisionSchedule::Mixed {
                first: Precision::w4a4(),
                rest: Precision::w3a4(),
            },
        ];
        for schedule in schedules {
            assert_eq!(
                PrecisionSchedule::parse_label(&schedule.label()).unwrap(),
                schedule
            );
        }
        assert!(PrecisionSchedule::parse_label("").is_err());
        assert!(PrecisionSchedule::parse_label("[4:4][3:4][2:4]").is_err());
    }

    #[test]
    fn mean_weight_bits_reflects_mixing() {
        let mx = PrecisionSchedule::Mixed {
            first: Precision::w4a4(),
            rest: Precision::w2a4(),
        };
        assert!((mx.mean_weight_bits(4) - 2.5).abs() < 1e-12);
        assert_eq!(mx.mean_weight_bits(0), 0.0);
    }

    #[test]
    fn symmetric_quantization_round_trips_extremes() {
        let scale = 2.0;
        assert_eq!(quantize_symmetric(2.0, scale, 4), 2.0);
        assert_eq!(quantize_symmetric(-2.0, scale, 4), -2.0);
        assert_eq!(quantize_symmetric(0.0, scale, 4), 0.0);
        // Out-of-range values clamp to the scale.
        assert_eq!(quantize_symmetric(5.0, scale, 4), 2.0);
    }

    #[test]
    fn quantization_error_shrinks_with_bits() {
        let t = Tensor::from_vec((0..64).map(|i| (i as f32 / 63.0) - 0.5).collect(), &[64])
            .expect("ok");
        let e2 = quantization_rmse(&t, 2);
        let e3 = quantization_rmse(&t, 3);
        let e4 = quantization_rmse(&t, 4);
        assert!(e2 > e3);
        assert!(e3 > e4);
    }

    #[test]
    fn unsigned_quantization_clamps_negatives() {
        assert_eq!(quantize_unsigned(-1.0, 1.0, 4), 0.0);
        assert_eq!(
            quantize_unsigned(0.5, 1.0, 4),
            (0.5f32 * 15.0).round() / 15.0
        );
    }

    #[test]
    fn zero_tensor_quantizes_to_zero() {
        let t = Tensor::zeros(&[8]);
        let (q, scale) = quantize_tensor_symmetric(&t, 4);
        assert_eq!(scale, 0.0);
        assert!(q.data().iter().all(|&x| x == 0.0));
        assert_eq!(quantization_rmse(&t, 2), 0.0);
    }

    #[test]
    fn tensor_quantization_bounded_by_scale() {
        let t = Tensor::from_vec(vec![0.3, -0.8, 0.55, 0.02], &[4]).expect("ok");
        let (q, scale) = quantize_tensor_symmetric(&t, 3);
        assert!((scale - 0.8).abs() < 1e-6);
        for &v in q.data() {
            assert!(v.abs() <= scale + 1e-6);
        }
    }
}
