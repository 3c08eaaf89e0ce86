//! Figure 8: layer-wise power breakdown of LeNet on Lightator for the
//! \[4:4\], \[3:4\] and \[2:4\] weight:activation configurations.

use crate::harness::{platform, PRECISIONS};
use lightator_core::energy::ComponentPower;
use lightator_core::CoreError;
use lightator_nn::quant::PrecisionSchedule;
use lightator_nn::spec::NetworkSpec;
use serde::{Deserialize, Serialize};

/// One bar group of Fig. 8: a layer of LeNet under one precision.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Precision label (`[4:4]`, `[3:4]`, `[2:4]`).
    pub precision: String,
    /// Layer label (`L1`..`L7`).
    pub layer: String,
    /// Layer kind (`conv`, `pool`, `fc`).
    pub kind: String,
    /// Per-component power in watts, in the order of
    /// [`ComponentPower::LABELS`].
    pub components_w: [f64; 6],
    /// Total layer power in watts.
    pub total_w: f64,
}

/// Generates the full Fig. 8 dataset: 7 LeNet layers × 3 precisions.
///
/// # Errors
///
/// Propagates simulator configuration errors.
pub fn generate() -> Result<Vec<Fig8Row>, CoreError> {
    let platform = platform()?;
    let network = NetworkSpec::lenet();
    let mut rows = Vec::new();
    for precision in PRECISIONS {
        let report = platform.simulate_with(&network, PrecisionSchedule::Uniform(precision))?;
        for layer in &report.layers {
            let values = layer.power.values();
            let mut components_w = [0.0; 6];
            for (slot, value) in components_w.iter_mut().zip(values.iter()) {
                *slot = value.watts();
            }
            rows.push(Fig8Row {
                precision: precision.to_string(),
                layer: format!("L{}", layer.index + 1),
                kind: layer.kind.clone(),
                components_w,
                total_w: layer.power.total().watts(),
            });
        }
    }
    Ok(rows)
}

/// Renders the dataset as the text table printed by the harness binary.
#[must_use]
pub fn render(rows: &[Fig8Row]) -> String {
    let mut out = String::new();
    out.push_str("Fig. 8 — LeNet layer-wise power breakdown on Lightator (W)\n");
    out.push_str(&format!(
        "{:<8} {:<5} {:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
        "config", "layer", "kind", "ADCs", "DACs", "DMVA", "TUN", "BPD", "Misc.", "total"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<8} {:<5} {:<6} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e}\n",
            row.precision,
            row.layer,
            row.kind,
            row.components_w[0],
            row.components_w[1],
            row.components_w[2],
            row.components_w[3],
            row.components_w[4],
            row.components_w[5],
            row.total_w,
        ));
    }
    let _ = ComponentPower::LABELS;
    out
}

/// Average power-efficiency gain of dropping the weight precision from
/// \[4:4\] to \[2:4\] across the LeNet layers (the paper reports ~2.4×).
///
/// # Errors
///
/// Returns [`CoreError::ModelMismatch`] naming the precision group that has
/// no rows, instead of assuming a gain for it.
pub fn average_efficiency_gain(rows: &[Fig8Row]) -> Result<f64, CoreError> {
    let total = |label: &str| -> Result<f64, CoreError> {
        let group: Vec<f64> = rows
            .iter()
            .filter(|r| r.precision == label)
            .map(|r| r.total_w)
            .collect();
        if group.is_empty() {
            return Err(CoreError::ModelMismatch {
                reason: format!("Fig. 8 has no {label} rows"),
            });
        }
        Ok(group.iter().sum())
    };
    Ok(total("[4:4]")? / total("[2:4]")?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_seven_layers_per_precision() {
        let rows = generate().expect("ok");
        assert_eq!(rows.len(), 21);
        for label in ["[4:4]", "[3:4]", "[2:4]"] {
            assert_eq!(rows.iter().filter(|r| r.precision == label).count(), 7);
        }
    }

    #[test]
    fn totals_match_component_sums() {
        for row in generate().expect("ok") {
            let sum: f64 = row.components_w.iter().sum();
            assert!((sum - row.total_w).abs() < 1e-9);
        }
    }

    #[test]
    fn lower_precision_reduces_every_layers_power() {
        let rows = generate().expect("ok");
        for layer_idx in 0..7 {
            let layer = format!("L{}", layer_idx + 1);
            let get = |label: &str| {
                rows.iter()
                    .find(|r| r.precision == label && r.layer == layer)
                    .map(|r| r.total_w)
                    .expect("row exists")
            };
            assert!(get("[4:4]") >= get("[3:4]"));
            assert!(get("[3:4]") >= get("[2:4]"));
        }
    }

    #[test]
    fn efficiency_gain_is_in_the_papers_ballpark() {
        let rows = generate().expect("ok");
        let gain = average_efficiency_gain(&rows).expect("both groups");
        assert!(gain > 1.5 && gain < 5.0, "gain {gain}");
    }

    /// Regression: rows without \[2:4\] read as a gain of 0.0, and rows
    /// without \[4:4\] as 0/x = 0.0.
    #[test]
    fn efficiency_gain_fails_on_a_missing_precision_group() {
        let rows = generate().expect("ok");
        for missing in ["[2:4]", "[4:4]"] {
            let kept: Vec<Fig8Row> = rows
                .iter()
                .filter(|r| r.precision != missing)
                .cloned()
                .collect();
            let err = average_efficiency_gain(&kept)
                .expect_err(missing)
                .to_string();
            assert!(err.contains(missing), "without {missing}: {err}");
        }
    }

    #[test]
    fn render_contains_every_layer() {
        let rows = generate().expect("ok");
        let text = render(&rows);
        for l in 1..=7 {
            assert!(text.contains(&format!("L{l}")));
        }
    }
}
