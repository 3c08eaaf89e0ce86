//! Headline claims of the paper, recomputed from the harness:
//! 84.4 KFPS/W for Lightator-MX \[4:4\]\[3:4\], ~24× lower power than the
//! photonic baselines, ~73× lower than the GPU, ~2.4× efficiency from
//! bit-width reduction, and the CA's first-layer saving.

use crate::fig8;
use crate::fig9;
use crate::table1::{self, Table1Row};
use lightator_core::CoreError;
use serde::{Deserialize, Serialize};

/// The Table-1 design whose efficiency the abstract quotes.
const MX_DESIGN: &str = "Lightator-MX [4:4][3:4]";

/// The recomputed headline numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct HeadlineClaims {
    /// KFPS/W of the Lightator-MX \[4:4\]\[3:4\] variant (paper: 84.4).
    pub mx_kfps_per_watt: f64,
    /// Average photonic-baseline power divided by average Lightator power
    /// (paper: ~24×).
    pub photonic_power_reduction: f64,
    /// GPU power divided by average Lightator power (paper: ~73×).
    pub gpu_power_reduction: f64,
    /// Average efficiency gain from weight bit-width reduction on LeNet
    /// (paper: ~2.4×).
    pub bit_width_efficiency_gain: f64,
    /// First-layer saving from compressive acquisition (paper: 42.2 %).
    pub ca_first_layer_saving: f64,
}

/// Recomputes every headline claim.
///
/// # Errors
///
/// Propagates harness errors, and returns [`CoreError::ModelMismatch`] when
/// Table 1 lacks a row, or Fig. 8 a precision group, that a claim is
/// computed from.
pub fn compute() -> Result<HeadlineClaims, CoreError> {
    let table1 = table1_claims(&table1::performance_rows()?)?;
    let fig8_rows = fig8::generate()?;
    let fig9_data = fig9::generate()?;

    Ok(HeadlineClaims {
        mx_kfps_per_watt: table1.mx_kfps_per_watt,
        photonic_power_reduction: table1.photonic_power_reduction,
        gpu_power_reduction: table1.gpu_power_reduction,
        bit_width_efficiency_gain: fig8::average_efficiency_gain(&fig8_rows)?,
        ca_first_layer_saving: fig9_data.ca_first_layer_saving,
    })
}

/// The claims Table 1's rows decide.
#[derive(Debug)]
struct Table1Claims {
    mx_kfps_per_watt: f64,
    photonic_power_reduction: f64,
    gpu_power_reduction: f64,
}

/// Computes the Table-1 claims from `rows`, failing on a missing row or an
/// empty design group instead of assuming a value for it.
fn table1_claims(rows: &[Table1Row]) -> Result<Table1Claims, CoreError> {
    let lightator_avg = mean_power(rows, "Lightator", |d| d.starts_with("Lightator"))?;
    let baseline_avg = mean_power(rows, "photonic baseline", |d| {
        !d.starts_with("Lightator") && !d.contains("GPU")
    })?;
    let gpu_power = rows
        .iter()
        .find(|r| r.design.contains("GPU"))
        .and_then(|r| r.max_power_w)
        .ok_or_else(|| missing("GPU row that reports a max power"))?;
    let mx_kfps_per_watt = rows
        .iter()
        .find(|r| r.design == MX_DESIGN)
        .and_then(|r| r.kfps_per_watt)
        .ok_or_else(|| missing(&format!("`{MX_DESIGN}` row that reports KFPS/W")))?;
    Ok(Table1Claims {
        mx_kfps_per_watt,
        photonic_power_reduction: baseline_avg / lightator_avg,
        gpu_power_reduction: gpu_power / lightator_avg,
    })
}

/// Mean max power of the `group` rows, those whose design `member` accepts.
fn mean_power(
    rows: &[Table1Row],
    group: &str,
    member: impl Fn(&str) -> bool,
) -> Result<f64, CoreError> {
    let powers: Vec<f64> = rows
        .iter()
        .filter(|r| member(&r.design))
        .filter_map(|r| r.max_power_w)
        .collect();
    if powers.is_empty() {
        return Err(missing(&format!("{group} row that reports a max power")));
    }
    Ok(powers.iter().sum::<f64>() / powers.len() as f64)
}

fn missing(what: &str) -> CoreError {
    CoreError::ModelMismatch {
        reason: format!("Table 1 has no {what}"),
    }
}

/// Renders the claims alongside the paper's reported values.
#[must_use]
pub fn render(claims: &HeadlineClaims) -> String {
    format!(
        "Headline claims (measured vs paper)\n\
         Lightator-MX [4:4][3:4] efficiency : {:8.1} KFPS/W   (paper:  84.4)\n\
         power vs photonic baselines        : {:8.1}x lower   (paper: ~24x)\n\
         power vs GPU baseline              : {:8.1}x lower   (paper: ~73x)\n\
         bit-width reduction efficiency     : {:8.1}x          (paper: ~2.4x)\n\
         CA first-layer saving              : {:8.1}%          (paper: 42.2%)\n",
        claims.mx_kfps_per_watt,
        claims.photonic_power_reduction,
        claims.gpu_power_reduction,
        claims.bit_width_efficiency_gain,
        claims.ca_first_layer_saving * 100.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claims_reproduce_the_papers_direction() {
        let claims = compute().expect("ok");
        // Efficiency of the MX variant is tens to a few hundred KFPS/W.
        assert!(
            claims.mx_kfps_per_watt > 20.0 && claims.mx_kfps_per_watt < 2_000.0,
            "MX KFPS/W {}",
            claims.mx_kfps_per_watt
        );
        // An order of magnitude (or more) less power than photonic baselines.
        assert!(claims.photonic_power_reduction > 8.0);
        // Dozens of times less power than the GPU.
        assert!(claims.gpu_power_reduction > 20.0);
        // Meaningful efficiency gain from precision scaling.
        assert!(claims.bit_width_efficiency_gain > 1.5);
        // A visible CA saving.
        assert!(claims.ca_first_layer_saving > 0.15);
    }

    fn row(design: &str, max_power_w: Option<f64>, kfps_per_watt: Option<f64>) -> Table1Row {
        Table1Row {
            design: design.to_string(),
            node_nm: None,
            max_power_w,
            kfps_per_watt,
            accuracy: table1::DatasetAccuracies::default(),
        }
    }

    /// Regression: a missing GPU row read as 200 W, a missing MX row as
    /// 0 KFPS/W, and an empty design group as a ratio of 0 or about 1e11.
    #[test]
    fn table1_claims_fail_on_a_missing_row_or_an_empty_group() {
        let rows = [
            row("baseline GPU [32:32]", Some(200.0), None),
            row("LightBulb [1:1]", Some(80.0), Some(58.0)),
            row("HQNNA [4:4]", None, Some(39.0)),
            row("Lightator [4:4]", Some(5.0), Some(89.0)),
            row(MX_DESIGN, Some(3.0), Some(126.0)),
        ];
        let claims = table1_claims(&rows).expect("every group has a row");
        assert_eq!(claims.mx_kfps_per_watt, 126.0);
        assert_eq!(claims.photonic_power_reduction, 80.0 / 4.0);
        assert_eq!(claims.gpu_power_reduction, 200.0 / 4.0);
        // HQNNA reports no power, so dropping LightBulb empties the
        // photonic baselines.
        for (dropped, named) in [
            ("GPU", "GPU row"),
            (MX_DESIGN, MX_DESIGN),
            ("LightBulb", "photonic baseline row"),
            ("Lightator", "Lightator row"),
        ] {
            let kept: Vec<Table1Row> = rows
                .iter()
                .filter(|r| !r.design.contains(dropped))
                .cloned()
                .collect();
            let err = table1_claims(&kept).expect_err(dropped).to_string();
            assert!(err.contains(named), "without {dropped}: {err}");
        }
    }

    #[test]
    fn render_mentions_the_paper_numbers() {
        let claims = compute().expect("ok");
        let text = render(&claims);
        assert!(text.contains("84.4"));
        assert!(text.contains("42.2"));
    }
}
