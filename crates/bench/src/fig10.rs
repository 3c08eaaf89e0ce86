//! Figure 10: log-scale execution time of Eyeriss, ENVISION, AppCiP, YodaNN
//! and Lightator on VGG16 and AlexNet.

use crate::harness::platform;
use lightator_baselines::registry::fig10_registry;
use lightator_core::CoreError;
use lightator_nn::spec::NetworkSpec;
use serde::{Deserialize, Serialize};

/// Execution time of one accelerator on one network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Accelerator name.
    pub accelerator: String,
    /// Workload name (`VGG16`, `VGG13` for YodaNN's substitution, `AlexNet`).
    pub network: String,
    /// Execution time in milliseconds.
    pub time_ms: f64,
}

/// The complete Fig. 10 dataset plus Lightator's speed-up factors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Data {
    /// All (accelerator, network) execution times.
    pub rows: Vec<Fig10Row>,
    /// Speed-up of Lightator over each electronic accelerator on AlexNet
    /// (paper: 10.7× Eyeriss, 20.4× YodaNN, 18.1× AppCiP, 8.8× ENVISION).
    pub alexnet_speedups: Vec<(String, f64)>,
}

/// Generates the Fig. 10 dataset by iterating the backend registry: each
/// entry's [`Backend::performance`] report provides the execution times
/// (YodaNN's VGG16 column is substituted with VGG13, as encoded in the
/// registry).
///
/// [`Backend::performance`]: lightator_core::backend::Backend::performance
///
/// # Errors
///
/// Propagates simulator errors, and returns [`CoreError::ModelMismatch`]
/// when the registry lacks the Lightator row the speed-ups divide by.
pub fn generate() -> Result<Fig10Data, CoreError> {
    let platform = platform()?;
    let alexnet = NetworkSpec::alexnet();

    let mut rows = Vec::new();
    // (label, AlexNet ms, is-electronic) per entry, for the speed-up pass.
    let mut alexnet_times = Vec::new();
    for entry in fig10_registry() {
        let vgg_ms = entry
            .backend
            .performance(&entry.vgg, platform.config())?
            .frame_latency
            .ms();
        let alexnet_ms = entry
            .backend
            .performance(&alexnet, platform.config())?
            .frame_latency
            .ms();
        rows.push(Fig10Row {
            accelerator: entry.label.clone(),
            network: entry.vgg.name().to_string(),
            time_ms: vgg_ms,
        });
        rows.push(Fig10Row {
            accelerator: entry.label.clone(),
            network: alexnet.name().to_string(),
            time_ms: alexnet_ms,
        });
        alexnet_times.push((entry.label.clone(), alexnet_ms, entry.is_electronic()));
    }

    let lightator_alexnet = alexnet_times
        .iter()
        .find(|(label, _, _)| label == "Lightator")
        .map(|(_, ms, _)| *ms)
        .ok_or_else(|| CoreError::ModelMismatch {
            reason: "the Fig. 10 registry has no Lightator row".to_string(),
        })?;
    let alexnet_speedups = alexnet_times
        .iter()
        .filter(|(_, _, electronic)| *electronic)
        .map(|(label, ms, _)| (label.clone(), ms / lightator_alexnet))
        .collect();

    Ok(Fig10Data {
        rows,
        alexnet_speedups,
    })
}

/// Renders the dataset as the text table printed by the harness binary.
#[must_use]
pub fn render(data: &Fig10Data) -> String {
    let mut out = String::new();
    out.push_str("Fig. 10 — execution time (ms, log scale in the paper)\n");
    out.push_str(&format!(
        "{:<12} {:<8} {:>12}\n",
        "accelerator", "network", "time (ms)"
    ));
    for row in &data.rows {
        out.push_str(&format!(
            "{:<12} {:<8} {:>12.4}\n",
            row.accelerator, row.network, row.time_ms
        ));
    }
    out.push_str("\nLightator speed-up on AlexNet (paper: Eyeriss 10.7x, YodaNN 20.4x, AppCiP 18.1x, ENVISION 8.8x):\n");
    for (name, factor) in &data.alexnet_speedups {
        out.push_str(&format!("  over {:<10} {:>8.1}x\n", name, factor));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_accelerator_appears_on_both_networks() {
        let data = generate().expect("ok");
        // 4 electronic + Lightator = 5 accelerators x 2 networks.
        assert_eq!(data.rows.len(), 10);
        for name in ["Eyeriss", "ENVISION", "AppCiP", "YodaNN", "Lightator"] {
            assert_eq!(
                data.rows.iter().filter(|r| r.accelerator == name).count(),
                2
            );
        }
    }

    #[test]
    fn lightator_is_fastest_on_both_workloads() {
        let data = generate().expect("ok");
        for network in ["VGG16", "AlexNet"] {
            let lightator = data
                .rows
                .iter()
                .find(|r| r.accelerator == "Lightator" && r.network == network)
                .expect("exists")
                .time_ms;
            for row in data.rows.iter().filter(|r| r.accelerator != "Lightator") {
                if row.network == network || (network == "VGG16" && row.network == "VGG13") {
                    assert!(
                        row.time_ms > lightator,
                        "{} ({}) should be slower than Lightator",
                        row.accelerator,
                        row.network
                    );
                }
            }
        }
    }

    #[test]
    fn speedups_are_large_and_ordered_like_the_paper() {
        let data = generate().expect("ok");
        let factor = |name: &str| {
            data.alexnet_speedups
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, f)| *f)
                .expect("exists")
        };
        // All speed-ups are large (the paper reports 8.8x - 20.4x).
        for name in ["Eyeriss", "YodaNN", "AppCiP", "ENVISION"] {
            assert!(
                factor(name) > 3.0,
                "{name} speed-up {} too small",
                factor(name)
            );
        }
        // The ordering matches the paper: largest gain over YodaNN, smallest
        // over ENVISION.
        assert!(factor("YodaNN") > factor("Eyeriss"));
        assert!(factor("AppCiP") > factor("Eyeriss"));
        assert!(factor("Eyeriss") > factor("ENVISION"));
    }

    #[test]
    fn yodann_vgg_column_uses_vgg13() {
        let data = generate().expect("ok");
        assert!(data
            .rows
            .iter()
            .any(|r| r.accelerator == "YodaNN" && r.network == "VGG13"));
    }

    #[test]
    fn render_contains_speedups() {
        let data = generate().expect("ok");
        let text = render(&data);
        assert!(text.contains("Lightator speed-up"));
        assert!(text.contains("Eyeriss"));
    }
}
