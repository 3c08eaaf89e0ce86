//! The backend registry: every comparison point of the paper's evaluation
//! as a [`Backend`], plus the Table-1 / Fig-10 row descriptions that turn
//! the bench harness into thin loops.
//!
//! [`photonic_variants`] builds the five Lightator precision variants of
//! Table 1 (`photonic:w4a4` … `photonic:mx-w2a4`) on
//! [`PhotonicBackend::with_schedule`]; the electronic designs run as
//! executable [`ElectronicReference`] backends and the Table-1 photonic
//! baselines as analytical [`RooflineBackend`]s.
//!
//! [`table1_registry`] and [`fig10_registry`] describe the two headline
//! comparisons as data: each entry names the backend plus the row policy
//! (process node, which network the power column is measured on, which
//! columns the original paper leaves unreported), so the bench harness
//! iterates entries instead of hand-looping per baseline family.

use std::sync::Arc;

use lightator_core::backend::{Backend, PhotonicBackend};
use lightator_nn::quant::{Precision, PrecisionSchedule};
use lightator_nn::spec::NetworkSpec;

use crate::electronic::ElectronicBaseline;
use crate::optical::OpticalBaseline;
use crate::reference::ElectronicReference;
use crate::roofline::RooflineBackend;

/// The five Lightator precision variants of Table 1, each with the
/// schedule it pins: three uniform schedules and two mixed (first layer at
/// `[4:4]`, the rest lower).
///
/// Names match the harness labels exactly (`"Lightator [4:4]"`,
/// `"Lightator-MX [4:4][3:4]"`, ...); ids are `photonic:w4a4`,
/// `photonic:mx-w3a4`, and so on.
#[must_use]
pub fn photonic_variants() -> Vec<(PhotonicBackend, PrecisionSchedule)> {
    let uniform = [Precision::w4a4(), Precision::w3a4(), Precision::w2a4()]
        .into_iter()
        .map(|p| {
            let schedule = PrecisionSchedule::Uniform(p);
            let backend = PhotonicBackend::with_schedule(
                format!("photonic:w{}a{}", p.weight_bits, p.activation_bits),
                format!("Lightator {}", schedule.label()),
                schedule,
            );
            (backend, schedule)
        });
    let mixed = [Precision::w3a4(), Precision::w2a4()]
        .into_iter()
        .map(|rest| {
            let schedule = PrecisionSchedule::Mixed {
                first: Precision::w4a4(),
                rest,
            };
            let backend = PhotonicBackend::with_schedule(
                format!("photonic:mx-w{}a{}", rest.weight_bits, rest.activation_bits),
                format!("Lightator-MX {}", schedule.label()),
                schedule,
            );
            (backend, schedule)
        });
    uniform.chain(mixed).collect()
}

/// One row description of the Table-1 performance comparison.
#[derive(Debug, Clone)]
pub struct Table1Entry {
    /// Row label (`"LightBulb [1:1]"`, `"Lightator-MX [4:4][3:4]"`, ...).
    pub label: String,
    /// The backend whose performance report fills the row.
    pub backend: Arc<dyn Backend>,
    /// Process node in nm, when the original paper reports one.
    pub node_nm: Option<u32>,
    /// Table 1 reports each design's power on the VGG9/CIFAR workload
    /// while the KFPS/W figure of merit runs the MNIST-class network. For
    /// the Lightator rows this is `Some((schedule, vgg9))`: the power
    /// column is the platform peak under that schedule on that network.
    /// `None` takes the power straight from the backend's performance
    /// report (network-independent for the analytical models).
    pub power_basis: Option<(PrecisionSchedule, NetworkSpec)>,
    /// Whether the power column is printed (HQNNA's is unreported).
    pub reports_power: bool,
    /// Whether the KFPS/W column is printed (the GPU row's is not).
    pub reports_throughput: bool,
}

/// The eleven rows of the Table-1 performance comparison in paper order:
/// the GPU baseline, the five photonic rooflines, the five Lightator
/// variants.
#[must_use]
pub fn table1_registry() -> Vec<Table1Entry> {
    let mut entries = Vec::new();

    // GPU baseline row (the paper reports only its power and accuracy).
    entries.push(Table1Entry {
        label: "baseline GPU [32:32]".to_string(),
        backend: Arc::new(ElectronicReference::new(ElectronicBaseline::gpu_rtx3060ti())),
        node_nm: Some(8),
        power_basis: None,
        reports_power: true,
        reports_throughput: false,
    });

    // Photonic baselines as analytical rooflines.
    for design in OpticalBaseline::table1_designs() {
        let p = design.precision();
        entries.push(Table1Entry {
            label: format!(
                "{} [{}:{}]",
                design.name(),
                p.weight_bits,
                p.activation_bits
            ),
            node_nm: design.process_node_nm(),
            // The original paper does not report HQNNA's power.
            reports_power: design.name() != "HQNNA",
            reports_throughput: true,
            power_basis: None,
            backend: Arc::new(RooflineBackend::new(design)),
        });
    }

    // Lightator variants: power measured as the platform peak on the
    // VGG9/CIFAR workload (Table 1 discussion, observations 1 and 5).
    let vgg9 = NetworkSpec::vgg9(100);
    for (variant, schedule) in photonic_variants() {
        entries.push(Table1Entry {
            label: variant.name(),
            backend: Arc::new(variant),
            node_nm: Some(45),
            power_basis: Some((schedule, vgg9.clone())),
            reports_power: true,
            reports_throughput: true,
        });
    }
    entries
}

/// One accelerator of the Fig-10 execution-time comparison.
#[derive(Debug, Clone)]
pub struct Fig10Entry {
    /// Accelerator label as plotted (`"Eyeriss"`, ..., `"Lightator"`).
    pub label: String,
    /// The backend whose performance report provides the execution times.
    pub backend: Arc<dyn Backend>,
    /// The VGG-class network this design runs (YodaNN substitutes VGG13
    /// for VGG16, as in the paper).
    pub vgg: NetworkSpec,
}

impl Fig10Entry {
    /// Whether this entry is an electronic design (the speed-up rows of
    /// the figure are Lightator over each electronic accelerator).
    #[must_use]
    pub fn is_electronic(&self) -> bool {
        self.backend.id().as_str().starts_with("electronic:")
    }
}

/// The five accelerators of Fig. 10 in figure order: the four electronic
/// designs, then Lightator at the paper's `[4:4]` operating point.
#[must_use]
pub fn fig10_registry() -> Vec<Fig10Entry> {
    let vgg16 = NetworkSpec::vgg16();
    let vgg13 = NetworkSpec::vgg13();
    let mut entries: Vec<Fig10Entry> = ElectronicBaseline::fig10_designs()
        .into_iter()
        .map(|design| Fig10Entry {
            label: design.name().to_string(),
            vgg: if design.name() == "YodaNN" {
                vgg13.clone()
            } else {
                vgg16.clone()
            },
            backend: Arc::new(ElectronicReference::new(design)),
        })
        .collect();
    entries.push(Fig10Entry {
        label: "Lightator".to_string(),
        backend: Arc::new(PhotonicBackend::with_schedule(
            "photonic:w4a4",
            "Lightator [4:4]",
            PrecisionSchedule::Uniform(Precision::w4a4()),
        )),
        vgg: vgg16,
    });
    entries
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn photonic_variant_names_match_the_table() {
        let names: Vec<String> = photonic_variants().iter().map(|(v, _)| v.name()).collect();
        assert_eq!(
            names,
            [
                "Lightator [4:4]",
                "Lightator [3:4]",
                "Lightator [2:4]",
                "Lightator-MX [4:4][3:4]",
                "Lightator-MX [4:4][2:4]",
            ]
        );
    }

    #[test]
    fn table1_registry_lists_eleven_rows_in_paper_order() {
        let entries = table1_registry();
        assert_eq!(entries.len(), 11);
        assert_eq!(entries[0].label, "baseline GPU [32:32]");
        assert!(!entries[0].reports_throughput);
        assert_eq!(entries[1].label, "LightBulb [1:1]");
        let hqnna = entries.iter().find(|e| e.label.contains("HQNNA")).unwrap();
        assert!(!hqnna.reports_power);
        assert!(hqnna.reports_throughput);
        // Every Lightator row measures power on the VGG9 workload.
        for entry in entries.iter().filter(|e| e.label.starts_with("Lightator")) {
            let (_, network) = entry.power_basis.as_ref().expect("power basis");
            assert_eq!(network.name(), NetworkSpec::vgg9(100).name());
            assert_eq!(entry.node_nm, Some(45));
        }
    }

    #[test]
    fn fig10_registry_substitutes_vgg13_for_yodann() {
        let entries = fig10_registry();
        assert_eq!(entries.len(), 5);
        assert_eq!(entries.iter().filter(|e| e.is_electronic()).count(), 4);
        let yodann = entries.iter().find(|e| e.label == "YodaNN").unwrap();
        assert_eq!(yodann.vgg.name(), "VGG13");
        assert_eq!(entries[4].label, "Lightator");
        assert!(!entries[4].is_electronic());
    }
}
