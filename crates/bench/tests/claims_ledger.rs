//! The claims ledger: each number the paper claims, next to what this
//! repository measures for it.
//!
//! A row holds the paper's value, the measured golden, a band and a
//! one-line cause for the gap between the two. A change that moves a claim
//! fails its row, and has to update the golden here on purpose. A gap that
//! no one has traced to an energy term or a constant yet reads
//! "untraced (5a)", after the ledger's item in ROADMAP.md.
//!
//! The band is 1e-9 of the golden. Moving one `DevicePowerTable` constant
//! by 1% moves the claim that reacts most to it by 6e-6 (SRAM leakage) to
//! 9e-3 (the electronic cycle) of its value, so every such move fails a
//! row. A ±0.1% band would pass a 1% move of the MR-tuning, BPD, CRC or
//! controller power, the SRAM leakage or the optical cycle on every row.
//! Last-bit differences between hosts stay far inside 1e-9.
//!
//! Run: `cargo test -p lightator-bench --test claims_ledger`.

use std::fmt;
use std::sync::Arc;

use lightator_baselines::electronic::ElectronicBaseline;
use lightator_baselines::reference::ElectronicReference;
use lightator_bench::headline;
use lightator_core::backend::BackendId;
use lightator_core::platform::{Platform, Workload};
use lightator_nn::models::build_lenet;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::frame::RgbFrame;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The band every row accepts: the largest `|measured / golden − 1|`.
const BAND: f64 = 1e-9;

/// One claim of the ledger.
struct Row {
    claim: &'static str,
    /// What the paper reports, in the unit the claim names.
    paper: &'static str,
    measured: f64,
    golden: f64,
    /// A physical bound the measurement must also exceed, if the claim
    /// has one.
    floor: Option<f64>,
    cause: &'static str,
}

impl Row {
    fn holds(&self) -> bool {
        (self.measured / self.golden - 1.0).abs() <= BAND
            && self.floor.is_none_or(|floor| self.measured > floor)
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: paper {}, measured {}, golden {} (band {BAND:e} relative)",
            self.claim, self.paper, self.measured, self.golden,
        )?;
        if let Some(floor) = self.floor {
            write!(f, ", must exceed {floor}")?;
        }
        write!(f, "; cause: {}", self.cause)
    }
}

/// The seeded LeNet's agreement with fp32: the mean, over `scenes` seeded
/// random scenes on a 56×56 sensor, of `‖photonic − fp32‖₁ / ‖fp32‖₁` over
/// the ten logits, the photonic backend at `[4:4]` with default noise
/// against `electronic:eyeriss`.
fn lenet_logit_error(scenes: usize) -> f64 {
    const SEED: u64 = 7;
    let model = build_lenet(10, &mut SmallRng::seed_from_u64(SEED)).expect("lenet");
    let platform = Platform::builder()
        .sensor_resolution(56, 56)
        .seed(SEED)
        .register_backend(Arc::new(ElectronicReference::new(
            ElectronicBaseline::eyeriss(),
        )))
        .build()
        .expect("paper platform");
    let workload = Workload::Classify { model };
    let mut photonic = platform.session(workload.clone()).expect("session");
    let mut fp32 = platform
        .session_on(workload, &BackendId::new("electronic:eyeriss"))
        .expect("session");
    let mut rng = SmallRng::seed_from_u64(SEED ^ 0xA9);
    let total: f64 = (0..scenes)
        .map(|_| {
            let data = (0..56 * 56 * 3).map(|_| rng.gen::<f64>()).collect();
            let scene = RgbFrame::new(56, 56, data).expect("scene");
            let photonic = photonic.run(&scene).expect("photonic frame");
            let fp32 = fp32.run(&scene).expect("fp32 frame");
            let (p, e) = (
                photonic.logits().expect("logits"),
                fp32.logits().expect("logits"),
            );
            let gap: f64 = p.iter().zip(e).map(|(p, e)| f64::from((p - e).abs())).sum();
            gap / e.iter().map(|e| f64::from(e.abs())).sum::<f64>()
        })
        .sum();
    total / scenes as f64
}

#[test]
fn every_claim_sits_on_its_golden() {
    let claims = headline::compute().expect("the headline harness runs");
    let detector_sigma = NoiseConfig::default().detector_relative_sigma;
    let ledger = [
        Row {
            claim: "Lightator-MX [4:4][3:4] efficiency (KFPS/W)",
            paper: "84.4",
            measured: claims.mx_kfps_per_watt,
            golden: 126.418_099_675_178_94,
            floor: None,
            cause: "every Lightator power term reads a per-device constant of `DevicePowerTable`",
        },
        Row {
            claim: "power vs photonic baselines (x lower)",
            paper: "~24",
            measured: claims.photonic_power_reduction,
            golden: 28.717_161_747_875_743,
            floor: None,
            cause: "untraced (5a)",
        },
        Row {
            claim: "power vs GPU baseline (x lower)",
            paper: "~73",
            measured: claims.gpu_power_reduction,
            golden: 57.730_480_862_576_506,
            floor: None,
            cause: "untraced (5a)",
        },
        Row {
            claim: "bit-width reduction efficiency (x)",
            paper: "~2.4",
            measured: claims.bit_width_efficiency_gain,
            golden: 3.150_823_994_403_895,
            floor: None,
            cause: "untraced (5a)",
        },
        Row {
            claim: "CA first-layer saving (%)",
            paper: "42.2",
            measured: claims.ca_first_layer_saving * 100.0,
            golden: 74.069_991_733_259_85,
            floor: None,
            cause: "`simulate_with_ca` never charges the CA pass itself, so a 2x2 pool's \
                    4x fewer first-layer MACs give ~75% by construction",
        },
        Row {
            claim: "detector SNR at full scale (1 / detector sigma)",
            paper: "> 16, the 2^4 levels of a 4-bit activation",
            measured: 1.0 / detector_sigma,
            golden: 333.333_333_333_333_3,
            floor: Some(16.0),
            cause: "`NoiseConfig` holds the detector's noise as a constant 0.003 of full scale",
        },
        Row {
            claim:
                "seeded LeNet vs fp32 `electronic:eyeriss`: mean relative L1 logit error, 4 scenes",
            paper: "\"favorable accuracy\" (Table 1)",
            measured: lenet_logit_error(4),
            golden: 0.377_973_190_320_928_35,
            floor: None,
            cause: "the weight error is drawn once per ring programming per frame, a fixed gain \
                    per output channel (0.391310 while it was redrawn per MAC); the untrained \
                    seeded network's [4:4] quantization gives 0.310648 with ideal optics",
        },
    ];
    let failed: Vec<String> = ledger
        .iter()
        .filter(|row| !row.holds())
        .map(ToString::to_string)
        .collect();
    assert!(
        failed.is_empty(),
        "claims off their golden:\n{}",
        failed.join("\n")
    );
}
