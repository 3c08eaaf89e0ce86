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

use lightator_bench::headline;
use lightator_photonics::noise::NoiseConfig;

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
