//! The key table: every key of the platform text format moves a number.
//!
//! One row per key that [`PlatformConfig::to_text`] writes for a 16×16,
//! 1-worker paper platform. Each row gives the key's perturbed value and
//! the observable that perturbation must move, bit for bit:
//!
//! * **perf**: LeNet's simulated latency, energy and max power
//!   ([`Platform::simulate`]), plus the Acquire session's simulated energy;
//! * **acquire**: the acquired tensor of a fixed RGB scene;
//! * **output**: a noisy Sobel-X output frame of the same scene.
//!
//! A key that moves none of them is untrusted input to validate and fuzz
//! that changes no result. The table also has to cover exactly the keys
//! `to_text` writes, so a new key without a reader fails here, as a moved
//! headline number fails the claims ledger. `workers` is the one row that
//! must move nothing: tiling is bit-exact.

use lightator_core::platform::{ImageKernel, Outcome, Platform, PlatformConfig, Workload};
use lightator_core::CoreError;
use lightator_nn::spec::NetworkSpec;
use lightator_sensor::frame::RgbFrame;

/// What perturbing a key must move.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Moves {
    /// LeNet's latency, energy or max power, or the Acquire session's
    /// energy.
    Perf,
    /// The acquired tensor.
    Acquire,
    /// The noisy Sobel-X output frame.
    Output,
    /// Nothing: all three observables stay bit-identical.
    Nothing,
}

use Moves::{Acquire, Nothing, Output, Perf};

/// `(key, perturbed value, what it must move)`. Integers get +1, other
/// numbers ×1.5 and booleans flip; the schedule goes from `[4:4]` to
/// `[3:4]`, the sensor from 16 to 32, the CA window from 2 to 4 and
/// `workers` from 1 to 2.
const KEYS: &[(&str, &str, Moves)] = &[
    ("geometry.mrs_per_arm", "10", Perf),
    ("geometry.arms_per_bank", "7", Perf),
    ("geometry.bank_columns", "9", Perf),
    ("geometry.bank_rows", "13", Perf),
    ("geometry.ca_banks", "9", Perf),
    ("periphery.dacs_per_arm", "2", Perf),
    ("periphery.adcs_per_bank", "2", Perf),
    ("periphery.vcsels_per_arm", "10", Perf),
    ("periphery.crc_units", "257", Perf),
    ("periphery.weight_sram_kib", "257", Perf),
    ("periphery.activation_sram_kib", "129", Perf),
    ("power.dac_power_mw", "11.85", Perf),
    ("power.adc_power_mw", "3.9", Perf),
    ("power.mr_tuning_power_mw", "0.09", Perf),
    ("power.crc_comparator_power_uw", "11.25", Perf),
    ("power.vcsel_power_mw", "0.075", Perf),
    ("power.bpd_power_mw", "0.18", Perf),
    ("power.controller_power_mw", "27", Perf),
    ("power.sram_leakage_per_kib_uw", "2.4", Perf),
    ("power.optical_cycle_ns", "0.3", Perf),
    ("power.electronic_cycle_ns", "1.5", Perf),
    ("noise.vcsel_relative_sigma", "0.006", Output),
    ("noise.detector_relative_sigma", "0.0045", Output),
    ("noise.weight_sigma", "0.006", Output),
    ("noise.apply_crosstalk", "false", Output),
    ("timing.weight_reload_cycles_per_bank", "55", Perf),
    ("timing.electronic_post_cycles_per_kilo_output", "65", Perf),
    ("timing.optical_cycles_per_wave", "2", Perf),
    ("sensor.height", "32", Acquire),
    ("sensor.width", "32", Acquire),
    ("ca.enabled", "false", Acquire),
    ("ca.pooling_window", "4", Acquire),
    ("ca.rgb_to_grayscale", "false", Acquire),
    ("schedule", "[3:4]", Perf),
    ("seed", "8", Output),
    ("workers", "2", Nothing),
];

/// The three observables, each as raw bits.
#[derive(Debug, PartialEq)]
struct Observables {
    perf: Vec<u64>,
    acquire: (Vec<usize>, Vec<u32>),
    output: (Vec<usize>, Vec<u32>),
}

fn base() -> PlatformConfig {
    Platform::builder()
        .sensor_resolution(16, 16)
        .workers(1)
        .build()
        .expect("base platform")
        .config()
        .clone()
}

/// A fixed scene in `[0, 1]` that fills every channel differently.
fn scene(height: usize, width: usize) -> RgbFrame {
    let data = (0..height * width * 3)
        .map(|i| ((i * 37 + 11) % 101) as f64 / 100.0)
        .collect();
    RgbFrame::new(height, width, data).expect("scene")
}

fn frame_bits(outcome: Outcome) -> (Vec<usize>, Vec<u32>) {
    match outcome {
        Outcome::Acquisition { shape, data } | Outcome::Filtered { shape, data, .. } => {
            (shape, data.iter().map(|v| v.to_bits()).collect())
        }
        other => panic!("expected a frame, got {other:?}"),
    }
}

fn observe(config: PlatformConfig) -> Result<Observables, CoreError> {
    let platform = Platform::from_config(config)?;
    let lenet = platform.simulate(&NetworkSpec::lenet())?;
    let mut acquire = platform.session(Workload::Acquire)?;
    let mut kernel = platform.session(Workload::ImageKernel {
        kernel: ImageKernel::SobelX,
    })?;
    let perf = vec![
        lenet.frame_latency.ns().to_bits(),
        lenet.frame_energy.pj().to_bits(),
        lenet.max_power.mw().to_bits(),
        acquire.perf().frame_energy.pj().to_bits(),
    ];
    let sensor = &platform.config().sensor;
    let scene = scene(sensor.height, sensor.width);
    Ok(Observables {
        perf,
        acquire: frame_bits(acquire.run(&scene)?.outcome),
        output: frame_bits(kernel.run(&scene)?.outcome),
    })
}

#[test]
fn the_table_covers_exactly_the_keys_to_text_writes() {
    let text = base().to_text();
    let written: Vec<&str> = text
        .lines()
        .filter_map(|line| Some(line.split_once(" = ")?.0))
        .collect();
    let missing: Vec<&str> = written
        .iter()
        .copied()
        .filter(|key| !KEYS.iter().any(|(row, _, _)| row == key))
        .collect();
    let extra: Vec<&str> = KEYS
        .iter()
        .map(|(key, _, _)| *key)
        .filter(|key| !written.contains(key))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "keys written without a row (give each a reader and a row, or delete it): \
         {missing:?}; rows for keys not written: {extra:?}"
    );
    assert_eq!(written.len(), KEYS.len(), "a key is written twice");
}

#[test]
fn every_key_moves_the_observable_of_its_row() {
    let base = base();
    let text = base.to_text();
    let reference = observe(base.clone()).expect("base observables");
    let mut failures = Vec::new();
    for &(key, value, moves) in KEYS {
        let config = PlatformConfig::from_text(&format!("{text}{key} = {value}\n"))
            .unwrap_or_else(|e| panic!("`{key} = {value}` must parse: {e}"));
        if config == base {
            failures.push(format!("{key} = {value}: equals the base value"));
            continue;
        }
        let perturbed = match observe(config) {
            Ok(observed) => observed,
            Err(err) => {
                failures.push(format!("{key} = {value}: does not build: {err}"));
                continue;
            }
        };
        let moved: Vec<Moves> = [
            (Perf, perturbed.perf != reference.perf),
            (Acquire, perturbed.acquire != reference.acquire),
            (Output, perturbed.output != reference.output),
        ]
        .into_iter()
        .filter_map(|(what, changed)| changed.then_some(what))
        .collect();
        let ok = match moves {
            Nothing => moved.is_empty(),
            _ => moved.contains(&moves),
        };
        if !ok {
            failures.push(format!(
                "{key} = {value}: must move {moves:?}, moved {moved:?}"
            ));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} rows failed:\n{}",
        failures.len(),
        KEYS.len(),
        failures.join("\n")
    );
}
