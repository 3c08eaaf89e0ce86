//! The settings table: every platform setting moves a number.
//!
//! One row per value of [`PlatformConfig`] a caller sets, perturbed through
//! a [`PlatformBuilder`] setter on a 16×16, 1-worker paper platform. Each
//! row names the observable that perturbation must move, bit for bit:
//!
//! * **perf**: LeNet's simulated latency, energy and max power
//!   ([`Platform::simulate`]), plus the Acquire session's simulated energy;
//! * **acquire**: the acquired tensor of a fixed RGB scene;
//! * **output**: a noisy Sobel-X output frame of the same scene.
//!
//! A setting that moves none of them is input to validate that changes no
//! result, so it is deleted or made a constant. [`settings`] destructures
//! [`PlatformConfig`] with no `..` at any level, so a new field does not
//! compile until it is named there, and the table must then give it a row,
//! as a moved headline number fails the claims ledger. `workers` is the one
//! row that must move nothing: tiling is bit-exact.

use lightator_core::ca::CaConfig;
use lightator_core::config::{LightatorConfig, OcGeometry};
use lightator_core::platform::{
    ImageKernel, Outcome, Platform, PlatformBuilder, PlatformConfig, Workload,
};
use lightator_core::CoreError;
use lightator_nn::quant::{Precision, PrecisionSchedule};
use lightator_nn::spec::NetworkSpec;
use lightator_photonics::noise::NoiseConfig;
use lightator_sensor::array::SensorArrayConfig;
use lightator_sensor::frame::RgbFrame;

/// What perturbing a setting must move.
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

/// `(setting, perturbation, what it must move)`. Counts get +1, sigmas
/// ×1.5 and booleans flip; the schedule goes from `[4:4]` to `[3:4]`, one
/// sensor axis from 16 to 32, the CA window from 2 to 4 and `workers` from
/// 1 to 2.
type Row = (&'static str, fn(PlatformBuilder) -> PlatformBuilder, Moves);

const ROWS: &[Row] = &[
    (
        "geometry.mrs_per_arm",
        |b| b.geometry(geometry(|g| g.mrs_per_arm = 10)),
        Perf,
    ),
    (
        "geometry.arms_per_bank",
        |b| b.geometry(geometry(|g| g.arms_per_bank = 7)),
        Perf,
    ),
    (
        "geometry.bank_columns",
        |b| b.geometry(geometry(|g| g.bank_columns = 9)),
        Perf,
    ),
    (
        "geometry.bank_rows",
        |b| b.geometry(geometry(|g| g.bank_rows = 13)),
        Perf,
    ),
    (
        "geometry.ca_banks",
        |b| b.geometry(geometry(|g| g.ca_banks = 9)),
        Perf,
    ),
    (
        "noise.vcsel_relative_sigma",
        |b| b.noise(noise(|n| n.vcsel_relative_sigma = 0.006)),
        Output,
    ),
    (
        "noise.detector_relative_sigma",
        |b| b.noise(noise(|n| n.detector_relative_sigma = 0.0045)),
        Output,
    ),
    (
        "noise.weight_sigma",
        |b| b.noise(noise(|n| n.weight_sigma = 0.006)),
        Output,
    ),
    (
        "noise.apply_crosstalk",
        |b| b.noise(noise(|n| n.apply_crosstalk = false)),
        Output,
    ),
    ("sensor.height", |b| b.sensor_resolution(32, 16), Acquire),
    ("sensor.width", |b| b.sensor_resolution(16, 32), Acquire),
    (
        "ca.enabled",
        PlatformBuilder::without_compressive_acquisition,
        Acquire,
    ),
    (
        "ca.pooling_window",
        |b| {
            b.compressive_acquisition(CaConfig {
                pooling_window: 4,
                ..CaConfig::default()
            })
        },
        Acquire,
    ),
    (
        "ca.rgb_to_grayscale",
        |b| {
            b.compressive_acquisition(CaConfig {
                rgb_to_grayscale: false,
                ..CaConfig::default()
            })
        },
        Acquire,
    ),
    (
        "schedule",
        |b| b.precision(PrecisionSchedule::Uniform(Precision::w3a4())),
        Perf,
    ),
    ("seed", |b| b.seed(8), Output),
    ("workers", |b| b.workers(2), Nothing),
];

/// The paper geometry with one field changed.
fn geometry(change: fn(&mut OcGeometry)) -> OcGeometry {
    let mut geometry = OcGeometry::paper();
    change(&mut geometry);
    geometry
}

/// The default noise with one field changed.
fn noise(change: fn(&mut NoiseConfig)) -> NoiseConfig {
    let mut noise = NoiseConfig::default();
    change(&mut noise);
    noise
}

fn base() -> PlatformBuilder {
    Platform::builder().sensor_resolution(16, 16).workers(1)
}

/// Every setting of `config`, by name, with its value as text. The pattern
/// names every field at every level, so a field added to the configuration
/// does not compile until it is named here.
fn settings(config: &PlatformConfig) -> Vec<(&'static str, String)> {
    let PlatformConfig {
        hardware:
            LightatorConfig {
                geometry:
                    OcGeometry {
                        mrs_per_arm,
                        arms_per_bank,
                        bank_columns,
                        bank_rows,
                        ca_banks,
                    },
                noise:
                    NoiseConfig {
                        vcsel_relative_sigma,
                        detector_relative_sigma,
                        weight_sigma,
                        apply_crosstalk,
                    },
            },
        sensor: SensorArrayConfig { height, width },
        ca,
        schedule,
        seed,
        workers,
    } = config;
    let (pooling_window, rgb_to_grayscale) = match ca {
        Some(CaConfig {
            pooling_window,
            rgb_to_grayscale,
        }) => (Some(pooling_window), Some(rgb_to_grayscale)),
        None => (None, None),
    };
    vec![
        ("geometry.mrs_per_arm", mrs_per_arm.to_string()),
        ("geometry.arms_per_bank", arms_per_bank.to_string()),
        ("geometry.bank_columns", bank_columns.to_string()),
        ("geometry.bank_rows", bank_rows.to_string()),
        ("geometry.ca_banks", ca_banks.to_string()),
        (
            "noise.vcsel_relative_sigma",
            format!("{vcsel_relative_sigma:?}"),
        ),
        (
            "noise.detector_relative_sigma",
            format!("{detector_relative_sigma:?}"),
        ),
        ("noise.weight_sigma", format!("{weight_sigma:?}")),
        ("noise.apply_crosstalk", apply_crosstalk.to_string()),
        ("sensor.height", height.to_string()),
        ("sensor.width", width.to_string()),
        ("ca.enabled", ca.is_some().to_string()),
        ("ca.pooling_window", format!("{pooling_window:?}")),
        ("ca.rgb_to_grayscale", format!("{rgb_to_grayscale:?}")),
        ("schedule", schedule.label()),
        ("seed", seed.to_string()),
        ("workers", workers.to_string()),
    ]
}

/// The three observables, each as raw bits.
#[derive(Debug, PartialEq)]
struct Observables {
    perf: Vec<u64>,
    acquire: (Vec<usize>, Vec<u32>),
    output: (Vec<usize>, Vec<u32>),
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

/// Builds the platform and reads its configuration and observables.
fn observe(builder: PlatformBuilder) -> Result<(PlatformConfig, Observables), CoreError> {
    let platform = builder.build()?;
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
    let observed = Observables {
        perf,
        acquire: frame_bits(acquire.run(&scene)?.outcome),
        output: frame_bits(kernel.run(&scene)?.outcome),
    };
    Ok((platform.config().clone(), observed))
}

#[test]
fn the_table_covers_every_setting() {
    let config = base().build().expect("base platform").config().clone();
    let named: Vec<&str> = settings(&config).iter().map(|(name, _)| *name).collect();
    let missing: Vec<&str> = named
        .iter()
        .copied()
        .filter(|name| !ROWS.iter().any(|(row, _, _)| row == name))
        .collect();
    let extra: Vec<&str> = ROWS
        .iter()
        .map(|(name, _, _)| *name)
        .filter(|name| !named.contains(name))
        .collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "settings without a row (give each a reader and a row, or make it a \
         constant): {missing:?}; rows for no setting: {extra:?}"
    );
    assert_eq!(named.len(), ROWS.len(), "a setting has two rows");
}

#[test]
fn every_setting_moves_the_observable_of_its_row() {
    let (base_config, reference) = observe(base()).expect("base observables");
    let base_settings = settings(&base_config);
    let group = |name: &str| name.split('.').next().unwrap_or(name).to_string();
    let mut failures = Vec::new();
    for &(setting, perturb, moves) in ROWS {
        let (config, perturbed) = match observe(perturb(base())) {
            Ok(observed) => observed,
            Err(err) => {
                failures.push(format!("{setting}: does not build: {err}"));
                continue;
            }
        };
        // The perturbation changes its own setting, and nothing outside
        // its group (disabling CA also clears the window and the colour
        // switch).
        let changed: Vec<&str> = settings(&config)
            .iter()
            .zip(&base_settings)
            .filter(|((_, value), (_, base))| value != base)
            .map(|((name, _), _)| *name)
            .collect();
        if !changed.contains(&setting) || changed.iter().any(|c| group(c) != group(setting)) {
            failures.push(format!("{setting}: the perturbation changed {changed:?}"));
            continue;
        }
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
            failures.push(format!("{setting}: must move {moves:?}, moved {moved:?}"));
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {} rows failed:\n{}",
        failures.len(),
        ROWS.len(),
        failures.join("\n")
    );
}
