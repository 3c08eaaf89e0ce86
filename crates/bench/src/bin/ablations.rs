//! Prints the design-space ablations, in order: compressive acquisition
//! on/off and its pooling window; the optical-core geometry sweep around
//! the paper's 96 banks × 6 arms × 9 MRs; kernel-size mapping efficiency
//! (paper §4, Fig. 6); and analog non-idealities (VCSEL noise, detector
//! noise, weight error, crosstalk) scaled together versus photonic MAC
//! error.

use lightator_core::config::{LightatorConfig, OcGeometry};
use lightator_core::mapping::HardwareMapper;
use lightator_core::oc::PhotonicMacUnit;
use lightator_core::sim::ArchitectureSimulator;
use lightator_nn::quant::{Precision, PrecisionSchedule};
use lightator_nn::spec::{ConvSpec, LayerSpec, NetworkSpec};
use lightator_photonics::noise::NoiseConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

fn ablation_ca() -> Result<()> {
    let sim = ArchitectureSimulator::new(LightatorConfig::paper())?;
    let schedule = PrecisionSchedule::Uniform(Precision::w3a4());
    let network = NetworkSpec::vgg9(10);

    println!("Ablation — compressive acquisition");
    let baseline = sim.simulate(&network, schedule)?;
    println!(
        "CA off: first-layer energy {:.3e} J, frame latency {:.3} us",
        baseline.layers[0].energy.joules(),
        baseline.frame_latency.us()
    );
    for window in [2usize, 4] {
        let (report, saving) = sim.simulate_with_ca(&network, schedule, window)?;
        println!(
            "CA {window}x{window}: first-layer energy {:.3e} J, frame latency {:.3} us, saving {:.1}%",
            report.layers[0].energy.joules(),
            report.frame_latency.us(),
            saving * 100.0
        );
    }
    Ok(())
}

fn ablation_geometry() -> Result<()> {
    let schedule = PrecisionSchedule::Uniform(Precision::w4a4());
    let network = NetworkSpec::vgg9(10);

    println!("Ablation — optical-core geometry sweep (VGG9, [4:4])");
    println!(
        "{:<20} {:>8} {:>14} {:>14} {:>10}",
        "geometry", "MRs", "latency (us)", "max power (W)", "KFPS/W"
    );
    for (bank_rows, arms_per_bank) in [(6usize, 6usize), (12, 6), (24, 6), (12, 4), (12, 8)] {
        let geometry = OcGeometry {
            mrs_per_arm: 9,
            arms_per_bank,
            bank_columns: 8,
            bank_rows,
            ca_banks: 8,
        };
        let config = LightatorConfig {
            geometry,
            ..LightatorConfig::paper()
        };
        let report = ArchitectureSimulator::new(config)?.simulate(&network, schedule)?;
        println!(
            "{:<20} {:>8} {:>14.2} {:>14.2} {:>10.2}",
            format!("8x{bank_rows} banks, {arms_per_bank} arms"),
            geometry.mrs(),
            report.frame_latency.us(),
            report.max_power.watts(),
            report.kfps_per_watt()
        );
    }
    Ok(())
}

fn ablation_mapping() -> Result<()> {
    let geometry = OcGeometry::paper();
    let mapper = HardwareMapper::new(geometry)?;

    println!("Ablation — kernel-size mapping efficiency (paper Fig. 6)");
    println!(
        "{:<8} {:>15} {:>16} {:>18} {:>14}",
        "kernel", "arms/stride", "strides/bank", "unused MRs/stride", "MR utilisation"
    );
    for kernel in [1, 3, 5, 7] {
        let layer = LayerSpec::Conv(ConvSpec {
            in_channels: 16,
            out_channels: 32,
            kernel,
            stride: 1,
            padding: kernel / 2,
            in_height: 32,
            in_width: 32,
        });
        let m = mapper.map_layer(&layer)?;
        println!(
            "{:<8} {:>15} {:>16} {:>18} {:>13.1}%",
            format!("{k}x{k}", k = kernel),
            m.arms_per_stride,
            m.strides_per_bank,
            m.unused_mrs_per_stride,
            m.mr_utilization(&geometry) * 100.0
        );
    }
    Ok(())
}

/// Mean absolute error of `trials` seeded 9-element photonic dot products.
fn mean_absolute_error(noise: NoiseConfig, trials: usize) -> Result<f64> {
    let mut unit = PhotonicMacUnit::new(noise, 7)?;
    let mut rng = SmallRng::seed_from_u64(13);
    let mut total = 0.0;
    for _ in 0..trials {
        let weights: Vec<f64> = (0..9).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let activations: Vec<f64> = (0..9).map(|_| rng.gen_range(0.0..1.0)).collect();
        let exact: f64 = weights.iter().zip(&activations).map(|(w, a)| w * a).sum();
        total += (unit.dot(&weights, &activations)? - exact).abs();
    }
    Ok(total / trials as f64)
}

fn ablation_noise() -> Result<()> {
    println!("Ablation — analog noise scale vs photonic MAC error (9-element dot products)");
    println!("{:<12} {:>18}", "noise scale", "mean |error|");
    for scale in [0.0, 0.5, 1.0, 2.0, 4.0] {
        let noise = if scale == 0.0 {
            NoiseConfig::ideal()
        } else {
            NoiseConfig::default().scaled(scale)
        };
        println!("{:<12} {:>18.5}", scale, mean_absolute_error(noise, 200)?);
    }
    Ok(())
}

fn main() -> Result<()> {
    ablation_ca()?;
    ablation_geometry()?;
    ablation_mapping()?;
    ablation_noise()
}
