//! Edge inference demo: train a small classifier on the synthetic dataset,
//! quantize it the way Lightator maps weights onto MRs, and compare digital
//! inference against the photonic datapath (with analog noise) end to end —
//! all through the `Platform`/`Session` facade.
//!
//! ```text
//! cargo run --release --example edge_inference
//! ```

use lightator_suite::core::platform::{Platform, Workload};
use lightator_suite::core::CoreError;
use lightator_suite::nn::datasets::{generate, SyntheticConfig};
use lightator_suite::nn::models::build_mlp;
use lightator_suite::nn::quant::{quantize_model_weights, Precision, PrecisionSchedule};
use lightator_suite::nn::train::{evaluate, train, TrainConfig};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() -> Result<(), CoreError> {
    let mut rng = SmallRng::seed_from_u64(2024);

    // A small class-structured dataset standing in for MNIST (the
    // `lightator_nn::datasets` module doc says why synthetic sets stand in).
    let dataset = generate(
        "edge-demo",
        SyntheticConfig {
            classes: 4,
            channels: 1,
            height: 16,
            width: 16,
            train_per_class: 30,
            test_per_class: 10,
            noise: 0.06,
            max_shift: 1,
        },
        &mut rng,
    )?;

    let mut model = build_mlp(&dataset.input_shape(), dataset.classes(), 32, &mut rng)?;
    println!(
        "training a {}-parameter classifier on {} samples ...",
        model.parameter_count(),
        dataset.train().len()
    );
    train(
        &mut model,
        &dataset,
        TrainConfig {
            epochs: 10,
            ..TrainConfig::default()
        },
    )?;
    let float_accuracy = evaluate(&mut model, &dataset)?;
    println!("float32 accuracy: {:.1}%", float_accuracy * 100.0);

    println!(
        "\n{:<12} {:>16} {:>18} {:>12}",
        "config", "digital acc (%)", "photonic acc (%)", "KFPS/W"
    );
    for precision in [Precision::w4a4(), Precision::w3a4(), Precision::w2a4()] {
        let schedule = PrecisionSchedule::Uniform(precision);
        let mut quantized = model.clone();
        quantize_model_weights(&mut quantized, schedule);
        let digital = evaluate(&mut quantized, &dataset)?;
        // One session serves both the accuracy measurement and the
        // platform-level performance numbers.
        let platform = Platform::builder()
            .sensor_resolution(16, 16)
            .precision(schedule)
            .seed(7)
            .build()?;
        let mut session = platform.session(Workload::Classify { model: quantized })?;
        let result = session.evaluate(&dataset, 20)?;
        println!(
            "{:<12} {:>16.1} {:>18.1} {:>12.1}",
            precision.to_string(),
            digital * 100.0,
            result.photonic * 100.0,
            session.perf().kfps_per_watt()
        );
    }

    println!("\nAccuracy degrades gracefully as the weight bit-width shrinks, and the analog");
    println!("photonic datapath tracks the digital quantized model closely — the trade-off");
    println!("Table 1 of the paper explores across [4:4], [3:4] and [2:4].");
    Ok(())
}
