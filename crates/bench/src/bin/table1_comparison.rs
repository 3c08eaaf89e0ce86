//! Regenerates Table 1: comparison with optical accelerator baselines,
//! resolved through the backend registry.
//!
//! The performance columns (node, max power, KFPS/W) are always printed,
//! and the per-backend throughput/efficiency numbers are written to
//! `BENCH_table1_backends.json`. Pass `--accuracy` to additionally train
//! the workloads on the synthetic datasets and evaluate every design's
//! inference accuracy (slower; pass `--fast` to use the reduced settings).
//! Any other argument, or `--fast` alone, prints the usage line and exits
//! non-zero before anything runs.

use lightator_bench::table1::{self, AccuracyConfig};
use lightator_telemetry::json;

const USAGE: &str = "usage: table1_comparison [--accuracy [--fast]]";

fn usage_error(message: &str) -> ! {
    eprintln!("table1_comparison: {message}\n{USAGE}");
    std::process::exit(1);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(other) = args.iter().find(|a| *a != "--accuracy" && *a != "--fast") {
        usage_error(&format!("unknown argument `{other}`"));
    }
    let with_accuracy = args.iter().any(|a| a == "--accuracy");
    let fast = args.iter().any(|a| a == "--fast");
    if fast && !with_accuracy {
        usage_error("`--fast` needs `--accuracy`");
    }

    match table1::performance_rows() {
        Ok(rows) => print!("{}", table1::render_performance(&rows)),
        Err(err) => {
            eprintln!("table1 harness failed: {err}");
            std::process::exit(1);
        }
    }

    match table1::backend_metrics()
        .map_err(|err| err.to_string())
        .and_then(|metrics| json::emit("table1_backends", &metrics).map_err(|err| err.to_string()))
    {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(err) => {
            eprintln!("table1 backend metrics failed: {err}");
            std::process::exit(1);
        }
    }

    if with_accuracy {
        let config = if fast {
            AccuracyConfig::fast()
        } else {
            AccuracyConfig::full()
        };
        match table1::accuracy_rows(&config) {
            Ok(workloads) => print!("\n{}", table1::render_accuracy(&workloads)),
            Err(err) => {
                eprintln!("table1 accuracy pass failed: {err}");
                std::process::exit(1);
            }
        }
    } else {
        println!("\n(run with --accuracy [--fast] to also regenerate the accuracy columns)");
    }
}
