//! Recomputes the paper's headline claims (abstract / §5 observations) and
//! emits them as a machine-readable `BENCH_headline_claims.json`.

use lightator_bench::headline;
use lightator_telemetry::json::{self, BenchMetric};

fn main() {
    let claims = match headline::compute() {
        Ok(claims) => claims,
        Err(err) => {
            eprintln!("headline harness failed: {err}");
            std::process::exit(1);
        }
    };
    print!("{}", headline::render(&claims));
    let metrics = [
        BenchMetric::new("mx_kfps_per_watt", claims.mx_kfps_per_watt, "KFPS/W"),
        BenchMetric::new(
            "photonic_power_reduction",
            claims.photonic_power_reduction,
            "x",
        ),
        BenchMetric::new("gpu_power_reduction", claims.gpu_power_reduction, "x"),
        BenchMetric::new(
            "bit_width_efficiency_gain",
            claims.bit_width_efficiency_gain,
            "x",
        ),
        BenchMetric::new(
            "ca_first_layer_saving",
            claims.ca_first_layer_saving * 100.0,
            "%",
        ),
    ];
    match json::emit("headline_claims", &metrics) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(err) => {
            eprintln!("failed to emit BENCH_headline_claims.json: {err}");
            std::process::exit(1);
        }
    }
}
