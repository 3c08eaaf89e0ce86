//! Host-clock benchmark of the Lightator simulator.
//!
//! ```text
//! cargo bench --manifest-path hostbench/Cargo.toml --bench hostbench -- \
//!     --workload kernel-sobel64 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no instrumentation;
//! `--trace 1` is the separate traced run that times each layer from
//! outside (wrapping calls into its public functions), runs the
//! MAC-component microbenchmarks and writes a Chrome trace to
//! `hostbench/target/traces/<workload>.json`. The last stdout line is the
//! result object; the line before it is the full record, every metric tagged
//! with its clock plus the host block. See README.md.

mod calib;
mod frames;
mod micro;
mod record;
mod serve;

use std::process::ExitCode;

use lightator_telemetry::TraceRecorder;
use record::{Clock, HostBlock, Metric, Outcome};
use Clock::{Host, Sim};

pub type BoxError = Box<dyn std::error::Error>;

/// The end-to-end metrics every `--trace 0` run reports, with their units.
const END_TO_END: &[(&str, &str, Clock)] = &[
    ("frames_per_s", "1/s", Host),
    ("frame_ms_p50", "ms", Host),
    ("frame_ms_p90", "ms", Host),
    ("setup_s", "s", Host),
    ("peak_rss_mib", "MiB", Host),
];

/// The per-layer metrics every `--trace 1` run reports, with their units.
/// A metric that does not apply to a workload reads 0 there (README.md has
/// the layer -> workload map).
const PER_LAYER: &[(&str, &str, Clock)] = &[
    ("ca.acquire_us", "us", Host),
    ("plan.compile_ms", "ms", Host),
    ("plan.encodes", "count", Sim),
    ("plan.hits", "count", Sim),
    ("exec.forward_ms", "ms", Host),
    ("exec.segments_per_frame", "count", Sim),
    ("exec.ns_per_segment", "ns", Host),
    ("oc.mac_loaded_ns", "ns", Host),
    ("oc.dot_ns", "ns", Host),
    ("arm.mac_ns", "ns", Host),
    ("arm.mac_ideal_ns", "ns", Host),
    ("arm.load_weights_ns", "ns", Host),
    ("wdm.crosstalk_apply_ns", "ns", Host),
    ("noise.draw_ns", "ns", Host),
    ("stream.gate_us", "us", Host),
    ("stream.skip_ratio", "fraction", Sim),
    ("stream.blocks_computed", "count", Sim),
    ("sim.frame_latency_ns", "sim_ns", Sim),
    ("sim.frame_energy_nj", "sim_nJ", Sim),
    ("sim.kfps_per_w", "KFPS/W", Sim),
    ("serve.submit_s", "s", Host),
    ("serve.drain_s", "s", Host),
    ("serve.admitted", "count", Sim),
    ("serve.dropped", "count", Sim),
    ("serve.batch_mean", "count", Sim),
    ("serve.stolen", "count", Sim),
    ("serve.queue_wait_p50_us", "sim_us", Sim),
    ("serve.queue_wait_p99_us", "sim_us", Sim),
    ("serve.sustained_qps", "sim_1/s", Sim),
    ("trace.frame_ms", "ms", Host),
    ("trace.frame_self_us", "us", Host),
    ("trace.coverage", "fraction", Host),
    ("trace.frames_per_s", "1/s", Host),
    ("trace.untraced_frames_per_s", "1/s", Host),
    ("trace.overhead_frames_per_s", "1/s", Host),
    ("host.speed", "x", Host),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        // `cargo bench` appends `--bench` to the arguments.
        if flag == "--bench" {
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(seconds > 0.0 && seconds.is_finite()) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Writes a traced run's spans with the telemetry crate's Chrome-trace
/// exporter. A failed write is reported but does not fail the run.
pub fn write_trace(workload: &str, recorder: &TraceRecorder) {
    // `cargo bench` runs benchmarks from the package directory.
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/traces");
    let written = std::fs::create_dir_all(&dir).and_then(|()| {
        lightator_telemetry::export::write_chrome_trace(
            dir.join(format!("{workload}.json")),
            &recorder.events(),
        )
    });
    match written {
        Ok(path) => eprintln!("hostbench: wrote {}", path.display()),
        Err(err) => eprintln!("hostbench: could not write the trace: {err}"),
    }
}

/// Keeps exactly the `declared` metrics of this run, in declaration order:
/// a declared metric the workload does not measure reads 0.
fn conform(
    outcome: &mut Outcome,
    declared: &[(&'static str, &'static str, Clock)],
) -> Result<(), String> {
    let known = |m: &Metric| {
        END_TO_END
            .iter()
            .chain(PER_LAYER)
            .any(|&d| d == (m.name, m.unit, m.clock))
    };
    if let Some(extra) = outcome.metrics.iter().find(|m| !known(m)) {
        return Err(format!(
            "metric {} [{}] is not declared",
            extra.name, extra.unit
        ));
    }
    let measured = std::mem::take(&mut outcome.metrics);
    for &(name, unit, clock) in declared {
        let metric = measured.iter().find(|m| m.name == name).cloned();
        outcome.metrics.push(metric.unwrap_or(Metric {
            name,
            value: 0.0,
            unit,
            clock,
        }));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("hostbench: {err}");
            eprintln!("usage: --workload <kernel-sobel64|classify-lenet|stream-lowmotion64|serve-open-loop> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    type Workload = fn(&Args) -> Result<Outcome, BoxError>;
    // Shard threads: frame workloads run on the calling thread only.
    let (run, shards): (Workload, usize) = match args.workload.as_str() {
        "kernel-sobel64" => (frames::kernel_sobel64, 0),
        "classify-lenet" => (frames::classify_lenet, 0),
        "stream-lowmotion64" => (frames::stream_lowmotion64, 0),
        "serve-open-loop" => (serve::serve_open_loop, 2),
        other => {
            eprintln!("hostbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(err) => {
            eprintln!("hostbench: {} failed: {err}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let speed = outcome.speed;
        outcome.host("host.speed", speed, "x");
    }
    if let Err(err) = conform(
        &mut outcome,
        if args.trace { PER_LAYER } else { END_TO_END },
    ) {
        eprintln!("hostbench: {err}");
        return ExitCode::FAILURE;
    }
    let host = HostBlock {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        seconds: args.seconds,
        workers: 1,
        shards,
    };
    record::print(&host, &outcome);
    ExitCode::SUCCESS
}
