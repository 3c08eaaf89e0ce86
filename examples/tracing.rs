//! Deterministic tracing end to end: every workload on one shared
//! [`TraceRecorder`], per-stage energy/latency attribution, and a
//! Perfetto-loadable `trace.json`.
//!
//! ```text
//! cargo run --release --example tracing
//! ```
//!
//! The example runs all four workloads (classify, acquire, Sobel kernel,
//! gated video stream) with a recorder attached, cross-checks that the
//! summed per-stage energy reproduces each `Report`'s frame energy to
//! within 0.1%, serves a traced request burst through `lightator-serve`,
//! prints the combined stage-attribution table, and writes two artifacts
//! into `LIGHTATOR_BENCH_DIR` (or the working directory):
//!
//! * `trace.json` — Chrome trace-event JSON; open it at
//!   <https://ui.perfetto.dev> to see the session and shard timelines;
//! * `BENCH_stage_attribution.json` — the flat per-stage rollup.

use lightator_suite::core::ca::CaConfig;
use lightator_suite::nn::layers::{Activation, Flatten, Linear};
use lightator_suite::nn::model::Sequential;
use lightator_suite::sensor::frame::RgbFrame;
use lightator_suite::serve::{Request, Server};
use lightator_suite::telemetry::{export, json, StageBreakdown, TraceRecorder};
use lightator_suite::{ImageKernel, Platform, StreamConfig, Workload};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::PathBuf;
use std::sync::Arc;

const SENSOR: usize = 8;
const FRAMES: usize = 4;
/// Relative tolerance of the stage-energy cross-check (0.1%).
const TOLERANCE: f64 = 1e-3;

fn classifier() -> Sequential {
    let mut rng = SmallRng::seed_from_u64(5);
    // 2x2 compressive acquisition halves the 8x8 sensor to [1, 4, 4].
    let mut model = Sequential::new(&[1, 4, 4]);
    model.push(Flatten::new());
    model.push(Linear::new(16, 24, &mut rng).expect("linear"));
    model.push(Activation::relu());
    model.push(Linear::new(24, 4, &mut rng).expect("linear"));
    model
}

fn scene(i: usize) -> RgbFrame {
    let v = 0.15 + 0.12 * (i % 6) as f64;
    RgbFrame::filled(SENSOR, SENSOR, [v, 1.0 - v, 0.5]).expect("frame")
}

/// Summed per-stage energy (pJ) recorded on `track`, category `stage`.
fn stage_energy_pj(breakdown: &StageBreakdown, track: &str) -> f64 {
    breakdown
        .for_track(track)
        .iter()
        .filter(|row| row.category == "stage")
        .map(|row| row.energy_pj)
        .sum()
}

fn check(label: &str, stage_pj: f64, expected_pj: f64) {
    let error = (stage_pj - expected_pj).abs() / expected_pj;
    assert!(
        error <= TOLERANCE,
        "{label}: stage energy {stage_pj:.3} pJ vs report {expected_pj:.3} pJ \
         ({:.4}% off)",
        error * 100.0
    );
    println!(
        "{label:<18} stage-energy sum {:>10.3} nJ = report energy ({:.5}% off)",
        stage_pj / 1e3,
        error * 100.0
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let platform = Platform::builder()
        .sensor_resolution(SENSOR, SENSOR)
        .compressive_acquisition(CaConfig::default())
        .build()?;
    let recorder = Arc::new(TraceRecorder::new());

    // -- the three frame workloads, FRAMES frames each -------------------
    println!("== session tracing: per-stage energy vs report energy ==");
    let workloads = [
        Workload::Classify {
            model: classifier(),
        },
        Workload::Acquire,
        Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        },
    ];
    for workload in workloads {
        let mut session = platform.session(workload)?;
        session.attach_recorder(recorder.clone());
        let mut last = None;
        for i in 0..FRAMES {
            last = Some(session.run(&scene(i))?);
        }
        let report = last.expect("at least one frame ran");
        let track = format!("session:{}", report.workload);
        check(
            &report.workload,
            stage_energy_pj(&recorder.breakdown(), &track),
            report.energy().pj() * FRAMES as f64,
        );
    }

    // -- the gated video stream ------------------------------------------
    let mut session = platform.session(Workload::VideoStream {
        kernel: ImageKernel::SobelX,
        stream: StreamConfig {
            block_size: 2,
            delta_threshold: 0.05,
        },
    })?;
    session.attach_recorder(recorder.clone());
    // Every pair of frames repeats, so the delta gate skips half the work.
    let frames: Vec<RgbFrame> = (0..2 * FRAMES).map(|i| scene(i / 2)).collect();
    let stream = session.run_stream(&frames)?;
    check(
        &stream.workload,
        stage_energy_pj(
            &recorder.breakdown(),
            &format!("session:{}", stream.workload),
        ),
        stream.energy.pj(),
    );

    // -- traced serving ---------------------------------------------------
    let serve_recorder = Arc::new(TraceRecorder::new());
    let server = Server::builder(platform)
        .shards(2)
        .max_batch(4)
        .trace_recorder(Arc::clone(&serve_recorder))
        .workload(Workload::Acquire)
        .build()?;
    for i in 0..8 {
        let _ = server.run(Request::Acquire { frame: scene(i) })?;
    }
    let metrics = server.shutdown();
    println!("\n== traced serving ==\n{}", metrics.table());

    // -- combined attribution table and artifacts -------------------------
    // Keep only `stage`-category rows: frame/request envelope spans carry
    // the same time and energy again, which would double-count the shares.
    let mut merged = recorder.breakdown();
    merged.merge(&serve_recorder.breakdown());
    let mut breakdown = merged.only_category("stage");
    breakdown.sort();
    println!("== combined stage attribution ==\n{}", breakdown.table());

    let dir =
        PathBuf::from(std::env::var("LIGHTATOR_BENCH_DIR").unwrap_or_else(|_| ".".to_string()));
    let mut events = recorder.events();
    events.extend(serve_recorder.events());
    let trace_path = export::write_chrome_trace(dir.join("trace.json"), &events)?;
    println!(
        "wrote {} ({} events; open it at https://ui.perfetto.dev)",
        trace_path.display(),
        events.len()
    );
    let bench_path = json::emit("stage_attribution", &breakdown.to_metrics())?;
    println!("wrote {}", bench_path.display());
    Ok(())
}
