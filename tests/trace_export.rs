//! Exporter round trip: the Chrome trace-event JSON produced by
//! `lightator_telemetry::export` parses under the workspace's own JSON
//! validator (`lightator_telemetry::json::validate`) — the same
//! recursive-descent scanner every `BENCH_*.json` writer reads its file
//! back through — and the event names survive the trip. The trace comes
//! from a real traced session, so the test covers every event shape the
//! executor emits (spans with durations and energies, markers, string
//! args).

use lightator_suite::core::ca::CaConfig;
use lightator_suite::sensor::frame::RgbFrame;
use lightator_suite::telemetry::{export, json, TraceEvent, TraceRecorder};
use lightator_suite::{ImageKernel, Platform, Workload};
use std::sync::Arc;

/// A traced Sobel session's export validates and keeps its event names.
#[test]
fn chrome_trace_round_trips_through_the_json_validator() {
    let platform = Platform::builder()
        .sensor_resolution(8, 8)
        .compressive_acquisition(CaConfig::default())
        .build()
        .expect("platform");
    let mut session = platform
        .session(Workload::ImageKernel {
            kernel: ImageKernel::SobelX,
        })
        .expect("session");
    let recorder = Arc::new(TraceRecorder::new());
    session.attach_recorder(recorder.clone());
    let frame = RgbFrame::filled(8, 8, [0.4, 0.3, 0.2]).expect("frame");
    for _ in 0..3 {
        session.run(&frame).expect("run");
    }

    let events = recorder.events();
    assert!(!events.is_empty(), "the session must emit events");
    let json = export::chrome_trace(&events);

    // The validator collects every string under a "name" key — for a
    // Chrome trace that is exactly the per-event names.
    let names = json::validate(&json).expect("exported trace is valid JSON");
    for stage in ["kernel:sobel-x", "weight_encode", "mac_rows", "readout"] {
        assert!(
            names.iter().any(|name| name == stage),
            "exported names {names:?} must include {stage:?}"
        );
    }
}

/// Synthetic events with every kind (span, marker, counter) and
/// display-escaped args survive export as valid JSON.
#[test]
fn every_event_kind_exports_as_valid_json() {
    let events = [
        TraceEvent::span("stage", "mac_rows", "session:demo", 10.0, 250.0, 1234.5)
            .with_arg("rows", 16)
            .with_arg("note", "quotes \" and backslash \\ escape"),
        TraceEvent::instant("request", "admit", "router", 42.0).with_arg("ticket", 7),
        TraceEvent::counter("cache", "plan_hits", "session:demo", 99.0, 3.0),
    ];
    let json = export::chrome_trace(&events);
    let names = json::validate(&json).expect("exported events are valid JSON");
    for name in ["mac_rows", "admit", "plan_hits"] {
        assert!(names.iter().any(|n| n == name));
    }
}
