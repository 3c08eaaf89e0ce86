//! Chrome trace-event JSON export (`trace.json`, loadable in Perfetto).
//!
//! The writer builds on the [`json`](crate::json) primitives — the
//! workspace is dependency-free offline — and produces the [Trace Event
//! Format] consumed by <https://ui.perfetto.dev> and `chrome://tracing`:
//! one process, one thread lane per [`TraceEvent`] track, timestamps and
//! durations converted from simulated nanoseconds to the format's
//! microseconds.
//!
//! This module is the **only** place the telemetry crate may look at the
//! wall clock ([`wall_time_note`], used to annotate exported files with the
//! export moment). Simulated-time recording never does; the `telemetry`
//! crate class in `analysis.cfg` keeps that split honest.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! # Example
//!
//! ```
//! use lightator_telemetry::{export, TraceEvent};
//!
//! let events = [TraceEvent::span("stage", "ca", "session:acquire", 0.0, 850.0, 12.0)];
//! let json = export::chrome_trace(&events);
//! assert!(json.starts_with('{') && json.contains("\"ph\": \"X\""));
//! ```

use crate::json::{escape, number};
use crate::{EventKind, TraceEvent};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Converts simulated nanoseconds to trace-format microseconds.
fn to_us(ns: f64) -> f64 {
    ns / 1e3
}

/// Assigns a stable Perfetto thread id per track, in first-appearance
/// order, so lane layout is deterministic across runs.
fn track_ids(events: &[TraceEvent]) -> Vec<(String, u64)> {
    let mut tracks: Vec<(String, u64)> = Vec::new();
    for event in events {
        if !tracks.iter().any(|(name, _)| name == &event.track) {
            let tid = tracks.len() as u64 + 1;
            tracks.push((event.track.clone(), tid));
        }
    }
    tracks
}

fn write_args(out: &mut String, numeric: &[(&str, f64)], strings: &[(String, String)]) {
    let mut first = true;
    out.push('{');
    for (key, value) in numeric {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{}\": {}", escape(key), number(*value));
    }
    for (key, value) in strings {
        if !first {
            out.push_str(", ");
        }
        first = false;
        let _ = write!(out, "\"{}\": \"{}\"", escape(key), escape(value));
    }
    out.push('}');
}

/// Renders the events as a Chrome trace-event JSON document.
///
/// Equivalent to [`chrome_trace_with_note`] with no annotation.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    chrome_trace_with_note(events, None)
}

/// Renders the events as a Chrome trace-event JSON document, optionally
/// annotated (e.g. with [`wall_time_note`]). The annotation rides along as
/// process metadata and never affects the simulated timeline.
#[must_use]
pub fn chrome_trace_with_note(events: &[TraceEvent], note: Option<&str>) -> String {
    let tracks = track_ids(events);
    let tid_of = |track: &str| -> u64 {
        tracks
            .iter()
            .find(|(name, _)| name == track)
            .map(|(_, tid)| *tid)
            .unwrap_or(0)
    };
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"displayTimeUnit\": \"ns\",");
    if let Some(note) = note {
        let _ = writeln!(out, "  \"metadata\": {{ \"note\": \"{}\" }},", escape(note));
    }
    let _ = write!(out, "  \"traceEvents\": [");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
            out.push('\n');
        } else {
            out.push_str(",\n");
        }
        out.push_str("    ");
    };
    for (track, tid) in &tracks {
        sep(&mut out);
        let _ = write!(
            out,
            "{{ \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \"name\": \"thread_name\", \
             \"args\": {{ \"name\": \"{}\" }} }}",
            escape(track)
        );
    }
    for event in events {
        let tid = tid_of(&event.track);
        sep(&mut out);
        match event.kind {
            EventKind::Span { dur_ns, energy_pj } => {
                let _ = write!(
                    out,
                    "{{ \"ph\": \"X\", \"pid\": 1, \"tid\": {tid}, \"cat\": \"{}\", \
                     \"name\": \"{}\", \"ts\": {}, \"dur\": {}, \"args\": ",
                    escape(&event.category),
                    escape(&event.name),
                    number(to_us(event.ts_ns)),
                    number(to_us(dur_ns)),
                );
                write_args(&mut out, &[("energy_pj", energy_pj)], &event.args);
                out.push_str(" }");
            }
            EventKind::Marker => {
                let _ = write!(
                    out,
                    "{{ \"ph\": \"i\", \"pid\": 1, \"tid\": {tid}, \"cat\": \"{}\", \
                     \"name\": \"{}\", \"ts\": {}, \"s\": \"t\", \"args\": ",
                    escape(&event.category),
                    escape(&event.name),
                    number(to_us(event.ts_ns)),
                );
                write_args(&mut out, &[], &event.args);
                out.push_str(" }");
            }
            EventKind::Counter { value } => {
                let _ = write!(
                    out,
                    "{{ \"ph\": \"C\", \"pid\": 1, \"tid\": {tid}, \"cat\": \"{}\", \
                     \"name\": \"{}\", \"ts\": {}, \"args\": ",
                    escape(&event.category),
                    escape(&event.name),
                    number(to_us(event.ts_ns)),
                );
                write_args(&mut out, &[("value", value)], &event.args);
                out.push_str(" }");
            }
        }
    }
    let _ = write!(out, "\n  ]\n}}");
    out
}

/// Seconds since the Unix epoch at the moment of export, as an annotation
/// string — the one sanctioned wall-clock read in this crate, confined to
/// export so simulated-time recording stays deterministic. Returns `None`
/// if the system clock is unavailable or pre-epoch.
#[must_use]
pub fn wall_time_note() -> Option<String> {
    // lightator: allow(no-wall-clock) — export annotation only, never simulation input.
    let elapsed = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    elapsed
        .ok()
        .map(|d| format!("exported at unix time {}", d.as_secs()))
}

/// Writes the events as `trace.json`-style output at `path`, annotated
/// with [`wall_time_note`], and returns the path.
///
/// # Errors
///
/// Propagates I/O errors from writing the file.
pub fn write_chrome_trace(
    path: impl AsRef<Path>,
    events: &[TraceEvent],
) -> std::io::Result<PathBuf> {
    let path = path.as_ref().to_path_buf();
    let note = wall_time_note();
    std::fs::write(&path, chrome_trace_with_note(events, note.as_deref()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TraceEvent;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::span("stage", "ca", "session:acquire", 0.0, 850.5, 12.25)
                .with_arg("frame", 0),
            TraceEvent::instant("plan", "plan-hit", "session:acquire", 850.5).with_arg("count", 2),
            TraceEvent::counter("plan", "plan_cache_hits", "session:acquire", 850.5, 2.0),
            TraceEvent::span("request", "execute", "shard:classify#0", 10.0, 100.0, 5.0),
        ]
    }

    #[test]
    fn tracks_get_stable_thread_lanes() {
        let json = chrome_trace(&sample_events());
        assert!(json.contains("\"name\": \"thread_name\""));
        assert!(json.contains("\"name\": \"session:acquire\""));
        assert!(json.contains("\"name\": \"shard:classify#0\""));
        let first = json.find("session:acquire").expect("lane present");
        let second = json.find("shard:classify#0").expect("lane present");
        assert!(first < second, "lanes appear in first-appearance order");
    }

    #[test]
    fn timestamps_are_converted_to_microseconds() {
        let json = chrome_trace(&sample_events());
        assert!(
            json.contains("\"ts\": 0.8505"),
            "850.5 ns -> 0.8505 us:\n{json}"
        );
        assert!(json.contains("\"dur\": 0.8505"));
        assert!(json.contains("\"energy_pj\": 12.25"));
    }

    #[test]
    fn every_phase_kind_is_emitted() {
        let json = chrome_trace(&sample_events());
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"i\""));
        assert!(json.contains("\"ph\": \"C\""));
        assert!(json.contains("\"s\": \"t\""));
        assert!(json.contains("\"frame\": \"0\""));
    }

    #[test]
    fn non_finite_values_render_as_null() {
        let events = [TraceEvent::span(
            "s",
            "bad",
            "t",
            f64::NAN,
            f64::INFINITY,
            1.0,
        )];
        let json = chrome_trace(&events);
        assert!(json.contains("\"ts\": null"));
        assert!(json.contains("\"dur\": null"));
    }

    #[test]
    fn notes_are_escaped_and_optional() {
        let with = chrome_trace_with_note(&[], Some("quote \" here"));
        assert!(with.contains("\\\" here"));
        let without = chrome_trace(&[]);
        assert!(!without.contains("\"metadata\""));
        assert!(wall_time_note().is_some());
    }

    #[test]
    fn empty_trace_is_still_a_document() {
        let json = chrome_trace(&[]);
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.trim_end().ends_with('}'));
    }
}
