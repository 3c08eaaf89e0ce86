//! Deterministic simulated-time tracing for the Lightator reproduction.
//!
//! The simulator's determinism contract — same seed, same frames, same
//! output bits — extends to its observability: every event recorded here is
//! timestamped in **simulated time** (nanoseconds of modelled hardware
//! latency), never wall-clock time, so a trace is a replayable artifact
//! rather than a measurement of the host machine. Recording a trace must
//! change no output bit of any run (observational purity); the instrumented
//! crates only read already-computed performance models when they emit.
//!
//! * [`TraceEvent`] / [`EventKind`] — the event vocabulary: spans with
//!   simulated duration and attributed energy, instants, and counters;
//! * [`TraceSink`] — the trait instrumentation points write into;
//! * [`TraceRecorder`] — a bounded ring-buffer sink with a cumulative
//!   [`StageBreakdown`] that never loses attribution to eviction;
//! * [`breakdown`] — per-stage sim-time/energy rollups ([`StageBreakdown`],
//!   [`StageTotals`]);
//! * [`export`] — the Chrome trace-event JSON writer (`trace.json`,
//!   loadable in [Perfetto](https://ui.perfetto.dev)). Wall-clock reads are
//!   confined to this module, as the `telemetry` crate class in
//!   `analysis.cfg` enforces;
//! * [`json`] — the workspace's one JSON writer and validator, and the
//!   `BENCH_*.json` artifacts every harness and the lint gate write.
//!
//! # Example
//!
//! ```
//! use lightator_telemetry::{TraceEvent, TraceRecorder, TraceSink};
//!
//! let recorder = TraceRecorder::new();
//! recorder.record(TraceEvent::span("stage", "mac_rows", "session:demo", 0.0, 120.0, 4.5));
//! recorder.record(TraceEvent::span("stage", "readout", "session:demo", 120.0, 30.0, 0.5));
//! let breakdown = recorder.breakdown();
//! assert_eq!(breakdown.rows().len(), 2);
//! assert!((breakdown.total_energy_pj() - 5.0).abs() < 1e-12);
//! let json = lightator_telemetry::export::chrome_trace(&recorder.events());
//! assert!(json.contains("\"traceEvents\""));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod breakdown;
pub mod export;
pub mod json;

pub use breakdown::{StageBreakdown, StageTotals};

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default ring capacity of a [`TraceRecorder`]: enough for every event of
/// the bundled examples while bounding memory to a few megabytes.
pub const DEFAULT_CAPACITY: usize = 65_536;

/// The payload of a [`TraceEvent`].
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A completed slice of simulated time with attributed energy.
    Span {
        /// Simulated duration in nanoseconds.
        dur_ns: f64,
        /// Energy attributed to the span in picojoules.
        energy_pj: f64,
    },
    /// A point-in-time marker (a Chrome trace "instant" event, e.g. a
    /// plan-cache hit or an admission).
    Marker,
    /// A sampled counter value (e.g. cumulative plan-cache hits).
    Counter {
        /// The counter value at the event timestamp.
        value: f64,
    },
}

/// One trace event, timestamped in simulated nanoseconds.
///
/// Events are grouped by `track` (one Perfetto thread lane per track, e.g.
/// `session:kernel:sobel-x` or `shard:classify#0`) and classified by
/// `category` (`"frame"`, `"stage"`, `"request"`, `"plan"`, ...).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event category (Perfetto `cat`), e.g. `"stage"` or `"request"`.
    pub category: String,
    /// Event name, e.g. `"mac_rows"` or `"execute"`.
    pub name: String,
    /// Track (Perfetto thread lane) the event belongs to.
    pub track: String,
    /// Start timestamp in simulated nanoseconds.
    pub ts_ns: f64,
    /// Event payload.
    pub kind: EventKind,
    /// Free-form key/value annotations exported as Perfetto args.
    pub args: Vec<(String, String)>,
}

impl TraceEvent {
    /// Creates a completed span of `dur_ns` simulated nanoseconds carrying
    /// `energy_pj` picojoules.
    #[must_use]
    pub fn span(
        category: &str,
        name: &str,
        track: &str,
        ts_ns: f64,
        dur_ns: f64,
        energy_pj: f64,
    ) -> Self {
        Self {
            category: category.to_string(),
            name: name.to_string(),
            track: track.to_string(),
            ts_ns,
            kind: EventKind::Span { dur_ns, energy_pj },
            args: Vec::new(),
        }
    }

    /// Creates an instant marker at `ts_ns`.
    #[must_use]
    pub fn instant(category: &str, name: &str, track: &str, ts_ns: f64) -> Self {
        Self {
            category: category.to_string(),
            name: name.to_string(),
            track: track.to_string(),
            ts_ns,
            kind: EventKind::Marker,
            args: Vec::new(),
        }
    }

    /// Creates a counter sample at `ts_ns`.
    #[must_use]
    pub fn counter(category: &str, name: &str, track: &str, ts_ns: f64, value: f64) -> Self {
        Self {
            category: category.to_string(),
            name: name.to_string(),
            track: track.to_string(),
            ts_ns,
            kind: EventKind::Counter { value },
            args: Vec::new(),
        }
    }

    /// Attaches a key/value annotation (builder style).
    #[must_use]
    pub fn with_arg(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.args.push((key.to_string(), value.to_string()));
        self
    }

    /// Simulated duration of the event: the span length, or zero for
    /// instants and counters.
    #[must_use]
    pub fn dur_ns(&self) -> f64 {
        match self.kind {
            EventKind::Span { dur_ns, .. } => dur_ns,
            _ => 0.0,
        }
    }

    /// Energy attributed to the event in picojoules (zero unless a span).
    #[must_use]
    pub fn energy_pj(&self) -> f64 {
        match self.kind {
            EventKind::Span { energy_pj, .. } => energy_pj,
            _ => 0.0,
        }
    }
}

/// A sink for trace events.
///
/// Instrumentation points hold an `Arc<dyn TraceSink>` and call
/// [`record`](TraceSink::record) with already-computed model quantities;
/// implementations must not feed anything back into the simulation.
pub trait TraceSink: fmt::Debug + Send + Sync {
    /// Records one event. Must be cheap and must never panic.
    fn record(&self, event: TraceEvent);
}

#[derive(Debug)]
struct RecorderInner {
    ring: VecDeque<TraceEvent>,
    breakdown: StageBreakdown,
}

/// A bounded ring-buffer [`TraceSink`].
///
/// The newest `capacity` events are kept for export; older events are
/// evicted (counted by [`dropped`](TraceRecorder::dropped)). The per-stage
/// rollup is accumulated on the way in, so [`breakdown`](TraceRecorder::breakdown)
/// stays exact no matter how small the ring is. A single short-lived mutex
/// guards the ring; the recorder is safe to share across shard threads.
#[derive(Debug)]
pub struct TraceRecorder {
    capacity: usize,
    inner: Mutex<RecorderInner>,
    recorded: AtomicU64,
    dropped: AtomicU64,
}

impl Default for TraceRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceRecorder {
    /// Creates a recorder with the [`DEFAULT_CAPACITY`].
    #[must_use]
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// Creates a recorder keeping at most `capacity` events (minimum 1).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(RecorderInner {
                ring: VecDeque::new(),
                breakdown: StageBreakdown::new(),
            }),
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RecorderInner> {
        // A poisoned lock only means another thread panicked mid-record;
        // the ring remains structurally valid, so keep serving.
        self.inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Maximum number of events retained in the ring.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently held in the ring.
    #[must_use]
    pub fn len(&self) -> usize {
        self.lock().ring.len()
    }

    /// Returns `true` if no events are buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded (monotone; unaffected by eviction).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Events evicted from the ring to stay within capacity.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Snapshot of the buffered events, oldest first.
    #[must_use]
    pub fn events(&self) -> Vec<TraceEvent> {
        self.lock().ring.iter().cloned().collect()
    }

    /// The cumulative per-stage rollup over **all** recorded events,
    /// including any that were evicted from the ring. Rows are sorted by
    /// (track, category, stage) so the result is independent of thread
    /// interleaving.
    #[must_use]
    pub fn breakdown(&self) -> StageBreakdown {
        let mut breakdown = self.lock().breakdown.clone();
        breakdown.sort();
        breakdown
    }

    /// Clears the ring, the rollup and both counters.
    pub fn clear(&self) {
        let mut inner = self.lock();
        inner.ring.clear();
        inner.breakdown = StageBreakdown::new();
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }
}

impl TraceSink for TraceRecorder {
    fn record(&self, event: TraceEvent) {
        let mut inner = self.lock();
        inner.breakdown.record(&event);
        if inner.ring.len() == self.capacity {
            inner.ring.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        inner.ring.push_back(event);
        self.recorded.fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, ts: f64) -> TraceEvent {
        TraceEvent::span("stage", name, "t", ts, 10.0, 2.0)
    }

    #[test]
    fn ring_evicts_oldest_and_counts_stay_monotone() {
        let recorder = TraceRecorder::with_capacity(4);
        let mut last_recorded = 0;
        for i in 0..10 {
            recorder.record(span(&format!("e{i}"), i as f64));
            let recorded = recorder.recorded();
            assert!(recorded > last_recorded, "recorded() must be monotone");
            last_recorded = recorded;
            assert!(recorder.len() <= 4, "ring must stay within capacity");
        }
        assert_eq!(recorder.recorded(), 10);
        assert_eq!(recorder.dropped(), 6);
        assert_eq!(recorder.len(), 4);
        let names: Vec<String> = recorder.events().iter().map(|e| e.name.clone()).collect();
        assert_eq!(names, vec!["e6", "e7", "e8", "e9"], "oldest events evicted");
    }

    #[test]
    fn breakdown_survives_eviction() {
        let recorder = TraceRecorder::with_capacity(2);
        for i in 0..8 {
            recorder.record(span("mac_rows", i as f64 * 10.0));
        }
        let breakdown = recorder.breakdown();
        assert_eq!(breakdown.rows().len(), 1);
        assert_eq!(breakdown.rows()[0].count, 8);
        assert!((breakdown.rows()[0].sim_ns - 80.0).abs() < 1e-12);
        assert!((breakdown.rows()[0].energy_pj - 16.0).abs() < 1e-12);
    }

    #[test]
    fn instants_and_counters_do_not_enter_the_breakdown() {
        let recorder = TraceRecorder::new();
        recorder.record(TraceEvent::instant("plan", "plan-hit", "t", 1.0));
        recorder.record(TraceEvent::counter(
            "plan",
            "plan_cache_hits",
            "t",
            1.0,
            3.0,
        ));
        assert_eq!(recorder.recorded(), 2);
        assert!(recorder.breakdown().rows().is_empty());
    }

    #[test]
    fn clear_resets_everything() {
        let recorder = TraceRecorder::with_capacity(2);
        for i in 0..5 {
            recorder.record(span("s", i as f64));
        }
        recorder.clear();
        assert!(recorder.is_empty());
        assert_eq!(recorder.recorded(), 0);
        assert_eq!(recorder.dropped(), 0);
        assert!(recorder.breakdown().rows().is_empty());
    }

    #[test]
    fn event_accessors_cover_all_kinds() {
        let s = span("s", 0.0);
        assert!((s.dur_ns() - 10.0).abs() < 1e-12);
        assert!((s.energy_pj() - 2.0).abs() < 1e-12);
        let i = TraceEvent::instant("c", "i", "t", 5.0).with_arg("frame", 3);
        assert_eq!(i.dur_ns(), 0.0);
        assert_eq!(i.energy_pj(), 0.0);
        assert_eq!(i.args, vec![("frame".to_string(), "3".to_string())]);
    }
}
