//! Serving telemetry: the virtual clock, each workload group's tally, the
//! queue-wait histogram and the public [`MetricsSnapshot`].
//!
//! All serving time is **simulated** time. Each shard models one Lightator
//! chip with its own timeline: a batch of `B` frames occupies the shard for
//! `frame_latency + (B - 1) × resident_latency` of simulated time (the
//! weights are programmed once per batch, so follow-on frames skip the
//! weight-encode phase), starting no earlier than the newest request it
//! contains arrived and no earlier than the shard's previous batch
//! finished. Each group's scheduler decides every batch on that timeline
//! (see the `queue` module), so a queue wait, a batch size or a drop is a
//! function of the offered traffic alone. A server-wide virtual clock
//! tracks the latest admitted arrival and the latest completion a waiting
//! client observed, so closed-loop arrivals are stamped causally.
//! Measuring in simulated time keeps the figures meaningful for the
//! accelerator (KFPS-scale latencies) and independent of how many host
//! CPUs happen to run the simulation.
//!
//! Every count lives beside the state it counts, under the lock that
//! already orders that state: a group's scheduler keeps one plain tally,
//! and each of its shards keeps its own row. [`Server::metrics`] locks
//! each group in turn and merges what it finds, so a snapshot never sees
//! a request served before it was admitted, nor half a batch. The clock is
//! the one atomic, because groups on different threads share it.
//!
//! [`Server::metrics`]: crate::Server::metrics

use crate::request::Priority;
use lightator_photonics::units::{Energy, Time};
pub use lightator_telemetry::StageTotals;
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power of two in [`LatencyHistogram`]
/// (HdrHistogram-style log-linear layout).
const SUB_BUCKETS: usize = 32;
/// log2 of [`SUB_BUCKETS`].
const SUB_BITS: u32 = 5;
/// Total buckets: values below `SUB_BUCKETS` get exact unit buckets, every
/// higher power of two splits into `SUB_BUCKETS` linear sub-buckets.
const BUCKETS: usize = SUB_BUCKETS + (64 - SUB_BITS as usize) * SUB_BUCKETS;

/// The server-wide simulated clock (nanoseconds).
///
/// Advanced to each admitted arrival and to each completion a waiting
/// client observes; read to stamp closed-loop arrivals. Monotone by
/// construction (`fetch_max`).
#[derive(Debug, Default)]
pub(crate) struct VirtualClock {
    now_ns: AtomicU64,
}

impl VirtualClock {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in nanoseconds.
    pub(crate) fn now(&self) -> u64 {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Moves the clock forward to `ns` (never backwards).
    pub(crate) fn advance_to(&self, ns: u64) {
        self.now_ns.fetch_max(ns, Ordering::Relaxed);
    }
}

/// Log-linear latency histogram over simulated nanoseconds.
///
/// Values below [`SUB_BUCKETS`] ns get exact unit buckets; every higher
/// power of two splits into [`SUB_BUCKETS`] linear sub-buckets, so the
/// quantile error is bounded by `1/SUB_BUCKETS` (≈ 3%) instead of the 2×
/// error of a plain log2 ladder — tight enough that p99.9 means something.
/// Recording is one increment with no allocation; two histograms merge
/// bucket by bucket, so a merged ladder reports exactly the quantiles of
/// one that recorded every sample itself.
#[derive(Debug, Clone)]
pub(crate) struct LatencyHistogram {
    buckets: Vec<u64>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; BUCKETS],
        }
    }
}

impl LatencyHistogram {
    fn bucket_of(ns: u64) -> usize {
        if ns < SUB_BUCKETS as u64 {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros(); // >= SUB_BITS here
        let shift = msb - SUB_BITS;
        let sub = ((ns >> shift) as usize) & (SUB_BUCKETS - 1);
        SUB_BUCKETS + shift as usize * SUB_BUCKETS + sub
    }

    /// Largest value the bucket at `index` can hold (its inclusive upper
    /// bound) — what [`LatencyHistogram::quantile`] reports.
    fn bucket_upper(index: usize) -> u64 {
        if index < 2 * SUB_BUCKETS {
            // Unit-width buckets: exact values 0..2*SUB_BUCKETS.
            return index as u64;
        }
        let shift = (index - SUB_BUCKETS) as u32 / SUB_BUCKETS as u32;
        let sub = ((index - SUB_BUCKETS) % SUB_BUCKETS) as u64;
        let start = (SUB_BUCKETS as u64 + sub) << shift;
        // Parenthesised so the top bucket (upper bound `u64::MAX`) does not
        // overflow before the subtraction.
        start + ((1u64 << shift) - 1)
    }

    /// Records one latency sample.
    pub(crate) fn record(&mut self, ns: u64) {
        self.buckets[Self::bucket_of(ns)] += 1;
    }

    /// Adds every sample of `other` to this histogram.
    pub(crate) fn merge(&mut self, other: &Self) {
        for (count, more) in self.buckets.iter_mut().zip(&other.buckets) {
            *count += more;
        }
    }

    /// Upper bound of the bucket holding the `q`-quantile sample
    /// (`0 < q <= 1`), or zero when the histogram is empty. The bound
    /// over-reports the true quantile by at most `1/SUB_BUCKETS`.
    pub(crate) fn quantile(&self, q: f64) -> Time {
        let total: u64 = self.buckets.iter().sum();
        if total == 0 {
            return Time::from_ns(0.0);
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, count) in self.buckets.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Time::from_ns(Self::bucket_upper(i) as f64);
            }
        }
        unreachable!("rank is bounded by the total sample count")
    }
}

/// What one workload group counted: kept in its scheduler's state, under
/// the group's lock, beside the queue and the shards it counts. A shard's
/// own row (batches, frames, energy) stays on the shard.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    /// Admissions per scheduling lane, indexed by [`lane`].
    pub(crate) admitted: [u64; 2],
    /// Admission-control rejections (queue full) per scheduling lane.
    pub(crate) rejected: [u64; 2],
    pub(crate) completed: u64,
    pub(crate) errored: u64,
    /// Frames served across all successful requests: one per frame
    /// request, the processed frame count per stream request. The
    /// numerator of [`MetricsSnapshot::throughput_fps`].
    pub(crate) served_frames: u64,
    pub(crate) stream_frames: u64,
    pub(crate) stream_blocks_total: u64,
    pub(crate) stream_blocks_skipped: u64,
    /// Queue-wait histograms per scheduling lane; the combined ladder is
    /// their merge.
    pub(crate) waits: [LatencyHistogram; 2],
    /// The earliest batch start and the latest completion, once a batch
    /// ran.
    pub(crate) span_ns: Option<(u64, u64)>,
}

/// Index of `priority`'s lane in a [`Tally`]'s per-lane arrays.
pub(crate) fn lane(priority: Priority) -> usize {
    match priority {
        Priority::Interactive => 0,
        Priority::Batch => 1,
    }
}

impl Tally {
    /// Records one request's queue wait on its lane's ladder.
    pub(crate) fn record_wait(&mut self, priority: Priority, ns: u64) {
        self.waits[lane(priority)].record(ns);
    }

    /// Widens the serving span to a batch or stream that ran from
    /// `start_ns` to `completion_ns`.
    pub(crate) fn record_run(&mut self, start_ns: u64, completion_ns: u64) {
        self.span_ns = Some(match self.span_ns {
            Some((first, last)) => (first.min(start_ns), last.max(completion_ns)),
            None => (start_ns, completion_ns),
        });
    }

    /// Adds every count of `other` to this tally.
    pub(crate) fn merge(&mut self, other: &Self) {
        for lane in 0..2 {
            self.admitted[lane] += other.admitted[lane];
            self.rejected[lane] += other.rejected[lane];
            self.waits[lane].merge(&other.waits[lane]);
        }
        self.completed += other.completed;
        self.errored += other.errored;
        self.served_frames += other.served_frames;
        self.stream_frames += other.stream_frames;
        self.stream_blocks_total += other.stream_blocks_total;
        self.stream_blocks_skipped += other.stream_blocks_skipped;
        if let Some((first, last)) = other.span_ns {
            self.record_run(first, last);
        }
    }

    /// The public snapshot of this tally, with `queued` requests waiting
    /// and one row per shard, in registration order.
    pub(crate) fn snapshot(&self, queued: usize, shards: Vec<ShardSnapshot>) -> MetricsSnapshot {
        let span_ns = self
            .span_ns
            .map_or(0.0, |(first, last)| last.saturating_sub(first) as f64);
        // Fold the shard rows into one row per backend, in first-seen
        // (registration) order.
        let mut backends: Vec<BackendSnapshot> = Vec::new();
        for shard in &shards {
            let index = match backends.iter().position(|b| b.backend == shard.backend) {
                Some(index) => index,
                None => {
                    backends.push(BackendSnapshot {
                        backend: shard.backend.clone(),
                        shards: 0,
                        batches: 0,
                        frames: 0,
                        energy: Energy::from_pj(0.0),
                        plan_encodes: 0,
                        plan_hits: 0,
                        simulated_span: Time::from_ns(span_ns),
                    });
                    backends.len() - 1
                }
            };
            let entry = &mut backends[index];
            entry.shards += 1;
            entry.batches += shard.batches;
            entry.frames += shard.frames;
            entry.energy += shard.energy;
            entry.plan_encodes += shard.plan_encodes;
            entry.plan_hits += shard.plan_hits;
        }
        let [interactive_wait, batch_wait] = &self.waits;
        let mut queue_wait = interactive_wait.clone();
        queue_wait.merge(batch_wait);
        let [admitted_interactive, admitted_batch] = self.admitted;
        let [rejected_interactive, rejected_batch] = self.rejected;
        MetricsSnapshot {
            completed: self.completed,
            admitted_interactive,
            admitted_batch,
            rejected: rejected_interactive + rejected_batch,
            rejected_interactive,
            rejected_batch,
            errored: self.errored,
            served_frames: self.served_frames,
            stream_frames: self.stream_frames,
            stream_blocks_total: self.stream_blocks_total,
            stream_blocks_skipped: self.stream_blocks_skipped,
            queued,
            p50_queue_wait: queue_wait.quantile(0.50),
            p95_queue_wait: queue_wait.quantile(0.95),
            p99_queue_wait: queue_wait.quantile(0.99),
            p99_9_queue_wait: queue_wait.quantile(0.999),
            p99_interactive_wait: interactive_wait.quantile(0.99),
            p99_batch_wait: batch_wait.quantile(0.99),
            simulated_span: Time::from_ns(span_ns),
            plan_encodes: shards.iter().map(|s| s.plan_encodes).sum(),
            plan_hits: shards.iter().map(|s| s.plan_hits).sum(),
            backends,
            shards,
            stages: Vec::new(),
        }
    }
}

/// Point-in-time view of the server's telemetry.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests served successfully (a whole video stream counts once).
    pub completed: u64,
    /// Interactive-lane requests admitted into a queue.
    pub admitted_interactive: u64,
    /// Batch-lane requests admitted into a queue.
    pub admitted_batch: u64,
    /// Requests bounced by admission control (queue full), both lanes.
    pub rejected: u64,
    /// Interactive-lane requests bounced by admission control.
    pub rejected_interactive: u64,
    /// Batch-lane requests bounced by admission control.
    pub rejected_batch: u64,
    /// Requests whose execution returned an error.
    pub errored: u64,
    /// Frames served across all successful requests (one per frame
    /// request, the processed frame count per video stream).
    pub served_frames: u64,
    /// Frames served inside video-stream requests.
    pub stream_frames: u64,
    /// Delta-gate blocks across all served stream frames.
    pub stream_blocks_total: u64,
    /// Delta-gate blocks served from the DMVA feedback path (skipped).
    pub stream_blocks_skipped: u64,
    /// Requests admitted but not yet in a batch, summed over the workload
    /// groups, each read under its lock (0 in the snapshot
    /// [`Server::shutdown`](crate::Server::shutdown) returns).
    pub queued: usize,
    /// Median simulated queueing latency (arrival → batch start).
    pub p50_queue_wait: Time,
    /// 95th-percentile simulated queueing latency.
    pub p95_queue_wait: Time,
    /// 99th-percentile simulated queueing latency.
    pub p99_queue_wait: Time,
    /// 99.9th-percentile simulated queueing latency — the tail that SLOs
    /// are written against.
    pub p99_9_queue_wait: Time,
    /// 99th-percentile queueing latency of the interactive lane alone —
    /// what priority draining protects under background soak.
    pub p99_interactive_wait: Time,
    /// 99th-percentile queueing latency of the batch lane alone.
    pub p99_batch_wait: Time,
    /// Simulated time between the first batch start and the latest batch
    /// completion — the denominator of [`MetricsSnapshot::throughput_fps`].
    pub simulated_span: Time,
    /// Weight-encoding passes across all shard plans: each shard runs a
    /// clone of its workload group's plan, encoded once at build, so this
    /// equals the shard count in a healthy pool.
    pub plan_encodes: u64,
    /// Executions served from the shards' cached plan encodings.
    pub plan_hits: u64,
    /// Per-backend totals, one entry per distinct execution backend in
    /// registration order — the telemetry a heterogeneous pool is compared
    /// by.
    pub backends: Vec<BackendSnapshot>,
    /// Per-shard batch statistics, one entry per shard (virtual chip).
    pub shards: Vec<ShardSnapshot>,
    /// Per-stage sim-time/energy attribution rows from the attached
    /// [`TraceRecorder`](lightator_telemetry::TraceRecorder), sorted by
    /// (track, category, stage). Empty unless the server was built with
    /// [`trace_recorder`](crate::server::ServerBuilder::trace_recorder).
    pub stages: Vec<StageTotals>,
}

impl MetricsSnapshot {
    /// Requests admitted across both scheduling lanes.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted_interactive + self.admitted_batch
    }

    /// Fraction of offered requests bounced by admission control:
    /// `rejected / (admitted + rejected)`, or zero before any request was
    /// offered. The open-loop soak harness's drop rate.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        let offered = self.admitted() + self.rejected;
        if offered == 0 {
            return 0.0;
        }
        self.rejected as f64 / offered as f64
    }

    /// Fraction of stream blocks served from the feedback path, or zero
    /// when no stream frames were served.
    #[must_use]
    pub fn stream_skip_ratio(&self) -> f64 {
        if self.stream_blocks_total == 0 {
            return 0.0;
        }
        self.stream_blocks_skipped as f64 / self.stream_blocks_total as f64
    }

    /// Sustained serving throughput in frames per simulated second.
    ///
    /// Because every shard is an independent virtual chip, this scales with
    /// the shard count when the offered load saturates the pool — the
    /// system-level payoff of the paper's per-chip KFPS figure.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        if self.simulated_span.seconds() == 0.0 {
            return 0.0;
        }
        self.served_frames as f64 / self.simulated_span.seconds()
    }

    /// Requests completed per simulated second of the serving span.
    #[must_use]
    pub fn sustained_qps(&self) -> f64 {
        if self.simulated_span.seconds() == 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.simulated_span.seconds()
    }

    /// Renders the snapshot as the metrics table printed by
    /// `examples/serving.rs`.
    #[must_use]
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{:<26} {:>12}", "completed requests", self.completed);
        let _ = writeln!(
            out,
            "{:<26} {:>12} ({} interactive, {} batch)",
            "admitted",
            self.admitted(),
            self.admitted_interactive,
            self.admitted_batch
        );
        let _ = writeln!(
            out,
            "{:<26} {:>12} ({} interactive, {} batch)",
            "rejected (overload)", self.rejected, self.rejected_interactive, self.rejected_batch
        );
        let _ = writeln!(
            out,
            "{:<26} {:>11.2}%",
            "drop rate",
            self.drop_rate() * 100.0
        );
        let _ = writeln!(out, "{:<26} {:>12}", "errored", self.errored);
        let _ = writeln!(out, "{:<26} {:>12}", "stream frames", self.stream_frames);
        let _ = writeln!(
            out,
            "{:<26} {:>11.1}%",
            "stream blocks skipped",
            self.stream_skip_ratio() * 100.0
        );
        let _ = writeln!(out, "{:<26} {:>12}", "queued now", self.queued);
        let _ = writeln!(
            out,
            "{:<26} {:>9.3} us",
            "p50 queue wait",
            self.p50_queue_wait.us()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>9.3} us",
            "p95 queue wait",
            self.p95_queue_wait.us()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>9.3} us",
            "p99 queue wait",
            self.p99_queue_wait.us()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>9.3} us",
            "p99.9 queue wait",
            self.p99_9_queue_wait.us()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>9.3} us",
            "p99 interactive wait",
            self.p99_interactive_wait.us()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>9.3} us",
            "p99 batch wait",
            self.p99_batch_wait.us()
        );
        let _ = writeln!(
            out,
            "{:<26} {:>12.0}",
            "throughput (frames/s, sim)",
            self.throughput_fps()
        );
        let _ = writeln!(out, "{:<26} {:>12}", "plan encodes", self.plan_encodes);
        let _ = writeln!(out, "{:<26} {:>12}", "plan cache hits", self.plan_hits);
        let _ = writeln!(out, "per-backend totals:");
        for backend in &self.backends {
            let _ = writeln!(
                out,
                "  {:<20} {:>5} frames on {} shard{}, {:>9.3} nJ, \
                 {:>8.0} frames/s, plan: {} encode{}, {} hits",
                backend.backend,
                backend.frames,
                backend.shards,
                if backend.shards == 1 { "" } else { "s" },
                backend.energy.nj(),
                backend.throughput_fps(),
                backend.plan_encodes,
                if backend.plan_encodes == 1 { "" } else { "s" },
                backend.plan_hits,
            );
        }
        let _ = writeln!(out, "per-shard batches (size: count) and plan reuse:");
        for shard in &self.shards {
            let sizes: Vec<String> = shard
                .batch_sizes
                .iter()
                .enumerate()
                .filter(|(_, &count)| count > 0)
                .map(|(i, count)| format!("{}: {}", i + 1, count))
                .collect();
            let _ = writeln!(
                out,
                "  {:<16} {:>5} frames in {:>4} batches (mean {:.2}) [{}] \
                 limit now {}, plan: {} encode{}, {} hits",
                shard.shard,
                shard.frames,
                shard.batches,
                shard.mean_batch_size(),
                sizes.join(", "),
                shard.batch_limit,
                shard.plan_encodes,
                if shard.plan_encodes == 1 { "" } else { "s" },
                shard.plan_hits,
            );
        }
        let stage_rows: Vec<&StageTotals> = self
            .stages
            .iter()
            .filter(|row| row.category == "stage")
            .collect();
        if !stage_rows.is_empty() {
            let total_ns: f64 = stage_rows.iter().map(|r| r.sim_ns).sum();
            let total_pj: f64 = stage_rows.iter().map(|r| r.energy_pj).sum();
            let _ = writeln!(out, "per-stage attribution (simulated time, energy):");
            for row in stage_rows {
                let _ = writeln!(
                    out,
                    "  {:<36} {:<14} {:>7} x {:>12.3} us {:>5.1}% {:>12.3} nJ {:>5.1}%",
                    row.track,
                    row.stage,
                    row.count,
                    row.sim_ns / 1e3,
                    if total_ns > 0.0 {
                        100.0 * row.sim_ns / total_ns
                    } else {
                        0.0
                    },
                    row.energy_pj / 1e3,
                    if total_pj > 0.0 {
                        100.0 * row.energy_pj / total_pj
                    } else {
                        0.0
                    },
                );
            }
        }
        out
    }
}

/// Totals of every shard running on one execution backend.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendSnapshot {
    /// Backend id (e.g. `photonic`, `electronic:eyeriss`).
    pub backend: String,
    /// Shards whose sessions run on this backend.
    pub shards: usize,
    /// Batches executed across those shards.
    pub batches: u64,
    /// Frames served across those shards.
    pub frames: u64,
    /// Simulated energy charged to completed work on this backend.
    pub energy: Energy,
    /// Weight-encoding passes across this backend's shard plans.
    pub plan_encodes: u64,
    /// Executions served from this backend's cached plan encodings.
    pub plan_hits: u64,
    /// The server-wide simulated span the frame count is measured over
    /// (shared across backends: all virtual chips run on one timeline).
    pub simulated_span: Time,
}

impl BackendSnapshot {
    /// Frames this backend served per simulated second of the server-wide
    /// span.
    #[must_use]
    pub fn throughput_fps(&self) -> f64 {
        if self.simulated_span.seconds() == 0.0 {
            return 0.0;
        }
        self.frames as f64 / self.simulated_span.seconds()
    }

    /// Mean simulated energy per served frame on this backend.
    #[must_use]
    pub fn energy_per_frame(&self) -> Energy {
        if self.frames == 0 {
            return Energy::from_pj(0.0);
        }
        Energy::from_pj(self.energy.pj() / self.frames as f64)
    }
}

/// Batch statistics of one shard (virtual chip).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardSnapshot {
    /// Shard label: `<workload>[@<backend>]/<index>`.
    pub shard: String,
    /// Id of the backend this shard's session runs on.
    pub backend: String,
    /// Batches executed.
    pub batches: u64,
    /// Frames served (in a stream group, the frames its streams carried).
    pub frames: u64,
    /// `batch_sizes[s - 1]` counts batches of exactly `s` requests — the
    /// micro-batcher's batch-size distribution. In a frame group a request
    /// is one frame; in a stream group a batch's size is its request count,
    /// while [`ShardSnapshot::frames`] counts stream frames.
    pub batch_sizes: Vec<u64>,
    /// Always 0: the scheduler hands every batch to its earliest-free
    /// shard, so no shard takes work from a sibling. Kept for readers of
    /// the former work-stealing count.
    pub steals: u64,
    /// The shard's batch-size bound at snapshot time (a gauge; the SLO
    /// controller adapts it batch to batch).
    pub batch_limit: u64,
    /// The shard's flush deadline at snapshot time (a gauge under the SLO
    /// controller).
    pub flush_deadline: Time,
    /// Weight-encoding passes of this shard's compiled plan (1 in a
    /// healthy shard: encoded once at build, never re-encoded).
    pub plan_encodes: u64,
    /// Executions this shard served from its cached plan encoding.
    pub plan_hits: u64,
    /// Simulated energy charged to work completed on this shard.
    pub energy: Energy,
}

impl ShardSnapshot {
    /// Mean frames per batch on this shard.
    #[must_use]
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.frames as f64 / self.batches as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotone() {
        let clock = VirtualClock::new();
        clock.advance_to(10);
        clock.advance_to(5);
        assert_eq!(clock.now(), 10);
        clock.advance_to(25);
        assert_eq!(clock.now(), 25);
    }

    #[test]
    fn histogram_quantiles_are_ordered_and_bracket_the_samples() {
        let mut hist = LatencyHistogram::default();
        for ns in [0u64, 3, 3, 40, 40, 40, 500, 500, 6_000, 70_000] {
            hist.record(ns);
        }
        let p50 = hist.quantile(0.50);
        let p95 = hist.quantile(0.95);
        let p99 = hist.quantile(0.99);
        assert!(p50.ns() <= p95.ns());
        assert!(p95.ns() <= p99.ns());
        // Sub-bucket resolution: the p50 sample (40 ns) sits in a
        // unit-width bucket, so the ladder reports it exactly.
        assert_eq!(p50.ns(), 40.0);
        // p99 lands in the largest sample's bucket, whose upper bound
        // over-reports by at most 1/SUB_BUCKETS.
        assert!(p99.ns() >= 70_000.0);
        assert!(p99.ns() <= 70_000.0 * (1.0 + 1.0 / SUB_BUCKETS as f64));
    }

    #[test]
    fn log_linear_buckets_bound_the_quantile_error() {
        // Every recorded value must be bracketed by its bucket's upper
        // bound within 1/SUB_BUCKETS relative error — the satellite
        // contract that makes p99.9 meaningful.
        for value in [
            1u64,
            31,
            32,
            33,
            63,
            64,
            65,
            1_000,
            4_095,
            4_096,
            1_000_000,
            123_456_789,
            u64::MAX / 2,
        ] {
            let mut hist = LatencyHistogram::default();
            hist.record(value);
            let upper = hist.quantile(1.0).ns();
            assert!(upper >= value as f64, "upper {upper} < value {value}");
            assert!(
                upper <= value as f64 * (1.0 + 1.0 / SUB_BUCKETS as f64) + 1.0,
                "upper {upper} over-reports value {value} by more than 1/{SUB_BUCKETS}"
            );
        }
    }

    #[test]
    fn bucket_layout_is_contiguous_and_monotone() {
        // Adjacent values never map to decreasing buckets, and every
        // bucket's upper bound is reachable by the value that defines it.
        let mut previous = 0usize;
        for ns in 0u64..10_000 {
            let bucket = LatencyHistogram::bucket_of(ns);
            assert!(bucket >= previous, "bucket order broke at {ns}");
            assert!(LatencyHistogram::bucket_upper(bucket) >= ns);
            previous = bucket;
        }
        // The largest representable sample stays in range.
        let top = LatencyHistogram::bucket_of(u64::MAX);
        assert!(top < BUCKETS);
        assert_eq!(LatencyHistogram::bucket_upper(top), u64::MAX);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let hist = LatencyHistogram::default();
        assert_eq!(hist.quantile(0.99).ns(), 0.0);
    }

    #[test]
    fn zero_latency_lands_in_the_zero_bucket() {
        let mut hist = LatencyHistogram::default();
        hist.record(0);
        assert_eq!(hist.quantile(1.0).ns(), 0.0);
    }

    /// A shard row with `frames` served and `energy_pj` metered.
    fn shard(label: &str, backend: &str, frames: u64, energy_pj: f64) -> ShardSnapshot {
        ShardSnapshot {
            shard: label.into(),
            backend: backend.into(),
            batches: 0,
            frames,
            batch_sizes: Vec::new(),
            steals: 0,
            batch_limit: 1,
            flush_deadline: Time::from_ns(0.0),
            plan_encodes: 1,
            plan_hits: 0,
            energy: Energy::from_pj(energy_pj),
        }
    }

    #[test]
    fn snapshot_aggregates_counters() {
        let mut tally = Tally::default();
        tally.completed += 7;
        tally.served_frames += 7;
        tally.record_run(100, 600);
        tally.record_run(400, 1_100);
        let mut row = shard("classify/0", "photonic", 7, 0.0);
        row.batches = 2;
        row.batch_sizes = vec![0, 0, 1, 1];
        let snap = tally.snapshot(3, vec![row]);
        assert_eq!(snap.completed, 7);
        assert_eq!(snap.queued, 3);
        assert_eq!(snap.simulated_span.ns(), 1_000.0);
        assert!((snap.throughput_fps() - 7.0 / 1e-6).abs() < 1.0);
        assert!((snap.sustained_qps() - 7.0 / 1e-6).abs() < 1.0);
        assert!((snap.shards[0].mean_batch_size() - 3.5).abs() < 1e-12);
        let table = snap.table();
        assert!(table.contains("classify/0"));
        assert!(table.contains("4: 1"));
    }

    #[test]
    fn lane_counters_feed_the_drop_rate() {
        // Two groups' tallies merge lane by lane.
        let mut interactive = Tally::default();
        interactive.admitted[lane(Priority::Interactive)] += 6;
        interactive.rejected[lane(Priority::Interactive)] += 1;
        interactive.record_wait(Priority::Interactive, 10);
        let mut batch = Tally::default();
        batch.admitted[lane(Priority::Batch)] += 2;
        batch.rejected[lane(Priority::Batch)] += 1;
        batch.record_wait(Priority::Batch, 1_000);
        let mut tally = Tally::default();
        tally.merge(&interactive);
        tally.merge(&batch);
        let snap = tally.snapshot(0, Vec::new());
        assert_eq!(snap.admitted_interactive, 6);
        assert_eq!(snap.admitted_batch, 2);
        assert_eq!(snap.admitted(), 8);
        assert_eq!(snap.rejected_interactive, 1);
        assert_eq!(snap.rejected_batch, 1);
        assert_eq!(snap.rejected, 2);
        assert!((snap.drop_rate() - 0.2).abs() < 1e-12);
        // The lane ladders split the combined histogram.
        assert_eq!(snap.p99_interactive_wait.ns(), 10.0);
        assert!(snap.p99_batch_wait.ns() >= 1_000.0);
        assert!(snap.p99_queue_wait.ns() >= 1_000.0);
        let table = snap.table();
        assert!(table.contains("drop rate"));
        assert!(table.contains("p99 interactive wait"));
        assert!(table.contains("6 interactive, 2 batch"));
    }

    #[test]
    fn p99_9_extends_the_quantile_ladder() {
        let mut hist = LatencyHistogram::default();
        // 998 fast samples and one slow outlier: p99 stays in the fast
        // bucket, p99.9 must reach the outlier's bucket (rank 999 of 999).
        for _ in 0..998 {
            hist.record(10);
        }
        hist.record(1_000_000);
        // Unit-width sub-buckets report the fast samples exactly.
        assert_eq!(hist.quantile(0.99).ns(), 10.0);
        assert!(hist.quantile(0.999).ns() >= 1_000_000.0);

        // Merged bucket by bucket, the lane ladders keep every quantile.
        let mut tally = Tally::default();
        for _ in 0..998 {
            tally.record_wait(Priority::Batch, 10);
        }
        tally.record_wait(Priority::Interactive, 1_000_000);
        let snap = tally.snapshot(0, Vec::new());
        assert_eq!(snap.p99_queue_wait, hist.quantile(0.99));
        assert!(snap.p99_9_queue_wait.ns() >= snap.p99_queue_wait.ns());
        assert!(snap.p99_9_queue_wait.ns() >= 1_000_000.0);
        assert!(snap.table().contains("p99.9 queue wait"));
    }

    #[test]
    fn table_appends_stage_attribution_when_rows_are_present() {
        let mut snap = Tally::default().snapshot(0, vec![shard("classify/0", "photonic", 0, 0.0)]);
        assert!(!snap.table().contains("per-stage attribution"));
        snap.stages = vec![
            StageTotals {
                track: "shard:classify/0".into(),
                category: "stage".into(),
                stage: "mac_rows".into(),
                count: 4,
                sim_ns: 3_000.0,
                energy_pj: 9_000.0,
            },
            StageTotals {
                track: "shard:classify/0".into(),
                category: "request".into(),
                stage: "queue".into(),
                count: 4,
                sim_ns: 500.0,
                energy_pj: 0.0,
            },
        ];
        let table = snap.table();
        let section = table
            .split("per-stage attribution")
            .nth(1)
            .expect("attribution section present");
        assert!(section.contains("mac_rows"), "table:\n{table}");
        // Only category `stage` rows enter the attribution section.
        assert!(!section.contains("queue"), "table:\n{table}");
        assert!(section.contains("100.0%"), "table:\n{table}");
    }

    #[test]
    fn snapshot_folds_shards_into_per_backend_totals() {
        let mut tally = Tally::default();
        tally.record_run(0, 1_000);
        let snap = tally.snapshot(
            0,
            vec![
                shard("classify/0", "photonic", 4, 100.0),
                shard("classify/1", "photonic", 2, 50.0),
                shard(
                    "kernel:sobel-x@electronic:eyeriss/0",
                    "electronic:eyeriss",
                    3,
                    9_000.0,
                ),
            ],
        );
        assert_eq!(snap.backends.len(), 2);
        let photonic = &snap.backends[0];
        assert_eq!(photonic.backend, "photonic");
        assert_eq!(photonic.shards, 2);
        assert_eq!(photonic.frames, 6);
        assert!((photonic.energy.pj() - 150.0).abs() < 1e-9);
        assert_eq!(photonic.plan_encodes, 2);
        assert!((photonic.energy_per_frame().pj() - 25.0).abs() < 1e-9);
        assert!(photonic.throughput_fps() > 0.0);
        let electronic = &snap.backends[1];
        assert_eq!(electronic.backend, "electronic:eyeriss");
        assert_eq!(electronic.shards, 1);
        assert_eq!(electronic.frames, 3);
        assert!((electronic.energy.pj() - 9_000.0).abs() < 1e-9);
        let table = snap.table();
        assert!(table.contains("per-backend totals"));
        assert!(table.contains("electronic:eyeriss"));
    }
}
