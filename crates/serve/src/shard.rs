//! The shard worker: one thread, one virtual Lightator chip.
//!
//! Each shard runs exactly what a sequential client runs. It owns a clone
//! of its group's session, opened once through `Platform::session_on`, and
//! executes the jobs its group's
//! [`Scheduler`] sends it: seek the session to the batch's first ticket,
//! execute the batch (frame batches one `Session::run` per frame; video
//! streams one request at a time through `run_stream`), meter the energy,
//! replay the trace and fulfil the response slots. The scheduler decides
//! which requests form a batch, which shard runs it and when; the worker
//! loop exits once the scheduler released its job channel, which is what
//! makes server shutdown graceful.
//!
//! # Batch amortisation
//!
//! The virtual chip programs the plan's weights once per batch, so on the
//! simulated timeline only the *first* frame of a batch pays the
//! electronic weight-encode phase; every follow-on frame occupies the chip
//! for the resident latency (MAC + readout) alone, and meters the resident
//! energy alone ([`ShardCosts`]). Batching therefore buys real simulated
//! throughput on layered workloads — which is exactly what the adaptive
//! [`Batcher`] trades against queue wait.
//!
//! # The SLO controller
//!
//! With an [`SloConfig`] each shard's [`Batcher`] runs an AIMD loop around
//! batch formation. After each batch it observes the worst queue wait the
//! batch carried: at or under target, the batch limit grows by one and the
//! flush deadline stretches additively (bigger batches while latency is
//! cheap); over target, the deadline halves, and the limit halves too
//! unless the batch was *full* — a full, late batch means arrival backlog,
//! which only bigger batches (more amortisation) can drain, so the limit
//! grows instead of collapsing to `min_batch` under sustained overload.

use crate::config::SloConfig;
use crate::error::ServeError;
use crate::metrics::MetricsInner;
use crate::queue::{Job, QueuedRequest, Scheduler};
use crate::request::{Payload, Response, ResponseSlot};
use lightator_core::platform::Session;
use lightator_sensor::frame::RgbFrame;
use lightator_telemetry::{TraceEvent, TraceRecorder, TraceSink};
use std::sync::atomic::Ordering;
use std::sync::mpsc::Receiver;
use std::sync::Arc;

/// Client-side bookkeeping of one batched request: its ticket, its
/// simulated arrival time, and the slot awaiting the report.
type RequestHandle = (u64, u64, Arc<ResponseSlot>);

/// Fulfils a batch's slots strictly in ticket order, and — if the worker
/// unwinds mid-batch — fails whatever is left with
/// [`ServeError::WorkerPanicked`] on drop, so a panic in core code can
/// never strand a client in `Pending::wait`.
struct SlotGuard {
    handles: Vec<RequestHandle>,
    next: usize,
}

impl SlotGuard {
    fn new(handles: Vec<RequestHandle>) -> Self {
        Self { handles, next: 0 }
    }

    fn handles(&self) -> &[RequestHandle] {
        &self.handles
    }

    /// Publishes the outcome of the next unfulfilled request, completed at
    /// `completion_ns` on the simulated timeline.
    fn fulfil(&mut self, outcome: crate::error::Result<Response>, completion_ns: u64) {
        let (_, _, slot) = &self.handles[self.next];
        slot.fulfil(outcome, completion_ns);
        self.next += 1;
    }

    /// Requests not yet fulfilled.
    fn remaining(&self) -> usize {
        self.handles.len() - self.next
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        while self.next < self.handles.len() {
            self.fulfil(Err(ServeError::WorkerPanicked), 0);
        }
    }
}

/// The per-shard batch-formation policy: a batch-size limit and a flush
/// deadline, either fixed (no SLO) or AIMD-adapted batch to batch.
#[derive(Debug)]
pub(crate) struct Batcher {
    limit: usize,
    deadline_ns: u64,
    slo: Option<SloTargets>,
}

#[derive(Debug)]
struct SloTargets {
    target_ns: u64,
    min: usize,
    max: usize,
}

impl Batcher {
    /// Fixed policy: today's `max_batch` / `flush_deadline` semantics.
    pub(crate) fn fixed(max_batch: usize, flush_deadline_ns: u64) -> Self {
        Self {
            limit: max_batch.max(1),
            deadline_ns: flush_deadline_ns,
            slo: None,
        }
    }

    /// Adaptive policy steering toward `slo.target_queue_wait`. Starts
    /// conservative (smallest batches, shortest deadline) and grows while
    /// latency stays cheap.
    pub(crate) fn adaptive(slo: &SloConfig) -> Self {
        let target_ns = slo.target_queue_wait.ns().ceil().max(1.0) as u64;
        Self {
            limit: slo.min_batch.max(1),
            deadline_ns: (target_ns / 16).max(1),
            slo: Some(SloTargets {
                target_ns,
                min: slo.min_batch.max(1),
                max: slo.max_batch.max(1),
            }),
        }
    }

    pub(crate) fn limit(&self) -> usize {
        self.limit
    }

    pub(crate) fn deadline_ns(&self) -> u64 {
        self.deadline_ns
    }

    /// Feeds back one batch: its worst queue wait (simulated, over
    /// every request it carried) and its size. No-op without an SLO.
    pub(crate) fn observe(&mut self, max_wait_ns: u64, batch_len: usize) {
        let Some(slo) = &self.slo else {
            return;
        };
        let step = (slo.target_ns / 16).max(1);
        if max_wait_ns <= slo.target_ns {
            // Additive increase: latency is under budget, buy amortisation.
            self.limit = (self.limit + 1).min(slo.max);
            self.deadline_ns = (self.deadline_ns + step).min(slo.target_ns);
        } else {
            // Multiplicative decrease on the hold time. The batch limit
            // only shrinks when the batch was *partial* — the wait came
            // from holding the batch open. A full, late batch signals
            // backlog, and shrinking the limit there would collapse
            // throughput exactly when it is needed most.
            self.deadline_ns /= 2;
            if batch_len >= self.limit {
                self.limit = (self.limit + 1).min(slo.max);
            } else {
                self.limit = (self.limit / 2).max(slo.min);
            }
        }
    }
}

/// Everything one worker thread needs, moved into it at spawn.
pub(crate) struct ShardContext {
    pub(crate) session: Session,
    /// The group's scheduler, which stream batches report back to.
    pub(crate) scheduler: Arc<Scheduler>,
    pub(crate) metrics: Arc<MetricsInner>,
    /// Index into `metrics.shards` (global across groups).
    pub(crate) shard_index: usize,
    /// This shard's index within its group.
    pub(crate) group_index: usize,
    /// The simulated cost model of the group's session.
    pub(crate) costs: ShardCosts,
    /// Optional trace sink shared by the whole pool; events land on this
    /// shard's `shard:<label>` track, timestamped on the serve timeline.
    pub(crate) tracer: Option<Arc<TraceRecorder>>,
}

/// Simulated cost model of one shard, derived once at build from the
/// session's perf report.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ShardCosts {
    /// Full cost of the batch's first frame.
    frame_latency_ns: u64,
    frame_energy_pj: f64,
    /// Cost of every follow-on frame in a batch: the weights are already
    /// programmed, so the weight-encode phase is skipped.
    resident_latency_ns: u64,
    resident_energy_pj: f64,
}

impl ShardCosts {
    pub(crate) fn of(session: &Session) -> Self {
        let perf = session.perf();
        let frame_latency_ns = perf.frame_latency.ns().ceil().max(1.0) as u64;
        let frame_energy_pj = perf.frame_energy.pj();
        // The weight-encode share of a frame, summed over layers. Workloads
        // without one (acquire, opaque baselines) amortise nothing.
        let (encode_ns, encode_pj) = lightator_core::frame_stages(perf)
            .iter()
            .filter(|stage| stage.stage == "weight_encode")
            .fold((0.0f64, 0.0f64), |(ns, pj), stage| {
                (ns + stage.latency.ns(), pj + stage.energy.pj())
            });
        let resident_latency_ns = (perf.frame_latency.ns() - encode_ns).ceil().max(1.0) as u64;
        Self {
            frame_latency_ns,
            frame_energy_pj,
            resident_latency_ns: resident_latency_ns.min(frame_latency_ns),
            resident_energy_pj: (frame_energy_pj - encode_pj).max(0.0),
        }
    }

    /// Simulated chip occupancy of a batch of `len` frames.
    pub(crate) fn batch_latency_ns(&self, len: usize) -> u64 {
        self.frame_end_ns(len - 1)
    }

    /// Simulated completion offset of frame `index` within a batch,
    /// saturating: a platform with huge cycle times pins the timeline at
    /// `u64::MAX` instead of wrapping it.
    fn frame_end_ns(&self, index: usize) -> u64 {
        (index as u64)
            .saturating_mul(self.resident_latency_ns)
            .saturating_add(self.frame_latency_ns)
    }
}

/// The worker loop. Returns once the scheduler released the job channel
/// and every job sent before it ran.
pub(crate) fn run(mut ctx: ShardContext, jobs: Receiver<Job>) {
    // Trace bookkeeping: the shard's Perfetto track and its per-frame stage
    // decomposition. Both are pure functions of the spawn-time perf model,
    // computed once so the serving path only replays them.
    let track = format!("shard:{}", ctx.metrics.shards[ctx.shard_index].label);
    let stages = ctx
        .tracer
        .as_ref()
        .map(|_| lightator_core::frame_stages(ctx.session.perf()));
    // The workload group's plan was compiled exactly once when this shard's
    // session opened (at spawn); publish the encode counter up front so an
    // idle shard still reports its compile.
    publish_plan_stats(&ctx);
    for Job { requests, start_ns } in jobs {
        // A group serves one workload, so one stream payload means a
        // stream batch.
        if matches!(requests[0].payload, Payload::Stream(_)) {
            let len = requests.len();
            let (free_ns, max_wait_ns) = run_stream_batch(&mut ctx, requests, start_ns, &track);
            ctx.scheduler
                .report_stream(ctx.group_index, free_ns, max_wait_ns, len);
        } else {
            let stages = stages.as_deref().unwrap_or(&[]);
            run_frame_batch(&mut ctx, requests, start_ns, &track, stages);
        }
        // Every batch ran against the spawn-time plan: refresh the shard's
        // encode/hit counters from the session's cumulative stats.
        publish_plan_stats(&ctx);
    }
}

/// Mirrors the session's cumulative plan counters into the shard metrics.
/// The counters are cumulative per session, so this is a store, not an add.
fn publish_plan_stats(ctx: &ShardContext) {
    let stats = ctx.session.plan_stats();
    let shard = &ctx.metrics.shards[ctx.shard_index];
    shard.plan_encodes.store(stats.encodes, Ordering::Relaxed);
    shard.plan_hits.store(stats.cache_hits, Ordering::Relaxed);
}

/// Executes one batch of single-frame requests that the scheduler costed
/// and started at `start_ns`.
fn run_frame_batch(
    ctx: &mut ShardContext,
    batch: Vec<QueuedRequest>,
    start_ns: u64,
    track: &str,
    stages: &[lightator_core::StageSpan],
) {
    let first_ticket = batch[0].ticket;
    let (frames, handles): (Vec<RgbFrame>, Vec<RequestHandle>) = batch
        .into_iter()
        .map(|r| {
            let frame = match r.payload {
                Payload::Frame(frame) => frame,
                Payload::Stream(_) => unreachable!("frame batches carry frame payloads"),
            };
            (frame, (r.ticket, r.arrival_ns, r.slot))
        })
        .unzip();
    let mut guard = SlotGuard::new(handles);

    if let Some(tracer) = &ctx.tracer {
        trace_frame_batch(
            tracer.as_ref(),
            track,
            stages,
            guard.handles(),
            start_ns,
            &ctx.costs,
        );
    }

    // Execute at the tickets' frame indices: bit-identical to a single
    // sequential session running these frames at the same positions.
    // `catch_unwind` keeps the worker alive across a panic in core
    // code, and the guard fails the batch's unfulfilled slots so no
    // client hangs.
    let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        execute_batch(ctx, first_ticket, start_ns, &frames, &mut guard)
    }));
    if executed.is_err() {
        ctx.metrics
            .errored
            .fetch_add(guard.remaining() as u64, Ordering::Relaxed);
    }
}
/// Replays one frame batch onto the trace: the request lifecycle (queue →
/// batch-form → execute → respond) plus each frame's stage decomposition,
/// all timestamped on the shard's simulated timeline. Everything emitted
/// here is derived from already-computed quantities (arrival/start times
/// and the spawn-time perf model), so tracing never perturbs execution.
/// The stage spans describe the chip occupancy of the whole batch — the
/// first frame carries the full stage list, follow-on frames skip the
/// amortised `weight_encode` stages — so the stage totals still sum to the
/// energy the batch meters. A frame that later errors still occupied its
/// slot on the timeline.
fn trace_frame_batch(
    tracer: &TraceRecorder,
    track: &str,
    stages: &[lightator_core::StageSpan],
    handles: &[RequestHandle],
    start_ns: u64,
    costs: &ShardCosts,
) {
    tracer.record(
        TraceEvent::instant("request", "batch-form", track, start_ns as f64)
            .with_arg("batch", handles.len()),
    );
    for (ticket, arrival_ns, _) in handles {
        tracer.record(
            TraceEvent::span(
                "request",
                "queue",
                track,
                *arrival_ns as f64,
                start_ns.saturating_sub(*arrival_ns) as f64,
                0.0,
            )
            .with_arg("ticket", ticket),
        );
    }
    tracer.record(
        TraceEvent::span(
            "request",
            "execute",
            track,
            start_ns as f64,
            costs.batch_latency_ns(handles.len()) as f64,
            0.0,
        )
        .with_arg("frames", handles.len()),
    );
    for (i, (ticket, _, _)) in handles.iter().enumerate() {
        // Frame 0 starts at the batch start; follow-on frame `i` starts
        // where frame `i - 1` ended on the amortised timeline.
        let mut cursor = if i == 0 {
            start_ns as f64
        } else {
            start_ns.saturating_add(costs.frame_end_ns(i - 1)) as f64
        };
        for stage in stages {
            if i > 0 && stage.stage == "weight_encode" {
                // The weights were programmed by the batch's first frame.
                continue;
            }
            tracer.record(TraceEvent::span(
                "stage",
                stage.stage,
                track,
                cursor,
                stage.latency.ns(),
                stage.energy.pj(),
            ));
            cursor += stage.latency.ns();
        }
        tracer.record(
            TraceEvent::instant(
                "request",
                "respond",
                track,
                start_ns.saturating_add(costs.frame_end_ns(i)) as f64,
            )
            .with_arg("ticket", ticket),
        );
    }
}

/// Executes one batch of video-stream requests, one request at a time:
/// each stream seeks to its ticket, runs under the delta gate, and occupies
/// the virtual chip for its *gated* simulated time — the serving payoff of
/// skipped blocks. Returns the shard's new free time and the worst queue
/// wait the batch carried.
fn run_stream_batch(
    ctx: &mut ShardContext,
    batch: Vec<QueuedRequest>,
    mut free_ns: u64,
    track: &str,
) -> (u64, u64) {
    let shard = &ctx.metrics.shards[ctx.shard_index];
    shard.batches.fetch_add(1, Ordering::Relaxed);
    shard.batch_sizes[batch.len() - 1].fetch_add(1, Ordering::Relaxed);
    let mut max_wait_ns = 0u64;
    for request in batch {
        let QueuedRequest {
            payload,
            ticket,
            weight,
            arrival_ns,
            priority,
            slot,
        } = request;
        let frames = match payload {
            Payload::Stream(frames) => frames,
            Payload::Frame(_) => unreachable!("stream batches carry stream payloads"),
        };
        let start_ns = free_ns.max(arrival_ns);
        let wait_ns = start_ns.saturating_sub(arrival_ns);
        max_wait_ns = max_wait_ns.max(wait_ns);
        ctx.metrics.record_wait(priority, wait_ns);
        ctx.metrics
            .first_start_ns
            .fetch_min(start_ns, Ordering::Relaxed);
        shard.frames.fetch_add(weight, Ordering::Relaxed);

        let mut guard = SlotGuard::new(vec![(ticket, arrival_ns, slot)]);
        let session = &mut ctx.session;
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.seek_frame(ticket);
            session.run_stream(&frames)
        }));
        let completion_ns = match &executed {
            Ok(Ok(report)) => start_ns.saturating_add(report.sim_time.ns().ceil().max(1.0) as u64),
            // A failed or panicked stream still occupied the chip for the
            // frames it consumed; charge a dense-cost upper bound so the
            // timeline never runs backwards.
            _ => start_ns.saturating_add(weight.saturating_mul(ctx.costs.frame_latency_ns)),
        };
        ctx.metrics
            .last_completion_ns
            .fetch_max(completion_ns, Ordering::Relaxed);
        free_ns = completion_ns;

        if let Some(tracer) = &ctx.tracer {
            // Stream lifecycle: queue → execute → respond. The execute span
            // carries the *gated* simulated time and energy; the per-frame
            // fine structure lives on the session track when a recorder is
            // attached to a standalone session.
            tracer.record(
                TraceEvent::span(
                    "request",
                    "queue",
                    track,
                    arrival_ns as f64,
                    start_ns.saturating_sub(arrival_ns) as f64,
                    0.0,
                )
                .with_arg("ticket", ticket),
            );
            let energy_pj = match &executed {
                Ok(Ok(report)) => report.energy.pj(),
                _ => 0.0,
            };
            tracer.record(
                TraceEvent::span(
                    "stage",
                    "execute",
                    track,
                    start_ns as f64,
                    completion_ns.saturating_sub(start_ns) as f64,
                    energy_pj,
                )
                .with_arg("ticket", ticket)
                .with_arg("stream_frames", weight),
            );
            let outcome = if matches!(&executed, Ok(Ok(_))) {
                "respond"
            } else {
                "stream-error"
            };
            tracer.record(
                TraceEvent::instant("request", outcome, track, completion_ns as f64)
                    .with_arg("ticket", ticket),
            );
        }

        match executed {
            Ok(Ok(report)) => {
                ctx.metrics.completed.fetch_add(1, Ordering::Relaxed);
                // Streams meter their *gated* energy: skipped blocks spend
                // the DMVA feedback path, not the optical core.
                shard.add_energy_pj(report.energy.pj());
                ctx.metrics
                    .served_frames
                    .fetch_add(report.frames_processed() as u64, Ordering::Relaxed);
                ctx.metrics
                    .stream_frames
                    .fetch_add(report.frames_processed() as u64, Ordering::Relaxed);
                ctx.metrics
                    .stream_blocks_total
                    .fetch_add(report.blocks_total() as u64, Ordering::Relaxed);
                ctx.metrics
                    .stream_blocks_skipped
                    .fetch_add(report.blocks_skipped() as u64, Ordering::Relaxed);
                guard.fulfil(Ok(Response::Stream(report)), completion_ns);
            }
            Ok(Err(err)) => {
                ctx.metrics.errored.fetch_add(1, Ordering::Relaxed);
                guard.fulfil(Err(ServeError::Core(err)), completion_ns);
            }
            Err(_) => {
                ctx.metrics.errored.fetch_add(1, Ordering::Relaxed);
                // The guard's drop publishes `WorkerPanicked`.
            }
        }
        drop(guard);
    }
    (free_ns, max_wait_ns)
}

/// Runs one batch, one [`Session::run`] per frame from the batch's first
/// ticket, and fulfils its slots in ticket order, each with its frame's
/// completion on the batch's amortised timeline from `start_ns`. Every run
/// consumes its frame index, failed or not, so an error reaches only its
/// own request. Energy is charged to the shard per *completed* frame
/// (errored frames never occupied the datapath), amortised: the batch's
/// first completed frame pays the full frame energy, later ones the
/// resident share.
fn execute_batch(
    ctx: &mut ShardContext,
    first_ticket: u64,
    start_ns: u64,
    frames: &[RgbFrame],
    guard: &mut SlotGuard,
) {
    let (metrics, costs) = (&ctx.metrics, &ctx.costs);
    let shard = &metrics.shards[ctx.shard_index];
    ctx.session.seek_frame(first_ticket);
    let mut energy_pj = costs.frame_energy_pj;
    for (index, frame) in frames.iter().enumerate() {
        let completion_ns = start_ns.saturating_add(costs.frame_end_ns(index));
        match ctx.session.run(frame) {
            Ok(report) => {
                metrics.completed.fetch_add(1, Ordering::Relaxed);
                metrics.served_frames.fetch_add(1, Ordering::Relaxed);
                shard.add_energy_pj(energy_pj);
                energy_pj = costs.resident_energy_pj;
                guard.fulfil(Ok(Response::Frame(report)), completion_ns);
            }
            Err(err) => {
                metrics.errored.fetch_add(1, Ordering::Relaxed);
                guard.fulfil(Err(ServeError::Core(err)), completion_ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_photonics::units::Time;

    #[test]
    fn dropping_the_guard_fails_unfulfilled_slots_instead_of_stranding_them() {
        let slots: Vec<Arc<ResponseSlot>> = (0..3).map(|_| Arc::new(ResponseSlot::new())).collect();
        let handles: Vec<RequestHandle> = slots
            .iter()
            .enumerate()
            .map(|(i, slot)| (i as u64, 0u64, Arc::clone(slot)))
            .collect();
        let mut guard = SlotGuard::new(handles);
        guard.fulfil(Err(ServeError::ShuttingDown), 7);
        assert_eq!(guard.remaining(), 2);
        drop(guard); // simulates a worker unwinding mid-batch
        assert_eq!(slots[0].take(), (Err(ServeError::ShuttingDown), 7));
        assert_eq!(slots[1].take(), (Err(ServeError::WorkerPanicked), 0));
        assert_eq!(slots[2].take(), (Err(ServeError::WorkerPanicked), 0));
    }

    #[test]
    fn a_fixed_batcher_never_moves() {
        let mut batcher = Batcher::fixed(4, 100);
        batcher.observe(1_000_000, 4);
        batcher.observe(0, 1);
        assert_eq!(batcher.limit(), 4);
        assert_eq!(batcher.deadline_ns(), 100);
    }

    fn slo(target_ns: f64, min: usize, max: usize) -> SloConfig {
        SloConfig {
            target_queue_wait: Time::from_ns(target_ns),
            min_batch: min,
            max_batch: max,
        }
    }

    #[test]
    fn the_controller_grows_while_wait_is_under_target() {
        let mut batcher = Batcher::adaptive(&slo(1_600.0, 1, 8));
        assert_eq!(batcher.limit(), 1);
        for _ in 0..20 {
            batcher.observe(100, batcher.limit());
        }
        assert_eq!(batcher.limit(), 8, "limit climbs to the SLO cap");
        assert_eq!(
            batcher.deadline_ns(),
            1_600,
            "deadline stretches to the target"
        );
    }

    #[test]
    fn a_partial_late_batch_shrinks_the_limit_and_deadline() {
        let mut batcher = Batcher::adaptive(&slo(1_600.0, 1, 8));
        for _ in 0..20 {
            batcher.observe(100, batcher.limit());
        }
        // Overshoot with a half-full batch: the hold time was the problem.
        batcher.observe(10_000, 3);
        assert_eq!(batcher.limit(), 4, "multiplicative decrease");
        assert_eq!(batcher.deadline_ns(), 800, "deadline halves");
    }

    #[test]
    fn a_full_late_batch_grows_the_limit_instead_of_collapsing() {
        // Sustained overload: every batch is full and every batch is late.
        // The naive controller would pin the limit at min_batch (minimum
        // amortisation at maximum load); the overload guard grows it.
        let mut batcher = Batcher::adaptive(&slo(1_600.0, 1, 64));
        for _ in 0..100 {
            batcher.observe(1_000_000, batcher.limit());
        }
        assert_eq!(batcher.limit(), 64, "backlog drives the limit to the cap");
        assert_eq!(batcher.deadline_ns(), 0, "but nothing is held open");
    }
}
