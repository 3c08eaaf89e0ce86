//! One shard: one virtual Lightator chip of a workload group.
//!
//! Each shard runs exactly what a sequential client runs. It owns a clone
//! of its group's session, opened once through `Platform::session_on`, its
//! batch-formation policy ([`Batcher`]) and the simulated time it frees
//! up. When its group's scheduler closes a batch on it, the shard runs the
//! batch at once, on the thread that closed it: seek the session to the
//! batch's first ticket, execute the batch (frame batches one
//! `Session::run` per frame; video streams one request at a time through
//! `run_stream`), meter the energy, replay the trace, fulfil the response
//! slots and move its free time to the batch's completion. It counts its
//! own row (batches, frames, batch sizes, energy) in plain fields and the
//! rest in its group's tally, both under the group's lock. The scheduler
//! decides which requests form a batch, which shard runs it and when; by
//! the next decision, the shard's free time already holds the batch's
//! cost, a stream batch's gated cost included.
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
use crate::metrics::{ShardSnapshot, Tally};
use crate::queue::QueuedRequest;
use crate::request::{Payload, Response, ResponseSlot};
use lightator_core::platform::Session;
use lightator_core::StageSpan;
use lightator_photonics::units::{Energy, Time};
use lightator_sensor::frame::RgbFrame;
use lightator_telemetry::{TraceEvent, TraceRecorder, TraceSink};
use std::sync::Arc;

/// Client-side bookkeeping of one batched request: its ticket, its
/// simulated arrival time, and the slot awaiting the report.
type RequestHandle = (u64, u64, Arc<ResponseSlot>);

/// Fulfils a batch's slots strictly in ticket order, and — if execution
/// unwinds mid-batch — fails whatever is left with
/// [`ServeError::WorkerPanicked`] on drop, so a panic in core code can
/// never leave a client's slot empty.
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

/// One virtual chip: a clone of its group's session, its batch-formation
/// policy, the simulated time it frees up, its own counts, and where its
/// trace goes.
#[derive(Debug)]
pub(crate) struct Shard {
    /// Display label, `<workload>[@<backend>]/<index>`.
    label: String,
    session: Session,
    batcher: Batcher,
    /// Completion of the shard's last batch.
    free_ns: u64,
    /// The simulated cost model of the group's session.
    costs: ShardCosts,
    batches: u64,
    /// Frames served (in a stream group, the frames its streams carried).
    frames: u64,
    /// `batch_sizes[s - 1]` counts batches of exactly `s` requests.
    batch_sizes: Vec<u64>,
    /// Simulated energy charged to work completed on this shard.
    energy_pj: f64,
    /// Optional trace sink shared by the whole pool; events land on this
    /// shard's `track`, timestamped on the serve timeline.
    tracer: Option<Arc<TraceRecorder>>,
    /// The shard's Perfetto track, `shard:<label>`.
    track: String,
    /// One frame's stage decomposition, replayed per traced frame (empty
    /// when untraced).
    stages: Vec<StageSpan>,
}

impl Shard {
    /// A shard labelled `label`, running `session` under `batcher`, whose
    /// batches hold at most `max_batch` requests.
    pub(crate) fn new(
        label: String,
        session: Session,
        batcher: Batcher,
        costs: ShardCosts,
        max_batch: usize,
        tracer: Option<Arc<TraceRecorder>>,
    ) -> Self {
        // The track and the stage decomposition are pure functions of the
        // session's perf model, computed once so serving only replays them.
        let track = format!("shard:{label}");
        let stages = match tracer {
            Some(_) => lightator_core::frame_stages(session.perf()),
            None => Vec::new(),
        };
        Self {
            label,
            session,
            batcher,
            free_ns: 0,
            costs,
            batches: 0,
            frames: 0,
            batch_sizes: vec![0; max_batch],
            energy_pj: 0.0,
            tracer,
            track,
            stages,
        }
    }

    pub(crate) fn batcher(&self) -> &Batcher {
        &self.batcher
    }

    pub(crate) fn free_ns(&self) -> u64 {
        self.free_ns
    }

    /// This shard's row: its counts, its batching gauges and its plan's
    /// cumulative counters.
    pub(crate) fn snapshot(&self) -> ShardSnapshot {
        let plan = self.session.plan_stats();
        ShardSnapshot {
            shard: self.label.clone(),
            backend: self.session.backend().to_string(),
            batches: self.batches,
            frames: self.frames,
            batch_sizes: self.batch_sizes.clone(),
            steals: 0,
            batch_limit: self.batcher.limit() as u64,
            flush_deadline: Time::from_ns(self.batcher.deadline_ns() as f64),
            plan_encodes: plan.encodes,
            plan_hits: plan.cache_hits,
            energy: Energy::from_pj(self.energy_pj),
        }
    }

    /// Runs a batch its scheduler closed on this shard, counting what it
    /// serves here and in its group's `tally`, moves the shard's free time
    /// to the batch's completion and feeds the batch to the batcher.
    pub(crate) fn run(&mut self, batch: Vec<QueuedRequest>, tally: &mut Tally) {
        let len = batch.len();
        self.batches += 1;
        self.batch_sizes[len - 1] += 1;
        // A group serves one workload, so one stream payload means a
        // stream batch.
        let max_wait_ns = if matches!(batch[0].payload, Payload::Stream(_)) {
            self.run_stream_batch(batch, tally)
        } else {
            self.run_frame_batch(batch, tally)
        };
        self.batcher.observe(max_wait_ns, len);
    }

    /// Runs one batch of single-frame requests. It starts once the shard is
    /// free and its newest request arrived, and occupies the chip for one
    /// full frame plus one resident frame per follow-on frame. Returns the
    /// worst queue wait the batch carried.
    fn run_frame_batch(&mut self, batch: Vec<QueuedRequest>, tally: &mut Tally) -> u64 {
        let len = batch.len();
        let start_ns = self.free_ns.max(batch[len - 1].arrival_ns);
        let completion_ns = start_ns.saturating_add(self.costs.batch_latency_ns(len));
        self.frames += len as u64;
        let mut max_wait_ns = 0u64;
        for request in &batch {
            let wait_ns = start_ns.saturating_sub(request.arrival_ns);
            max_wait_ns = max_wait_ns.max(wait_ns);
            tally.record_wait(request.priority, wait_ns);
        }
        tally.record_run(start_ns, completion_ns);
        self.free_ns = completion_ns;

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
        if let Some(tracer) = &self.tracer {
            trace_frame_batch(
                tracer.as_ref(),
                &self.track,
                &self.stages,
                guard.handles(),
                start_ns,
                &self.costs,
            );
        }

        // Execute at the tickets' frame indices: bit-identical to a single
        // sequential session running these frames at the same positions.
        // `catch_unwind` keeps the thread that closed the batch alive
        // across a panic in core code, and the guard fails the batch's
        // unfulfilled slots so no client hangs.
        let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.execute_batch(first_ticket, start_ns, &frames, &mut guard, tally)
        }));
        if executed.is_err() {
            tally.errored += guard.remaining() as u64;
        }
        max_wait_ns
    }

    /// Runs one batch of video-stream requests, one request at a time: each
    /// stream starts once the shard is free and the stream arrived, seeks to
    /// its ticket, runs under the delta gate, and occupies the virtual chip
    /// for its *gated* simulated time — the serving payoff of skipped blocks.
    /// Returns the worst queue wait the batch carried.
    fn run_stream_batch(&mut self, batch: Vec<QueuedRequest>, tally: &mut Tally) -> u64 {
        if let Some(tracer) = &self.tracer {
            // As for frame batches: the batch's size at its first start.
            tracer.record(
                TraceEvent::instant(
                    "request",
                    "batch-form",
                    &self.track,
                    self.free_ns.max(batch[0].arrival_ns) as f64,
                )
                .with_arg("batch", batch.len()),
            );
        }
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
            let start_ns = self.free_ns.max(arrival_ns);
            let wait_ns = start_ns.saturating_sub(arrival_ns);
            max_wait_ns = max_wait_ns.max(wait_ns);
            tally.record_wait(priority, wait_ns);
            self.frames += weight;

            let mut guard = SlotGuard::new(vec![(ticket, arrival_ns, slot)]);
            let session = &mut self.session;
            let executed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.seek_frame(ticket);
                session.run_stream(&frames)
            }));
            let completion_ns = match &executed {
                Ok(Ok(report)) => {
                    start_ns.saturating_add(report.sim_time.ns().ceil().max(1.0) as u64)
                }
                // A failed or panicked stream still occupied the chip for the
                // frames it consumed; charge a dense-cost upper bound so the
                // timeline never runs backwards.
                _ => start_ns.saturating_add(weight.saturating_mul(self.costs.frame_latency_ns)),
            };
            tally.record_run(start_ns, completion_ns);
            self.free_ns = completion_ns;

            if let Some(tracer) = &self.tracer {
                // Stream lifecycle: queue → execute → respond. The execute span
                // carries the *gated* simulated time and energy; the per-frame
                // fine structure lives on the session track when a recorder is
                // attached to a standalone session.
                tracer.record(
                    TraceEvent::span(
                        "request",
                        "queue",
                        &self.track,
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
                        &self.track,
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
                    TraceEvent::instant("request", outcome, &self.track, completion_ns as f64)
                        .with_arg("ticket", ticket),
                );
            }

            match executed {
                Ok(Ok(report)) => {
                    tally.completed += 1;
                    // Streams meter their *gated* energy: skipped blocks spend
                    // the DMVA feedback path, not the optical core.
                    self.energy_pj += report.energy.pj();
                    tally.served_frames += report.frames_processed() as u64;
                    tally.stream_frames += report.frames_processed() as u64;
                    tally.stream_blocks_total += report.blocks_total() as u64;
                    tally.stream_blocks_skipped += report.blocks_skipped() as u64;
                    guard.fulfil(Ok(Response::Stream(report)), completion_ns);
                }
                Ok(Err(err)) => {
                    tally.errored += 1;
                    guard.fulfil(Err(ServeError::Core(err)), completion_ns);
                }
                Err(_) => {
                    tally.errored += 1;
                    // The guard's drop publishes `WorkerPanicked`.
                }
            }
            drop(guard);
        }
        max_wait_ns
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
        &mut self,
        first_ticket: u64,
        start_ns: u64,
        frames: &[RgbFrame],
        guard: &mut SlotGuard,
        tally: &mut Tally,
    ) {
        let costs = self.costs;
        self.session.seek_frame(first_ticket);
        let mut energy_pj = costs.frame_energy_pj;
        for (index, frame) in frames.iter().enumerate() {
            let completion_ns = start_ns.saturating_add(costs.frame_end_ns(index));
            match self.session.run(frame) {
                Ok(report) => {
                    tally.completed += 1;
                    tally.served_frames += 1;
                    self.energy_pj += energy_pj;
                    energy_pj = costs.resident_energy_pj;
                    guard.fulfil(Ok(Response::Frame(report)), completion_ns);
                }
                Err(err) => {
                    tally.errored += 1;
                    guard.fulfil(Err(ServeError::Core(err)), completion_ns);
                }
            }
        }
    }
}

/// Replays one frame batch onto the trace: the request lifecycle (queue →
/// batch-form → execute → respond) plus each frame's stage decomposition,
/// all timestamped on the shard's simulated timeline. Everything emitted
/// here is derived from already-computed quantities (arrival/start times
/// and the build-time perf model), so tracing never perturbs execution.
/// The stage spans describe the chip occupancy of the whole batch — the
/// first frame carries the full stage list, follow-on frames skip the
/// amortised `weight_encode` stages — so the stage totals still sum to the
/// energy the batch meters. A frame that later errors still occupied its
/// slot on the timeline.
fn trace_frame_batch(
    tracer: &TraceRecorder,
    track: &str,
    stages: &[StageSpan],
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
        drop(guard); // as when execution unwinds mid-batch
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
