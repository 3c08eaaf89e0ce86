//! One discrete-event scheduler per workload group: admission, batch
//! formation and shard assignment, all decided on the simulated clock.
//!
//! Every admitted request gets a monotone **ticket** — its first global
//! frame index within the workload group — and a **weight** — how many
//! frame indices it consumes (1 for single-frame requests, the frame count
//! for video streams). A batch only takes a run of requests whose tickets
//! are contiguous *by weight*, and its shard seeks to the first ticket, so
//! every frame executes at exactly the frame index a single sequential
//! session would have used. Within a lane no request is overtaken; an
//! interactive request may overtake waiting batch-lane requests at
//! batch-formation time, bounded by the interactive credit.
//!
//! The [`Scheduler`] is a discrete-event simulation driven only by the
//! offered arrivals. The earliest-free shard (ties to the lower index)
//! **opens** a batch at `max(its free time, first waiting arrival)`;
//! ticket-contiguous requests that arrive within the shard's flush
//! deadline **join** it; it **closes** once full or once the deadline
//! passed, and its [`Shard`] runs it at once, on the thread that closed
//! it. So every batch's cost, a stream batch's gated cost included, and
//! with it its shard's next free time, is known before the next decision.
//! No decision reads a host clock, so the same offered traffic always
//! yields the same batches, shard assignment and drops, whatever the host.
//!
//! A request that finds `queue_depth` requests still waiting at its
//! arrival is rejected with [`ServeError::Overloaded`].
//!
//! The group's lock also guards what the group counts: its [`Tally`] and
//! its shards' rows. An admission is counted before the batch that holds
//! it can run, and a batch is counted while it runs, so whoever takes the
//! lock sees every admitted request queued, in a held batch or counted as
//! served or errored.

use crate::config::INTERACTIVE_WEIGHT;
use crate::error::{Result, ServeError};
use crate::metrics::{lane, ShardSnapshot, Tally, VirtualClock};
use crate::request::{Payload, Priority, Response, ResponseSlot};
use crate::shard::Shard;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// `advance(FOREVER)` runs every pending event.
const FOREVER: u64 = u64::MAX;

/// One admitted request, waiting for a batch.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub(crate) payload: Payload,
    /// First global frame index of this request within its workload group.
    pub(crate) ticket: u64,
    /// Frame indices the request consumes (`payload.weight()`).
    pub(crate) weight: u64,
    /// Simulated arrival time, stamped at admission.
    pub(crate) arrival_ns: u64,
    /// Scheduling lane the request was submitted on.
    pub(crate) priority: Priority,
    pub(crate) slot: Arc<ResponseSlot>,
}

/// The batch being formed (at most one per group).
#[derive(Debug)]
struct OpenBatch {
    shard: usize,
    open_ns: u64,
    /// Position in the waiting FIFO where the batch's ticket successor sits.
    at: usize,
    requests: Vec<QueuedRequest>,
}

#[derive(Debug)]
struct State {
    /// Admitted requests not yet in a batch, in ticket order (and so in
    /// arrival order).
    waiting: VecDeque<QueuedRequest>,
    next_ticket: u64,
    /// Remaining batches that may start at an interactive request instead
    /// of the queue head; refilled to [`INTERACTIVE_WEIGHT`] once spent.
    jump_credit: usize,
    /// The latest arrival the group took, or the latest close time a
    /// waiting client made it decide. Later arrivals are stamped no
    /// earlier, so the group sees arrivals in order.
    horizon_ns: u64,
    shards: Vec<Shard>,
    open: Option<OpenBatch>,
    shutdown: bool,
    /// What the group counted so far.
    tally: Tally,
}

impl State {
    /// The shard that frees up first (ties to the lower index).
    fn earliest_free(&self) -> usize {
        (0..self.shards.len())
            .min_by_key(|&shard| self.shards[shard].free_ns())
            .unwrap_or(0)
    }
}

/// The discrete-event scheduler of one workload group. See the module
/// docs.
#[derive(Debug)]
pub(crate) struct Scheduler {
    capacity: usize,
    /// The server's clock, moved by admitted arrivals and by the
    /// completions waiting clients observe.
    clock: Arc<VirtualClock>,
    state: Mutex<State>,
}

impl Scheduler {
    /// A scheduler bounding `capacity` waiting requests over `shards`.
    pub(crate) fn new(capacity: usize, clock: Arc<VirtualClock>, shards: Vec<Shard>) -> Self {
        Self {
            capacity,
            clock,
            state: Mutex::new(State {
                waiting: VecDeque::new(),
                next_ticket: 0,
                jump_credit: INTERACTIVE_WEIGHT,
                horizon_ns: 0,
                shards,
                open: None,
                shutdown: false,
                tally: Tally::default(),
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Under the group's lock, adds what the group counted to `tally` and
    /// its shards' rows to `shards`, and returns how many requests wait.
    /// Waits for a batch that is running.
    pub(crate) fn read(&self, tally: &mut Tally, shards: &mut Vec<ShardSnapshot>) -> usize {
        let state = self.lock();
        tally.merge(&state.tally);
        shards.extend(state.shards.iter().map(Shard::snapshot));
        state.waiting.len()
    }

    /// Offers one request arriving at `arrival_ns`, stamped no earlier than
    /// the group's horizon. Runs every event up to the stamp, then admits
    /// the request unless `capacity` requests still wait, moving the clock
    /// to the stamp, and counts the admission or the rejection on the
    /// request's lane. Returns the request's ticket and its arrival stamp.
    /// The batches those events close run on the calling thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is full at the arrival,
    /// [`ServeError::ShuttingDown`] once shutdown began.
    pub(crate) fn submit(
        &self,
        payload: Payload,
        priority: Priority,
        arrival_ns: u64,
        slot: Arc<ResponseSlot>,
    ) -> Result<(u64, u64)> {
        let mut state = self.lock();
        if state.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        let arrival_ns = arrival_ns.max(state.horizon_ns);
        state.horizon_ns = arrival_ns;
        self.advance(&mut state, arrival_ns);
        if state.waiting.len() >= self.capacity {
            state.tally.rejected[lane(priority)] += 1;
            return Err(ServeError::Overloaded {
                queue_depth: self.capacity,
            });
        }
        let ticket = state.next_ticket;
        let weight = payload.weight();
        state.next_ticket += weight;
        state.waiting.push_back(QueuedRequest {
            payload,
            ticket,
            weight,
            arrival_ns,
            priority,
            slot,
        });
        state.tally.admitted[lane(priority)] += 1;
        self.advance(&mut state, arrival_ns);
        self.clock.advance_to(arrival_ns);
        Ok((ticket, arrival_ns))
    }

    /// Takes a client's outcome from `slot` and moves the clock to the
    /// request's completion. A waiting client submits nothing further, so
    /// every held batch may close: the group first runs all pending events
    /// on the calling thread, and its horizon moves to the close times it
    /// used. The request's batch has run by then, here or on the thread
    /// that closed it earlier.
    pub(crate) fn wait(&self, slot: &ResponseSlot) -> Result<Response> {
        self.advance(&mut self.lock(), FOREVER);
        let (outcome, completion_ns) = slot.take();
        self.clock.advance_to(completion_ns);
        outcome
    }

    /// Stops admitting and runs every waiting request.
    pub(crate) fn shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        self.advance(&mut state, FOREVER);
    }

    /// Runs every event at or before `until_ns`: opens, holds and closes
    /// batches until the queue is empty or the next event lies later.
    fn advance(&self, state: &mut State, until_ns: u64) {
        loop {
            let mut batch = match state.open.take() {
                Some(batch) => batch,
                None => {
                    let Some(first_ns) = state.waiting.front().map(|r| r.arrival_ns) else {
                        return;
                    };
                    let shard = state.earliest_free();
                    let open_ns = state.shards[shard].free_ns().max(first_ns);
                    if open_ns > until_ns {
                        return;
                    }
                    let at = self.start_index(state, open_ns);
                    let Some(first) = state.waiting.remove(at) else {
                        return;
                    };
                    OpenBatch {
                        shard,
                        open_ns,
                        at,
                        requests: vec![first],
                    }
                }
            };
            let batcher = state.shards[batch.shard].batcher();
            let limit = batcher.limit();
            let deadline_ns = batch.open_ns.saturating_add(batcher.deadline_ns());
            let join_by_ns = deadline_ns.min(until_ns);
            while batch.requests.len() < limit {
                let last = &batch.requests[batch.requests.len() - 1];
                let joins = state.waiting.get(batch.at).is_some_and(|next| {
                    next.arrival_ns <= join_by_ns && next.ticket == last.ticket + last.weight
                });
                let Some(next) = joins.then(|| state.waiting.remove(batch.at)).flatten() else {
                    break;
                };
                batch.requests.push(next);
            }
            let close_ns = if batch.requests.len() >= limit {
                let newest_ns = batch.requests[batch.requests.len() - 1].arrival_ns;
                newest_ns.max(batch.open_ns)
            } else if deadline_ns <= until_ns {
                deadline_ns
            } else {
                state.open = Some(batch);
                return;
            };
            self.close(state, batch, close_ns);
        }
    }

    /// Where the next batch starts: the queue head, or — while interactive
    /// credit remains and the head is batch-lane — the first interactive
    /// request that arrived by `open_ns`, spending one credit. A batch that
    /// starts at a batch-lane head refills the credit.
    fn start_index(&self, state: &mut State, open_ns: u64) -> usize {
        if state
            .waiting
            .front()
            .is_none_or(|head| head.priority != Priority::Batch)
        {
            return 0;
        }
        let mut arrived = state.waiting.iter().take_while(|r| r.arrival_ns <= open_ns);
        let jump = (state.jump_credit > 0)
            .then(|| arrived.position(|r| r.priority == Priority::Interactive))
            .flatten();
        match jump {
            Some(at) => {
                state.jump_credit -= 1;
                at
            }
            None => {
                state.jump_credit = INTERACTIVE_WEIGHT;
                0
            }
        }
    }

    /// Closes `batch` at `close_ns` and runs it at once on its shard, on
    /// the calling thread.
    fn close(&self, state: &mut State, batch: OpenBatch, close_ns: u64) {
        state.horizon_ns = state.horizon_ns.max(close_ns);
        state.shards[batch.shard].run(batch.requests, &mut state.tally);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{Batcher, ShardCosts};
    use lightator_core::platform::{ImageKernel, Platform, Workload};
    use lightator_core::stream::StreamConfig;
    use lightator_sensor::frame::RgbFrame;
    use lightator_telemetry::{TraceEvent, TraceRecorder};

    fn scene() -> RgbFrame {
        RgbFrame::filled(8, 8, [0.5, 0.5, 0.5]).expect("ok")
    }

    fn frame() -> Payload {
        Payload::Frame(scene())
    }

    fn stream(frames: usize) -> Payload {
        Payload::Stream(vec![scene(); frames])
    }

    /// A workload group under test: its scheduler, and the recorder its
    /// shards trace to.
    struct Group {
        scheduler: Scheduler,
        recorder: Arc<TraceRecorder>,
    }

    /// A group serving `workload` on an 8x8 sensor over `shards`
    /// fixed-policy shards, traced.
    fn group(
        workload: Workload,
        capacity: usize,
        shards: usize,
        max_batch: usize,
        deadline_ns: u64,
    ) -> Group {
        let session = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform")
            .session(workload)
            .expect("session");
        let costs = ShardCosts::of(&session);
        let recorder = Arc::new(TraceRecorder::new());
        let shards = (0..shards)
            .map(|index| {
                Shard::new(
                    format!("test/{index}"),
                    session.clone(),
                    Batcher::fixed(max_batch, deadline_ns),
                    costs,
                    max_batch,
                    Some(Arc::clone(&recorder)),
                )
            })
            .collect();
        let clock = Arc::new(VirtualClock::new());
        Group {
            scheduler: Scheduler::new(capacity, clock, shards),
            recorder,
        }
    }

    /// An acquire group: no weight encode, so every frame of a batch costs
    /// the same.
    fn frames(capacity: usize, shards: usize, max_batch: usize, deadline_ns: u64) -> Group {
        group(Workload::Acquire, capacity, shards, max_batch, deadline_ns)
    }

    /// A Sobel-X stream group.
    fn streams(capacity: usize, shards: usize, max_batch: usize, deadline_ns: u64) -> Group {
        let workload = Workload::VideoStream {
            kernel: ImageKernel::SobelX,
            stream: StreamConfig {
                block_size: 2,
                delta_threshold: 0.05,
            },
        };
        group(workload, capacity, shards, max_batch, deadline_ns)
    }

    fn arg(event: &TraceEvent, key: &str) -> u64 {
        event
            .args
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, value)| value.parse().ok())
            .expect("a numeric arg")
    }

    impl Group {
        /// Submits a fresh request and returns its ticket.
        fn push(&self, payload: Payload, priority: Priority, arrival_ns: u64) -> u64 {
            let slot = Arc::new(ResponseSlot::new());
            let (ticket, _) = self
                .scheduler
                .submit(payload, priority, arrival_ns, slot)
                .expect("admitted");
            ticket
        }

        /// The events shard `shard` recorded so far.
        fn events(&self, shard: usize) -> Vec<TraceEvent> {
            let track = format!("shard:test/{shard}");
            let mut events = self.recorder.events();
            events.retain(|e| e.track == track);
            events
        }

        /// The tickets of every batch shard `shard` ran so far, read off
        /// its track: a `batch-form` instant, then one `queue` span per
        /// ticket.
        fn batches(&self, shard: usize) -> Vec<Vec<u64>> {
            let mut batches: Vec<Vec<u64>> = Vec::new();
            for event in self.events(shard) {
                match event.name.as_str() {
                    "batch-form" => batches.push(Vec::new()),
                    "queue" => batches
                        .last_mut()
                        .expect("a queue span follows its batch-form")
                        .push(arg(&event, "ticket")),
                    _ => {}
                }
            }
            batches
        }

        /// When shard `shard`'s batches started: their `batch-form`
        /// instants.
        fn starts(&self, shard: usize) -> Vec<u64> {
            let events = self.events(shard);
            let forms = events.iter().filter(|e| e.name == "batch-form");
            forms.map(|e| e.ts_ns as u64).collect()
        }

        /// When ticket `ticket` completed on shard 0: its `respond` instant.
        fn completion(&self, ticket: u64) -> u64 {
            let events = self.events(0);
            let respond = events
                .iter()
                .find(|e| e.name == "respond" && arg(e, "ticket") == ticket)
                .expect("the ticket responded");
            respond.ts_ns as u64
        }
    }

    #[test]
    fn tickets_are_assigned_in_admission_order() {
        let group = frames(4, 1, 1, 0);
        assert_eq!(group.push(frame(), Priority::Interactive, 0), 0);
        assert_eq!(group.push(frame(), Priority::Interactive, 0), 1);
        assert_eq!(group.push(frame(), Priority::Interactive, 0), 2);
        // The first request went straight into a batch; the chip is busy
        // with it, so the other two still wait.
        assert_eq!(group.scheduler.lock().waiting.len(), 2);
    }

    #[test]
    fn stream_requests_advance_tickets_by_their_frame_count() {
        let group = streams(8, 1, 8, 1_000);
        assert_eq!(group.push(stream(3), Priority::Interactive, 0), 0);
        assert_eq!(group.push(stream(1), Priority::Interactive, 0), 3);
        assert_eq!(group.push(stream(2), Priority::Interactive, 0), 4);
        group.scheduler.shutdown();
        // Weighted tickets still batch as one contiguous run: one batch of
        // three streams, each run at its ticket for its frame count.
        assert_eq!(group.batches(0), vec![vec![0, 3, 4]]);
        let runs: Vec<(u64, u64)> = group
            .events(0)
            .iter()
            .filter(|e| e.name == "execute")
            .map(|e| (arg(e, "ticket"), arg(e, "stream_frames")))
            .collect();
        assert_eq!(runs, vec![(0, 3), (3, 1), (4, 2)]);
    }

    #[test]
    fn a_full_queue_rejects_instead_of_blocking() {
        let group = frames(2, 1, 4, 0);
        // The first request occupies the chip; two more fill the queue.
        for _ in 0..3 {
            group.push(frame(), Priority::Interactive, 0);
        }
        assert_eq!(
            group.scheduler.submit(
                frame(),
                Priority::Interactive,
                0,
                Arc::new(ResponseSlot::new())
            ),
            Err(ServeError::Overloaded { queue_depth: 2 })
        );
        // Rejections do not consume tickets.
        group.scheduler.shutdown();
        assert_eq!(group.batches(0), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn wait_batch_drains_up_to_max_batch_in_fifo_order() {
        let group = frames(8, 1, 3, 1_000);
        for _ in 0..5 {
            group.push(frame(), Priority::Interactive, 0);
        }
        group.scheduler.shutdown();
        assert_eq!(group.batches(0), vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let group = frames(4, 1, 4, 0);
        group.scheduler.shutdown();
        assert_eq!(
            group.scheduler.submit(
                frame(),
                Priority::Interactive,
                0,
                Arc::new(ResponseSlot::new())
            ),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn shutdown_still_drains_queued_work() {
        let group = frames(4, 1, 4, 1_000);
        group.push(frame(), Priority::Interactive, 0);
        // The batch is held open for more arrivals.
        assert!(group.batches(0).is_empty());
        group.scheduler.shutdown();
        assert_eq!(group.batches(0), vec![vec![0]]);
    }

    #[test]
    fn straggler_wait_extends_a_partial_batch() {
        let group = frames(8, 1, 2, 100);
        group.push(frame(), Priority::Interactive, 0);
        assert!(group.batches(0).is_empty(), "held until full or deadline");
        // A straggler within the deadline fills the batch, which closes at
        // once; the chip starts it when its newest request arrived.
        group.push(frame(), Priority::Interactive, 50);
        assert_eq!(group.batches(0), vec![vec![0, 1]]);
        assert_eq!(group.starts(0), vec![50]);
        // A lone request waits out its deadline: the next arrival past it
        // closes the batch without joining.
        group.push(frame(), Priority::Interactive, 10_000);
        assert_eq!(group.batches(0).len(), 1);
        group.push(frame(), Priority::Interactive, 10_101);
        assert_eq!(group.batches(0), vec![vec![0, 1], vec![2]]);
    }

    #[test]
    fn the_earliest_free_shard_takes_the_next_batch() {
        let group = frames(16, 2, 2, 100);
        // Shard 0 runs a two-frame batch, shard 1 a one-frame batch that
        // closes at its deadline.
        for _ in 0..3 {
            group.push(frame(), Priority::Interactive, 0);
        }
        group.push(frame(), Priority::Interactive, 10_000);
        group.scheduler.shutdown();
        assert_eq!(group.batches(0), vec![vec![0, 1]]);
        // Shard 1 frees first, so it takes the next batch although its
        // index is higher.
        assert_eq!(group.batches(1), vec![vec![2], vec![3]]);
    }

    #[test]
    fn free_time_ties_go_to_the_lower_shard_index() {
        let group = frames(16, 2, 1, 0);
        for _ in 0..4 {
            group.push(frame(), Priority::Interactive, 0);
        }
        group.scheduler.shutdown();
        // Both shards free up at the same simulated time after their first
        // batch: the lower index takes the next one.
        assert_eq!(group.batches(0), vec![vec![0], vec![2]]);
        assert_eq!(group.batches(1), vec![vec![1], vec![3]]);
    }

    #[test]
    fn a_full_queue_admits_once_the_running_stream_completed() {
        // One shard, one waiting place: stream 0 runs at once and frees the
        // chip at its gated completion; stream 1 (arriving at 10 ns) waits.
        let completion_ns = {
            let group = streams(1, 1, 1, 0);
            group.push(stream(2), Priority::Interactive, 0);
            group.completion(0)
        };
        assert!(completion_ns > 10, "stream 1 finds the chip busy");
        // Stream 2 is admitted exactly when stream 0 completed at or before
        // its arrival, so that stream 1 left the queue for the chip.
        for (arrival_ns, admitted) in [(completion_ns, true), (completion_ns - 1, false)] {
            let group = streams(1, 1, 1, 0);
            group.push(stream(2), Priority::Interactive, 0);
            group.push(stream(2), Priority::Interactive, 10);
            let outcome = group.scheduler.submit(
                stream(2),
                Priority::Interactive,
                arrival_ns,
                Arc::new(ResponseSlot::new()),
            );
            let expected = if admitted {
                Ok((4, arrival_ns))
            } else {
                Err(ServeError::Overloaded { queue_depth: 1 })
            };
            assert_eq!(outcome, expected, "arrival at {arrival_ns} ns");
        }
    }

    #[test]
    fn a_waiting_client_closes_a_held_batch() {
        let group = frames(4, 1, 4, 1_000);
        let slot = Arc::new(ResponseSlot::new());
        group
            .scheduler
            .submit(frame(), Priority::Interactive, 0, Arc::clone(&slot))
            .expect("admitted");
        assert!(group.batches(0).is_empty(), "held for more arrivals");
        // The waiting client will submit nothing more: the batch closes,
        // and runs on this thread.
        let response = group.scheduler.wait(&slot);
        assert!(matches!(response, Ok(Response::Frame(_))), "{response:?}");
        assert_eq!(group.batches(0), vec![vec![0]]);
        assert_eq!(
            group.scheduler.clock.now(),
            group.completion(0),
            "the client saw the completion"
        );
        // The group decided up to the close time, so a later submission
        // arrives no earlier.
        let (_, arrival_ns) = group
            .scheduler
            .submit(
                frame(),
                Priority::Interactive,
                10,
                Arc::new(ResponseSlot::new()),
            )
            .expect("admitted");
        assert_eq!(arrival_ns, 1_000);
    }

    #[test]
    fn interactive_requests_overtake_batch_lane_heads() {
        let group = frames(16, 1, 4, 0);
        group.push(frame(), Priority::Interactive, 0); // 0 occupies the chip
        group.push(frame(), Priority::Batch, 0); // 1
        group.push(frame(), Priority::Batch, 0); // 2
        group.push(frame(), Priority::Interactive, 0); // 3
        group.push(frame(), Priority::Interactive, 0); // 4
        group.scheduler.shutdown();
        // Batch formation starts at the first interactive request (ticket
        // 3) and extends contiguously — never with the skipped heads. The
        // overtaken batch-lane requests go next, still in order.
        assert_eq!(group.batches(0), vec![vec![0], vec![3, 4], vec![1, 2]]);
    }

    #[test]
    fn interactive_credit_bounds_batch_lane_starvation() {
        // After INTERACTIVE_WEIGHT (4) interactive-first batches the next
        // batch must take the batch-lane head even though interactive work
        // waits.
        let group = frames(64, 1, 1, 0);
        group.push(frame(), Priority::Interactive, 0); // 0 occupies the chip
        for _ in 0..6 {
            group.push(frame(), Priority::Batch, 0); // 1, 3, 5, ...
            group.push(frame(), Priority::Interactive, 0); // 2, 4, 6, ...
        }
        group.scheduler.shutdown();
        let order: Vec<u64> = group.batches(0).concat();
        assert_eq!(
            order,
            [0, 2, 4, 6, 8, 1, 10, 12, 3, 5, 7, 9, 11],
            "four jumps, a forced head (refills the credit), then the rest"
        );
    }

    #[test]
    fn priority_jumps_never_break_ticket_contiguity() {
        let group = frames(16, 1, 4, 0);
        group.push(frame(), Priority::Interactive, 0); // 0 occupies the chip
        group.push(frame(), Priority::Batch, 0); // 1
        group.push(frame(), Priority::Interactive, 0); // 2
        group.push(frame(), Priority::Batch, 0); // 3
        group.push(frame(), Priority::Interactive, 0); // 4
        group.scheduler.shutdown();
        // The jump starts at ticket 2 and takes the contiguous {2, 3, 4}
        // run; ticket 1 is left waiting, so every batch satisfies
        // `next.ticket == last.ticket + last.weight` (weight 1 per frame).
        let batches = group.batches(0);
        assert_eq!(batches, vec![vec![0], vec![2, 3, 4], vec![1]]);
        for batch in &batches {
            for pair in batch.windows(2) {
                assert_eq!(pair[1], pair[0] + 1);
            }
        }
    }
}
