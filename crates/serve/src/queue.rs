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
//! passed, and goes to the shard's worker as a [`Job`]. A frame batch's
//! cost, and so its shard's next free time, is known when it closes. A
//! stream batch's cost is only known once its shard ran it, so decisions
//! that the shard's report could change wait for
//! [`Scheduler::report_stream`]. No decision reads a host clock, so the
//! same offered traffic always yields the same batches, shard assignment
//! and drops, whatever the host.
//!
//! A request that finds `queue_depth` requests still waiting at its
//! arrival is rejected with [`ServeError::Overloaded`].

use crate::config::INTERACTIVE_WEIGHT;
use crate::error::{Result, ServeError};
use crate::metrics::{MetricsInner, VirtualClock};
use crate::request::{Payload, Priority, Response, ResponseSlot};
use crate::shard::{Batcher, ShardCosts};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

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

/// One closed batch, handed to the shard that runs it.
#[derive(Debug)]
pub(crate) struct Job {
    pub(crate) requests: Vec<QueuedRequest>,
    /// A frame batch starts on the chip at this simulated time. A stream
    /// batch finds the chip free from it, and each stream starts at
    /// `max(previous completion, its arrival)`.
    pub(crate) start_ns: u64,
}

/// The scheduler's view of one shard (one virtual chip).
#[derive(Debug)]
struct Chip {
    batcher: Batcher,
    /// Completion of the shard's last batch.
    free_ns: u64,
    /// Start of the stream batch the shard is running. Its completion, and
    /// so `free_ns`, is unknown until the shard reports.
    streaming: Option<u64>,
    /// The worker's job channel; `None` once shutdown released it.
    jobs: Option<Sender<Job>>,
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
    chips: Vec<Chip>,
    open: Option<OpenBatch>,
    /// Clients blocked in `Pending::wait*` on this group.
    waiters: usize,
    shutdown: bool,
}

impl State {
    /// The shard that frees up first (ties to the lower index), or `None`
    /// while a stream in flight might still free its shard earlier.
    fn earliest_free(&self) -> Option<usize> {
        let (shard, free_ns) = self
            .chips
            .iter()
            .enumerate()
            .filter(|(_, chip)| chip.streaming.is_none())
            .map(|(shard, chip)| (shard, chip.free_ns))
            .min_by_key(|&(_, free_ns)| free_ns)?;
        // A stream completes strictly after it starts, so one that started
        // at or after `free_ns` cannot win the choice.
        let may_free_first =
            |chip: &Chip| chip.streaming.is_some_and(|start_ns| start_ns < free_ns);
        (!self.chips.iter().any(may_free_first)).then_some(shard)
    }
}

/// The discrete-event scheduler of one workload group. See the module
/// docs.
#[derive(Debug)]
pub(crate) struct Scheduler {
    capacity: usize,
    costs: ShardCosts,
    metrics: Arc<MetricsInner>,
    /// Index of the group's first shard in `metrics.shards`.
    first_shard: usize,
    /// The server's clock, moved by admitted arrivals and by the
    /// completions waiting clients observe.
    clock: Arc<VirtualClock>,
    state: Mutex<State>,
    /// Signalled whenever a shard reports a stream batch.
    reported: Condvar,
}

impl Scheduler {
    /// A scheduler bounding `capacity` waiting requests over one shard per
    /// `(batcher, job channel)` pair. Publishes each shard's batching
    /// gauges.
    pub(crate) fn new(
        capacity: usize,
        costs: ShardCosts,
        metrics: Arc<MetricsInner>,
        first_shard: usize,
        clock: Arc<VirtualClock>,
        shards: Vec<(Batcher, Sender<Job>)>,
    ) -> Self {
        let scheduler = Self {
            capacity,
            costs,
            metrics,
            first_shard,
            clock,
            state: Mutex::new(State {
                waiting: VecDeque::new(),
                next_ticket: 0,
                jump_credit: INTERACTIVE_WEIGHT,
                horizon_ns: 0,
                chips: shards
                    .into_iter()
                    .map(|(batcher, jobs)| Chip {
                        batcher,
                        free_ns: 0,
                        streaming: None,
                        jobs: Some(jobs),
                    })
                    .collect(),
                open: None,
                waiters: 0,
                shutdown: false,
            }),
            reported: Condvar::new(),
        };
        for (shard, chip) in scheduler.lock().chips.iter().enumerate() {
            scheduler.publish(shard, &chip.batcher);
        }
        scheduler
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Requests admitted but not yet in a batch.
    pub(crate) fn len(&self) -> usize {
        self.lock().waiting.len()
    }

    /// Offers one request arriving at `arrival_ns`, stamped no earlier than
    /// the group's horizon. Runs every event up to the stamp, then admits
    /// the request unless `capacity` requests still wait, moving the clock
    /// to the stamp. Returns the request's ticket and its arrival stamp.
    ///
    /// A full queue only rejects once no stream in flight could still free
    /// a place first; until then the call waits for that stream's report.
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
        while self.advance(&mut state, arrival_ns) && state.waiting.len() >= self.capacity {
            state = self
                .reported
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if state.waiting.len() >= self.capacity {
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
        self.advance(&mut state, arrival_ns);
        self.clock.advance_to(arrival_ns);
        Ok((ticket, arrival_ns))
    }

    /// Blocks a client on `slot` and moves the clock to the request's
    /// completion. A waiting client submits nothing further, so every held
    /// batch may close: the group runs all pending events, and its horizon
    /// moves to the close times it used.
    pub(crate) fn wait(&self, slot: &ResponseSlot) -> Result<Response> {
        {
            let mut state = self.lock();
            state.waiters += 1;
            self.advance(&mut state, FOREVER);
        }
        let (outcome, completion_ns) = slot.take();
        self.lock().waiters -= 1;
        self.clock.advance_to(completion_ns);
        outcome
    }

    /// A shard finished its stream batch: it is free at `free_ns`, and the
    /// batch carried `len` requests whose worst queue wait was
    /// `max_wait_ns`. Feeds the shard's batcher and resumes the events the
    /// batch held up.
    pub(crate) fn report_stream(&self, shard: usize, free_ns: u64, max_wait_ns: u64, len: usize) {
        let mut state = self.lock();
        let chip = &mut state.chips[shard];
        chip.streaming = None;
        chip.free_ns = free_ns;
        chip.batcher.observe(max_wait_ns, len);
        self.publish(shard, &chip.batcher);
        let until_ns = if state.waiters > 0 || state.shutdown {
            FOREVER
        } else {
            state.horizon_ns
        };
        self.advance(&mut state, until_ns);
        drop(state);
        self.reported.notify_all();
    }

    /// Stops admitting, hands every waiting request to a shard and releases
    /// the job channels, so each worker exits once it ran its last job.
    pub(crate) fn shutdown(&self) {
        let mut state = self.lock();
        state.shutdown = true;
        while self.advance(&mut state, FOREVER) {
            state = self
                .reported
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        for chip in &mut state.chips {
            chip.jobs = None;
        }
    }

    /// Runs every event at or before `until_ns`: opens, holds and closes
    /// batches until the next event lies later or waits on a stream report.
    /// Returns whether it stopped for a stream report.
    fn advance(&self, state: &mut State, until_ns: u64) -> bool {
        loop {
            let mut batch = match state.open.take() {
                Some(batch) => batch,
                None => {
                    let Some(first_ns) = state.waiting.front().map(|r| r.arrival_ns) else {
                        return false;
                    };
                    let Some(shard) = state.earliest_free() else {
                        return true;
                    };
                    let open_ns = state.chips[shard].free_ns.max(first_ns);
                    if open_ns > until_ns {
                        return false;
                    }
                    let at = self.start_index(state, open_ns);
                    let Some(first) = state.waiting.remove(at) else {
                        return false;
                    };
                    OpenBatch {
                        shard,
                        open_ns,
                        at,
                        requests: vec![first],
                    }
                }
            };
            let batcher = &state.chips[batch.shard].batcher;
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
                return false;
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

    /// Closes `batch` at `close_ns` and hands it to its shard. A frame
    /// batch is costed here: it starts once its shard is free and its
    /// newest request arrived, and occupies the chip for one full frame
    /// plus one resident frame per follow-on frame. A stream batch is
    /// costed by the shard that runs it.
    fn close(&self, state: &mut State, batch: OpenBatch, close_ns: u64) {
        state.horizon_ns = state.horizon_ns.max(close_ns);
        let OpenBatch {
            shard, requests, ..
        } = batch;
        let chip = &mut state.chips[shard];
        let start_ns = if matches!(requests[0].payload, Payload::Stream(_)) {
            chip.streaming = Some(chip.free_ns.max(requests[0].arrival_ns));
            chip.free_ns
        } else {
            let len = requests.len();
            let start_ns = chip.free_ns.max(requests[len - 1].arrival_ns);
            let completion_ns = start_ns.saturating_add(self.costs.batch_latency_ns(len));
            let metrics = &self.metrics.shards[self.first_shard + shard];
            metrics.batches.fetch_add(1, Ordering::Relaxed);
            metrics.frames.fetch_add(len as u64, Ordering::Relaxed);
            metrics.batch_sizes[len - 1].fetch_add(1, Ordering::Relaxed);
            let mut max_wait_ns = 0u64;
            for request in &requests {
                let wait_ns = start_ns.saturating_sub(request.arrival_ns);
                max_wait_ns = max_wait_ns.max(wait_ns);
                self.metrics.record_wait(request.priority, wait_ns);
            }
            self.metrics
                .first_start_ns
                .fetch_min(start_ns, Ordering::Relaxed);
            self.metrics
                .last_completion_ns
                .fetch_max(completion_ns, Ordering::Relaxed);
            chip.free_ns = completion_ns;
            chip.batcher.observe(max_wait_ns, len);
            self.publish(shard, &chip.batcher);
            start_ns
        };
        let job = Job { requests, start_ns };
        let sent = match &chip.jobs {
            Some(jobs) => jobs.send(job).map_err(|err| err.0),
            None => Err(job),
        };
        if let Err(job) = sent {
            // The shard's worker is gone: fail the batch rather than strand
            // its clients.
            chip.streaming = None;
            self.metrics
                .errored
                .fetch_add(job.requests.len() as u64, Ordering::Relaxed);
            for request in job.requests {
                request.slot.fulfil(Err(ServeError::WorkerPanicked), 0);
            }
        }
    }

    /// Publishes a shard's batching gauges.
    fn publish(&self, shard: usize, batcher: &Batcher) {
        let metrics = &self.metrics.shards[self.first_shard + shard];
        metrics
            .batch_limit
            .store(batcher.limit() as u64, Ordering::Relaxed);
        metrics
            .flush_deadline_ns
            .store(batcher.deadline_ns(), Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_core::platform::{Platform, Workload};
    use lightator_sensor::frame::RgbFrame;
    use std::sync::mpsc::{self, Receiver};

    fn frame() -> Payload {
        Payload::Frame(RgbFrame::filled(2, 2, [0.5, 0.5, 0.5]).expect("ok"))
    }

    fn stream(frames: usize) -> Payload {
        Payload::Stream(vec![
            RgbFrame::filled(2, 2, [0.5, 0.5, 0.5]).expect("ok");
            frames
        ])
    }

    /// The acquire workload's cost model: no weight encode, so every frame
    /// of a batch costs the same.
    fn costs() -> ShardCosts {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        ShardCosts::of(&platform.session(Workload::Acquire).expect("session"))
    }

    /// A scheduler over `shards` fixed-policy shards, with each shard's job
    /// channel.
    fn scheduler(
        capacity: usize,
        shards: usize,
        max_batch: usize,
        deadline_ns: u64,
    ) -> (Scheduler, Vec<Receiver<Job>>) {
        let labels = (0..shards)
            .map(|i| (format!("test/{i}"), "photonic".to_string()))
            .collect();
        let metrics = Arc::new(MetricsInner::new(labels, max_batch));
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..shards).map(|_| mpsc::channel()).unzip();
        let shards = senders
            .into_iter()
            .map(|jobs| (Batcher::fixed(max_batch, deadline_ns), jobs))
            .collect();
        let clock = Arc::new(VirtualClock::new());
        let scheduler = Scheduler::new(capacity, costs(), metrics, 0, clock, shards);
        (scheduler, receivers)
    }

    fn single(capacity: usize, max_batch: usize, deadline_ns: u64) -> (Scheduler, Receiver<Job>) {
        let (scheduler, mut receivers) = scheduler(capacity, 1, max_batch, deadline_ns);
        (scheduler, receivers.remove(0))
    }

    /// Submits a fresh request and returns its ticket.
    fn push(scheduler: &Scheduler, payload: Payload, priority: Priority, arrival_ns: u64) -> u64 {
        let slot = Arc::new(ResponseSlot::new());
        let (ticket, _) = scheduler
            .submit(payload, priority, arrival_ns, slot)
            .expect("admitted");
        ticket
    }

    fn tickets(job: Job) -> Vec<u64> {
        job.requests.iter().map(|r| r.ticket).collect()
    }

    /// The tickets of every job sent to `jobs` so far.
    fn batches(jobs: &Receiver<Job>) -> Vec<Vec<u64>> {
        jobs.try_iter().map(tickets).collect()
    }

    #[test]
    fn tickets_are_assigned_in_admission_order() {
        let (scheduler, _jobs) = single(4, 1, 0);
        assert_eq!(push(&scheduler, frame(), Priority::Interactive, 0), 0);
        assert_eq!(push(&scheduler, frame(), Priority::Interactive, 0), 1);
        assert_eq!(push(&scheduler, frame(), Priority::Interactive, 0), 2);
        // The first request went straight into a batch; the chip is busy
        // with it, so the other two still wait.
        assert_eq!(scheduler.len(), 2);
    }

    #[test]
    fn stream_requests_advance_tickets_by_their_frame_count() {
        let (scheduler, jobs) = single(8, 8, 1_000);
        assert_eq!(push(&scheduler, stream(3), Priority::Interactive, 0), 0);
        assert_eq!(push(&scheduler, frame(), Priority::Interactive, 0), 3);
        assert_eq!(push(&scheduler, stream(2), Priority::Interactive, 0), 4);
        scheduler.shutdown();
        // Weighted tickets still batch as one contiguous run.
        let job = jobs.try_recv().expect("one batch");
        assert_eq!(
            job.requests
                .iter()
                .map(|r| (r.ticket, r.weight))
                .collect::<Vec<_>>(),
            vec![(0, 3), (3, 1), (4, 2)]
        );
    }

    #[test]
    fn a_full_queue_rejects_instead_of_blocking() {
        let (scheduler, jobs) = single(2, 4, 0);
        // The first request occupies the chip; two more fill the queue.
        for _ in 0..3 {
            push(&scheduler, frame(), Priority::Interactive, 0);
        }
        assert_eq!(
            scheduler.submit(
                frame(),
                Priority::Interactive,
                0,
                Arc::new(ResponseSlot::new())
            ),
            Err(ServeError::Overloaded { queue_depth: 2 })
        );
        // Rejections do not consume tickets.
        scheduler.shutdown();
        assert_eq!(batches(&jobs), vec![vec![0], vec![1, 2]]);
    }

    #[test]
    fn wait_batch_drains_up_to_max_batch_in_fifo_order() {
        let (scheduler, jobs) = single(8, 3, 1_000);
        for _ in 0..5 {
            push(&scheduler, frame(), Priority::Interactive, 0);
        }
        scheduler.shutdown();
        assert_eq!(batches(&jobs), vec![vec![0, 1, 2], vec![3, 4]]);
    }

    #[test]
    fn shutdown_rejects_new_work() {
        let (scheduler, _jobs) = single(4, 4, 0);
        scheduler.shutdown();
        assert_eq!(
            scheduler.submit(
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
        let (scheduler, jobs) = single(4, 4, 1_000);
        push(&scheduler, frame(), Priority::Interactive, 0);
        // The batch is held open for more arrivals.
        assert!(jobs.try_recv().is_err());
        scheduler.shutdown();
        assert_eq!(tickets(jobs.recv().expect("drained")), vec![0]);
        // Shutdown released the channel: the worker loop ends here.
        assert!(jobs.recv().is_err());
    }

    #[test]
    fn straggler_wait_extends_a_partial_batch() {
        let (scheduler, jobs) = single(8, 2, 100);
        push(&scheduler, frame(), Priority::Interactive, 0);
        assert!(jobs.try_recv().is_err(), "held until full or deadline");
        // A straggler within the deadline fills the batch, which closes at
        // once; the chip starts it when its newest request arrived.
        push(&scheduler, frame(), Priority::Interactive, 50);
        let Job { requests, start_ns } = jobs.try_recv().expect("full batch closed");
        assert_eq!(requests.len(), 2);
        assert_eq!(requests[1].ticket, requests[0].ticket + 1);
        assert_eq!(start_ns, 50);
        // A lone request waits out its deadline: the next arrival past it
        // closes the batch without joining.
        push(&scheduler, frame(), Priority::Interactive, 10_000);
        assert!(jobs.try_recv().is_err());
        push(&scheduler, frame(), Priority::Interactive, 10_101);
        assert_eq!(batches(&jobs), vec![vec![2]]);
    }

    #[test]
    fn the_earliest_free_shard_takes_the_next_batch() {
        let (scheduler, receivers) = scheduler(16, 2, 2, 100);
        // Shard 0 runs a two-frame batch, shard 1 a one-frame batch that
        // closes at its deadline.
        for _ in 0..3 {
            push(&scheduler, frame(), Priority::Interactive, 0);
        }
        push(&scheduler, frame(), Priority::Interactive, 10_000);
        scheduler.shutdown();
        assert_eq!(batches(&receivers[0]), vec![vec![0, 1]]);
        // Shard 1 frees first, so it takes the next batch although its
        // index is higher.
        assert_eq!(batches(&receivers[1]), vec![vec![2], vec![3]]);
    }

    #[test]
    fn free_time_ties_go_to_the_lower_shard_index() {
        let (scheduler, receivers) = scheduler(16, 2, 1, 0);
        for _ in 0..4 {
            push(&scheduler, frame(), Priority::Interactive, 0);
        }
        scheduler.shutdown();
        // Both shards free up at the same simulated time after their first
        // batch: the lower index takes the next one.
        assert_eq!(batches(&receivers[0]), vec![vec![0], vec![2]]);
        assert_eq!(batches(&receivers[1]), vec![vec![1], vec![3]]);
    }

    #[test]
    fn a_stream_in_flight_gates_admission_until_its_shard_reports() {
        // One shard, one waiting place: stream 0 runs, stream 1 waits, and
        // stream 2 (arriving at 20 ns) is admitted exactly when the running
        // stream freed the chip by then — whichever thread gets there first.
        for (free_ns, admitted) in [(15u64, true), (25, false)] {
            let (scheduler, jobs) = single(1, 1, 0);
            let scheduler = Arc::new(scheduler);
            push(&scheduler, stream(2), Priority::Interactive, 0);
            push(&scheduler, stream(2), Priority::Interactive, 10);
            let late = {
                let scheduler = Arc::clone(&scheduler);
                std::thread::spawn(move || {
                    scheduler.submit(
                        stream(2),
                        Priority::Interactive,
                        20,
                        Arc::new(ResponseSlot::new()),
                    )
                })
            };
            assert_eq!(tickets(jobs.recv().expect("stream batch")), vec![0]);
            scheduler.report_stream(0, free_ns, 0, 1);
            let outcome = late.join().expect("no panic");
            assert_eq!(outcome.is_ok(), admitted, "chip free at {free_ns} ns");
            if !admitted {
                assert_eq!(outcome, Err(ServeError::Overloaded { queue_depth: 1 }));
            }
        }
    }

    #[test]
    fn a_waiting_client_closes_a_held_batch() {
        let (scheduler, jobs) = single(4, 4, 1_000);
        let scheduler = Arc::new(scheduler);
        let slot = Arc::new(ResponseSlot::new());
        scheduler
            .submit(frame(), Priority::Interactive, 0, Arc::clone(&slot))
            .expect("admitted");
        assert!(jobs.try_recv().is_err(), "held for more arrivals");
        let client = {
            let scheduler = Arc::clone(&scheduler);
            std::thread::spawn(move || scheduler.wait(&slot))
        };
        // The waiting client will submit nothing more: the batch closes.
        let job = jobs.recv().expect("closed by the wait");
        assert_eq!(job.requests.len(), 1);
        job.requests[0]
            .slot
            .fulfil(Err(ServeError::ShuttingDown), 77);
        assert_eq!(
            client.join().expect("no panic"),
            Err(ServeError::ShuttingDown)
        );
        assert_eq!(scheduler.clock.now(), 77, "the client saw the completion");
        // The group decided up to the close time, so a later submission
        // arrives no earlier.
        let (_, arrival_ns) = scheduler
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
        let (scheduler, jobs) = single(16, 4, 0);
        push(&scheduler, frame(), Priority::Interactive, 0); // 0 occupies the chip
        push(&scheduler, frame(), Priority::Batch, 0); // 1
        push(&scheduler, frame(), Priority::Batch, 0); // 2
        push(&scheduler, frame(), Priority::Interactive, 0); // 3
        push(&scheduler, frame(), Priority::Interactive, 0); // 4
        scheduler.shutdown();
        // Batch formation starts at the first interactive request (ticket
        // 3) and extends contiguously — never with the skipped heads. The
        // overtaken batch-lane requests go next, still in order.
        assert_eq!(batches(&jobs), vec![vec![0], vec![3, 4], vec![1, 2]]);
    }

    #[test]
    fn interactive_credit_bounds_batch_lane_starvation() {
        // After INTERACTIVE_WEIGHT (4) interactive-first batches the next
        // batch must take the batch-lane head even though interactive work
        // waits.
        let (scheduler, jobs) = single(64, 1, 0);
        push(&scheduler, frame(), Priority::Interactive, 0); // 0 occupies the chip
        for _ in 0..6 {
            push(&scheduler, frame(), Priority::Batch, 0); // 1, 3, 5, ...
            push(&scheduler, frame(), Priority::Interactive, 0); // 2, 4, 6, ...
        }
        scheduler.shutdown();
        let order: Vec<u64> = batches(&jobs).concat();
        assert_eq!(
            order,
            [0, 2, 4, 6, 8, 1, 10, 12, 3, 5, 7, 9, 11],
            "four jumps, a forced head (refills the credit), then the rest"
        );
    }

    #[test]
    fn priority_jumps_never_break_ticket_contiguity() {
        let (scheduler, jobs) = single(16, 4, 0);
        push(&scheduler, frame(), Priority::Interactive, 0); // 0 occupies the chip
        push(&scheduler, frame(), Priority::Batch, 0); // 1
        push(&scheduler, frame(), Priority::Interactive, 0); // 2
        push(&scheduler, frame(), Priority::Batch, 0); // 3
        push(&scheduler, frame(), Priority::Interactive, 0); // 4
        scheduler.shutdown();
        // The jump starts at ticket 2 and takes the contiguous {2, 3, 4}
        // run; ticket 1 is left waiting, so every batch satisfies
        // `next.ticket == last.ticket + last.weight`.
        let all: Vec<_> = jobs.try_iter().map(|job| job.requests).collect();
        let tickets: Vec<Vec<u64>> = all
            .iter()
            .map(|batch| batch.iter().map(|r| r.ticket).collect())
            .collect();
        assert_eq!(tickets, vec![vec![0], vec![2, 3, 4], vec![1]]);
        for batch in &all {
            for pair in batch.windows(2) {
                assert_eq!(pair[1].ticket, pair[0].ticket + pair[0].weight);
            }
        }
    }
}
