//! The bounded per-group request queue and the micro-batcher's drain rules.
//!
//! Every admitted request gets a monotone **ticket** — its first global
//! frame index within the workload group — and a **weight** — how many
//! frame indices it consumes (1 for single-frame requests, the frame count
//! for video streams). Tickets drive two guarantees:
//!
//! * **Determinism.** A shard seeks its session to the first ticket of the
//!   batch it drained; because a drain only takes a run of requests whose
//!   tickets are contiguous *by weight*, every frame executes at exactly
//!   the frame index a single sequential session would have used.
//! * **FIFO fairness.** Within a lane no request is overtaken; an
//!   interactive request may overtake queued batch-lane requests at
//!   batch-formation time, bounded by the interactive credit.
//!
//! Admission lands each run of consecutive tickets on one **sub-deque**
//! (one per shard), so a shard's drain is contiguous by construction
//! instead of racing its siblings for the head of one shared deque. An idle shard whose own sub-deque ran dry *steals*
//! the contiguous run at the front of the longest sibling sub-deque —
//! execution still happens at the stolen tickets' frame indices, so
//! stealing moves wall-clock work without moving a single noise draw.
//!
//! Admission control is strictly non-blocking: a full queue rejects with
//! [`ServeError::Overloaded`] rather than stalling the caller.

use crate::error::{Result, ServeError};
use crate::metrics::VirtualClock;
use crate::request::{Payload, Priority, ResponseSlot};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Real-time backstop for the straggler wait: the simulated flush deadline
/// only advances while other shards complete work, so an otherwise idle
/// server flushes partial batches after this wall-clock pause instead.
const STRAGGLER_BACKSTOP: Duration = Duration::from_micros(200);

/// One admitted request, queued for a shard group.
#[derive(Debug)]
pub(crate) struct QueuedRequest {
    pub(crate) payload: Payload,
    /// First global frame index of this request within its workload group.
    pub(crate) ticket: u64,
    /// Frame indices the request consumes (`payload.weight()`).
    pub(crate) weight: u64,
    /// Simulated arrival time (virtual-clock stamp at admission).
    pub(crate) arrival_ns: u64,
    /// Scheduling lane the request was submitted on.
    pub(crate) priority: Priority,
    pub(crate) slot: Arc<ResponseSlot>,
}

/// One drained micro-batch plus where it came from.
#[derive(Debug)]
pub(crate) struct DrainedBatch {
    pub(crate) requests: Vec<QueuedRequest>,
    /// The batch was pulled from a sibling shard's sub-deque.
    pub(crate) stolen: bool,
}

#[derive(Debug)]
struct QueueState {
    /// One sub-deque per shard (a single shared deque at one shard). Each
    /// holds runs of consecutive tickets.
    slots: Vec<VecDeque<QueuedRequest>>,
    /// Sub-deque currently receiving the run of consecutive tickets.
    fill: usize,
    /// Requests placed into the current run so far.
    run_filled: usize,
    /// Remaining drains that may start at an interactive request instead
    /// of the queue head; refilled to `interactive_weight` once spent.
    jump_credit: usize,
    next_ticket: u64,
    queued: usize,
    shutdown: bool,
}

impl QueueState {
    fn is_empty(&self) -> bool {
        self.queued == 0
    }
}

/// The bounded MPMC queue one workload group's shards drain.
#[derive(Debug)]
pub(crate) struct SharedQueue {
    capacity: usize,
    /// Consecutive-ticket requests routed to one sub-deque before the fill
    /// cursor advances (the group's effective max batch, so a full batch
    /// drains from a single sub-deque).
    run_length: usize,
    /// Consecutive priority-first drains allowed before one head drain is
    /// forced (the batch-lane starvation bound).
    interactive_weight: usize,
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl SharedQueue {
    /// `slots` sub-deques (one per shard) bounded by `capacity` requests in
    /// total.
    pub(crate) fn new(
        capacity: usize,
        slots: usize,
        run_length: usize,
        interactive_weight: usize,
    ) -> Self {
        let slots = slots.max(1);
        let interactive_weight = interactive_weight.max(1);
        Self {
            capacity,
            run_length: run_length.max(1),
            interactive_weight,
            state: Mutex::new(QueueState {
                slots: (0..slots).map(|_| VecDeque::new()).collect(),
                fill: 0,
                run_filled: 0,
                jump_credit: interactive_weight,
                next_ticket: 0,
                queued: 0,
                shutdown: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Requests currently waiting in this queue (all sub-deques).
    pub(crate) fn len(&self) -> usize {
        self.state.lock().expect("queue poisoned").queued // lightator: allow(no-unwrap) — poisoned lock means a shard panicked
    }

    /// Admits one request, assigning it the group's next ticket and
    /// advancing the ticket counter by the payload's weight (one frame
    /// index per frame the request carries). Runs of `run_length`
    /// consecutive tickets land on one sub-deque so shard drains stay
    /// contiguous.
    ///
    /// # Errors
    ///
    /// [`ServeError::Overloaded`] when the queue is at capacity,
    /// [`ServeError::ShuttingDown`] once shutdown began.
    pub(crate) fn push(
        &self,
        payload: Payload,
        priority: Priority,
        arrival_ns: u64,
        slot: Arc<ResponseSlot>,
    ) -> Result<u64> {
        let weight = payload.weight();
        let mut state = self.state.lock().expect("queue poisoned"); // lightator: allow(no-unwrap) — poisoned lock means a shard panicked
        if state.shutdown {
            return Err(ServeError::ShuttingDown);
        }
        if state.queued >= self.capacity {
            return Err(ServeError::Overloaded {
                queue_depth: self.capacity,
            });
        }
        let ticket = state.next_ticket;
        state.next_ticket += weight;
        let fill = state.fill;
        state.slots[fill].push_back(QueuedRequest {
            payload,
            ticket,
            weight,
            arrival_ns,
            priority,
            slot,
        });
        state.queued += 1;
        state.run_filled += 1;
        if state.run_filled >= self.run_length {
            state.fill = (state.fill + 1) % state.slots.len();
            state.run_filled = 0;
        }
        drop(state);
        self.ready.notify_one();
        Ok(ticket)
    }

    /// Begins shutdown: no further admissions, all waiting shards wake up
    /// and drain whatever is still queued before exiting.
    pub(crate) fn shutdown(&self) {
        self.state.lock().expect("queue poisoned").shutdown = true; // lightator: allow(no-unwrap) — poisoned lock means a shard panicked
        self.ready.notify_all();
    }

    /// Blocks for work, then drains one micro-batch of up to `max_batch`
    /// contiguous-ticket requests — from the shard's own sub-deque, or
    /// (work stealing) from the fullest sibling sub-deque when its own ran
    /// dry.
    ///
    /// Flush rules: a batch flushes once it reaches `max_batch`, once the
    /// queue ran dry and the simulated flush deadline (or its real-time
    /// idle backstop) expired, or once no queued request can extend the
    /// batch contiguously. Returns `None` when the queue shut down and
    /// nothing is left to drain.
    pub(crate) fn wait_batch(
        &self,
        slot_index: usize,
        max_batch: usize,
        flush_deadline_ns: u64,
        clock: &VirtualClock,
    ) -> Option<DrainedBatch> {
        let mut state = self.state.lock().expect("queue poisoned"); // lightator: allow(no-unwrap) — poisoned lock means a shard panicked
        loop {
            if !state.is_empty() {
                break;
            }
            if state.shutdown {
                return None;
            }
            state = self.ready.wait(state).expect("queue poisoned"); // lightator: allow(no-unwrap) — poisoned lock means a shard panicked
        }
        let own = slot_index.min(state.slots.len() - 1);
        // Drain the shard's own sub-deque; when it ran dry, steal the run
        // at the front of the fullest sibling.
        let source = if state.slots[own].is_empty() {
            state
                .slots
                .iter()
                .enumerate()
                .max_by_key(|(_, deque)| deque.len())
                .map(|(i, _)| i)
                .unwrap_or(own) // lightator: allow(no-unwrap) — slots is non-empty by construction
        } else {
            own
        };
        let stolen = source != own;
        let mut batch = Vec::with_capacity(max_batch);
        self.drain_slot(&mut state, source, &mut batch, max_batch);
        if flush_deadline_ns > 0 {
            let opened_ns = clock.now();
            while batch.len() < max_batch && !state.shutdown {
                if !state.is_empty() && !Self::can_extend(&state, &batch) {
                    // No queued request continues our ticket run: flush.
                    break;
                }
                if clock.now().saturating_sub(opened_ns) >= flush_deadline_ns {
                    break;
                }
                let (next, timeout) = self
                    .ready
                    .wait_timeout(state, STRAGGLER_BACKSTOP)
                    .expect("queue poisoned"); // lightator: allow(no-unwrap) — poisoned lock means a shard panicked
                state = next;
                let was_empty = state.is_empty();
                Self::extend_contiguous(&mut state, &mut batch, max_batch);
                if timeout.timed_out() && was_empty {
                    // Idle backstop: nothing arrived in real time either.
                    break;
                }
            }
        }
        Some(DrainedBatch {
            requests: batch,
            stolen,
        })
    }

    /// Drains one contiguous run from `slots[source]` into `batch`.
    ///
    /// When the sub-deque's head request is batch-lane, the head holds a
    /// mix, and interactive credit remains, the batch *starts* at the first
    /// interactive request instead (spending one credit); with credit
    /// exhausted the head drains and the credit refills. Either way the
    /// batch extends only with ticket-contiguous successors, so the
    /// determinism contract is untouched.
    fn drain_slot(
        &self,
        state: &mut QueueState,
        source: usize,
        batch: &mut Vec<QueuedRequest>,
        max_batch: usize,
    ) {
        let start = {
            let deque = &state.slots[source];
            let head_is_batch_lane = deque.front().is_some_and(|r| r.priority == Priority::Batch);
            if head_is_batch_lane && state.jump_credit > 0 {
                deque
                    .iter()
                    .position(|r| r.priority == Priority::Interactive)
            } else {
                None
            }
        };
        match start {
            Some(index) => {
                state.jump_credit -= 1;
                let deque = &mut state.slots[source];
                // Start the batch at the first interactive request; the
                // overtaken batch-lane requests stay queued in order.
                let first = deque.remove(index).expect("position() found it"); // lightator: allow(no-unwrap) — index comes from position()
                state.queued -= 1;
                batch.push(first);
                // After the removal the contiguous successors sit at the
                // same index; extend while tickets continue the run.
                while batch.len() < max_batch {
                    let deque = &mut state.slots[source];
                    let continues = deque.get(index).is_some_and(|next| {
                        let last = &batch[batch.len() - 1];
                        next.ticket == last.ticket + last.weight
                    });
                    if !continues {
                        break;
                    }
                    let next = deque.remove(index).expect("get() found it"); // lightator: allow(no-unwrap) — the guard checked the index
                    state.queued -= 1;
                    batch.push(next);
                }
            }
            None => {
                if state.slots[source]
                    .front()
                    .is_some_and(|r| r.priority == Priority::Batch)
                {
                    // A forced head drain repays the overtaken lane; let
                    // the next mixed drain jump again.
                    state.jump_credit = self.interactive_weight;
                }
                Self::drain_front(state, source, batch, max_batch);
            }
        }
    }

    /// Pops `slots[source]`-front requests into `batch` while their tickets
    /// stay contiguous and the batch has room.
    fn drain_front(
        state: &mut QueueState,
        source: usize,
        batch: &mut Vec<QueuedRequest>,
        max_batch: usize,
    ) {
        while batch.len() < max_batch {
            let deque = &state.slots[source];
            let contiguous = match (batch.last(), deque.front()) {
                (_, None) => false,
                (None, Some(_)) => true,
                (Some(last), Some(front)) => front.ticket == last.ticket + last.weight,
            };
            if !contiguous {
                return;
            }
            let front = state.slots[source]
                .pop_front()
                .expect("front checked above"); // lightator: allow(no-unwrap) — loop guard checked the front
            state.queued -= 1;
            batch.push(front);
        }
    }

    /// Whether any sub-deque's front continues the batch's ticket run.
    fn can_extend(state: &QueueState, batch: &[QueuedRequest]) -> bool {
        let Some(last) = batch.last() else {
            return !state.is_empty();
        };
        let next_ticket = last.ticket + last.weight;
        state
            .slots
            .iter()
            .any(|deque| deque.front().is_some_and(|r| r.ticket == next_ticket))
    }

    /// Extends `batch` with ticket-contiguous requests from whichever
    /// sub-deque's front continues the run (the straggler-window drain:
    /// the continuation may have been placed on a different sub-deque when
    /// admission rolled the fill cursor).
    fn extend_contiguous(state: &mut QueueState, batch: &mut Vec<QueuedRequest>, max_batch: usize) {
        while batch.len() < max_batch {
            let next_ticket = match batch.last() {
                Some(last) => last.ticket + last.weight,
                None => {
                    // Empty batch: fall back to any non-empty sub-deque.
                    let Some(source) = state.slots.iter().position(|d| !d.is_empty()) else {
                        return;
                    };
                    Self::drain_front(state, source, batch, max_batch);
                    continue;
                }
            };
            let Some(source) = state
                .slots
                .iter()
                .position(|deque| deque.front().is_some_and(|r| r.ticket == next_ticket))
            else {
                return;
            };
            let front = state.slots[source]
                .pop_front()
                .expect("position() checked the front"); // lightator: allow(no-unwrap) — the guard checked the front
            state.queued -= 1;
            batch.push(front);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_sensor::frame::RgbFrame;

    fn frame() -> Payload {
        Payload::Frame(RgbFrame::filled(2, 2, [0.5, 0.5, 0.5]).expect("ok"))
    }

    fn stream(frames: usize) -> Payload {
        Payload::Stream(vec![
            RgbFrame::filled(2, 2, [0.5, 0.5, 0.5]).expect("ok");
            frames
        ])
    }

    fn slot() -> Arc<ResponseSlot> {
        Arc::new(ResponseSlot::new())
    }

    fn single(capacity: usize) -> SharedQueue {
        SharedQueue::new(capacity, 1, 4, 4)
    }

    fn tickets(batch: &DrainedBatch) -> Vec<u64> {
        batch.requests.iter().map(|r| r.ticket).collect()
    }

    #[test]
    fn tickets_are_assigned_in_admission_order() {
        let queue = single(4);
        assert_eq!(
            queue
                .push(frame(), Priority::Interactive, 0, slot())
                .expect("ok"),
            0
        );
        assert_eq!(
            queue
                .push(frame(), Priority::Interactive, 0, slot())
                .expect("ok"),
            1
        );
        assert_eq!(
            queue
                .push(frame(), Priority::Interactive, 0, slot())
                .expect("ok"),
            2
        );
        assert_eq!(queue.len(), 3);
    }

    #[test]
    fn stream_requests_advance_tickets_by_their_frame_count() {
        let queue = single(8);
        assert_eq!(
            queue
                .push(stream(3), Priority::Interactive, 0, slot())
                .expect("ok"),
            0
        );
        assert_eq!(
            queue
                .push(frame(), Priority::Interactive, 0, slot())
                .expect("ok"),
            3
        );
        assert_eq!(
            queue
                .push(stream(2), Priority::Interactive, 0, slot())
                .expect("ok"),
            4
        );
        let clock = VirtualClock::new();
        // Weighted tickets still drain as one contiguous run.
        let batch = queue.wait_batch(0, 8, 0, &clock).expect("work");
        assert_eq!(
            batch
                .requests
                .iter()
                .map(|r| (r.ticket, r.weight))
                .collect::<Vec<_>>(),
            vec![(0, 3), (3, 1), (4, 2)]
        );
    }

    #[test]
    fn a_full_queue_rejects_instead_of_blocking() {
        let queue = single(2);
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok");
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok");
        assert_eq!(
            queue.push(frame(), Priority::Interactive, 0, slot()),
            Err(ServeError::Overloaded { queue_depth: 2 })
        );
        // Rejections do not consume tickets.
        let clock = VirtualClock::new();
        let batch = queue.wait_batch(0, 4, 0, &clock).expect("work");
        assert_eq!(tickets(&batch), vec![0, 1]);
    }

    #[test]
    fn wait_batch_drains_up_to_max_batch_in_fifo_order() {
        let queue = single(8);
        for _ in 0..5 {
            queue
                .push(frame(), Priority::Interactive, 0, slot())
                .expect("ok");
        }
        let clock = VirtualClock::new();
        let first = queue.wait_batch(0, 3, 0, &clock).expect("work");
        assert_eq!(tickets(&first), vec![0, 1, 2]);
        let second = queue.wait_batch(0, 3, 0, &clock).expect("work");
        assert_eq!(tickets(&second), vec![3, 4]);
    }

    #[test]
    fn shutdown_rejects_new_work_and_wakes_waiters() {
        let queue = Arc::new(single(4));
        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.wait_batch(0, 4, 0, &VirtualClock::new()))
        };
        queue.shutdown();
        assert!(waiter.join().expect("no panic").is_none());
        assert_eq!(
            queue.push(frame(), Priority::Interactive, 0, slot()),
            Err(ServeError::ShuttingDown)
        );
    }

    #[test]
    fn shutdown_still_drains_queued_work() {
        let queue = single(4);
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok");
        queue.shutdown();
        let clock = VirtualClock::new();
        assert_eq!(
            queue
                .wait_batch(0, 4, 0, &clock)
                .expect("drain")
                .requests
                .len(),
            1
        );
        assert!(queue.wait_batch(0, 4, 0, &clock).is_none());
    }

    #[test]
    fn straggler_wait_extends_a_partial_batch() {
        let queue = Arc::new(single(8));
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok");
        let worker = {
            let queue = Arc::clone(&queue);
            // A generous simulated deadline that never expires (the clock
            // stays at zero): the batch closes on max_batch.
            std::thread::spawn(move || queue.wait_batch(0, 2, u64::MAX, &VirtualClock::new()))
        };
        // Feed the straggler from this thread; the worker either drains
        // both up front or picks it up in its wait_timeout loop.
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok");
        let batch = worker.join().expect("no panic").expect("work");
        assert_eq!(batch.requests.len(), 2);
        assert_eq!(batch.requests[1].ticket, batch.requests[0].ticket + 1);
    }

    #[test]
    fn runs_of_consecutive_tickets_land_on_alternating_sub_deques() {
        // Two sub-deques, run length 2: tickets {0,1} on deque 0, {2,3} on
        // deque 1, {4} back on deque 0 — each shard's drain is contiguous
        // by construction.
        let queue = SharedQueue::new(16, 2, 2, 4);
        for _ in 0..5 {
            queue
                .push(frame(), Priority::Interactive, 0, slot())
                .expect("ok");
        }
        let clock = VirtualClock::new();
        let shard0 = queue.wait_batch(0, 2, 0, &clock).expect("work");
        assert_eq!(tickets(&shard0), vec![0, 1]);
        assert!(!shard0.stolen);
        let shard1 = queue.wait_batch(1, 2, 0, &clock).expect("work");
        assert_eq!(tickets(&shard1), vec![2, 3]);
        assert!(!shard1.stolen);
        let shard0_again = queue.wait_batch(0, 2, 0, &clock).expect("work");
        assert_eq!(tickets(&shard0_again), vec![4]);
    }

    #[test]
    fn an_idle_shard_steals_a_contiguous_run_from_its_sibling() {
        let queue = SharedQueue::new(16, 2, 2, 4);
        for _ in 0..2 {
            queue
                .push(frame(), Priority::Interactive, 0, slot())
                .expect("ok");
        }
        // All work landed on sub-deque 0; shard 1's own deque is empty, so
        // it steals the contiguous run {0, 1}.
        let clock = VirtualClock::new();
        let stolen = queue.wait_batch(1, 2, 0, &clock).expect("work");
        assert_eq!(tickets(&stolen), vec![0, 1]);
        assert!(stolen.stolen);
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn interactive_requests_overtake_batch_lane_heads() {
        let queue = single(16);
        queue.push(frame(), Priority::Batch, 0, slot()).expect("ok"); // ticket 0
        queue.push(frame(), Priority::Batch, 0, slot()).expect("ok"); // ticket 1
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok"); // ticket 2
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok"); // ticket 3
        let clock = VirtualClock::new();
        // Batch formation starts at the first interactive request (ticket
        // 2) and extends contiguously — never with the skipped heads.
        let first = queue.wait_batch(0, 4, 0, &clock).expect("work");
        assert_eq!(tickets(&first), vec![2, 3]);
        // The overtaken batch-lane requests drain next, still in order.
        let second = queue.wait_batch(0, 4, 0, &clock).expect("work");
        assert_eq!(tickets(&second), vec![0, 1]);
    }

    #[test]
    fn interactive_credit_bounds_batch_lane_starvation() {
        // Credit 1: after one priority-first drain the next drain must take
        // the batch-lane head even though interactive work is queued.
        let queue = SharedQueue::new(64, 1, 64, 1);
        queue.push(frame(), Priority::Batch, 0, slot()).expect("ok"); // 0
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok"); // 1
        queue.push(frame(), Priority::Batch, 0, slot()).expect("ok"); // 2
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok"); // 3
        let clock = VirtualClock::new();
        let first = queue.wait_batch(0, 1, 0, &clock).expect("work");
        assert_eq!(tickets(&first), vec![1], "first drain jumps the head");
        let second = queue.wait_batch(0, 1, 0, &clock).expect("work");
        assert_eq!(
            tickets(&second),
            vec![0],
            "credit spent: the head drains before more interactive work"
        );
        let third = queue.wait_batch(0, 1, 0, &clock).expect("work");
        assert_eq!(
            tickets(&third),
            vec![3],
            "the head drain refilled the credit"
        );
        let fourth = queue.wait_batch(0, 1, 0, &clock).expect("work");
        assert_eq!(tickets(&fourth), vec![2]);
    }

    #[test]
    fn priority_jumps_never_break_ticket_contiguity() {
        let queue = single(16);
        queue.push(frame(), Priority::Batch, 0, slot()).expect("ok"); // 0
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok"); // 1
        queue.push(frame(), Priority::Batch, 0, slot()).expect("ok"); // 2
        queue
            .push(frame(), Priority::Interactive, 0, slot())
            .expect("ok"); // 3
        let clock = VirtualClock::new();
        // The jump starts at ticket 1 and takes the contiguous {1, 2, 3}
        // run; ticket 0 is left queued, so every drained batch satisfies
        // `front.ticket == last.ticket + last.weight`.
        let batch = queue.wait_batch(0, 4, 0, &clock).expect("work");
        assert_eq!(tickets(&batch), vec![1, 2, 3]);
        for pair in batch.requests.windows(2) {
            assert_eq!(pair[1].ticket, pair[0].ticket + pair[0].weight);
        }
        let rest = queue.wait_batch(0, 4, 0, &clock).expect("work");
        assert_eq!(tickets(&rest), vec![0]);
    }
}
