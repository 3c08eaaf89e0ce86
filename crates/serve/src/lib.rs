//! `lightator-serve`: a sharded, micro-batching inference server on top of
//! the [`Platform`](lightator_core::platform::Platform) facade.
//!
//! The paper's throughput story (KFPS per watt) only pays off when frames
//! keep flowing; this crate turns the weight-stationary win of a session's
//! compiled plan into system-level throughput. It is std-only (one `Mutex`
//! per workload group, no async runtime, no worker threads):
//!
//! * a [`ServerBuilder`] mirrors the `PlatformBuilder` idiom: shards per
//!   workload group, `max_batch`, bounded `queue_depth` and a flush
//!   deadline in simulated time;
//! * a **shard pool** of virtual Lightator chips, each owning a clone of
//!   its group's `Session` (opened once through `Platform::session_on`,
//!   exactly what a sequential client opens) with its own simulated
//!   timeline. A shard runs each batch its scheduler closes on it at once,
//!   on the thread whose call closed the batch (a submission, a
//!   [`Pending::wait`] or shutdown), so the shards of one group share that
//!   group's host thread of the moment;
//! * one **discrete-event scheduler** per workload group decides every
//!   batch on the simulated clock: it admits requests, holds a batch open
//!   until it is full (`max_batch`, or the SLO controller's limit) or its
//!   flush deadline passes, and hands it to the group's earliest-free
//!   shard (ties to the lower index), each frame one `Session::run`. The
//!   virtual chip programs the quantized MR weights once per batch, so on
//!   the simulated timeline batched frames after the first skip the
//!   weight-encode stages entirely, which is the amortization the
//!   adaptive controller harvests;
//! * an optional **latency-SLO controller** ([`SloConfig`], AIMD): each
//!   shard grows its batch limit and flush deadline while observed queue
//!   wait sits under `target_queue_wait`, and backs the deadline off
//!   multiplicatively on overshoot, trading batch amortization against
//!   tail latency automatically;
//! * **priority lanes** ([`Priority::Interactive`] /
//!   [`Priority::Batch`], [`Server::submit_with_priority`]): a batch may
//!   start at the first arrived interactive request instead of a
//!   batch-lane queue head, at most four batches in a row;
//! * an **open-loop soak harness** ([`load`]): seeded Poisson or bursty
//!   arrival schedules on the simulated clock, mixed-kind traffic, and
//!   exact `offered == admitted + dropped` accounting via
//!   [`Server::submit_at`], which runs the group's events up to each
//!   arrival before admitting it, each request kind offered from a
//!   submitter thread of its own;
//! * a **router** dispatches typed [`Request`]s to the matching workload
//!   group (classify / acquire / image kernel / video stream — streams get
//!   their own shard queue with weighted tickets, one frame index per
//!   carried frame);
//! * **heterogeneous backends**: each workload group can be pinned to a
//!   registered execution backend ([`ServerBuilder::workload_on`]); groups
//!   are keyed by `(workload, backend)` and [`Server::submit_on`] routes
//!   between two registrations of the same workload;
//! * **admission control** rejects with [`ServeError::Overloaded`] when
//!   `queue_depth` requests still wait at an arrival, instead of blocking
//!   forever;
//! * **telemetry** ([`MetricsSnapshot`]) reports sustained throughput,
//!   p50/p95/p99/p99.9 queueing latency, queue depth, the per-shard
//!   batch-size distribution, and per-backend frame/energy/plan totals
//!   ([`metrics::BackendSnapshot`]). Each group counts what it serves
//!   under its own `Mutex`, and [`Server::metrics`] reads each group under
//!   it, so a snapshot never counts a request served before it was
//!   admitted;
//! * **tracing** ([`ServerBuilder::trace_recorder`]) replays every
//!   request's lifecycle (admit → queue → batch-form → execute → respond)
//!   and per-frame stage decomposition onto a shared
//!   [`TraceRecorder`](lightator_telemetry::TraceRecorder), timestamped in
//!   simulated time and exportable as a Perfetto-loadable `trace.json`;
//! * **graceful shutdown** runs all admitted work before it returns the
//!   final metrics.
//!
//! Serving is **deterministic**: every admitted request gets a ticket (its
//! global frame index), shards execute contiguous-ticket batches at those
//! indices, and the analog-noise stream is a pure function of
//! `(seed, frame index)` — so a multi-shard pool produces bit-identical
//! reports to one sequential `Session`, analog noise included. The
//! *metrics* are deterministic too: no scheduling decision reads a host
//! clock, so an open-loop run ([`Server::submit_at`]) reports the same
//! queue waits, batch sizes, shard loads and drops on every host. The
//! serving clock ([`Server::sim_now`]) moves with admitted arrivals and
//! with the completions a client observes through [`Pending::wait`].
//!
//! # Quickstart
//!
//! ```
//! use lightator_core::platform::{Platform, Workload};
//! use lightator_sensor::frame::RgbFrame;
//! use lightator_serve::{Request, Server};
//!
//! # fn main() -> Result<(), lightator_serve::ServeError> {
//! let platform = Platform::builder().sensor_resolution(8, 8).build()?;
//! let server = Server::builder(platform)
//!     .shards(2)
//!     .max_batch(4)
//!     .queue_depth(32)
//!     .workload(Workload::Acquire)
//!     .build()?;
//!
//! let frame = RgbFrame::filled(8, 8, [0.7, 0.4, 0.2]).expect("valid frame");
//! let report = server.run(Request::Acquire { frame })?;
//! assert_eq!(report.workload, "acquire");
//!
//! let metrics = server.shutdown();
//! assert_eq!(metrics.completed, 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod config;
pub mod error;
pub mod load;
pub mod metrics;
pub mod request;
pub mod server;

mod queue;
mod shard;

pub use config::{ServeConfig, SloConfig};
pub use error::{Result, ServeError};
pub use load::{run_soak, ArrivalProcess, SoakConfig, SoakOutcome, TrafficMix};
pub use metrics::{BackendSnapshot, MetricsSnapshot, ShardSnapshot, StageTotals};
pub use request::{Pending, Priority, Request, Response};
pub use server::{Server, ServerBuilder};
