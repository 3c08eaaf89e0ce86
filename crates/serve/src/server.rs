//! The server: builder, router, shard pool and lifecycle.

use crate::config::{ServeConfig, SloConfig, MAX_STREAM_FRAMES};
use crate::error::{Result, ServeError};
use crate::metrics::{MetricsSnapshot, Tally, VirtualClock};
use crate::queue::Scheduler;
use crate::request::{Pending, Priority, Request, RequestKind, ResponseSlot};
use crate::shard::{Batcher, Shard, ShardCosts};
use lightator_core::backend::BackendId;
use lightator_core::platform::{Platform, Session, Workload};
use lightator_core::CoreError;
use lightator_photonics::units::Time;
use lightator_telemetry::{TraceEvent, TraceRecorder, TraceSink};
use std::sync::Arc;

/// Fluent builder for a [`Server`], mirroring the `PlatformBuilder` idiom:
/// chain the serving knobs (one setter per [`ServeConfig`] field, the SLO
/// controller through [`ServerBuilder::slo`]), register one or more
/// workloads, and let [`ServerBuilder::build`] validate everything once and
/// open the pool.
#[derive(Debug, Clone)]
pub struct ServerBuilder {
    platform: Platform,
    config: ServeConfig,
    /// Registered workloads, each with the backend its group runs on.
    workloads: Vec<(Workload, BackendId)>,
    /// Optional shared trace recorder every shard (and the router) writes
    /// into.
    recorder: Option<Arc<TraceRecorder>>,
}

impl ServerBuilder {
    /// Starts a builder serving `platform` with the default
    /// [`ServeConfig`] and no workloads registered yet.
    #[must_use]
    pub fn new(platform: Platform) -> Self {
        Self {
            platform,
            config: ServeConfig::default(),
            workloads: Vec::new(),
            recorder: None,
        }
    }

    /// Attaches a shared [`TraceRecorder`]: every shard replays its request
    /// lifecycle (queue → batch-form → execute → respond) and per-frame
    /// stage decomposition onto it, the router marks admissions, and
    /// [`Server::metrics`] / [`Server::shutdown`] surface the recorder's
    /// per-stage rollup in [`MetricsSnapshot::stages`]. All timestamps are
    /// simulated time on the serve timeline, so the trace is deterministic
    /// and replayable.
    #[must_use]
    pub fn trace_recorder(mut self, recorder: Arc<TraceRecorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Sets the number of shards (virtual chips) per workload group.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.config.shards = shards;
        self
    }

    /// Sets the largest number of frames one batch serves (the weights are
    /// programmed once per batch).
    #[must_use]
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Bounds the number of queued requests per workload group (admission
    /// control rejects beyond it).
    #[must_use]
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.config.queue_depth = queue_depth;
        self
    }

    /// Sets how long (in simulated time) a shard holds a partial batch
    /// open for stragglers: the batch closes once full or once this long
    /// after it opened.
    #[must_use]
    pub fn flush_deadline(mut self, deadline: Time) -> Self {
        self.config.flush_deadline = deadline;
        self
    }

    /// Enables the per-shard latency-SLO controller: each shard adapts its
    /// batch-size limit and flush deadline (AIMD) to hold
    /// [`SloConfig::target_queue_wait`]. See [`ServeConfig::slo`].
    #[must_use]
    pub fn slo(mut self, slo: SloConfig) -> Self {
        self.config.slo = Some(slo);
        self
    }

    /// Registers a workload: one shard group (scheduler + shards) will serve
    /// requests routed to it. The group runs on the photonic default; use
    /// [`ServerBuilder::workload_on`] to pin it to another backend.
    #[must_use]
    pub fn workload(self, workload: Workload) -> Self {
        self.workload_on(workload, BackendId::photonic())
    }

    /// Registers a workload pinned to an explicit execution backend —
    /// the heterogeneous-serving entry point. The same workload may be
    /// registered on several *different* backends; each registration gets
    /// its own shard group, and [`Server::submit_on`] routes between them.
    #[must_use]
    pub fn workload_on(mut self, workload: Workload, backend: BackendId) -> Self {
        self.workloads.push((workload, backend));
        self
    }

    /// Validates the configuration and opens each workload group's session
    /// once, every shard on a clone of its group's session.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] for an invalid serving
    /// configuration, no registered workloads, or two workloads routing to
    /// the same key; [`ServeError::Core`] when opening a session fails or a
    /// classify model cannot take acquired frames.
    pub fn build(self) -> Result<Server> {
        self.config.validate()?;
        if self.workloads.is_empty() {
            return Err(ServeError::InvalidConfig {
                reason: "register at least one workload before build()".into(),
            });
        }

        // Open every group's session first so build is all-or-nothing: no
        // group is built if any workload is rejected by the platform (or
        // names an unknown / non-executing backend).
        let mut opened: Vec<(RequestKind, BackendId, String, Vec<Session>)> = Vec::new();
        for (workload, backend) in &self.workloads {
            let kind = RequestKind::of_workload(workload);
            let label = workload.label();
            if opened.iter().any(|(k, b, ..)| *k == kind && b == backend) {
                return Err(ServeError::InvalidConfig {
                    reason: format!(
                        "workload `{label}` is registered twice on backend `{backend}`"
                    ),
                });
            }
            let session = self.platform.session_on(workload.clone(), backend)?;
            // Every served classify input is an acquired frame, so the
            // model must take the acquired shape. (A session alone may
            // not: `Session::evaluate` feeds dataset tensors.)
            if let Workload::Classify { model } = workload {
                let acquired = self.platform.config().acquired_shape();
                if model.input_shape() != acquired {
                    return Err(ServeError::Core(CoreError::ModelMismatch {
                        reason: format!(
                            "the classify model takes input shape {:?} but acquired \
                             frames have shape {acquired:?}; it cannot serve frames \
                             on this platform",
                            model.input_shape()
                        ),
                    }));
                }
            }
            // Non-photonic groups carry the backend in their display label
            // so shard telemetry stays unambiguous.
            let group_label = if backend.is_photonic() {
                label
            } else {
                format!("{label}@{backend}")
            };
            // Every shard runs what a sequential client runs: the same
            // session, at the tickets' frame indices. A clone taken before
            // any frame runs is the session a second open would build.
            let sessions = vec![session; self.config.shards];
            opened.push((kind, backend.clone(), group_label, sessions));
        }

        // `ServeConfig::validate` bounded the deadline to finite,
        // non-negative values no larger than 2^53 ns, so `ceil() as u64` is
        // an exact conversion here — never the silent saturation it used to
        // be for NaN or oversized inputs.
        let flush_deadline_ns = self.config.flush_deadline.ns().ceil() as u64;
        let clock = Arc::new(VirtualClock::new());
        let mut groups: Vec<Group> = Vec::new();
        for (kind, backend, label, sessions) in opened {
            // A group's shards run the same session, so they share one cost
            // model. It comes from the session's backend, so an electronic
            // group runs (and meters) on the electronic cost model.
            let costs = ShardCosts::of(&sessions[0]);
            let shards = sessions
                .into_iter()
                .enumerate()
                .map(|(index, session)| {
                    let batcher = match &self.config.slo {
                        Some(slo) => Batcher::adaptive(slo),
                        None => Batcher::fixed(self.config.max_batch, flush_deadline_ns),
                    };
                    Shard::new(
                        format!("{label}/{index}"),
                        session,
                        batcher,
                        costs,
                        self.config.effective_max_batch(),
                        self.recorder.clone(),
                    )
                })
                .collect();
            groups.push(Group {
                kind,
                backend,
                label,
                scheduler: Arc::new(Scheduler::new(
                    self.config.queue_depth,
                    Arc::clone(&clock),
                    shards,
                )),
            });
        }
        Ok(Server {
            groups,
            clock,
            config: self.config,
            recorder: self.recorder,
        })
    }
}

/// One workload group: the `(request kind, backend)` routing key and the
/// scheduler that feeds its shards.
#[derive(Debug)]
struct Group {
    kind: RequestKind,
    backend: BackendId,
    label: String,
    scheduler: Arc<Scheduler>,
}

/// A pool of virtual chips (shards) serving typed requests over one
/// [`Platform`].
///
/// Built through [`Server::builder`]. Submissions are admitted into the
/// matching workload group's bounded queue (or rejected with
/// [`ServeError::Overloaded`]); each group's scheduler forms micro-batches
/// on the simulated clock, and its earliest-free shard runs each one as it
/// closes, on the thread whose call closed it. Dropping the server (or
/// calling [`Server::shutdown`]) runs all admitted work first.
#[derive(Debug)]
pub struct Server {
    groups: Vec<Group>,
    clock: Arc<VirtualClock>,
    config: ServeConfig,
    recorder: Option<Arc<TraceRecorder>>,
}

impl Server {
    /// Starts a fluent builder serving `platform`.
    #[must_use]
    pub fn builder(platform: Platform) -> ServerBuilder {
        ServerBuilder::new(platform)
    }

    /// The serving configuration in effect.
    #[must_use]
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Labels of the workload groups this server routes to.
    #[must_use]
    pub fn workloads(&self) -> Vec<String> {
        self.groups.iter().map(|g| g.label.clone()).collect()
    }

    /// Submits a request arriving now ([`Server::sim_now`]), returning a
    /// [`Pending`] handle once admitted.
    ///
    /// Never queues in simulated time: a full queue rejects with
    /// [`ServeError::Overloaded`] (counted in the metrics), an
    /// unregistered workload with [`ServeError::UnknownWorkload`], and a
    /// malformed video stream (empty, or longer than 256 frames) with
    /// [`ServeError::InvalidRequest`].
    ///
    /// # Errors
    ///
    /// See above; also [`ServeError::ShuttingDown`] during shutdown.
    pub fn submit(&self, request: Request) -> Result<Pending> {
        self.submit_with_priority(request, Priority::Interactive)
    }

    /// Submits a request on an explicit scheduling lane.
    /// [`Priority::Interactive`] requests may overtake queued
    /// [`Priority::Batch`] requests at batch-formation time (at most four
    /// batches in a row start past a batch-lane head); the lane never
    /// changes the request's report bits.
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit`].
    pub fn submit_with_priority(&self, request: Request, priority: Priority) -> Result<Pending> {
        self.validate_request(&request)?;
        let group = self.route(&request)?;
        self.admit(group, request, priority, self.clock.now())
    }

    /// Submits a request that *arrives* at simulated time `arrival_ns` —
    /// the open-loop entry point used by the soak harness
    /// ([`crate::load`]), where arrivals follow a generated schedule
    /// instead of the server's own completions.
    ///
    /// The group first runs every scheduling event up to `arrival_ns` —
    /// batch opens and closes, in simulated time — and then admits the
    /// request, or drops it if `queue_depth` requests still wait there.
    /// Each batch that closes runs at once on the calling thread, so the
    /// call's host time includes executing those batches.
    /// Arrivals before one the group already took are stamped at that
    /// later arrival, so each group sees its arrivals in order. The request
    /// arrives exactly once and is counted once; admission advances the
    /// simulated clock to its arrival (offered traffic that is dropped
    /// never existed on the timeline).
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit`]; [`ServeError::Overloaded`] means the
    /// queue was full at `arrival_ns` in simulated time.
    pub fn submit_at(
        &self,
        request: Request,
        priority: Priority,
        arrival_ns: u64,
    ) -> Result<Pending> {
        self.validate_request(&request)?;
        let group = self.route(&request)?;
        self.admit(group, request, priority, arrival_ns)
    }

    /// The current simulated time of the serving timeline: the latest
    /// admitted arrival, or the latest completion a waiting client
    /// observed, whichever is later.
    #[must_use]
    pub fn sim_now(&self) -> Time {
        Time::from_ns(self.clock.now() as f64)
    }

    /// Default route: the photonic group for this request's kind if one
    /// exists, otherwise the first registered group (so a workload served
    /// only by, say, an electronic backend still answers plain submits).
    fn route(&self, request: &Request) -> Result<&Group> {
        let kind = request.kind();
        self.groups
            .iter()
            .find(|g| g.kind == kind && g.backend.is_photonic())
            .or_else(|| self.groups.iter().find(|g| g.kind == kind))
            .ok_or_else(|| ServeError::UnknownWorkload {
                label: request.label(),
            })
    }

    /// Submits a request to the group serving its workload on an explicit
    /// backend — the heterogeneous-routing companion of [`Server::submit`].
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit`]; [`ServeError::UnknownWorkload`] when the
    /// workload is not registered *on that backend*.
    pub fn submit_on(&self, backend: &BackendId, request: Request) -> Result<Pending> {
        self.validate_request(&request)?;
        let kind = request.kind();
        let group = self
            .groups
            .iter()
            .find(|g| g.kind == kind && &g.backend == backend)
            .ok_or_else(|| ServeError::UnknownWorkload {
                label: format!("{}@{}", request.label(), backend),
            })?;
        self.admit(group, request, Priority::Interactive, self.clock.now())
    }

    /// Checks `request` as every submission does before it reaches a
    /// queue.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidRequest`] for a malformed request,
    /// [`ServeError::UnknownWorkload`] when no group serves it.
    pub(crate) fn check(&self, request: &Request) -> Result<()> {
        self.validate_request(request)?;
        self.route(request).map(drop)
    }

    fn validate_request(&self, request: &Request) -> Result<()> {
        if let Request::VideoStream { frames, .. } = request {
            if frames.is_empty() {
                return Err(ServeError::InvalidRequest {
                    reason: "a video stream needs at least one frame".into(),
                });
            }
            if frames.len() > MAX_STREAM_FRAMES {
                return Err(ServeError::InvalidRequest {
                    reason: format!(
                        "the stream carries {} frames but at most {MAX_STREAM_FRAMES} \
                         are admitted (split the stream)",
                        frames.len()
                    ),
                });
            }
        }
        Ok(())
    }

    /// Offers `request` to `group`'s scheduler on the given lane, arriving
    /// at `arrival_ns`, and traces the admission or rejection (the
    /// scheduler counts it).
    fn admit(
        &self,
        group: &Group,
        request: Request,
        priority: Priority,
        arrival_ns: u64,
    ) -> Result<Pending> {
        let slot = Arc::new(ResponseSlot::new());
        match group.scheduler.submit(
            request.into_payload(),
            priority,
            arrival_ns,
            Arc::clone(&slot),
        ) {
            Ok((ticket, arrival_ns)) => {
                if let Some(recorder) = &self.recorder {
                    recorder.record(
                        TraceEvent::instant("request", "admit", "router", arrival_ns as f64)
                            .with_arg("group", &group.label)
                            .with_arg("lane", priority.name())
                            .with_arg("ticket", ticket),
                    );
                }
                Ok(Pending::new(slot, Arc::clone(&group.scheduler)))
            }
            Err(err) => {
                if let (ServeError::Overloaded { .. }, Some(recorder)) = (&err, &self.recorder) {
                    recorder.record(
                        TraceEvent::instant("request", "reject", "router", arrival_ns as f64)
                            .with_arg("group", &group.label)
                            .with_arg("lane", priority.name()),
                    );
                }
                Err(err)
            }
        }
    }

    /// Submits a request and blocks until its report is ready — the
    /// closed-loop client call for single-frame workloads.
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit`], plus any execution error of the frame.
    pub fn run(&self, request: Request) -> Result<lightator_core::platform::Report> {
        self.submit(request)?.wait()
    }

    /// Submits a video-stream request and blocks until the whole stream is
    /// served, returning its [`lightator_core::stream::StreamReport`].
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit`], plus any execution error of the stream
    /// and [`ServeError::ResponseKind`] for non-stream requests.
    pub fn run_stream(&self, request: Request) -> Result<lightator_core::stream::StreamReport> {
        self.submit(request)?.wait_stream()
    }

    /// Submits a request to an explicit backend's group and blocks until
    /// its report is ready.
    ///
    /// # Errors
    ///
    /// Same as [`Server::submit_on`], plus any execution error of the
    /// frame.
    pub fn run_on(
        &self,
        backend: &BackendId,
        request: Request,
    ) -> Result<lightator_core::platform::Report> {
        self.submit_on(backend, request)?.wait()
    }

    /// The distinct execution backends this server's groups run on, in
    /// registration order.
    #[must_use]
    pub fn backends(&self) -> Vec<BackendId> {
        let mut backends: Vec<BackendId> = Vec::new();
        for group in &self.groups {
            if !backends.contains(&group.backend) {
                backends.push(group.backend.clone());
            }
        }
        backends
    }

    /// A snapshot of the serving telemetry. Each workload group counts
    /// under its own lock, and the snapshot takes each group's lock in
    /// turn, so it waits for a batch that is running and never counts a
    /// request served before it was admitted. When a [`TraceRecorder`] is
    /// attached, [`MetricsSnapshot::stages`] carries its per-stage rollup.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut tally = Tally::default();
        let mut shards = Vec::new();
        let queued = self
            .groups
            .iter()
            .map(|g| g.scheduler.read(&mut tally, &mut shards))
            .sum();
        let mut snapshot = tally.snapshot(queued, shards);
        if let Some(recorder) = &self.recorder {
            snapshot.stages = recorder.breakdown().rows().to_vec();
        }
        snapshot
    }

    /// Gracefully shuts down: stops admitting, runs every admitted request
    /// on the calling thread, and returns [`Server::metrics`] once nothing
    /// is left queued.
    #[must_use]
    pub fn shutdown(self) -> MetricsSnapshot {
        self.drain();
        self.metrics()
    }

    /// The attached trace recorder, if the server was built with
    /// [`ServerBuilder::trace_recorder`].
    #[must_use]
    pub fn trace_recorder(&self) -> Option<&Arc<TraceRecorder>> {
        self.recorder.as_ref()
    }

    /// Stops every group admitting and runs what they still hold.
    fn drain(&self) {
        for group in &self.groups {
            group.scheduler.shutdown();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.drain();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lightator_core::ca::CaConfig;
    use lightator_core::platform::{ImageKernel, Workload};
    use lightator_nn::layers::{Activation, Flatten, Linear};
    use lightator_nn::model::Sequential;
    use lightator_sensor::frame::RgbFrame;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_platform() -> Platform {
        Platform::builder()
            .sensor_resolution(8, 8)
            .compressive_acquisition(CaConfig::default())
            .build()
            .expect("platform")
    }

    fn tiny_model() -> Sequential {
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = Sequential::new(&[1, 4, 4]);
        model.push(Flatten::new());
        model.push(Linear::new(16, 12, &mut rng).expect("ok"));
        model.push(Activation::relu());
        model.push(Linear::new(12, 3, &mut rng).expect("ok"));
        model
    }

    fn scene(i: usize) -> RgbFrame {
        let v = 0.2 + 0.15 * (i % 5) as f64;
        RgbFrame::filled(8, 8, [v, 1.0 - v, 0.5]).expect("ok")
    }

    #[test]
    fn serves_mixed_workloads_end_to_end() {
        let server = Server::builder(small_platform())
            .shards(2)
            .max_batch(3)
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .workload(Workload::Acquire)
            .workload(Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            })
            .build()
            .expect("server");
        assert_eq!(server.workloads().len(), 3);

        let classified = server
            .run(Request::Classify { frame: scene(0) })
            .expect("classified");
        assert!(classified.class().expect("class") < 3);
        let acquired = server
            .run(Request::Acquire { frame: scene(1) })
            .expect("acquired");
        assert_eq!(acquired.workload, "acquire");
        let filtered = server
            .run(Request::ImageKernel {
                kernel: ImageKernel::SobelX,
                frame: scene(2),
            })
            .expect("filtered");
        assert_eq!(filtered.workload, "kernel:sobel-x");

        let snapshot = server.shutdown();
        assert_eq!(snapshot.completed, 3);
        assert_eq!(snapshot.errored, 0);
        assert!(snapshot.throughput_fps() > 0.0);
    }

    #[test]
    fn serves_video_streams_through_their_own_group() {
        use lightator_core::stream::StreamConfig;
        let server = Server::builder(small_platform())
            .shards(2)
            .max_batch(2)
            .workload(Workload::Acquire)
            .workload(Workload::VideoStream {
                kernel: ImageKernel::SobelX,
                stream: StreamConfig {
                    block_size: 2,
                    delta_threshold: 0.05,
                },
            })
            .build()
            .expect("server");
        let frames = vec![scene(0); 5];
        let report = server
            .run_stream(Request::VideoStream {
                kernel: ImageKernel::SobelX,
                frames,
            })
            .expect("stream served");
        assert_eq!(report.workload, "stream:sobel-x");
        assert_eq!(report.frames_processed(), 5);
        assert_eq!(
            report.blocks_skipped(),
            4 * report.blocks_per_frame,
            "a static stream skips everything after the dense first frame"
        );
        // Frame requests still flow beside the stream group.
        assert!(server.run(Request::Acquire { frame: scene(1) }).is_ok());
        let snapshot = server.shutdown();
        assert_eq!(snapshot.completed, 2);
        assert_eq!(snapshot.stream_frames, 5);
        assert!(snapshot.stream_skip_ratio() > 0.5);
        assert!(snapshot.table().contains("stream frames"));
    }

    /// Client threads may share one server. Which requests meet in a batch
    /// then depends on how the threads interleave, so only host-independent
    /// facts are asserted.
    #[test]
    fn closed_loop_clients_on_several_threads_are_all_served() {
        const CLIENTS: usize = 4;
        const REQUESTS: usize = 8;
        // Each client has at most one request outstanding, so a queue of
        // `CLIENTS` never rejects.
        let server = Server::builder(small_platform())
            .shards(2)
            .max_batch(4)
            .queue_depth(CLIENTS)
            .workload(Workload::Acquire)
            .workload(Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            })
            .build()
            .expect("server");
        std::thread::scope(|scope| {
            for client in 0..CLIENTS {
                let server = &server;
                scope.spawn(move || {
                    for index in 0..REQUESTS {
                        let frame = scene(client * REQUESTS + index);
                        let request = if (client + index) % 2 == 0 {
                            Request::Acquire { frame }
                        } else {
                            Request::ImageKernel {
                                kernel: ImageKernel::SobelX,
                                frame,
                            }
                        };
                        server.run(request).expect("served");
                    }
                });
            }
        });
        let snapshot = server.shutdown();
        assert_eq!(snapshot.completed as usize, CLIENTS * REQUESTS);
        assert_eq!(snapshot.errored, 0);
    }

    #[test]
    fn shards_compile_their_plan_once_and_reuse_it_per_frame() {
        let server = Server::builder(small_platform())
            .shards(2)
            .max_batch(3)
            .queue_depth(64)
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .build()
            .expect("server");
        let pendings: Vec<_> = (0..12)
            .map(|i| {
                server
                    .submit(Request::Classify { frame: scene(i) })
                    .expect("admitted")
            })
            .collect();
        for pending in pendings {
            assert!(pending.wait().is_ok());
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.shards.len(), 2);
        for shard in &snapshot.shards {
            assert_eq!(
                shard.plan_encodes, 1,
                "shard {} must compile its plan exactly once at build",
                shard.shard
            );
        }
        assert_eq!(snapshot.plan_encodes, 2);
        assert_eq!(
            snapshot.plan_hits, 12,
            "every served frame must hit the cached plan"
        );
        let table = snapshot.table();
        assert!(table.contains("plan encodes"));
        assert!(table.contains("plan cache hits"));
        assert!(table.contains("1 encode,"), "per-shard plan line:\n{table}");
    }

    #[test]
    fn stream_admission_rejects_empty_and_oversized_streams() {
        use lightator_core::stream::StreamConfig;
        let server = Server::builder(small_platform())
            .workload(Workload::VideoStream {
                kernel: ImageKernel::SobelX,
                stream: StreamConfig {
                    block_size: 2,
                    delta_threshold: 0.05,
                },
            })
            .build()
            .expect("server");
        assert!(matches!(
            server.submit(Request::VideoStream {
                kernel: ImageKernel::SobelX,
                frames: vec![],
            }),
            Err(ServeError::InvalidRequest { .. })
        ));
        assert!(matches!(
            server.submit(Request::VideoStream {
                kernel: ImageKernel::SobelX,
                frames: vec![scene(0); MAX_STREAM_FRAMES + 1],
            }),
            Err(ServeError::InvalidRequest { .. })
        ));
        // Within the limit the stream is admitted and served.
        assert!(server
            .run_stream(Request::VideoStream {
                kernel: ImageKernel::SobelX,
                frames: vec![scene(0); 3],
            })
            .is_ok());
    }

    #[test]
    fn wrong_response_accessors_are_typed_errors() {
        let server = Server::builder(small_platform())
            .workload(Workload::Acquire)
            .build()
            .expect("server");
        let pending = server
            .submit(Request::Acquire { frame: scene(0) })
            .expect("admitted");
        assert!(matches!(
            pending.wait_stream(),
            Err(ServeError::ResponseKind { .. })
        ));
    }

    #[test]
    fn unregistered_workloads_are_rejected_by_the_router() {
        let server = Server::builder(small_platform())
            .workload(Workload::Acquire)
            .build()
            .expect("server");
        let err = server
            .submit(Request::ImageKernel {
                kernel: ImageKernel::Laplacian,
                frame: scene(0),
            })
            .expect_err("not registered");
        assert_eq!(
            err,
            ServeError::UnknownWorkload {
                label: "kernel:laplacian".into()
            }
        );
    }

    #[test]
    fn duplicate_workloads_fail_the_build() {
        let err = Server::builder(small_platform())
            .workload(Workload::Acquire)
            .workload(Workload::Acquire)
            .build()
            .expect_err("duplicate");
        assert!(err.to_string().contains("registered twice"));
    }

    #[test]
    fn classify_models_that_cannot_take_acquired_frames_fail_the_build() {
        // The platform acquires [1, 4, 4] frames. An 8x8-input model still
        // opens a session (`evaluate` feeds dataset tensors), but a server
        // only ever feeds it acquired frames.
        let mut rng = SmallRng::seed_from_u64(3);
        let mut model = Sequential::new(&[1, 8, 8]);
        model.push(Flatten::new());
        model.push(Linear::new(64, 3, &mut rng).expect("linear"));
        let workload = Workload::Classify { model };
        small_platform()
            .session(workload.clone())
            .expect("the session opens");
        let err = Server::builder(small_platform())
            .workload(workload)
            .build()
            .expect_err("frame shape");
        match err {
            ServeError::Core(CoreError::ModelMismatch { reason }) => {
                assert!(reason.contains("cannot serve frames"), "{reason}");
            }
            other => panic!("expected a model mismatch, got {other}"),
        }
    }

    fn heterogeneous_platform() -> Platform {
        use lightator_baselines::electronic::ElectronicBaseline;
        use lightator_baselines::reference::ElectronicReference;
        Platform::builder()
            .sensor_resolution(8, 8)
            .compressive_acquisition(CaConfig::default())
            .register_backend(std::sync::Arc::new(ElectronicReference::new(
                ElectronicBaseline::eyeriss(),
            )))
            .build()
            .expect("platform")
    }

    #[test]
    fn heterogeneous_groups_route_by_backend_with_per_backend_telemetry() {
        let eyeriss = BackendId::new("electronic:eyeriss");
        let server = Server::builder(heterogeneous_platform())
            .shards(1)
            .max_batch(2)
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .workload_on(
                Workload::ImageKernel {
                    kernel: ImageKernel::SobelX,
                },
                eyeriss.clone(),
            )
            .build()
            .expect("server");
        assert_eq!(
            server.workloads(),
            vec![
                "classify".to_string(),
                "kernel:sobel-x@electronic:eyeriss".to_string()
            ]
        );
        assert_eq!(
            server.backends(),
            vec![BackendId::photonic(), eyeriss.clone()]
        );

        // Plain submits route to the kernel group even though it only
        // exists on the electronic backend.
        for i in 0..3 {
            assert!(server
                .run(Request::ImageKernel {
                    kernel: ImageKernel::SobelX,
                    frame: scene(i),
                })
                .is_ok());
        }
        // Explicit routing works, and naming an unregistered pairing is a
        // typed error.
        assert!(server
            .run_on(
                &eyeriss,
                Request::ImageKernel {
                    kernel: ImageKernel::SobelX,
                    frame: scene(3),
                },
            )
            .is_ok());
        assert!(server
            .run_on(
                &BackendId::photonic(),
                Request::Classify { frame: scene(4) }
            )
            .is_ok());
        let err = server
            .submit_on(&eyeriss, Request::Classify { frame: scene(5) })
            .expect_err("classify is photonic-only");
        assert_eq!(
            err,
            ServeError::UnknownWorkload {
                label: "classify@electronic:eyeriss".into()
            }
        );

        let snapshot = server.shutdown();
        assert_eq!(snapshot.completed, 5);
        assert_eq!(snapshot.backends.len(), 2);
        let photonic = &snapshot.backends[0];
        let electronic = &snapshot.backends[1];
        assert_eq!(photonic.backend, "photonic");
        assert_eq!(electronic.backend, "electronic:eyeriss");
        assert_eq!(photonic.frames, 1);
        assert_eq!(electronic.frames, 4);
        assert!(photonic.energy.pj() > 0.0);
        assert!(electronic.energy.pj() > 0.0);
        // Eyeriss spends far more energy per frame than the optical core.
        assert!(electronic.energy_per_frame().pj() > photonic.energy_per_frame().pj());
        // Every group still compiles its plan exactly once per shard.
        assert_eq!(electronic.plan_encodes, 1);
        let table = snapshot.table();
        assert!(table.contains("per-backend totals"), "table:\n{table}");
        assert!(table.contains("electronic:eyeriss"), "table:\n{table}");
        assert!(
            table.contains("kernel:sobel-x@electronic:eyeriss/0"),
            "table:\n{table}"
        );
    }

    #[test]
    fn unknown_and_non_executing_backends_fail_the_build() {
        let err = Server::builder(small_platform())
            .workload_on(Workload::Acquire, BackendId::new("electronic:eyeriss"))
            .build()
            .expect_err("not registered on this platform");
        assert!(err.to_string().contains("no backend registered"));

        use lightator_baselines::optical::OpticalBaseline;
        use lightator_baselines::roofline::RooflineBackend;
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .register_backend(std::sync::Arc::new(RooflineBackend::new(
                OpticalBaseline::lightbulb(),
            )))
            .build()
            .expect("platform");
        let roofline = platform.backend_ids()[1].clone();
        let err = Server::builder(platform)
            .workload_on(Workload::Acquire, roofline)
            .build()
            .expect_err("rooflines cannot execute");
        assert!(err.to_string().contains("roofline"));
    }

    #[test]
    fn same_workload_on_two_backends_is_two_groups_but_same_backend_twice_fails() {
        let eyeriss = BackendId::new("electronic:eyeriss");
        let server = Server::builder(heterogeneous_platform())
            .workload(Workload::Acquire)
            .workload_on(Workload::Acquire, eyeriss.clone())
            .build()
            .expect("two groups");
        assert_eq!(server.workloads().len(), 2);
        drop(server);

        let err = Server::builder(heterogeneous_platform())
            .workload_on(Workload::Acquire, eyeriss.clone())
            .workload_on(Workload::Acquire, eyeriss)
            .build()
            .expect_err("duplicate pairing");
        assert!(err.to_string().contains("registered twice on backend"));
    }

    #[test]
    fn invalid_serve_configs_fail_the_build() {
        let err = Server::builder(small_platform())
            .shards(0)
            .workload(Workload::Acquire)
            .build()
            .expect_err("zero shards");
        assert!(matches!(err, ServeError::InvalidConfig { .. }));
        let err = Server::builder(small_platform())
            .build()
            .expect_err("no workloads");
        assert!(err.to_string().contains("at least one workload"));
        // An oversized batch bound fails validation, not an allocation.
        let err = Server::builder(small_platform())
            .max_batch(usize::MAX)
            .workload(Workload::Acquire)
            .build()
            .expect_err("oversized max_batch");
        assert!(matches!(err, ServeError::InvalidConfig { .. }), "{err}");
    }

    #[test]
    fn shutdown_drains_in_flight_work() {
        let server = Server::builder(small_platform())
            .shards(1)
            .max_batch(2)
            .queue_depth(64)
            .workload(Workload::Acquire)
            .build()
            .expect("server");
        let pendings: Vec<_> = (0..16)
            .map(|i| {
                server
                    .submit(Request::Acquire { frame: scene(i) })
                    .expect("admitted")
            })
            .collect();
        let snapshot = server.shutdown();
        // Shutdown ran every admitted request.
        for pending in pendings {
            assert!(pending.wait().is_ok());
        }
        assert_eq!(snapshot.completed, 16);
        assert_eq!(snapshot.queued, 0);
        let frames_via_shards: u64 = snapshot.shards.iter().map(|s| s.frames).sum();
        assert_eq!(frames_via_shards, 16);
        // Batch-size distribution is consistent with the frame count.
        let frames_via_sizes: u64 = snapshot
            .shards
            .iter()
            .flat_map(|s| {
                s.batch_sizes
                    .iter()
                    .enumerate()
                    .map(|(i, count)| (i as u64 + 1) * count)
            })
            .sum();
        assert_eq!(frames_via_sizes, 16);
    }

    #[test]
    fn attached_recorder_captures_request_lifecycle_and_stage_attribution() {
        use lightator_core::stream::StreamConfig;
        let recorder = Arc::new(TraceRecorder::new());
        let server = Server::builder(small_platform())
            .shards(1)
            .max_batch(2)
            .trace_recorder(Arc::clone(&recorder))
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .workload(Workload::VideoStream {
                kernel: ImageKernel::SobelX,
                stream: StreamConfig {
                    block_size: 2,
                    delta_threshold: 0.05,
                },
            })
            .build()
            .expect("server");
        for i in 0..4 {
            assert!(server.run(Request::Classify { frame: scene(i) }).is_ok());
        }
        assert!(server
            .run_stream(Request::VideoStream {
                kernel: ImageKernel::SobelX,
                frames: vec![scene(0); 3],
            })
            .is_ok());
        assert!(server.trace_recorder().is_some());
        let snapshot = server.shutdown();

        let events = recorder.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        for lifecycle in ["admit", "queue", "batch-form", "execute", "respond"] {
            assert!(names.contains(&lifecycle), "missing `{lifecycle}` event");
        }
        assert!(
            events.iter().any(|e| e.track == "router"),
            "admissions land on the router track"
        );
        assert!(
            events.iter().any(|e| e.track == "shard:classify/0"),
            "shard events carry the shard label"
        );

        // The recorder's stage rollup reached the snapshot, and its energy
        // agrees with the shard energy meters for the classify track (one
        // frame's worth of stages per served frame).
        assert!(!snapshot.stages.is_empty());
        let classify_stage_pj: f64 = snapshot
            .stages
            .iter()
            .filter(|r| r.track == "shard:classify/0" && r.category == "stage")
            .map(|r| r.energy_pj)
            .sum();
        let classify_meter_pj = snapshot.shards[0].energy.pj();
        assert!(
            (classify_stage_pj - classify_meter_pj).abs() <= 1e-6 * classify_meter_pj,
            "stage energy {classify_stage_pj} vs meter {classify_meter_pj}"
        );
        assert!(snapshot.table().contains("per-stage attribution"));
        // Stream execution is attributed too (gated energy on its shard).
        assert!(snapshot
            .stages
            .iter()
            .any(|r| r.track.starts_with("shard:stream:sobel-x") && r.stage == "execute"));
    }

    #[test]
    fn metrics_are_identical_with_and_without_a_recorder() {
        // Observational purity at the serving layer: the recorder changes
        // no metric and no report.
        let run_once = |recorder: Option<Arc<TraceRecorder>>| {
            let mut builder = Server::builder(small_platform())
                .shards(1)
                .max_batch(2)
                .workload(Workload::Classify {
                    model: tiny_model(),
                });
            if let Some(recorder) = recorder {
                builder = builder.trace_recorder(recorder);
            }
            let server = builder.build().expect("server");
            let reports: Vec<_> = (0..6)
                .map(|i| {
                    server
                        .run(Request::Classify { frame: scene(i) })
                        .expect("served")
                })
                .collect();
            let mut snapshot = server.shutdown();
            snapshot.stages.clear();
            (reports, snapshot)
        };
        let (plain_reports, plain) = run_once(None);
        let (traced_reports, traced) = run_once(Some(Arc::new(TraceRecorder::new())));
        assert_eq!(plain_reports, traced_reports);
        assert_eq!(plain.completed, traced.completed);
        assert_eq!(plain.served_frames, traced.served_frames);
        assert_eq!(plain.shards[0].frames, traced.shards[0].frames);
        assert_eq!(plain.shards[0].energy, traced.shards[0].energy);
    }

    #[test]
    fn admission_control_rejects_when_the_queue_is_full() {
        // A server whose single group has capacity 1: flood it faster than
        // the (deliberately busy) classify shard can drain.
        let server = Server::builder(small_platform())
            .shards(1)
            .max_batch(1)
            .queue_depth(1)
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .build()
            .expect("server");
        let mut overloaded = 0usize;
        let mut pendings = Vec::new();
        for i in 0..200 {
            match server.submit(Request::Classify { frame: scene(i) }) {
                Ok(pending) => pendings.push(pending),
                Err(ServeError::Overloaded { queue_depth }) => {
                    assert_eq!(queue_depth, 1);
                    overloaded += 1;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        assert!(
            overloaded > 0,
            "a depth-1 queue must reject under a 200-request burst"
        );
        let snapshot = server.shutdown();
        assert_eq!(snapshot.rejected, overloaded as u64);
        for pending in pendings {
            assert!(pending.wait().is_ok());
        }
    }

    #[test]
    fn sustained_overload_accounting_matches_the_returned_errors_per_lane() {
        // Flood a tiny queue from both lanes and hold the overload for the
        // whole burst: every returned `Overloaded` must be counted on the
        // lane that suffered it, and admitted + rejected must equal the
        // offered count exactly.
        let server = Server::builder(small_platform())
            .shards(1)
            .max_batch(1)
            .queue_depth(2)
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .build()
            .expect("server");
        let mut offered = 0u64;
        let mut admitted = [0u64; 2];
        let mut rejected = [0u64; 2];
        let mut pendings = Vec::new();
        for i in 0..300 {
            let priority = if i % 3 == 0 {
                Priority::Interactive
            } else {
                Priority::Batch
            };
            let lane = usize::from(priority == Priority::Batch);
            offered += 1;
            match server.submit_with_priority(Request::Classify { frame: scene(i) }, priority) {
                Ok(pending) => {
                    admitted[lane] += 1;
                    pendings.push(pending);
                }
                Err(ServeError::Overloaded { .. }) => rejected[lane] += 1,
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let snapshot = server.shutdown();
        assert!(
            snapshot.rejected > 0,
            "a depth-2 queue must overload under a 300-request burst"
        );
        assert_eq!(snapshot.admitted_interactive, admitted[0]);
        assert_eq!(snapshot.admitted_batch, admitted[1]);
        assert_eq!(snapshot.rejected_interactive, rejected[0]);
        assert_eq!(snapshot.rejected_batch, rejected[1]);
        assert_eq!(snapshot.admitted() + snapshot.rejected, offered);
        let expected = snapshot.rejected as f64 / offered as f64;
        assert!((snapshot.drop_rate() - expected).abs() < 1e-12);
        assert!(snapshot.table().contains("drop rate"));
        for pending in pendings {
            assert!(pending.wait().is_ok());
        }
    }

    #[test]
    fn open_loop_arrivals_advance_the_simulated_clock_on_admission_only() {
        let server = Server::builder(small_platform())
            .shards(1)
            .queue_depth(8)
            .workload(Workload::Acquire)
            .build()
            .expect("server");
        assert_eq!(server.sim_now().ns(), 0.0);
        let pending = server
            .submit_at(Request::Acquire { frame: scene(0) }, Priority::Batch, 5_000)
            .expect("admitted");
        // Admission stamped the arrival on the timeline.
        assert!(server.sim_now().ns() >= 5_000.0);
        let report = pending.wait().expect("served");
        assert_eq!(report.workload, "acquire");
        let snapshot = server.shutdown();
        assert_eq!(snapshot.admitted_batch, 1);
        // The request waited from *its* arrival, not from time zero: queue
        // wait is the batch start minus 5 µs, far under the 5 µs it would
        // show if the stamp were wrong.
        assert!(snapshot.p99_queue_wait.ns() < 5_000.0);
    }

    #[test]
    fn slo_and_shard_assignment_serve_the_same_reports_with_shard_gauges_published() {
        use crate::config::SloConfig;
        let server = Server::builder(small_platform())
            .shards(2)
            .queue_depth(64)
            .slo(SloConfig {
                target_queue_wait: Time::from_us(2.0),
                min_batch: 1,
                max_batch: 8,
            })
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .build()
            .expect("server");
        let pendings: Vec<_> = (0..24)
            .map(|i| {
                server
                    .submit(Request::Classify { frame: scene(i) })
                    .expect("admitted")
            })
            .collect();
        for pending in pendings {
            assert!(pending.wait().is_ok());
        }
        let snapshot = server.shutdown();
        assert_eq!(snapshot.completed, 24);
        assert_eq!(snapshot.errored, 0);
        // The adaptive limit gauge is live (within the SLO bounds) and the
        // batch-size histogram can hold batches up to the SLO cap.
        for shard in &snapshot.shards {
            assert!(shard.batch_limit >= 1 && shard.batch_limit <= 8);
            assert_eq!(shard.batch_sizes.len(), 8);
        }
        assert!(snapshot.table().contains("limit now"));
    }

    #[test]
    fn frame_errors_are_isolated_to_the_offending_request() {
        // 8x8 scenes acquire to the model's [1, 4, 4] input; a 6x6 scene
        // acquires to [1, 3, 3] and is rejected by the model. Batched
        // together, only the bad frame must see the error.
        let server = Server::builder(small_platform())
            .shards(1)
            .max_batch(4)
            .queue_depth(16)
            .workload(Workload::Classify {
                model: tiny_model(),
            })
            .build()
            .expect("server");
        let good = server.submit(Request::Classify { frame: scene(0) });
        let bad = server.submit(Request::Classify {
            frame: RgbFrame::filled(6, 6, [0.5, 0.5, 0.5]).expect("ok"),
        });
        let good2 = server.submit(Request::Classify { frame: scene(1) });
        assert!(good.expect("admitted").wait().is_ok());
        assert!(matches!(
            bad.expect("admitted").wait(),
            Err(ServeError::Core(_))
        ));
        assert!(good2.expect("admitted").wait().is_ok());
        let snapshot = server.shutdown();
        assert_eq!(snapshot.errored, 1);
        assert_eq!(snapshot.completed, 2);
    }
}
