//! Typed requests, their routing keys and the client-side response handle.

use crate::error::{Result, ServeError};
use crate::queue::Scheduler;
use lightator_core::platform::{ImageKernel, Report, Workload};
use lightator_core::stream::StreamReport;
use lightator_sensor::frame::RgbFrame;
use std::sync::{Arc, Mutex, PoisonError};

/// Scheduling lane of a submitted request.
///
/// The scheduler batches both lanes from one ticketed FIFO, but when a
/// queue holds a mix, batch formation may *start* at the first arrived
/// [`Priority::Interactive`] request instead of the queue head, so
/// interactive tail latency holds while [`Priority::Batch`] traffic soaks
/// the leftover capacity. An interactive credit bounds the consecutive
/// batches that may overtake the head to four, so batch-lane requests
/// cannot starve. Lane choice never changes a request's ticket or
/// its report bits — only the order batches form in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Priority {
    /// Latency-sensitive traffic; may overtake queued batch-lane requests
    /// at batch-formation time. The default for [`crate::Server::submit`].
    #[default]
    Interactive,
    /// Throughput traffic (background soak, offline scoring); drained with
    /// the leftover capacity of each batch window.
    Batch,
}

impl Priority {
    /// Short display name (`interactive` / `batch`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Batch => "batch",
        }
    }
}

/// One unit of work for the server, typed by the workload that should
/// serve it. The router dispatches each request to the shard group opened
/// for the matching [`Workload`]. The first three variants carry one frame
/// each; [`Request::VideoStream`] carries a whole frame sequence and
/// resolves to a [`StreamReport`] through [`Pending::wait_stream`].
#[derive(Debug, Clone)]
pub enum Request {
    /// Classify the frame with the group's trained model.
    Classify {
        /// The scene in front of the sensor.
        frame: RgbFrame,
    },
    /// Acquire the frame (raw or CA-compressed, per the platform).
    Acquire {
        /// The scene in front of the sensor.
        frame: RgbFrame,
    },
    /// Run a 3×3 image kernel over the acquired frame.
    ImageKernel {
        /// The filter to apply; a group must be registered for this exact
        /// kernel.
        kernel: ImageKernel,
        /// The scene in front of the sensor.
        frame: RgbFrame,
    },
    /// Run a whole video stream through the frame-delta compressive path;
    /// a group must be registered for a `Workload::VideoStream` with this
    /// exact kernel.
    VideoStream {
        /// The filter the stream group applies to recomputed blocks.
        kernel: ImageKernel,
        /// The frame sequence, in stream order.
        frames: Vec<RgbFrame>,
    },
}

impl Request {
    /// Label of the workload this request targets (`classify`, `acquire`,
    /// `kernel:sobel-x`, `stream:sobel-x`, ...), matching
    /// [`Workload::label`].
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            Request::Classify { .. } => "classify".to_string(),
            Request::Acquire { .. } => "acquire".to_string(),
            Request::ImageKernel { kernel, .. } => format!("kernel:{}", kernel.name()),
            Request::VideoStream { kernel, .. } => format!("stream:{}", kernel.name()),
        }
    }

    /// Routing key of this request.
    pub(crate) fn kind(&self) -> RequestKind {
        match self {
            Request::Classify { .. } => RequestKind::Classify,
            Request::Acquire { .. } => RequestKind::Acquire,
            Request::ImageKernel { kernel, .. } => RequestKind::Kernel(*kernel),
            Request::VideoStream { kernel, .. } => RequestKind::Stream(*kernel),
        }
    }

    /// The work to serve, surrendered to the queue.
    pub(crate) fn into_payload(self) -> Payload {
        match self {
            Request::Classify { frame }
            | Request::Acquire { frame }
            | Request::ImageKernel { frame, .. } => Payload::Frame(frame),
            Request::VideoStream { frames, .. } => Payload::Stream(frames),
        }
    }
}

/// The queued work of one admitted request.
#[derive(Debug)]
pub(crate) enum Payload {
    /// One scene for a single-frame workload.
    Frame(RgbFrame),
    /// A whole frame sequence for a video-stream workload.
    Stream(Vec<RgbFrame>),
}

impl Payload {
    /// Global frame indices this payload consumes — the ticket stride of
    /// the request.
    pub(crate) fn weight(&self) -> u64 {
        match self {
            Payload::Frame(_) => 1,
            Payload::Stream(frames) => frames.len() as u64,
        }
    }
}

/// Routing key connecting requests to the shard group serving the matching
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RequestKind {
    Classify,
    Acquire,
    Kernel(ImageKernel),
    Stream(ImageKernel),
}

impl RequestKind {
    /// The routing key a workload's shard group registers under.
    pub(crate) fn of_workload(workload: &Workload) -> Self {
        match workload {
            Workload::Classify { .. } => RequestKind::Classify,
            Workload::Acquire => RequestKind::Acquire,
            Workload::ImageKernel { kernel } => RequestKind::Kernel(*kernel),
            Workload::VideoStream { kernel, .. } => RequestKind::Stream(*kernel),
        }
    }
}

/// What a served request resolved to.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// A single-frame report (classify / acquire / image kernel).
    Frame(Report),
    /// A whole-stream report (video stream).
    Stream(StreamReport),
}

impl Response {
    fn kind_name(&self) -> &'static str {
        match self {
            Response::Frame(_) => "frame",
            Response::Stream(_) => "stream",
        }
    }

    /// Unwraps a frame report.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ResponseKind`] for stream responses.
    pub fn into_report(self) -> Result<Report> {
        match self {
            Response::Frame(report) => Ok(report),
            other => Err(ServeError::ResponseKind {
                expected: "frame",
                got: other.kind_name(),
            }),
        }
    }

    /// Unwraps a stream report.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ResponseKind`] for frame responses.
    pub fn into_stream_report(self) -> Result<StreamReport> {
        match self {
            Response::Stream(report) => Ok(report),
            other => Err(ServeError::ResponseKind {
                expected: "stream",
                got: other.kind_name(),
            }),
        }
    }
}

/// A served request's outcome and its simulated completion time (ns).
type Outcome = (Result<Response>, u64);

/// One-shot hand-off of a request's outcome from the shard that served it
/// to the client's [`Pending`].
#[derive(Debug, Default)]
pub(crate) struct ResponseSlot {
    outcome: Mutex<Option<Outcome>>,
}

impl ResponseSlot {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Publishes the outcome, completed at `completion_ns`.
    pub(crate) fn fulfil(&self, outcome: Result<Response>, completion_ns: u64) {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        *slot = Some((outcome, completion_ns));
    }

    /// Takes the outcome. A request's batch has run by the time its
    /// group's scheduler hands the slot to the client, so the slot is
    /// filled; an empty one reads as an abandoned request.
    pub(crate) fn take(&self) -> Outcome {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        slot.take().unwrap_or((Err(ServeError::WorkerPanicked), 0))
    }
}

/// Handle to a request admitted into the server's queue.
///
/// Waiting runs every batch the request's group still holds, the
/// request's own included, on the calling thread, so [`Pending::wait`]
/// always returns once the request was admitted — also after
/// [`Server::shutdown`](crate::Server::shutdown), which ran it already.
#[derive(Debug)]
pub struct Pending {
    slot: Arc<ResponseSlot>,
    /// The scheduler of the group serving the request.
    scheduler: Arc<Scheduler>,
}

impl Pending {
    pub(crate) fn new(slot: Arc<ResponseSlot>, scheduler: Arc<Scheduler>) -> Self {
        Self { slot, scheduler }
    }

    /// Returns the request's [`Response`] — frame or stream — once its
    /// shard group served it.
    ///
    /// A waiting client submits nothing further, so the group closes every
    /// batch it holds open instead of waiting for more arrivals, and runs
    /// each on the calling thread. When the call returns,
    /// [`Server::sim_now`](crate::Server::sim_now) has moved to the
    /// request's simulated completion.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] if the platform rejected the work.
    pub fn wait_response(self) -> Result<Response> {
        self.scheduler.wait(&self.slot)
    }

    /// Returns a single-frame request's [`Report`] once it is served (see
    /// [`Pending::wait_response`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] if the platform rejected the frame
    /// (e.g. a resolution mismatch) and [`ServeError::ResponseKind`] if the
    /// request was a video stream.
    pub fn wait(self) -> Result<Report> {
        self.wait_response()?.into_report()
    }

    /// Returns a video-stream request's [`StreamReport`] once it is served
    /// (see [`Pending::wait_response`]).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Core`] if the platform rejected the stream and
    /// [`ServeError::ResponseKind`] if the request was a single frame.
    pub fn wait_stream(self) -> Result<StreamReport> {
        self.wait_response()?.into_stream_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ServeError;

    #[test]
    fn labels_match_the_workload_labels() {
        let frame = RgbFrame::filled(4, 4, [0.5, 0.5, 0.5]).expect("ok");
        assert_eq!(
            Request::Classify {
                frame: frame.clone()
            }
            .label(),
            "classify"
        );
        assert_eq!(
            Request::Acquire {
                frame: frame.clone()
            }
            .label(),
            "acquire"
        );
        let request = Request::ImageKernel {
            kernel: ImageKernel::SobelX,
            frame: frame.clone(),
        };
        assert_eq!(request.label(), "kernel:sobel-x");
        assert_eq!(request.kind(), RequestKind::Kernel(ImageKernel::SobelX));
        let request = Request::VideoStream {
            kernel: ImageKernel::SobelX,
            frames: vec![frame; 3],
        };
        assert_eq!(request.label(), "stream:sobel-x");
        assert_eq!(request.kind(), RequestKind::Stream(ImageKernel::SobelX));
        assert_eq!(request.into_payload().weight(), 3);
    }

    #[test]
    fn workload_kinds_distinguish_kernels_and_streams() {
        assert_eq!(
            RequestKind::of_workload(&Workload::Acquire),
            RequestKind::Acquire
        );
        assert_ne!(
            RequestKind::of_workload(&Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            }),
            RequestKind::of_workload(&Workload::ImageKernel {
                kernel: ImageKernel::SobelY,
            })
        );
        // A kernel group and a stream group on the same kernel are
        // distinct routes.
        assert_ne!(
            RequestKind::of_workload(&Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            }),
            RequestKind::of_workload(&Workload::VideoStream {
                kernel: ImageKernel::SobelX,
                stream: lightator_core::stream::StreamConfig::default(),
            })
        );
    }

    #[test]
    fn response_accessors_enforce_the_kind() {
        let report = StreamReport::new("stream:identity".into(), 4);
        let response = Response::Stream(report.clone());
        assert_eq!(
            response.clone().into_report(),
            Err(ServeError::ResponseKind {
                expected: "frame",
                got: "stream",
            })
        );
        assert_eq!(response.into_stream_report(), Ok(report));
    }

    #[test]
    fn response_slot_hands_the_outcome_to_the_waiter() {
        // A slot is always filled before it is taken.
        let slot = ResponseSlot::new();
        slot.fulfil(Err(ServeError::ShuttingDown), 42);
        assert_eq!(slot.take(), (Err(ServeError::ShuttingDown), 42));
    }
}
