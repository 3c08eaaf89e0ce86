//! Error type for the serving layer.

use lightator_core::CoreError;
use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the Lightator serving layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The request queue was full; the request was rejected instead of
    /// blocking the caller (admission control).
    Overloaded {
        /// Configured queue depth the request bounced off.
        queue_depth: usize,
    },
    /// The request targets a workload no shard group serves.
    UnknownWorkload {
        /// Label of the requested workload (`classify`, `kernel:sobel-x`,
        /// ...).
        label: String,
    },
    /// The request itself is malformed (an empty video stream, or one
    /// longer than 256 frames).
    InvalidRequest {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// The response was taken through the wrong accessor: frame requests
    /// resolve through [`crate::Pending::wait`], video-stream requests
    /// through [`crate::Pending::wait_stream`].
    ResponseKind {
        /// What the used accessor expected.
        expected: &'static str,
        /// What the request actually produced.
        got: &'static str,
    },
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
    /// The server configuration is invalid.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// Executing the batch holding this request panicked; the request was
    /// abandoned rather than left without an outcome.
    WorkerPanicked,
    /// An error bubbled up from the platform while serving the request.
    Core(CoreError),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { queue_depth } => write!(
                f,
                "request rejected: the queue already holds {queue_depth} requests \
                 (retry later or raise queue_depth)"
            ),
            Self::UnknownWorkload { label } => write!(
                f,
                "no shard group serves workload `{label}` \
                 (register it on the builder before `build()`)"
            ),
            Self::InvalidRequest { reason } => write!(f, "invalid request: {reason}"),
            Self::ResponseKind { expected, got } => write!(
                f,
                "the request produced a {got} response, not a {expected} one \
                 (frame requests resolve through `wait`, video streams through \
                 `wait_stream`)"
            ),
            Self::ShuttingDown => write!(f, "the server is shutting down"),
            Self::InvalidConfig { reason } => {
                write!(f, "invalid server configuration: {reason}")
            }
            Self::WorkerPanicked => {
                write!(f, "executing this request's batch panicked")
            }
            Self::Core(err) => write!(f, "platform error: {err}"),
        }
    }
}

impl StdError for ServeError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            Self::Core(err) => Some(err),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(err: CoreError) -> Self {
        Self::Core(err)
    }
}

/// Convenience result alias for serving operations.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let err = ServeError::Overloaded { queue_depth: 8 };
        assert!(err.to_string().contains("8"));
        assert!(err.source().is_none());

        let err = ServeError::UnknownWorkload {
            label: "kernel:sobel-x".into(),
        };
        assert!(err.to_string().contains("kernel:sobel-x"));

        let err: ServeError = CoreError::ModelMismatch {
            reason: "bad shape".into(),
        }
        .into();
        assert!(err.to_string().contains("bad shape"));
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ServeError>();
    }
}
