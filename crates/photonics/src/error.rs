//! Error type shared by the photonic device models.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the photonic device models.
///
/// ```
/// use lightator_photonics::PhotonicsError;
/// let err = PhotonicsError::WeightOutOfRange { weight: 1.5 };
/// assert!(err.to_string().contains("1.5"));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum PhotonicsError {
    /// A weight outside the representable range was requested: `[-1, 1]`
    /// for a signed arm weight, `[0, 1]` for a ring transmission.
    WeightOutOfRange {
        /// The offending weight value.
        weight: f64,
    },
    /// An activation outside the unsigned VCSEL drive range `[0, 1]`.
    ActivationOutOfRange {
        /// The offending activation value.
        activation: f64,
    },
    /// A configuration parameter was invalid (non-positive, NaN, ...).
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Value that was rejected.
        value: f64,
    },
    /// Vector lengths passed to a multi-element operation disagree.
    LengthMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Number of elements actually provided.
        actual: usize,
    },
    /// More WDM channels were requested than the grid supports.
    ChannelOutOfRange {
        /// Requested channel index.
        channel: usize,
        /// Number of channels in the grid.
        channels: usize,
    },
}

impl fmt::Display for PhotonicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::WeightOutOfRange { weight } => write!(
                f,
                "weight {weight} is outside the representable range [-1, 1] \
                 ([0, 1] for a ring transmission)"
            ),
            Self::ActivationOutOfRange { activation } => write!(
                f,
                "activation {activation} is outside the representable range [0, 1]"
            ),
            Self::InvalidParameter { name, value } => {
                write!(f, "invalid value {value} for parameter `{name}`")
            }
            Self::LengthMismatch { expected, actual } => write!(
                f,
                "length mismatch: expected {expected} elements, got {actual}"
            ),
            Self::ChannelOutOfRange { channel, channels } => write!(
                f,
                "channel index {channel} is outside the WDM grid of {channels} channels"
            ),
        }
    }
}

impl StdError for PhotonicsError {}

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, PhotonicsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<PhotonicsError> = vec![
            PhotonicsError::WeightOutOfRange { weight: 2.0 },
            PhotonicsError::ActivationOutOfRange { activation: -0.5 },
            PhotonicsError::InvalidParameter {
                name: "q_factor",
                value: -1.0,
            },
            PhotonicsError::LengthMismatch {
                expected: 9,
                actual: 3,
            },
            PhotonicsError::ChannelOutOfRange {
                channel: 12,
                channels: 9,
            },
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
        }
    }

    /// Regression: the weight message claimed `[0, 1]`, the activation
    /// range, although an arm accepts signed weights in `[-1, 1]`.
    #[test]
    fn range_messages_name_the_range_that_was_violated() {
        let weight = PhotonicsError::WeightOutOfRange { weight: f64::NAN }.to_string();
        assert!(weight.starts_with("weight NaN"), "{weight}");
        assert!(weight.contains("[-1, 1]"), "{weight}");
        let activation = PhotonicsError::ActivationOutOfRange { activation: 1.5 }.to_string();
        assert!(activation.starts_with("activation 1.5"), "{activation}");
        assert!(activation.contains("[0, 1]"), "{activation}");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PhotonicsError>();
    }
}
