//! Error type for the sensor models.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced by the ADC-less sensor models.
#[derive(Debug, Clone, PartialEq)]
pub enum SensorError {
    /// A frame dimension was zero or otherwise unusable.
    InvalidDimensions {
        /// Frame height in pixels.
        height: usize,
        /// Frame width in pixels.
        width: usize,
    },
    /// Pixel data length does not match the declared dimensions.
    DataLengthMismatch {
        /// Number of samples expected from the dimensions.
        expected: usize,
        /// Number of samples actually provided.
        actual: usize,
    },
    /// A pixel intensity outside `[0, 1]` (or not finite) was supplied.
    IntensityOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// A configuration parameter was invalid.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Rejected value.
        value: f64,
    },
    /// A pixel coordinate outside the array was addressed.
    PixelOutOfRange {
        /// Requested row.
        row: usize,
        /// Requested column.
        col: usize,
        /// Array height.
        height: usize,
        /// Array width.
        width: usize,
    },
}

impl fmt::Display for SensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidDimensions { height, width } => {
                write!(f, "invalid frame dimensions {height}x{width}")
            }
            Self::DataLengthMismatch { expected, actual } => {
                write!(
                    f,
                    "frame data length mismatch: expected {expected} samples, got {actual}"
                )
            }
            Self::IntensityOutOfRange { value } => {
                write!(f, "pixel intensity {value} is outside the range [0, 1]")
            }
            Self::InvalidParameter { name, value } => {
                write!(f, "invalid value {value} for parameter `{name}`")
            }
            Self::PixelOutOfRange {
                row,
                col,
                height,
                width,
            } => {
                write!(
                    f,
                    "pixel ({row}, {col}) is outside the {height}x{width} array"
                )
            }
        }
    }
}

impl StdError for SensorError {}

/// Convenience result alias for sensor operations.
pub type Result<T> = std::result::Result<T, SensorError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_informative() {
        let errs: Vec<SensorError> = vec![
            SensorError::InvalidDimensions {
                height: 0,
                width: 10,
            },
            SensorError::DataLengthMismatch {
                expected: 100,
                actual: 99,
            },
            SensorError::IntensityOutOfRange { value: 1.7 },
            SensorError::InvalidParameter {
                name: "full_well",
                value: -2.0,
            },
            SensorError::PixelOutOfRange {
                row: 9,
                col: 9,
                height: 4,
                width: 4,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SensorError>();
    }
}
