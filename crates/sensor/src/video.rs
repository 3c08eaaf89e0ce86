//! Frame-sequence sources for streaming video workloads.
//!
//! The streaming pipeline consumes any iterator of [`RgbFrame`]s; this
//! module provides [`SyntheticVideo`], a deterministic moving-pattern
//! generator (every frame is a pure function of the configuration and the
//! frame index, so replays and sharded serving see identical pixels).

use crate::error::{Result, SensorError};
use crate::frame::RgbFrame;
use serde::{Deserialize, Serialize};

/// The motion law of a [`SyntheticVideo`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MotionPattern {
    /// A `size`×`size` square of the foreground colour gliding diagonally
    /// across the background, advancing `step` pixels every `hold` frames.
    /// Small `step` / large `hold` values make a *low-motion* stream where
    /// most blocks are temporally static — the regime in which the
    /// frame-delta compressive path shines.
    MovingSquare {
        /// Square edge in pixels.
        size: usize,
        /// Pixels the square advances per motion tick.
        step: usize,
        /// Frames between motion ticks (1 moves every frame).
        hold: usize,
    },
    /// A horizontally scrolling linear gradient: every pixel changes every
    /// frame — the worst case for temporal delta skipping.
    ScrollingGradient {
        /// Pixels the gradient scrolls per frame.
        step: usize,
    },
    /// No motion at all: every frame equals frame 0.
    Static,
}

/// Configuration of a [`SyntheticVideo`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticVideoConfig {
    /// Frame height in pixels.
    pub height: usize,
    /// Frame width in pixels.
    pub width: usize,
    /// Number of frames the iterator yields.
    pub frames: usize,
    /// RGB background colour (each component in `[0, 1]`).
    pub background: [f64; 3],
    /// RGB foreground colour (each component in `[0, 1]`).
    pub foreground: [f64; 3],
    /// The motion law.
    pub pattern: MotionPattern,
}

impl SyntheticVideoConfig {
    /// A low-motion surveillance-style scene: a small bright square drifting
    /// one pixel every other frame across a dark background.
    #[must_use]
    pub fn low_motion(height: usize, width: usize, frames: usize) -> Self {
        Self {
            height,
            width,
            frames,
            background: [0.1, 0.12, 0.1],
            foreground: [0.9, 0.8, 0.2],
            pattern: MotionPattern::MovingSquare {
                size: (height.min(width) / 4).max(1),
                step: 1,
                hold: 2,
            },
        }
    }

    /// A high-motion scene: a gradient scrolling across the whole frame, so
    /// every pixel changes every frame.
    #[must_use]
    pub fn high_motion(height: usize, width: usize, frames: usize) -> Self {
        Self {
            height,
            width,
            frames,
            background: [0.2, 0.2, 0.2],
            foreground: [0.8, 0.8, 0.8],
            pattern: MotionPattern::ScrollingGradient { step: 3 },
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SensorError::InvalidDimensions`] for a zero-sized frame and
    /// [`SensorError::InvalidParameter`] for an oversized square, a zero
    /// square, a zero `hold`, or colour components outside `[0, 1]`.
    pub fn validate(&self) -> Result<()> {
        if self.height == 0 || self.width == 0 {
            return Err(SensorError::InvalidDimensions {
                height: self.height,
                width: self.width,
            });
        }
        for &component in self.background.iter().chain(self.foreground.iter()) {
            if !component.is_finite() || !(0.0..=1.0).contains(&component) {
                return Err(SensorError::IntensityOutOfRange { value: component });
            }
        }
        if let MotionPattern::MovingSquare { size, hold, .. } = self.pattern {
            if size == 0 || size > self.height.min(self.width) {
                return Err(SensorError::InvalidParameter {
                    name: "size",
                    value: size as f64,
                });
            }
            if hold == 0 {
                return Err(SensorError::InvalidParameter {
                    name: "hold",
                    value: 0.0,
                });
            }
        }
        Ok(())
    }
}

/// A deterministic synthetic video: frame `i` is a pure function of the
/// configuration and `i`, so any consumer (a replayed session, a serving
/// shard) regenerating the stream sees bit-identical pixels.
///
/// ```
/// use lightator_sensor::video::{SyntheticVideo, SyntheticVideoConfig};
///
/// # fn main() -> Result<(), lightator_sensor::SensorError> {
/// let video = SyntheticVideo::new(SyntheticVideoConfig::low_motion(16, 16, 8))?;
/// let frames: Vec<_> = video.clone().collect();
/// assert_eq!(frames.len(), 8);
/// assert_eq!(frames[3], video.frame_at(3));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticVideo {
    config: SyntheticVideoConfig,
    next: usize,
}

impl SyntheticVideo {
    /// Creates a generator from a validated configuration.
    ///
    /// # Errors
    ///
    /// Same as [`SyntheticVideoConfig::validate`].
    pub fn new(config: SyntheticVideoConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self { config, next: 0 })
    }

    /// The generator's configuration.
    #[must_use]
    pub fn config(&self) -> &SyntheticVideoConfig {
        &self.config
    }

    /// Renders frame `index` (independent of the iterator position).
    #[must_use]
    pub fn frame_at(&self, index: usize) -> RgbFrame {
        let c = &self.config;
        let mut data = c.background.repeat(c.height * c.width);
        let mut paint = |row: usize, col: usize, rgb: [f64; 3]| {
            let base = (row * c.width + col) * 3;
            data[base..base + 3].copy_from_slice(&rgb);
        };
        match c.pattern {
            MotionPattern::Static => {}
            MotionPattern::MovingSquare { size, step, hold } => {
                let ticks = index / hold.max(1);
                let offset = ticks * step;
                let row0 = offset % (c.height - size + 1);
                let col0 = offset % (c.width - size + 1);
                for row in row0..row0 + size {
                    for col in col0..col0 + size {
                        paint(row, col, c.foreground);
                    }
                }
            }
            MotionPattern::ScrollingGradient { step } => {
                for row in 0..c.height {
                    for col in 0..c.width {
                        let phase = (col + index * step) % c.width;
                        let t = phase as f64 / c.width as f64;
                        let mix = |a: f64, b: f64| a + (b - a) * t;
                        paint(
                            row,
                            col,
                            [
                                mix(c.background[0], c.foreground[0]),
                                mix(c.background[1], c.foreground[1]),
                                mix(c.background[2], c.foreground[2]),
                            ],
                        );
                    }
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "the constructor validated the config: the square fits the \
                      frame and a convex mix of in-range colours stays in range"
        )]
        RgbFrame::new(c.height, c.width, data)
            .expect("validated configuration renders valid frames")
    }
}

impl Iterator for SyntheticVideo {
    type Item = RgbFrame;

    fn next(&mut self) -> Option<RgbFrame> {
        if self.next >= self.config.frames {
            return None;
        }
        let frame = self.frame_at(self.next);
        self.next += 1;
        Some(frame)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.config.frames - self.next;
        (left, Some(left))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_motion_square_moves_slowly() {
        let video = SyntheticVideo::new(SyntheticVideoConfig::low_motion(16, 16, 6)).expect("ok");
        let f0 = video.frame_at(0);
        let f1 = video.frame_at(1);
        // hold = 2: frame 1 equals frame 0, frame 2 differs.
        assert_eq!(f0, f1);
        assert_ne!(f0, video.frame_at(2));
        // The changed pixels are confined to the square's neighbourhood.
        let changed = f0
            .data()
            .iter()
            .zip(video.frame_at(2).data())
            .filter(|(a, b)| a != b)
            .count();
        assert!(changed > 0 && changed < f0.data().len() / 4);
    }

    #[test]
    fn high_motion_gradient_changes_every_pixel() {
        let video = SyntheticVideo::new(SyntheticVideoConfig::high_motion(8, 8, 4)).expect("ok");
        let f0 = video.frame_at(0);
        let f1 = video.frame_at(1);
        let changed = f0
            .data()
            .iter()
            .zip(f1.data())
            .filter(|(a, b)| a != b)
            .count();
        assert_eq!(changed, f0.data().len(), "gradient must move everywhere");
    }

    #[test]
    fn iterator_matches_frame_at_and_respects_length() {
        let video = SyntheticVideo::new(SyntheticVideoConfig::low_motion(8, 8, 5)).expect("ok");
        let frames: Vec<_> = video.clone().collect();
        assert_eq!(frames.len(), 5);
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(frame, &video.frame_at(i));
        }
    }

    #[test]
    fn static_pattern_repeats_frame_zero() {
        let config = SyntheticVideoConfig {
            pattern: MotionPattern::Static,
            ..SyntheticVideoConfig::low_motion(8, 8, 3)
        };
        let video = SyntheticVideo::new(config).expect("ok");
        assert_eq!(video.frame_at(0), video.frame_at(2));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(SyntheticVideo::new(SyntheticVideoConfig::low_motion(0, 8, 3)).is_err());
        let oversized = SyntheticVideoConfig {
            pattern: MotionPattern::MovingSquare {
                size: 9,
                step: 1,
                hold: 1,
            },
            ..SyntheticVideoConfig::low_motion(8, 8, 3)
        };
        assert!(SyntheticVideo::new(oversized).is_err());
        let bad_colour = SyntheticVideoConfig {
            foreground: [1.5, 0.0, 0.0],
            ..SyntheticVideoConfig::low_motion(8, 8, 3)
        };
        assert!(SyntheticVideo::new(bad_colour).is_err());
    }
}
