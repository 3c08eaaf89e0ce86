//! Server configuration: [`ServeConfig`] and its latency-SLO controller
//! settings, [`SloConfig`]. Both are set through [`crate::ServerBuilder`],
//! which validates them once at build.

use crate::error::{Result, ServeError};
use lightator_photonics::units::Time;

/// Largest simulated duration (in ns) a config may carry: beyond 2^53 ns a
/// `f64` no longer represents every nanosecond exactly, so converting to
/// the u64 nanosecond clock would silently garble the value.
const MAX_CONFIG_NS: f64 = 9_007_199_254_740_992.0; // 2^53

/// Largest batch bound (`max_batch`, `slo.max_batch`) a config may carry:
/// every shard keeps one batch-size counter per size up to the bound and
/// sizes each drain buffer by it, so an unbounded value would exhaust memory
/// when the server builds.
const MAX_BATCH: usize = 4096;

/// Consecutive batches that may start at an interactive request past a
/// batch-lane queue head before a shard must take the head. Bounds
/// batch-lane starvation under interactive floods: out of every
/// `INTERACTIVE_WEIGHT + 1` mixed drains, at least one starts at the head.
pub(crate) const INTERACTIVE_WEIGHT: usize = 4;

/// Largest number of frames one [`crate::Request::VideoStream`] may carry;
/// longer streams are rejected at admission with
/// [`ServeError::InvalidRequest`] so one client cannot monopolise a shard's
/// timeline.
pub(crate) const MAX_STREAM_FRAMES: usize = 256;

/// Latency-SLO controller settings for the adaptive micro-batcher.
///
/// When a [`ServeConfig`] carries an `slo`, every shard runs an AIMD-style
/// controller around its batch formation: while the observed queue wait of
/// drained batches stays at or under [`SloConfig::target_queue_wait`], the
/// shard *additively* grows its batch-size limit (toward
/// [`SloConfig::max_batch`]) and stretches its flush deadline — bigger
/// batches amortise the per-batch weight-encode cost into more frames.
/// When a batch overshoots the target, the controller *multiplicatively*
/// halves the flush deadline, and halves the batch limit too (toward
/// [`SloConfig::min_batch`]) unless the overshooting batch was full — a
/// full, late batch signals queueing backlog, which bigger batches drain
/// faster, so the limit grows instead.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Queue-wait target (simulated time, arrival → batch start) the
    /// controller steers each shard's p99-ish batch wait toward.
    pub target_queue_wait: Time,
    /// Lower bound of the adaptive batch-size limit.
    pub min_batch: usize,
    /// Upper bound of the adaptive batch-size limit, at most 4096. This —
    /// not [`ServeConfig::max_batch`] — caps batch sizes when the controller
    /// is active.
    pub max_batch: usize,
}

impl Default for SloConfig {
    fn default() -> Self {
        Self {
            target_queue_wait: Time::from_us(2.0),
            min_batch: 1,
            max_batch: 64,
        }
    }
}

/// Complete description of one serving deployment: how many shards serve
/// each workload group, how requests batch, and how much queueing the
/// admission controller tolerates.
///
/// Build values through [`crate::ServerBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Shards per workload group: virtual Lightator chips, each owning its
    /// own `Session`, opened under the platform seed.
    pub shards: usize,
    /// Largest number of frames one batch serves, at most 4096 (the weights
    /// are programmed once per batch).
    pub max_batch: usize,
    /// Bound on queued requests per workload group; requests beyond it are
    /// rejected with [`ServeError::Overloaded`] instead of blocking.
    pub queue_depth: usize,
    /// How long (in simulated time) a shard holds a partial batch open for
    /// stragglers before flushing it. Zero flushes as soon as the queue is
    /// drained.
    pub flush_deadline: Time,
    /// Latency-SLO controller for adaptive batching. `None` (the default)
    /// keeps the fixed [`ServeConfig::max_batch`] /
    /// [`ServeConfig::flush_deadline`] batcher; `Some` makes every shard
    /// adapt its batch-size limit and flush deadline between
    /// [`SloConfig::min_batch`] and [`SloConfig::max_batch`] to hold
    /// [`SloConfig::target_queue_wait`].
    pub slo: Option<SloConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            max_batch: 4,
            queue_depth: 32,
            flush_deadline: Time::from_ns(0.0),
            slo: None,
        }
    }
}

impl ServeConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidConfig`] naming the violated
    /// constraint: zero shards, a zero or oversized (above 4096) batch
    /// bound, a zero queue depth, a non-finite/negative/oversized flush
    /// deadline, or inconsistent SLO bounds.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "at least one shard is needed per workload group".into(),
            });
        }
        if self.max_batch == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "max_batch must admit at least one frame per batch".into(),
            });
        }
        if self.max_batch > MAX_BATCH {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "max_batch ({}) exceeds the bound of {MAX_BATCH} frames per batch",
                    self.max_batch
                ),
            });
        }
        if self.queue_depth == 0 {
            return Err(ServeError::InvalidConfig {
                reason: "queue_depth must admit at least one queued request".into(),
            });
        }
        if !self.flush_deadline.ns().is_finite() || self.flush_deadline.ns() < 0.0 {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "flush_deadline must be a finite, non-negative simulated time \
                     (got {} ns); NaN or infinite deadlines would silently \
                     convert to 0 ns on the integer clock",
                    self.flush_deadline.ns()
                ),
            });
        }
        if self.flush_deadline.ns() > MAX_CONFIG_NS {
            return Err(ServeError::InvalidConfig {
                reason: format!(
                    "flush_deadline of {} ns exceeds 2^53 ns (~104 simulated \
                     days), past which f64 cannot represent every nanosecond \
                     and the u64 clock conversion garbles the value",
                    self.flush_deadline.ns()
                ),
            });
        }
        if let Some(slo) = &self.slo {
            let target = slo.target_queue_wait.ns();
            if !target.is_finite() || target <= 0.0 || target > MAX_CONFIG_NS {
                return Err(ServeError::InvalidConfig {
                    reason: format!(
                        "slo.target_queue_wait must be a finite, positive \
                         simulated time no larger than 2^53 ns (got {target} ns)"
                    ),
                });
            }
            if slo.min_batch == 0 {
                return Err(ServeError::InvalidConfig {
                    reason: "slo.min_batch must admit at least one frame per batch".into(),
                });
            }
            if slo.max_batch < slo.min_batch {
                return Err(ServeError::InvalidConfig {
                    reason: format!(
                        "slo.max_batch ({}) must be at least slo.min_batch ({})",
                        slo.max_batch, slo.min_batch
                    ),
                });
            }
            if slo.max_batch > MAX_BATCH {
                return Err(ServeError::InvalidConfig {
                    reason: format!(
                        "slo.max_batch ({}) exceeds the bound of {MAX_BATCH} frames per batch",
                        slo.max_batch
                    ),
                });
            }
        }
        Ok(())
    }

    /// The largest batch any shard may form under this configuration: the
    /// SLO controller's [`SloConfig::max_batch`] cap when one is active,
    /// [`ServeConfig::max_batch`] otherwise.
    #[must_use]
    pub fn effective_max_batch(&self) -> usize {
        match &self.slo {
            Some(slo) => slo.max_batch.max(1),
            None => self.max_batch.max(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation_names_the_violated_constraint() {
        let bad = ServeConfig {
            shards: 0,
            ..ServeConfig::default()
        };
        assert!(bad.validate().unwrap_err().to_string().contains("shard"));
        let bad = ServeConfig {
            max_batch: 0,
            ..ServeConfig::default()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("max_batch"));
        for oversized in [usize::MAX, 100_000_000_000] {
            let bad = ServeConfig {
                max_batch: oversized,
                ..ServeConfig::default()
            };
            let message = bad.validate().unwrap_err().to_string();
            assert!(
                message.contains("max_batch") && message.contains("4096"),
                "got: {message}"
            );
        }
        let edge = ServeConfig {
            max_batch: 4096,
            ..ServeConfig::default()
        };
        assert!(edge.validate().is_ok());
        let bad = ServeConfig {
            queue_depth: 0,
            ..ServeConfig::default()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("queue_depth"));
        let bad = ServeConfig {
            flush_deadline: Time::from_ns(f64::NAN),
            ..ServeConfig::default()
        };
        assert!(bad.validate().is_err());
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn oversized_flush_deadlines_are_rejected_with_the_reason() {
        let bad = ServeConfig {
            flush_deadline: Time::from_ns(1e18),
            ..ServeConfig::default()
        };
        let message = bad.validate().unwrap_err().to_string();
        assert!(message.contains("2^53"), "got: {message}");
        let bad = ServeConfig {
            flush_deadline: Time::from_ns(f64::INFINITY),
            ..ServeConfig::default()
        };
        assert!(bad.validate().is_err());
        // The largest exactly-representable deadline passes.
        let edge = ServeConfig {
            flush_deadline: Time::from_ns(9_007_199_254_740_992.0),
            ..ServeConfig::default()
        };
        assert!(edge.validate().is_ok());
    }

    #[test]
    fn slo_validation_names_the_violated_constraint() {
        let bad = ServeConfig {
            slo: Some(SloConfig {
                target_queue_wait: Time::from_ns(0.0),
                ..SloConfig::default()
            }),
            ..ServeConfig::default()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("target_queue_wait"));
        let bad = ServeConfig {
            slo: Some(SloConfig {
                min_batch: 0,
                ..SloConfig::default()
            }),
            ..ServeConfig::default()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("slo.min_batch"));
        let bad = ServeConfig {
            slo: Some(SloConfig {
                min_batch: 8,
                max_batch: 4,
                ..SloConfig::default()
            }),
            ..ServeConfig::default()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("slo.max_batch"));
        for oversized in [usize::MAX, 100_000_000_000] {
            let bad = ServeConfig {
                slo: Some(SloConfig {
                    max_batch: oversized,
                    ..SloConfig::default()
                }),
                ..ServeConfig::default()
            };
            let message = bad.validate().unwrap_err().to_string();
            assert!(
                message.contains("slo.max_batch") && message.contains("4096"),
                "got: {message}"
            );
        }
        let edge = ServeConfig {
            slo: Some(SloConfig {
                max_batch: 4096,
                ..SloConfig::default()
            }),
            ..ServeConfig::default()
        };
        assert!(edge.validate().is_ok());
        let good = ServeConfig {
            slo: Some(SloConfig::default()),
            ..ServeConfig::default()
        };
        assert!(good.validate().is_ok());
        // The controller's cap, not the fixed bound, is the effective one.
        assert_eq!(good.effective_max_batch(), SloConfig::default().max_batch);
        assert_eq!(
            ServeConfig::default().effective_max_batch(),
            ServeConfig::default().max_batch
        );
    }
}
