//! Deterministic open-loop soak harness.
//!
//! Closed-loop benchmarks (clients that wait for a response before
//! submitting again) self-throttle: when the server slows down, the
//! offered load slows down with it, which hides queueing collapse. This
//! module generates *open-loop* traffic instead — arrivals follow a
//! seeded stochastic schedule on the **simulated** clock, independent of
//! how fast the server drains them — and drives it through
//! [`Server::submit_at`]. The same `(seed, config)` pair always produces
//! the same arrival timestamps, the same request kinds, and the same
//! priority lanes, so soak results are reproducible bit-for-bit across
//! hosts and thread schedules.
//!
//! Each request kind in the mix goes to its own workload group, so the
//! harness offers each kind from a submitter thread of its own, fed in
//! schedule order by the generator through a bounded channel: a group
//! sees its arrivals in schedule order, and the batches it closes run on
//! its submitter, beside the other groups'.
//!
//! The harness never waits on responses (the [`Pending`](crate::Pending)
//! handles are dropped on admission and drained by
//! [`Server::shutdown`]); its own tallies count *offered* traffic, and
//! the server's [`MetricsSnapshot`](crate::MetricsSnapshot) counts what
//! was admitted, served, and dropped. Under the open-loop accounting
//! contract, `offered == admitted + dropped` exactly.

use lightator_core::platform::ImageKernel;
use lightator_sensor::frame::RgbFrame;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{self, Receiver};

use crate::error::{Result, ServeError};
use crate::request::{Priority, Request};
use crate::server::Server;

/// Nanoseconds per second, as the float used for rate conversions.
const NS_PER_SEC: f64 = 1e9;
/// Arrivals each submitter's channel holds: enough to keep a submitter
/// busy while the generator runs ahead, few enough that the frames they
/// carry stay a small part of a soak's memory.
const SUBMIT_BOUND: usize = 64;

/// One offered request: what, on which lane, arriving when (ns).
type Arrival = (Request, Priority, u64);

/// The stochastic process generating inter-arrival gaps on the simulated
/// clock. Both variants sample exponential gaps from a seeded generator,
/// so the schedule is a deterministic function of the soak seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate: gaps are
    /// exponentially distributed with mean `1 / mean_qps` seconds.
    Poisson {
        /// Mean offered load, requests per simulated second.
        mean_qps: f64,
    },
    /// Square-wave load: every `cycle` requests, the first `burst_len`
    /// arrive at `burst_qps` and the remainder at `calm_qps` (each phase
    /// still sampling exponential gaps). Models diurnal or flash-crowd
    /// traffic without losing determinism.
    Bursty {
        /// Offered load outside bursts, requests per simulated second.
        calm_qps: f64,
        /// Offered load inside bursts, requests per simulated second.
        burst_qps: f64,
        /// Requests per calm+burst cycle.
        cycle: u64,
        /// Requests at `burst_qps` at the start of each cycle
        /// (`burst_len <= cycle`).
        burst_len: u64,
    },
}

impl ArrivalProcess {
    /// The mean rate in effect for request number `index` (0-based).
    fn rate_qps(&self, index: u64) -> f64 {
        match *self {
            ArrivalProcess::Poisson { mean_qps } => mean_qps,
            ArrivalProcess::Bursty {
                calm_qps,
                burst_qps,
                cycle,
                burst_len,
            } => {
                if index % cycle.max(1) < burst_len {
                    burst_qps
                } else {
                    calm_qps
                }
            }
        }
    }

    /// Samples the simulated-time gap (ns) before request `index`.
    /// Exponential via inversion: `-ln(1 - u) / rate`, with `u` in
    /// `[0, 1)` so the argument of `ln` never reaches zero. Gaps are
    /// rounded up to at least 1 ns so arrival timestamps are strictly
    /// increasing.
    fn next_gap_ns(&self, index: u64, rng: &mut SmallRng) -> u64 {
        let rate = self.rate_qps(index);
        let u: f64 = rng.gen();
        let gap_s = -(1.0 - u).ln() / rate;
        ((gap_s * NS_PER_SEC).ceil() as u64).max(1)
    }

    /// Validates the process parameters.
    fn validate(&self) -> Result<()> {
        let bad = |reason: String| ServeError::InvalidConfig { reason };
        match *self {
            ArrivalProcess::Poisson { mean_qps } => {
                if !mean_qps.is_finite() || mean_qps <= 0.0 {
                    return Err(bad(format!(
                        "arrival mean_qps must be finite and positive, got {mean_qps}"
                    )));
                }
            }
            ArrivalProcess::Bursty {
                calm_qps,
                burst_qps,
                cycle,
                burst_len,
            } => {
                for (name, qps) in [("calm_qps", calm_qps), ("burst_qps", burst_qps)] {
                    if !qps.is_finite() || qps <= 0.0 {
                        return Err(bad(format!(
                            "arrival {name} must be finite and positive, got {qps}"
                        )));
                    }
                }
                if cycle == 0 || burst_len > cycle {
                    return Err(bad(format!(
                        "arrival cycle must be >= 1 and burst_len <= cycle, \
                         got cycle {cycle}, burst_len {burst_len}"
                    )));
                }
            }
        }
        Ok(())
    }
}

/// Relative weights of the request kinds in the offered traffic, plus the
/// interactive-lane share. Weights need not sum to one; an arm with
/// weight `0.0` is never offered (so its workload need not be registered
/// on the server).
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficMix {
    /// Weight of [`Request::Classify`] traffic.
    pub classify: f64,
    /// Weight of [`Request::Acquire`] traffic.
    pub acquire: f64,
    /// Weight of [`Request::ImageKernel`] traffic (using
    /// [`TrafficMix::kernel_filter`]).
    pub kernel: f64,
    /// Weight of [`Request::VideoStream`] traffic (using
    /// [`TrafficMix::kernel_filter`], [`TrafficMix::stream_frames`]
    /// frames per stream).
    pub stream: f64,
    /// The filter for the kernel and stream arms; a matching workload
    /// must be registered when either weight is positive.
    pub kernel_filter: ImageKernel,
    /// Frames per video-stream request.
    pub stream_frames: usize,
    /// Probability in `[0, 1]` that a request rides the
    /// [`Priority::Interactive`] lane; the rest are [`Priority::Batch`].
    pub interactive_fraction: f64,
}

impl Default for TrafficMix {
    /// Pure interactive classify traffic.
    fn default() -> Self {
        TrafficMix {
            classify: 1.0,
            acquire: 0.0,
            kernel: 0.0,
            stream: 0.0,
            kernel_filter: ImageKernel::SobelX,
            stream_frames: 4,
            interactive_fraction: 1.0,
        }
    }
}

impl TrafficMix {
    /// Validates the weights and lane fraction.
    fn validate(&self) -> Result<()> {
        let bad = |reason: String| ServeError::InvalidConfig { reason };
        for (name, weight) in [
            ("classify", self.classify),
            ("acquire", self.acquire),
            ("kernel", self.kernel),
            ("stream", self.stream),
        ] {
            if !weight.is_finite() || weight < 0.0 {
                return Err(bad(format!(
                    "traffic-mix weight {name} must be finite and >= 0, got {weight}"
                )));
            }
        }
        if self.classify + self.acquire + self.kernel + self.stream <= 0.0 {
            return Err(bad(
                "traffic mix must have at least one positive weight".to_string()
            ));
        }
        if self.stream > 0.0 && self.stream_frames == 0 {
            return Err(bad("stream traffic requires stream_frames >= 1".to_string()));
        }
        if !self.interactive_fraction.is_finite()
            || !(0.0..=1.0).contains(&self.interactive_fraction)
        {
            return Err(bad(format!(
                "interactive_fraction must be in [0, 1], got {}",
                self.interactive_fraction
            )));
        }
        Ok(())
    }

    /// The weights of the four request kinds (classify, acquire, kernel,
    /// stream), in sampling order; a kind's index here is its arm.
    fn weights(&self) -> [f64; 4] {
        [self.classify, self.acquire, self.kernel, self.stream]
    }

    /// Samples one offered request and the arm that made it. A draw that
    /// rounding carries past every weight goes to the last positive arm.
    fn sample_request(&self, frames: &FramePool, rng: &mut SmallRng) -> (usize, Request) {
        let weights = self.weights();
        let mut draw = rng.gen::<f64>() * weights.iter().sum::<f64>();
        let last = weights.iter().rposition(|&w| w > 0.0).unwrap_or(3);
        let arm = weights
            .iter()
            .position(|&w| {
                draw -= w;
                draw < 0.0
            })
            .unwrap_or(last);
        (arm, self.request(arm, || frames.next(rng)))
    }

    /// Arm `arm`'s request on frames from `frame`: one frame, or
    /// [`TrafficMix::stream_frames`] frames for a stream.
    fn request(&self, arm: usize, mut frame: impl FnMut() -> RgbFrame) -> Request {
        match arm {
            0 => Request::Classify { frame: frame() },
            1 => Request::Acquire { frame: frame() },
            2 => Request::ImageKernel {
                kernel: self.kernel_filter,
                frame: frame(),
            },
            _ => Request::VideoStream {
                kernel: self.kernel_filter,
                frames: (0..self.stream_frames).map(|_| frame()).collect(),
            },
        }
    }

    /// Samples the scheduling lane for one offered request.
    fn sample_priority(&self, rng: &mut SmallRng) -> Priority {
        if rng.gen_bool(self.interactive_fraction) {
            Priority::Interactive
        } else {
            Priority::Batch
        }
    }
}

/// One soak run: how much traffic to offer, shaped how.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakConfig {
    /// Seed for the whole run — schedule, mix, and lane draws all derive
    /// from it, so equal seeds give bit-identical offered traffic.
    pub seed: u64,
    /// Total requests to offer.
    pub requests: u64,
    /// Sensor width of the generated frames (must match the platform).
    pub width: usize,
    /// Sensor height of the generated frames (must match the platform).
    pub height: usize,
    /// Distinct pre-generated frames cycled through the traffic; a small
    /// pool keeps a multi-million-request soak allocation-light.
    pub frame_pool: usize,
    /// The inter-arrival process on the simulated clock.
    pub arrivals: ArrivalProcess,
    /// Request-kind and priority-lane composition.
    pub mix: TrafficMix,
}

impl Default for SoakConfig {
    /// 10k interactive classify requests at 1M sim-QPS on an 8x8 sensor.
    fn default() -> Self {
        SoakConfig {
            seed: 7,
            requests: 10_000,
            width: 8,
            height: 8,
            frame_pool: 64,
            arrivals: ArrivalProcess::Poisson { mean_qps: 1e6 },
            mix: TrafficMix::default(),
        }
    }
}

impl SoakConfig {
    /// Validates the run parameters.
    fn validate(&self) -> Result<()> {
        let bad = |reason: String| ServeError::InvalidConfig { reason };
        if self.requests == 0 {
            return Err(bad("soak requests must be >= 1".to_string()));
        }
        if self.width == 0 || self.height == 0 {
            return Err(bad(format!(
                "soak sensor must be non-empty, got {}x{}",
                self.width, self.height
            )));
        }
        if self.frame_pool == 0 {
            return Err(bad("soak frame_pool must be >= 1".to_string()));
        }
        self.arrivals.validate()?;
        self.mix.validate()
    }
}

/// A small cycle of pre-generated scenes shared by all offered requests.
struct FramePool {
    frames: Vec<RgbFrame>,
}

impl FramePool {
    /// Generates `count` uniformly random `height` × `width` frames from
    /// `seed`.
    fn new(count: usize, height: usize, width: usize, seed: u64) -> Result<Self> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let frames = (0..count)
            .map(|_| {
                let data: Vec<f64> = (0..height * width * 3).map(|_| rng.gen()).collect();
                RgbFrame::new(height, width, data).map_err(|err| ServeError::Core(err.into()))
            })
            .collect::<Result<_>>()?;
        Ok(FramePool { frames })
    }

    /// A uniformly chosen frame (cheap clone; frames share no state).
    fn next(&self, rng: &mut SmallRng) -> RgbFrame {
        self.frames[rng.gen_range(0..self.frames.len())].clone()
    }
}

/// What the harness offered and what the server did with it, in the
/// harness's own tallies (the authoritative server-side view is the
/// [`MetricsSnapshot`](crate::MetricsSnapshot) from
/// [`Server::shutdown`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SoakOutcome {
    /// Requests offered on the interactive lane.
    pub offered_interactive: u64,
    /// Requests offered on the batch lane.
    pub offered_batch: u64,
    /// Interactive requests the server admitted.
    pub admitted_interactive: u64,
    /// Batch requests the server admitted.
    pub admitted_batch: u64,
    /// Interactive requests dropped with `Overloaded` at their arrival
    /// time.
    pub dropped_interactive: u64,
    /// Batch requests dropped with `Overloaded` at their arrival time.
    pub dropped_batch: u64,
    /// Simulated timestamp (ns) of the last offered arrival.
    pub last_arrival_ns: u64,
}

impl SoakOutcome {
    /// Total requests offered.
    #[must_use]
    pub fn offered(&self) -> u64 {
        self.offered_interactive + self.offered_batch
    }

    /// Total requests admitted.
    #[must_use]
    pub fn admitted(&self) -> u64 {
        self.admitted_interactive + self.admitted_batch
    }

    /// Total requests dropped.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped_interactive + self.dropped_batch
    }

    /// Dropped / offered, in `[0, 1]`.
    #[must_use]
    pub fn drop_rate(&self) -> f64 {
        if self.offered() == 0 {
            0.0
        } else {
            self.dropped() as f64 / self.offered() as f64
        }
    }

    /// Mean offered load over the generated schedule, requests per
    /// simulated second.
    #[must_use]
    pub fn offered_qps(&self) -> f64 {
        if self.last_arrival_ns == 0 {
            0.0
        } else {
            self.offered() as f64 * NS_PER_SEC / self.last_arrival_ns as f64
        }
    }
}

/// Generates the seeded arrival schedule and offers it to `server`
/// open-loop via [`Server::submit_at`], each request kind from a scoped
/// submitter thread of its own (see the module docs). Returns the harness
/// tallies; call [`Server::shutdown`] afterwards for the server-side
/// metrics (queue-wait quantiles, per-lane admitted/rejected, throughput).
///
/// The run upholds `offered == admitted + dropped` exactly: every
/// request is counted once, at its simulated arrival time.
///
/// # Errors
///
/// [`ServeError::InvalidConfig`] for malformed soak parameters, and — with
/// nothing offered — [`ServeError::UnknownWorkload`] or
/// [`ServeError::InvalidRequest`] when the mix offers a kind the server
/// does not serve or cannot take. Any other non-`Overloaded` submission
/// error ends the run and is returned — `Overloaded` is accounting, not
/// failure.
pub fn run_soak(server: &Server, config: &SoakConfig) -> Result<SoakOutcome> {
    config.validate()?;
    let frames = FramePool::new(
        config.frame_pool,
        config.height,
        config.width,
        config.seed ^ 0x5F0A_6B3D_9E1C_2487,
    )?;
    let arms = config.mix.weights().map(|weight| weight > 0.0);
    for arm in (0..arms.len()).filter(|&arm| arms[arm]) {
        server.check(&config.mix.request(arm, || frames.frames[0].clone()))?;
    }
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut outcome = SoakOutcome::default();
    let mut arrival_ns: u64 = 0;
    let tallies = std::thread::scope(|scope| {
        let (senders, submitters): (Vec<_>, Vec<_>) = arms
            .iter()
            .map(|&offered| {
                if !offered {
                    return (None, None);
                }
                let (sender, arrivals) = mpsc::sync_channel(SUBMIT_BOUND);
                (Some(sender), Some(scope.spawn(|| offer(server, arrivals))))
            })
            .unzip();
        for index in 0..config.requests {
            arrival_ns = arrival_ns.saturating_add(config.arrivals.next_gap_ns(index, &mut rng));
            let (arm, request) = config.mix.sample_request(&frames, &mut rng);
            let priority = config.mix.sample_priority(&mut rng);
            match priority {
                Priority::Interactive => outcome.offered_interactive += 1,
                Priority::Batch => outcome.offered_batch += 1,
            }
            let sent = senders[arm]
                .as_ref()
                .is_some_and(|sender| sender.send((request, priority, arrival_ns)).is_ok());
            if !sent {
                // The arm's submitter stopped at an error it returns below.
                break;
            }
        }
        drop(senders);
        submitters
            .into_iter()
            .flatten()
            .map(|submitter| {
                submitter
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect::<Vec<_>>()
    });
    for tally in tallies {
        let tally = tally?;
        outcome.admitted_interactive += tally.admitted_interactive;
        outcome.admitted_batch += tally.admitted_batch;
        outcome.dropped_interactive += tally.dropped_interactive;
        outcome.dropped_batch += tally.dropped_batch;
    }
    outcome.last_arrival_ns = arrival_ns;
    Ok(outcome)
}

/// Offers one request kind's arrivals to `server` in schedule order and
/// tallies what it admitted and dropped. The batches each admission
/// closes run on this thread.
fn offer(server: &Server, arrivals: Receiver<Arrival>) -> Result<SoakOutcome> {
    let mut tally = SoakOutcome::default();
    for (request, priority, arrival_ns) in arrivals {
        match server.submit_at(request, priority, arrival_ns) {
            Ok(_pending) => match priority {
                // Dropped handle: shutdown() runs what is still queued.
                Priority::Interactive => tally.admitted_interactive += 1,
                Priority::Batch => tally.admitted_batch += 1,
            },
            Err(ServeError::Overloaded { .. }) => match priority {
                Priority::Interactive => tally.dropped_interactive += 1,
                Priority::Batch => tally.dropped_batch += 1,
            },
            Err(err) => return Err(err),
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MAX_STREAM_FRAMES;
    use lightator_core::ca::CaConfig;
    use lightator_core::platform::{Platform, Workload};
    use lightator_nn::layers::{Flatten, Linear};
    use lightator_nn::model::Sequential;
    use lightator_photonics::noise::NoiseConfig;

    /// The schedule a config generates, without a server.
    fn schedule(config: &SoakConfig) -> Vec<(u64, String, Priority)> {
        let frames = FramePool::new(config.frame_pool, config.height, config.width, config.seed)
            .expect("test soak configs have a non-empty sensor");
        let mut rng = SmallRng::seed_from_u64(config.seed);
        let mut arrival = 0u64;
        (0..config.requests)
            .map(|index| {
                arrival += config.arrivals.next_gap_ns(index, &mut rng);
                let (_, request) = config.mix.sample_request(&frames, &mut rng);
                let priority = config.mix.sample_priority(&mut rng);
                (arrival, request.label(), priority)
            })
            .collect()
    }

    #[test]
    fn equal_seeds_generate_identical_schedules() {
        let config = SoakConfig {
            requests: 500,
            mix: TrafficMix {
                classify: 0.4,
                acquire: 0.4,
                kernel: 0.1,
                stream: 0.1,
                interactive_fraction: 0.5,
                ..TrafficMix::default()
            },
            ..SoakConfig::default()
        };
        let first = schedule(&config);
        let second = schedule(&config);
        assert_eq!(first, second, "same seed must replay the same traffic");
        let shifted = schedule(&SoakConfig {
            seed: config.seed + 1,
            ..config.clone()
        });
        assert_ne!(first, shifted, "a different seed must move the schedule");
        let mut kinds: Vec<&str> = first.iter().map(|(_, label, _)| label.as_str()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert!(kinds.len() >= 3, "the mix should offer several kinds");
        assert!(
            first.windows(2).all(|w| w[0].0 < w[1].0),
            "arrival timestamps must be strictly increasing"
        );
    }

    #[test]
    fn bursty_arrivals_run_hotter_inside_the_burst() {
        let process = ArrivalProcess::Bursty {
            calm_qps: 1e3,
            burst_qps: 1e6,
            cycle: 100,
            burst_len: 50,
        };
        let mut rng = SmallRng::seed_from_u64(11);
        let (mut burst_total, mut calm_total) = (0u64, 0u64);
        for index in 0..10_000u64 {
            let gap = process.next_gap_ns(index, &mut rng);
            if index % 100 < 50 {
                burst_total += gap;
            } else {
                calm_total += gap;
            }
        }
        assert!(
            calm_total > 100 * burst_total,
            "calm gaps ({calm_total} ns) must dwarf burst gaps ({burst_total} ns)"
        );
    }

    #[test]
    fn malformed_soak_configs_are_rejected_with_the_reason() {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .compressive_acquisition(CaConfig::default())
            .noise(NoiseConfig::ideal())
            .build()
            .expect("platform");
        let server = Server::builder(platform)
            .workload(Workload::Acquire)
            .build()
            .expect("server");
        for (config, needle) in [
            (
                SoakConfig {
                    requests: 0,
                    ..SoakConfig::default()
                },
                "requests",
            ),
            (
                SoakConfig {
                    arrivals: ArrivalProcess::Poisson { mean_qps: 0.0 },
                    ..SoakConfig::default()
                },
                "mean_qps",
            ),
            (
                SoakConfig {
                    arrivals: ArrivalProcess::Bursty {
                        calm_qps: 1.0,
                        burst_qps: 2.0,
                        cycle: 4,
                        burst_len: 9,
                    },
                    ..SoakConfig::default()
                },
                "burst_len",
            ),
            (
                SoakConfig {
                    mix: TrafficMix {
                        classify: 0.0,
                        ..TrafficMix::default()
                    },
                    ..SoakConfig::default()
                },
                "positive weight",
            ),
            (
                SoakConfig {
                    mix: TrafficMix {
                        interactive_fraction: 1.5,
                        ..TrafficMix::default()
                    },
                    ..SoakConfig::default()
                },
                "interactive_fraction",
            ),
        ] {
            let err = run_soak(&server, &config).expect_err("config must be rejected");
            let text = err.to_string();
            assert!(
                text.contains(needle),
                "error for {needle} must name the constraint, got: {text}"
            );
        }
        drop(server.shutdown());
    }

    #[test]
    fn a_mix_the_server_cannot_serve_is_rejected_before_anything_is_offered() {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .noise(NoiseConfig::ideal())
            .build()
            .expect("platform");
        // Acquire is served; a kernel arm has no group, and a stream arm's
        // streams are longer than a server admits.
        let unroutable = TrafficMix {
            classify: 0.0,
            acquire: 1.0,
            kernel: 1.0,
            ..TrafficMix::default()
        };
        let oversized = TrafficMix {
            classify: 0.0,
            acquire: 1.0,
            stream: 1.0,
            stream_frames: MAX_STREAM_FRAMES + 1,
            ..TrafficMix::default()
        };
        let soak = |mix: TrafficMix| {
            let server = Server::builder(platform.clone())
                .workload(Workload::Acquire)
                .build()
                .expect("server");
            let config = SoakConfig {
                mix,
                ..SoakConfig::default()
            };
            let err = run_soak(&server, &config).expect_err("the mix cannot be served");
            let snapshot = server.shutdown();
            assert_eq!(snapshot.admitted(), 0, "nothing was offered before {err}");
            assert_eq!(snapshot.rejected, 0, "nothing was offered before {err}");
            err
        };
        assert_eq!(
            soak(unroutable),
            ServeError::UnknownWorkload {
                label: "kernel:sobel-x".into()
            }
        );
        assert!(matches!(soak(oversized), ServeError::InvalidRequest { .. }));
    }

    #[test]
    fn open_loop_accounting_matches_the_server_exactly() {
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .compressive_acquisition(CaConfig::default())
            .noise(NoiseConfig::ideal())
            .build()
            .expect("platform");
        // A tiny queue under a hot schedule forces genuine drops.
        let server = Server::builder(platform)
            .shards(2)
            .max_batch(2)
            .queue_depth(2)
            .workload(Workload::Acquire)
            .build()
            .expect("server");
        let config = SoakConfig {
            requests: 400,
            arrivals: ArrivalProcess::Poisson { mean_qps: 5e7 },
            mix: TrafficMix {
                classify: 0.0,
                acquire: 1.0,
                interactive_fraction: 0.75,
                ..TrafficMix::default()
            },
            ..SoakConfig::default()
        };
        let outcome = run_soak(&server, &config).expect("soak");
        let snapshot = server.shutdown();
        assert_eq!(outcome.offered(), config.requests);
        assert_eq!(
            outcome.offered(),
            outcome.admitted() + outcome.dropped(),
            "open-loop accounting must be exact"
        );
        assert_eq!(outcome.admitted_interactive, snapshot.admitted_interactive);
        assert_eq!(outcome.admitted_batch, snapshot.admitted_batch);
        assert_eq!(outcome.dropped_interactive, snapshot.rejected_interactive);
        assert_eq!(outcome.dropped_batch, snapshot.rejected_batch);
        assert_eq!(snapshot.completed, outcome.admitted());
        assert!(
            (outcome.drop_rate() - snapshot.drop_rate()).abs() < 1e-12,
            "both sides must agree on the drop rate"
        );
        assert!(outcome.offered_qps() > 0.0);
    }

    /// Every counter a snapshot reports, in a fixed order.
    fn counters(snapshot: &crate::MetricsSnapshot) -> Vec<u64> {
        let mut counters = vec![
            snapshot.completed,
            snapshot.admitted_interactive,
            snapshot.admitted_batch,
            snapshot.rejected_interactive,
            snapshot.rejected_batch,
            snapshot.errored,
            snapshot.served_frames,
            snapshot.stream_frames,
            snapshot.stream_blocks_total,
            snapshot.stream_blocks_skipped,
            snapshot.plan_hits,
        ];
        for shard in &snapshot.shards {
            counters.extend([shard.batches, shard.frames, shard.plan_hits]);
            counters.extend(&shard.batch_sizes);
        }
        counters
    }

    #[test]
    fn snapshots_taken_while_groups_serve_never_count_more_than_was_admitted() {
        use lightator_core::stream::StreamConfig;
        use std::sync::atomic::{AtomicBool, Ordering};
        const REQUESTS: u64 = 16_000;
        let platform = Platform::builder()
            .sensor_resolution(8, 8)
            .build()
            .expect("platform");
        // One shard per group and a queue that never drops; the arrivals
        // outpace the chips, so requests wait in the queues as well.
        let server = Server::builder(platform)
            .shards(1)
            .queue_depth(REQUESTS as usize)
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
        let config = SoakConfig {
            requests: REQUESTS,
            frame_pool: 32,
            arrivals: ArrivalProcess::Poisson { mean_qps: 1e7 },
            mix: TrafficMix {
                classify: 0.0,
                acquire: 0.8,
                stream: 0.2,
                stream_frames: 4,
                interactive_fraction: 0.7,
                ..TrafficMix::default()
            },
            ..SoakConfig::default()
        };
        // The watcher checks what every interleaving must keep, so it polls
        // as fast as it can while both submitters serve.
        let soaking = AtomicBool::new(true);
        let (outcome, snapshots) = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut previous = counters(&server.metrics());
                let mut snapshots = 1u64;
                while soaking.load(Ordering::Relaxed) {
                    let snapshot = server.metrics();
                    let counted = snapshot.completed + snapshot.errored + snapshot.queued as u64;
                    assert!(
                        counted <= snapshot.admitted(),
                        "snapshot {snapshots} counts {counted} requests completed, errored or \
                         queued but only {} admitted",
                        snapshot.admitted()
                    );
                    let now = counters(&snapshot);
                    assert!(
                        now.iter().zip(&previous).all(|(now, before)| now >= before),
                        "a counter fell in snapshot {snapshots}: {previous:?} -> {now:?}"
                    );
                    previous = now;
                    snapshots += 1;
                }
                snapshots
            });
            let outcome = run_soak(&server, &config);
            soaking.store(false, Ordering::Relaxed);
            let snapshots = watcher
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (outcome.expect("soak"), snapshots)
        });
        assert!(snapshots > 1, "the watcher polled while the groups served");
        assert_eq!(outcome.dropped(), 0);
        let last = server.shutdown();
        assert_eq!(last.completed + last.errored, outcome.admitted());
    }

    #[test]
    fn non_square_soaks_serve_frames_of_the_sensor_resolution() {
        let pool = FramePool::new(3, 8, 16, 1).expect("pool");
        for frame in &pool.frames {
            assert_eq!((frame.height(), frame.width()), (8, 16));
        }
        let platform = Platform::builder()
            .sensor_resolution(8, 16)
            .compressive_acquisition(CaConfig::default())
            .noise(NoiseConfig::ideal())
            .build()
            .expect("platform");
        // The classifier takes the [1, 4, 8] map the 8x16 sensor acquires
        // to, so a transposed frame (a [1, 8, 4] map) would fail it.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = Sequential::new(&[1, 4, 8]);
        model.push(Flatten::new());
        model.push(Linear::new(32, 3, &mut rng).expect("linear"));
        let server = Server::builder(platform)
            .workload(Workload::Classify { model })
            .workload(Workload::Acquire)
            .workload(Workload::ImageKernel {
                kernel: ImageKernel::SobelX,
            })
            .build()
            .expect("server");
        let config = SoakConfig {
            requests: 200,
            height: 8,
            width: 16,
            mix: TrafficMix {
                classify: 1.0,
                acquire: 1.0,
                kernel: 1.0,
                ..TrafficMix::default()
            },
            ..SoakConfig::default()
        };
        let outcome = run_soak(&server, &config).expect("soak");
        let snapshot = server.shutdown();
        assert_eq!(snapshot.errored, 0, "every served frame matches the sensor");
        assert_eq!(snapshot.completed, outcome.admitted());
        assert!(snapshot.completed > 0);
    }
}
