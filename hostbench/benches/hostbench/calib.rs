//! Host-speed calibration.
//!
//! On a shared virtual machine the same code runs up to ~1.5x slower while
//! a neighbour loads the physical core, and such phases come and go within
//! seconds, so raw host times of one commit spread by tens of percent from
//! run to run. Every timed unit of work is therefore bracketed by a fixed,
//! benchmark-owned reference slice, and host times are reported at a
//! nominal host speed: `time * nominal_ns / reference_ns`, where
//! `reference_ns` is the mean of the slices right before and after the
//! work. References share no code with the simulator, so speeding up the
//! simulator never speeds up the reference. Each run reports the median raw
//! speed it saw as `host.speed` (1 = nominal), so raw times can be
//! recovered.

use std::hint::black_box;
use std::time::Instant;

/// Elements of the memory reference's buffers: 256 KiB each, the size of a
/// 64x64 RGB scene in `f64`.
const MEMORY_ELEMENTS: usize = 32 * 1024;

/// What a reference slice exercises; a workload is calibrated by the
/// resource its frames are bound by, because neighbours contend for the
/// execution units and for the caches in different phases.
#[derive(Debug, Clone, Copy)]
pub enum Reference {
    /// A 128-bit multiply counter hash, a Box–Muller transform and a
    /// multiply–add: the instruction mix of the noisy MAC.
    Compute,
    /// A 256 KiB copy and a max-abs-difference scan over it: the access
    /// pattern of the video stream's state copy and temporal gate.
    Memory,
}

impl Reference {
    /// One slice on an uncontended core of the host the baselines were
    /// taken on (2-vCPU KVM Intel Xeon), in ns.
    fn nominal_ns(self) -> f64 {
        match self {
            Reference::Compute => 40_000.0,
            Reference::Memory => 30_000.0,
        }
    }
}

/// Reusable buffers of the memory reference (one pair per thread; empty
/// for the compute reference, so they never count towards `peak_rss_mib`).
struct Buffers {
    source: Vec<f64>,
    copy: Vec<f64>,
}

impl Buffers {
    fn new(reference: Reference) -> Self {
        let elements = match reference {
            Reference::Compute => 0,
            Reference::Memory => MEMORY_ELEMENTS,
        };
        Self {
            source: (0..elements).map(|i| i as f64 * 0.5).collect(),
            copy: vec![0.0; elements],
        }
    }
}

/// Times one reference slice, in ns.
fn slice_ns(reference: Reference, buffers: &mut Buffers) -> f64 {
    let start = Instant::now();
    match reference {
        Reference::Compute => {
            let mut state = black_box(0x243F_6A88_85A3_08D3u64);
            let mut acc = 0.0f64;
            for i in 0..1_500u64 {
                let product = u128::from(state ^ i) * 0xD2B7_4407_B1CE_6E93u128;
                state = ((product >> 64) as u64) ^ (product as u64);
                let u1 = ((state >> 11) as f64 + 1.0) / (1u64 << 53) as f64;
                let u2 = (state & 0x1F_FFFF) as f64 / (1u64 << 21) as f64;
                let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
                acc = acc.mul_add(0.5, normal);
            }
            black_box(acc);
        }
        Reference::Memory => {
            buffers.copy.copy_from_slice(black_box(&buffers.source));
            let delta = buffers
                .source
                .iter()
                .zip(&buffers.copy)
                .fold(0.0f64, |m, (a, b)| m.max((a - b).abs()));
            black_box(delta);
        }
    }
    start.elapsed().as_nanos() as f64
}

/// Brackets timed work with reference slices.
pub struct Calibration {
    reference: Reference,
    /// One buffer pair per thread that runs each slice at once: work
    /// spread over several cores is slowed by contention on any of them.
    buffers: Vec<Buffers>,
    /// The slice measured right after the previous unit of work.
    before: f64,
    slices: Vec<f64>,
}

impl Calibration {
    /// Calibrates work that runs on the calling thread.
    pub fn new(reference: Reference) -> Self {
        Self::across(reference, 1)
    }

    /// Calibrates work that keeps `threads` cores busy: each slice runs on
    /// that many threads at once and their mean is the reference.
    pub fn across(reference: Reference, threads: usize) -> Self {
        let mut cal = Self {
            reference,
            buffers: (0..threads.max(1))
                .map(|_| Buffers::new(reference))
                .collect(),
            before: 0.0,
            slices: Vec::new(),
        };
        cal.restart();
        cal
    }

    fn slice(&mut self) -> f64 {
        let reference = self.reference;
        if let [only] = self.buffers.as_mut_slice() {
            return slice_ns(reference, only);
        }
        let threads = self.buffers.len() as f64;
        let total: f64 = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .buffers
                .iter_mut()
                .map(|buffers| scope.spawn(move || slice_ns(reference, buffers)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a reference slice never panics"))
                .sum()
        });
        total / threads
    }

    /// Call right after a unit of work: the factor converting its host time
    /// to nominal-speed time. The slice taken here also opens the next unit.
    pub fn factor(&mut self) -> f64 {
        let after = self.slice();
        self.slices.push(after);
        let reference = 0.5 * (self.before + after);
        self.before = after;
        self.reference.nominal_ns() / reference
    }

    /// Starts a new unit without attributing the time since the last slice
    /// (after untimed work such as output checks).
    pub fn restart(&mut self) {
        self.before = self.slice();
        self.slices.push(self.before);
    }

    /// Median raw host speed over the run relative to nominal (below 1 =
    /// slower than the reference host's uncontended core).
    pub fn speed(&self) -> f64 {
        self.reference.nominal_ns() / crate::record::median(&self.slices)
    }
}
