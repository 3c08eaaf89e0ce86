//! Optical multiply-and-accumulate arm.
//!
//! An arm is the fundamental compute primitive of the Lightator optical core
//! (paper Fig. 5): a bus waveguide carrying one WDM channel per activation,
//! a micro-ring per channel holding a weight, and a balanced photodetector
//! that sums the weighted channels. One arm therefore evaluates one dot
//! product of up to `channels` elements per optical cycle.
//!
//! Signed weights are realised the standard way for incoherent photonics: the
//! magnitude is programmed into the MR and the drop port of negatively
//! weighted channels is routed to the negative diode of the balanced
//! detector, so the electrical output is `Σ aᵢ·wᵢ` with `wᵢ ∈ [−1, 1]`.
//!
//! Noise draws are keyed, not streamed: the arm keeps a **MAC cursor** that
//! counts the MACs evaluated since [`OpticalArm::begin_frame`], one per
//! [`OpticalArm::mac`] call and one per segment of an
//! [`OpticalArm::mac_row`] row, and every intensity and detection draw is a
//! pure function of `(seed, frame, cursor, slot)`
//! ([`crate::noise::CounterRng::mac_normal`]). Repositioning the cursor with
//! [`OpticalArm::set_mac_cursor`] therefore reproduces — or skips ahead in —
//! the noise sequence exactly, which is what lets callers tile MAC loops
//! across threads bit-exactly.
//!
//! What a MAC reads of a programmed ring does not change while the ring
//! holds its weight, so programming a row turns it into [`Lane`] constants
//! once, and every MAC of the row reads those. A row wider than the arm is
//! spread over several arms whose partial sums the summation tree adds
//! (paper Figs. 5–6); a [`LoadedRow`] holds the lanes of each such
//! arm-sized segment, and [`OpticalArm::mac_row`] runs the whole row
//! through one kernel call, segment `s` at MAC cursor `c + s`.
//! [`OpticalArm::mac`] is the one-segment case, on the arm's own rings.
//!
//! A ring's weight error does not change while it holds its weight either:
//! the first MAC of a row in a frame draws each ring's realised transmission
//! once, keyed by the row's [`RowId`] and the ring's weight index
//! ([`crate::noise::CounterRng::weight_normal`]), and keeps it in the row
//! for every later MAC of that frame. A MAC then draws only its packed
//! intensity and detection slots: 5 blocks for a full 9-lane MAC.
//!
//! Every kernel call draws one dense window of what it runs: a row's
//! realisation draws every ring pair of the row, and a row's MACs draw
//! every block of their MACs, each window one loop over contiguous Philox
//! counters and one Box–Muller batch written straight into the slots the
//! combine reads. Blocks no lane reads (parked rings, dark channels) are
//! computed and dropped; every draw is a pure function of its key, so that
//! moves no bit.

use crate::error::{PhotonicsError, Result};
use crate::microring::{MicroringConfig, MicroringResonator, Notch};
use crate::noise::{
    mac_blocks, normal_pairs, offset, offset_unit, realised, CounterRng, NoiseConfig,
    NoiseInjector, RowId,
};
use crate::wdm::{CrosstalkModel, WdmGrid};
use serde::{Deserialize, Serialize};

/// Configuration of an optical MAC arm.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmConfig {
    /// Number of MRs (and hence WDM channels / MAC elements) in the arm.
    /// Lightator uses 9 to natively fit a 3×3 kernel stride.
    pub channels: usize,
    /// Ring design shared by all MRs of the arm.
    pub ring: MicroringConfig,
    /// Noise / non-ideality configuration.
    pub noise: NoiseConfig,
}

impl Default for ArmConfig {
    fn default() -> Self {
        Self {
            channels: 9,
            ring: MicroringConfig::default(),
            noise: NoiseConfig::default(),
        }
    }
}

/// The result of evaluating one dot product on an arm.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ArmOutput {
    /// The analog MAC value, `Σ aᵢ·wᵢ`, after non-idealities.
    pub value: f64,
    /// The ideal (noise-free, crosstalk-free) MAC value for the same inputs.
    pub ideal: f64,
}

impl ArmOutput {
    /// Absolute analog error introduced by the photonic datapath.
    #[must_use]
    pub fn error(&self) -> f64 {
        (self.value - self.ideal).abs()
    }
}

/// The constants one MAC reads of a programmed lane, a ring that holds a
/// non-zero weight. They stay fixed while the ring holds its weight, so a
/// weight-stationary loop builds them once per row, not once per MAC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Lane {
    /// The lane's channel in the arm.
    pub channel: usize,
    /// The ring's programmed channel transmission, with no weight error,
    /// negated when the weight is negative: the sign selects the balanced
    /// detector's rail.
    pub transmission: f64,
    /// The product of the parasitic transmissions the arm's other rings
    /// impose on this channel (1.0 without crosstalk).
    pub crosstalk: f64,
}

/// A programmed row: the [`Lane`] constants of each of its arm-sized
/// segments, in segment order, and the transmissions its rings realise in
/// the current frame. Segment `s` covers channels
/// `s·channels..(s + 1)·channels` of the row, on an arm of `channels`
/// rings, so lane `i` of segment `s` is the row's ring `s·channels + i`.
///
/// Only an arm builds one, from rings it programmed
/// ([`OpticalArm::push_loaded`]) or from transmissions it checked
/// ([`OpticalArm::push_segment`]), so every segment holds at most one lane
/// per channel, in channel order, and every row is one
/// [`OpticalArm::mac_row`] can run. The row's first MAC in a frame draws
/// its realised transmissions; a changed row draws them again.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadedRow {
    /// The row these rings hold, which keys their weight errors.
    id: RowId,
    lanes: Vec<Lane>,
    /// Segment `s` holds `lanes[ends[s - 1]..ends[s]]` (from 0 for `s = 0`).
    ends: Vec<usize>,
    /// The signed transmission each lane's ring realises, as
    /// [`crate::noise::NoiseInjector::realise_weight`] computes it.
    realised: Vec<f64>,
    /// The noise stream and weight sigma `realised` was drawn with; `None`
    /// until the first MAC after the row changed.
    realised_in: Option<(CounterRng, f64)>,
}

impl LoadedRow {
    /// An empty row, with no segment, keyed as row 0 of layer 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes every segment, keeping the buffers, and keys the rings of
    /// the segments pushed next as row `id`.
    pub fn reset(&mut self, id: RowId) {
        self.id = id;
        self.lanes.clear();
        self.ends.clear();
        self.realised_in = None;
    }

    /// Number of segments: the MAC cursors one [`OpticalArm::mac_row`]
    /// call takes.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.ends.len()
    }

    /// Closes the segment whose lanes were just appended.
    fn end_segment(&mut self) {
        self.ends.push(self.lanes.len());
        self.realised_in = None;
    }
}

/// Reusable buffers of the row realisation and the MAC kernel: one
/// window of contiguous blocks, their Philox words and their slots, where
/// block `b`'s normal pair lands at slots `2b` and `2b + 1`. A window is
/// every ring pair of a row, or every block of a row's MACs. A wider row
/// grows the buffers on its first MAC.
#[derive(Debug, Clone, Default)]
struct Draws {
    blocks: Vec<[u64; 2]>,
    slots: Vec<[f64; 2]>,
}

impl Draws {
    /// The words and slots of a window of `blocks` blocks.
    fn window(&mut self, blocks: usize) -> (&mut [[u64; 2]], &mut [[f64; 2]]) {
        if self.blocks.len() < blocks {
            self.blocks.resize(blocks, [0; 2]);
            self.slots.resize(blocks, [0.0; 2]);
        }
        (&mut self.blocks[..blocks], &mut self.slots[..blocks])
    }

    /// The MAC window of `segments` MACs from cursor `cursor` on an arm of
    /// `channels` rings, drawn from `injector`'s frame as its sigmas ask;
    /// returns its slots. MAC `s` owns slots `2s·⌈(channels + 1)/2⌉`
    /// onwards, and its slot `i` is
    /// [`CounterRng::mac_normal`]`(cursor + s, channels, i)`, so the window
    /// is the MAC stream's blocks from `cursor·⌈(channels + 1)/2⌉` on:
    /// contiguous counters.
    ///
    /// While the VCSEL sigma is non-zero every block is computed, those of
    /// parked rings and dark channels too: no key depends on which blocks
    /// were computed, so the ones no lane reads are dropped without moving
    /// a bit. While only the detector draws, only each MAC's detection
    /// block is computed, in place. With neither, nothing is drawn, and the
    /// slots hold what the last window left, which a zero sigma ignores.
    fn macs(
        &mut self,
        injector: &NoiseInjector,
        (cursor, channels): (u64, usize),
        segments: usize,
    ) -> &[f64] {
        let (rng, noise) = (injector.rng(), injector.config());
        let per_mac = mac_blocks(channels);
        let first = cursor.wrapping_mul(per_mac as u64);
        let (blocks, slots) = self.window(segments * per_mac);
        if noise.vcsel_relative_sigma != 0.0 {
            // 1. Philox over the window's counters; 2. Box–Muller over the
            //    window, straight into the slots.
            rng.mac_window(first, blocks);
            normal_pairs(slots.iter_mut().zip(&*blocks));
        } else if noise.detector_relative_sigma != 0.0 {
            // The detector is slot `channels`, in block `channels / 2`.
            let detection = channels / 2;
            for b in (detection..blocks.len()).step_by(per_mac) {
                blocks[b] = rng.mac_block(first.wrapping_add(b as u64));
            }
            normal_pairs(
                slots
                    .iter_mut()
                    .zip(&*blocks)
                    .skip(detection)
                    .step_by(per_mac),
            );
        }
        slots.as_flattened()
    }

    /// The ring window of `rings` rings of row `id` from its ring
    /// `first_ring`: every ring pair they touch, from the pair of ring
    /// `first_ring & !1`. Returns its slots: slot `k` is
    /// [`CounterRng::weight_normal`]`(id, (first_ring & !1) + k)`.
    fn rings(&mut self, rng: &CounterRng, id: RowId, first_ring: u64, rings: usize) -> &[f64] {
        let odd = (first_ring & 1) as usize;
        let (blocks, slots) = self.window((odd + rings).div_ceil(2));
        rng.weight_window(id, first_ring / 2, blocks);
        normal_pairs(slots.iter_mut().zip(&*blocks));
        slots.as_flattened()
    }
}

/// An optical MAC arm: per-channel MRs plus a balanced photodetector.
///
/// ```
/// use lightator_photonics::arm::{ArmConfig, OpticalArm};
///
/// # fn main() -> Result<(), lightator_photonics::PhotonicsError> {
/// let mut arm = OpticalArm::new(ArmConfig::default())?;
/// arm.load_weights(&[0.5, -0.25, 0.0, 1.0, -1.0, 0.125, 0.75, -0.5, 0.25])?;
/// arm.begin_frame(1, 0);
/// let out = arm.mac(&[1.0, 0.5, 0.25, 0.0, 1.0, 0.5, 0.25, 0.0, 1.0])?;
/// assert!(out.error() < 0.1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct OpticalArm {
    config: ArmConfig,
    grid: WdmGrid,
    rings: Vec<MicroringResonator>,
    /// The ring design's off-resonance transmission: the largest weight
    /// magnitude a ring can realise.
    max_transmission: f64,
    weights: Vec<f64>,
    /// The arm's own rings as a one-segment row: the lane constants of the
    /// rings holding a non-zero weight, in channel order, rebuilt by
    /// [`OpticalArm::load_segment`].
    own: LoadedRow,
    /// The segment of `own`'s row that the arm's rings hold.
    segment: u64,
    crosstalk: CrosstalkModel,
    injector: NoiseInjector,
    mac_cursor: u64,
    draws: Draws,
}

impl OpticalArm {
    /// Creates an arm with all weights initialised to zero, positioned on
    /// the `(seed 0, frame 0)` noise stream.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] if the configuration is
    /// invalid (zero channels, a bad ring design or a noise sigma that is
    /// not finite and non-negative).
    pub fn new(config: ArmConfig) -> Result<Self> {
        if config.channels == 0 {
            return Err(PhotonicsError::InvalidParameter {
                name: "channels",
                value: 0.0,
            });
        }
        config.ring.validate()?;
        config.noise.validate()?;
        let grid = WdmGrid::lightator_arm(config.channels)?;
        // Every ring shares one design, so its notch constants are computed
        // once here rather than per ring.
        let notch = Notch::new(&config.ring);
        let rings = grid
            .iter()
            .map(|channel| MicroringResonator::parked(config.ring, notch, channel))
            .collect();
        let crosstalk = if config.noise.apply_crosstalk {
            CrosstalkModel::new(grid.clone(), config.ring)
        } else {
            CrosstalkModel::ideal(grid.clone(), config.ring)
        };
        let injector = NoiseInjector::new(config.noise);
        let channels = config.channels;
        Ok(Self {
            config,
            grid,
            rings,
            max_transmission: notch.t_max,
            weights: vec![0.0; channels],
            own: LoadedRow::new(),
            segment: 0,
            crosstalk,
            injector,
            mac_cursor: 0,
            draws: Draws::default(),
        })
    }

    /// The arm configuration.
    #[must_use]
    pub fn config(&self) -> &ArmConfig {
        &self.config
    }

    /// Repositions the arm's noise stream on `(seed, frame)` and rewinds the
    /// MAC cursor to zero. MR weights stay loaded; the next MAC realises
    /// them in the new frame. Every subsequent draw is a pure function of
    /// `(seed, frame)` and its key: a MAC slot at the MAC cursor, or a ring.
    pub fn begin_frame(&mut self, seed: u64, frame: u64) {
        self.injector.begin_frame(seed, frame);
        self.mac_cursor = 0;
    }

    /// The number of MACs evaluated since the last
    /// [`OpticalArm::begin_frame`] (or [`OpticalArm::set_mac_cursor`]): one
    /// per [`OpticalArm::mac`] call, one per segment of an
    /// [`OpticalArm::mac_row`] row.
    #[must_use]
    pub fn mac_cursor(&self) -> u64 {
        self.mac_cursor
    }

    /// Repositions the MAC cursor within the current frame's noise stream.
    ///
    /// Because draws are keyed rather than streamed, setting the cursor to
    /// `n` makes the next [`OpticalArm::mac`] call reproduce exactly the
    /// draws of the `n`-th call after [`OpticalArm::begin_frame`] — the
    /// hook parallel tilings use to evaluate disjoint cursor ranges on
    /// cloned arms while matching the sequential bits.
    pub fn set_mac_cursor(&mut self, cursor: u64) {
        self.mac_cursor = cursor;
    }

    /// Number of MAC elements the arm evaluates per cycle.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.config.channels
    }

    /// The WDM grid assigned to this arm.
    #[must_use]
    pub fn grid(&self) -> &WdmGrid {
        &self.grid
    }

    /// The currently loaded signed weights.
    #[must_use]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The lane constants of the loaded rings that hold a non-zero weight,
    /// in channel order: what [`OpticalArm::mac`] reads.
    #[must_use]
    pub fn lanes(&self) -> &[Lane] {
        &self.own.lanes
    }

    /// Loads a vector of signed weights in `[-1, 1]` onto the arm's MRs.
    ///
    /// Shorter vectors leave the remaining rings parked (weight 0, no tuning
    /// power), matching how partially filled arms behave for 5×5 / 7×7
    /// kernels (paper Fig. 6). Each ring that holds a weight becomes one of
    /// the arm's [`OpticalArm::lanes`]. The rings are keyed as segment 0 of
    /// row 0 of layer 0 ([`OpticalArm::load_segment`]).
    ///
    /// # Errors
    ///
    /// As [`OpticalArm::load_segment`].
    pub fn load_weights(&mut self, weights: &[f64]) -> Result<()> {
        self.load_segment(RowId::default(), 0, weights)
    }

    /// Loads `weights` as segment `segment` of row `row`: ring `i` of the
    /// arm holds the row's weight `segment·channels + i`, the index that
    /// keys its weight error, as when a bank spreads a long row over
    /// several arms (paper Fig. 6).
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::LengthMismatch`] if more weights than channels are
    ///   supplied.
    /// * [`PhotonicsError::WeightOutOfRange`] if a weight is outside
    ///   `[-1, 1]` or not finite.
    pub fn load_segment(&mut self, row: RowId, segment: u64, weights: &[f64]) -> Result<()> {
        if weights.len() > self.config.channels {
            return Err(PhotonicsError::LengthMismatch {
                expected: self.config.channels,
                actual: weights.len(),
            });
        }
        for &w in weights {
            if !w.is_finite() || !(-1.0..=1.0).contains(&w) {
                return Err(PhotonicsError::WeightOutOfRange { weight: w });
            }
        }
        let crosstalk = self.crosstalk.factors()?;
        self.own.reset(row);
        self.segment = segment;
        for (i, ring) in self.rings.iter_mut().enumerate() {
            let w = weights.get(i).copied().unwrap_or(0.0);
            self.weights[i] = w;
            if w == 0.0 {
                ring.park();
            } else {
                // The MR holds the magnitude; the sign selects the BPD rail.
                // Weight 1.0 maps to the maximum representable transmission.
                let magnitude = w.abs().min(self.max_transmission);
                ring.set_weight(magnitude)?;
                let transmission = ring.channel_transmission();
                self.own.lanes.push(Lane {
                    channel: i,
                    transmission: if w < 0.0 { -transmission } else { transmission },
                    crosstalk: crosstalk[i],
                });
            }
        }
        self.own.end_segment();
        Ok(())
    }

    /// Appends the loaded rings' lanes ([`OpticalArm::lanes`]) to `row` as
    /// its next segment.
    pub fn push_loaded(&self, row: &mut LoadedRow) {
        row.lanes.extend_from_slice(&self.own.lanes);
        row.end_segment();
    }

    /// Appends a segment to `row`, from the signed programmed transmission
    /// of each of its channels in channel order, as [`Lane::transmission`]
    /// holds it; `0.0` marks a parked ring, which adds no lane. This is how
    /// a caller that keeps the transmissions its rings are tuned to
    /// programs a row without tuning a ring: [`OpticalArm::load_weights`]
    /// and [`OpticalArm::push_loaded`] build the same lanes.
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::LengthMismatch`] for more transmissions than
    ///   channels.
    /// * [`PhotonicsError::WeightOutOfRange`] for a NaN transmission, the
    ///   mark of a weight no ring can hold.
    ///
    /// `row` is left as it was on error.
    pub fn push_segment(
        &self,
        row: &mut LoadedRow,
        transmissions: impl IntoIterator<Item = f64>,
    ) -> Result<()> {
        let start = row.lanes.len();
        if let Err(err) = self.push_lanes(transmissions, &mut row.lanes) {
            row.lanes.truncate(start);
            return Err(err);
        }
        row.end_segment();
        Ok(())
    }

    /// [`OpticalArm::push_segment`]'s lanes, appended to `lanes`.
    fn push_lanes(
        &self,
        transmissions: impl IntoIterator<Item = f64>,
        lanes: &mut Vec<Lane>,
    ) -> Result<()> {
        let crosstalk = self.crosstalk.factors()?;
        for (channel, transmission) in transmissions.into_iter().enumerate() {
            let Some(&crosstalk) = crosstalk.get(channel) else {
                return Err(PhotonicsError::LengthMismatch {
                    expected: self.config.channels,
                    actual: channel + 1,
                });
            };
            if transmission.is_nan() {
                return Err(PhotonicsError::WeightOutOfRange {
                    weight: transmission,
                });
            }
            if transmission != 0.0 {
                lanes.push(Lane {
                    channel,
                    transmission,
                    crosstalk,
                });
            }
        }
        Ok(())
    }

    /// Evaluates one MAC: `Σ aᵢ·wᵢ` for activations `a ∈ [0, 1]`.
    ///
    /// The activation vector may be shorter than the arm; missing channels
    /// are dark: they draw no noise and contribute nothing. Non-idealities
    /// (VCSEL noise, crosstalk, weight error, detection noise) are applied
    /// according to the arm's [`NoiseConfig`]. The rings' realised
    /// transmissions are drawn once per frame, at the first MAC after
    /// [`OpticalArm::begin_frame`] or a load, keyed by the rings' row and
    /// weight indices ([`OpticalArm::load_segment`]). Each MAC draws its
    /// packed slots at the MAC cursor `c`: slot `i` is channel `i`'s
    /// intensity and slot `channels` the balanced detector
    /// ([`crate::noise::CounterRng::mac_normal`]). The cursor advances by one
    /// per call.
    ///
    /// A MAC runs in three array-shaped phases:
    ///
    /// 1. the Philox words of every block of the MAC, those of parked rings
    ///    and dark channels too, while the VCSEL sigma is non-zero; only
    ///    the detection block while only the detector's sigma is;
    /// 2. the Box–Muller transform of those blocks in one batch, whose
    ///    iterations are independent, so the CPU overlaps the blocks'
    ///    `ln` → `√` chains;
    /// 3. the combine of the live lanes, those with a non-zero weight and
    ///    an activation, in lane order — VCSEL offset and clamp, crosstalk,
    ///    the ring's realised transmission, the rail of the weight's sign —
    ///    then balanced detection.
    ///
    /// This is bit-identical to evaluating one lane at a time. A draw is a
    /// pure function of its key, so computing it earlier, or computing one
    /// nothing reads, changes nothing; every value goes through the same
    /// IEEE-754 operations; and both rails still sum their products in lane
    /// order.
    ///
    /// It is the one-segment case of [`OpticalArm::mac_row`]'s kernel, run
    /// on the arm's own lanes after this call checks its activations and
    /// sums the ideal dot product.
    ///
    /// # Errors
    ///
    /// * [`PhotonicsError::LengthMismatch`] if more activations than channels
    ///   are supplied.
    /// * [`PhotonicsError::ActivationOutOfRange`] if an activation is
    ///   outside `[0, 1]` or not finite (activations are unsigned light
    ///   intensities).
    pub fn mac(&mut self, activations: &[f64]) -> Result<ArmOutput> {
        if activations.len() > self.config.channels {
            return Err(PhotonicsError::LengthMismatch {
                expected: self.config.channels,
                actual: activations.len(),
            });
        }
        for &a in activations {
            if !a.is_finite() || !(0.0..=1.0).contains(&a) {
                return Err(PhotonicsError::ActivationOutOfRange { activation: a });
            }
        }

        let ideal: f64 = activations
            .iter()
            .chain(std::iter::repeat(&0.0))
            .zip(&self.weights)
            .map(|(a, w)| a * w)
            .sum();
        let value = run_row(
            &mut self.draws,
            &self.injector,
            (self.mac_cursor, self.config.channels),
            (self.segment, &mut self.own),
            activations,
        );
        self.mac_cursor = self.mac_cursor.wrapping_add(1);
        Ok(ArmOutput { value, ideal })
    }

    /// Evaluates `Σ aᵢ·wᵢ` against `row` instead of the arm's own rings:
    /// segment `s` is the analog value of [`OpticalArm::mac`] at cursor
    /// `c + s`, on an arm whose rings hold that segment's lanes as segment
    /// `s` of the row ([`OpticalArm::load_segment`]), fed activations
    /// `s·channels..(s + 1)·channels`, and the segments' values are summed
    /// in segment order, as the bank's summation tree adds its arms'
    /// partial sums. The cursor advances by the row's segment count.
    ///
    /// The row's first MAC in a frame draws its realised transmissions, one
    /// window of every ring pair of the row, and keeps them in `row`. The
    /// whole row is then one batch of the three phases: the Philox words of
    /// the row's MAC window, blocks `c·⌈(n + 1)/2⌉` up to
    /// `(c + S)·⌈(n + 1)/2⌉` of the MAC stream for `S` segments on an arm
    /// of `n` rings, in one loop over those contiguous counters; the
    /// Box–Muller transform over the window, straight into the slots; and
    /// the combine, segment by segment in lane order. Every value goes
    /// through the same IEEE-754 operations, in the same order, as one
    /// [`OpticalArm::mac`] per segment.
    ///
    /// It is the kernel alone, with no checks and no ideal sum: a
    /// weight-stationary caller checks its activations once per layer, not
    /// once per MAC. `activations` should lie in `[0, 1]`; channels past
    /// their end are dark, and a segment with none draws only its detection
    /// noise. `row` should come from an arm of this one's channel count.
    ///
    /// # Panics
    ///
    /// May panic if `row` holds a lane on a channel this arm does not have
    /// (a row loaded on an arm with more channels).
    pub fn mac_row(&mut self, row: &mut LoadedRow, activations: &[f64]) -> f64 {
        let value = run_row(
            &mut self.draws,
            &self.injector,
            (self.mac_cursor, self.config.channels),
            (0, row),
            activations,
        );
        self.mac_cursor = self.mac_cursor.wrapping_add(row.ends.len() as u64);
        value
    }

    /// Number of rings currently holding a non-zero weight.
    #[must_use]
    pub fn active_rings(&self) -> usize {
        self.weights.iter().filter(|w| **w != 0.0).count()
    }
}

/// Runs `row`, whose first segment is segment `first` of its row, from MAC
/// cursor `cursor` on an arm of `channels` rings: realises its weights in
/// the injector's frame and weight sigma unless it already holds those,
/// then runs [`mac_kernel`].
fn run_row(
    draws: &mut Draws,
    injector: &NoiseInjector,
    (cursor, channels): (u64, usize),
    (first, row): (u64, &mut LoadedRow),
    activations: &[f64],
) -> f64 {
    let drawn_with = (*injector.rng(), injector.config().weight_sigma);
    if row.realised_in != Some(drawn_with) {
        realise(draws, drawn_with, channels, first, row);
    }
    mac_kernel(draws, injector, cursor, channels, row, activations)
}

/// Draws the transmission each of `row`'s rings realises in `rng`'s frame
/// with weight sigma `sigma`, `clamp(|t| + sigma·z, 0, 1)` signed as `t`,
/// from one ring window ([`Draws::rings`]). Lane `i` of segment `s` is the
/// row's ring `(first + s)·channels + i`, and rings `2p` and `2p + 1` share
/// the row's block `p`. A zero sigma draws nothing.
fn realise(
    draws: &mut Draws,
    (rng, sigma): (CounterRng, f64),
    channels: usize,
    first: u64,
    row: &mut LoadedRow,
) {
    let LoadedRow {
        id,
        lanes,
        ends,
        realised: weights,
        realised_in,
    } = row;
    weights.clear();
    *realised_in = Some((rng, sigma));
    if sigma == 0.0 {
        weights.extend(
            lanes
                .iter()
                .map(|lane| realised(lane.transmission, 0.0, 0.0)),
        );
        return;
    }
    let first_ring = first.wrapping_mul(channels as u64);
    let slots = draws.rings(&rng, *id, first_ring, ends.len() * channels);
    // The window starts at the pair of the row's first ring.
    let z = &slots[(first_ring & 1) as usize..];
    let mut start = 0;
    for (&end, z) in ends.iter().zip(z.chunks(channels)) {
        weights.extend(
            lanes[start..end]
                .iter()
                .map(|lane| realised(lane.transmission, sigma, z[lane.channel])),
        );
        start = end;
    }
}

/// The MAC kernel behind [`OpticalArm::mac`] and [`OpticalArm::mac_row`]:
/// the three phases over a row's segments, `lanes[ends[s - 1]..ends[s]]`
/// at MAC cursor `cursor + s`, for in-range activations and the row's
/// realised transmissions. Lanes at or past the end of their segment's
/// activations are dark.
fn mac_kernel(
    draws: &mut Draws,
    injector: &NoiseInjector,
    cursor: u64,
    channels: usize,
    row: &LoadedRow,
    activations: &[f64],
) -> f64 {
    let noise = injector.config();
    let LoadedRow {
        lanes,
        ends,
        realised,
        ..
    } = row;
    // 1–2. The Philox words and normals of the row's MAC window.
    let slots = draws.macs(injector, (cursor, channels), ends.len());
    // Segment s's activations; none past the end of the row's.
    let lit = activations
        .chunks(channels)
        .chain(std::iter::repeat(&[][..]));
    // 3. Per segment, per live lane in lane order: VCSEL amplitude noise,
    //    inter-channel crosstalk along the shared bus, then weighting by
    //    the ring's realised transmission, routed to the positive or
    //    negative BPD rail by its sign. Then the segment's balanced
    //    detection plus detector-referred noise, and the segments summed in
    //    order. A slot left undrawn is read only with a zero sigma, which
    //    `offset` ignores.
    let mut total = 0.0;
    let mut start = 0;
    for ((&end, lit), z) in ends
        .iter()
        .zip(lit)
        .zip(slots.chunks_exact(2 * mac_blocks(channels)))
    {
        let mut positive = 0.0;
        let mut negative = 0.0;
        let live = lanes[start..end]
            .iter()
            .zip(&realised[start..end])
            .take_while(|(lane, _)| lane.channel < lit.len());
        for (lane, &weight) in live {
            let light = offset_unit(
                lit[lane.channel],
                noise.vcsel_relative_sigma,
                z[lane.channel],
            );
            let product = light * lane.crosstalk * weight.abs();
            if weight.is_sign_negative() {
                negative += product;
            } else {
                positive += product;
            }
        }
        total += offset(
            positive - negative,
            noise.detector_relative_sigma,
            z[channels],
        );
        start = end;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::noise::CounterRng;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn ideal_arm() -> OpticalArm {
        OpticalArm::new(ArmConfig {
            noise: NoiseConfig::ideal(),
            ..ArmConfig::default()
        })
        .expect("valid")
    }

    /// The per-slot MAC, the bit-exact reference of the kernel: each lit
    /// lane that holds a weight, one at a time in channel order, perturbs
    /// its intensity with its own slot's draw, realises its ring with the
    /// ring's own draw (the arm's rings are segment `segment` of row `id`),
    /// crosses the bus and lands on its rail; then the detector adds its
    /// slot's draw. Every draw goes through a public keyed call
    /// ([`NoiseInjector::perturb_lane`], [`NoiseInjector::realise_weight`],
    /// [`NoiseInjector::perturb_detection`]). Inputs must be in range.
    fn reference_mac(arm: &mut OpticalArm, activations: &[f64]) -> ArmOutput {
        let ideal: f64 = activations
            .iter()
            .chain(std::iter::repeat(&0.0))
            .zip(&arm.weights)
            .map(|(a, w)| a * w)
            .sum();
        let (cursor, channels) = (arm.mac_cursor, arm.config.channels);
        let first_ring = arm.segment.wrapping_mul(channels as u64);
        let crosstalk = arm.crosstalk.factors().expect("well-formed grid");
        let mut positive = 0.0;
        let mut negative = 0.0;
        for (i, &a) in activations.iter().enumerate() {
            let w = arm.weights[i];
            if w == 0.0 {
                continue;
            }
            let light = arm.injector.perturb_lane(cursor, channels, i, a);
            let realised = arm.injector.realise_weight(
                arm.own.id,
                first_ring.wrapping_add(i as u64),
                arm.rings[i].channel_transmission(),
            );
            let product = light * crosstalk[i] * realised;
            if w >= 0.0 {
                positive += product;
            } else {
                negative += product;
            }
        }
        let value = arm
            .injector
            .perturb_detection(cursor, channels, positive - negative);
        arm.mac_cursor = arm.mac_cursor.wrapping_add(1);
        ArmOutput { value, ideal }
    }

    /// One unloaded arm per checked channel count and noise setting. The
    /// settings switch each source on alone as well as together, and
    /// `scaled(50.0)` pushes intensities and transmissions past `[0, 1]`,
    /// so both clamps fire.
    fn reference_arms() -> Vec<OpticalArm> {
        let default = NoiseConfig::default();
        let ideal = NoiseConfig::ideal();
        let settings = [
            default,
            ideal,
            NoiseConfig {
                vcsel_relative_sigma: default.vcsel_relative_sigma,
                ..ideal
            },
            NoiseConfig {
                weight_sigma: default.weight_sigma,
                ..ideal
            },
            NoiseConfig {
                detector_relative_sigma: default.detector_relative_sigma,
                ..ideal
            },
            NoiseConfig {
                apply_crosstalk: true,
                ..ideal
            },
            default.scaled(50.0),
        ];
        [1, 2, 4, 9, 16, 25]
            .into_iter()
            .flat_map(|channels| {
                settings.map(|noise| {
                    OpticalArm::new(ArmConfig {
                        channels,
                        noise,
                        ..ArmConfig::default()
                    })
                    .expect("valid")
                })
            })
            .collect()
    }

    /// Loads `weights` on a copy of `arm` and checks `macs` consecutive
    /// MACs from `cursor` on `(seed, frame)` against [`reference_mac`], bit
    /// for bit.
    fn assert_matches_reference(
        arm: &OpticalArm,
        weights: &[f64],
        activations: &[f64],
        (seed, frame, cursor): (u64, u64, u64),
        macs: u64,
    ) {
        let mut kernel = arm.clone();
        kernel.load_weights(weights).expect("weights in range");
        kernel.begin_frame(seed, frame);
        kernel.set_mac_cursor(cursor);
        let mut reference = kernel.clone();
        for call in 0..macs {
            let got = kernel.mac(activations).expect("activations in range");
            let want = reference_mac(&mut reference, activations);
            assert_eq!(
                (got.value.to_bits(), got.ideal.to_bits()),
                (want.value.to_bits(), want.ideal.to_bits()),
                "{} lanes, {:?}, cursor {cursor} + {call}: {got:?} vs {want:?}",
                arm.channels(),
                arm.config().noise
            );
        }
        assert_eq!(kernel.mac_cursor(), reference.mac_cursor());
    }

    /// A weight from a sampled `(value, tag)` pair: a quarter of them are
    /// parked (zero) and an eighth full scale.
    fn weight((w, tag): (f64, u8)) -> f64 {
        match tag {
            0 | 1 => 0.0,
            2 => w.signum(),
            _ => w,
        }
    }

    /// An activation from a sampled `(value, tag)` pair, with dark (both
    /// zeros) and full-scale lanes.
    fn activation((a, tag): (f64, u8)) -> f64 {
        match tag {
            0 => 0.0,
            1 => -0.0,
            2 => 1.0,
            _ => a,
        }
    }

    proptest! {
        /// The three-phase kernel reproduces the per-slot reference bit for
        /// bit on every checked channel count and noise setting, with zero
        /// and negative weights, rows and activations shorter than the arm,
        /// and cursors near `u64::MAX`, where the slot keys and the cursor
        /// wrap. The name keeps the `mac_matches` prefix CI's filter runs.
        #[test]
        fn mac_matches_the_per_lane_reference(
            row in proptest::collection::vec((-1.0f64..=1.0, 0u8..8), 0..=25),
            lanes in proptest::collection::vec((0.0f64..=1.0, 0u8..8), 0..=25),
            key in (0u64..u64::MAX, 0u64..1 << 40, 0u64..1 << 20),
            wraps in proptest::bool::ANY,
        ) {
            let weights: Vec<f64> = row.into_iter().map(weight).collect();
            let activations: Vec<f64> = lanes.into_iter().map(activation).collect();
            let (seed, frame, cursor) = key;
            let cursor = if wraps { u64::MAX - cursor % 4 } else { cursor };
            for arm in &reference_arms() {
                let n = arm.channels();
                assert_matches_reference(
                    arm,
                    &weights[..weights.len().min(n)],
                    &activations[..activations.len().min(n)],
                    (seed, frame, cursor),
                    4,
                );
            }
        }
    }

    /// [`mac_matches_the_per_lane_reference`] over 10⁶ random MACs: 250,000
    /// rows of 4 MACs each, spread over every arm of [`reference_arms`].
    /// Run it in release:
    ///
    /// ```text
    /// cargo test --release -p lightator-photonics --lib -- --ignored arm::tests::mac_matches
    /// ```
    #[test]
    #[ignore = "10^6 MACs; run in release"]
    fn mac_matches_the_per_lane_reference_over_a_million_macs() {
        let arms = reference_arms();
        let mut rng = SmallRng::seed_from_u64(21);
        for row in 0..250_000 {
            let arm = &arms[row % arms.len()];
            let n = arm.channels();
            let weights: Vec<f64> = (0..rng.gen_range(0..=n))
                .map(|_| weight((rng.gen_range(-1.0..=1.0), rng.gen_range(0..8))))
                .collect();
            let activations: Vec<f64> = (0..rng.gen_range(0..=n))
                .map(|_| activation((rng.gen_range(0.0..=1.0), rng.gen_range(0..8))))
                .collect();
            let cursor = if rng.gen_bool(0.5) {
                u64::MAX - rng.gen_range(0..4)
            } else {
                rng.gen_range(0..1 << 40)
            };
            let key = (rng.gen(), rng.gen_range(0..1 << 40), cursor);
            assert_matches_reference(arm, &weights, &activations, key, 4);
        }
    }

    /// Loads `weights` as a row of arm-sized segments on a copy of `arm`,
    /// keyed as a row named by the seed and frame, and checks one
    /// [`OpticalArm::mac_row`] from `cursor` on `(seed, frame)` against
    /// [`reference_mac`] run per segment, segment `s` loaded as segment `s`
    /// of that row and run at cursor `cursor + s`, summed in segment order,
    /// bit for bit. The kernel's cursor must end advanced by the segment
    /// count.
    fn assert_row_matches_reference(
        arm: &OpticalArm,
        weights: &[f64],
        activations: &[f64],
        (seed, frame, cursor): (u64, u64, u64),
    ) {
        let n = arm.channels();
        let id = RowId {
            layer: frame % 5,
            row: seed >> 54,
        };
        let mut kernel = arm.clone();
        let mut row = LoadedRow::new();
        row.reset(id);
        for segment in weights.chunks(n) {
            kernel.load_weights(segment).expect("weights in range");
            kernel.push_loaded(&mut row);
        }
        kernel.begin_frame(seed, frame);
        kernel.set_mac_cursor(cursor);
        let got = kernel.mac_row(&mut row, activations);

        let mut reference = arm.clone();
        reference.begin_frame(seed, frame);
        let lit = activations.chunks(n).chain(std::iter::repeat(&[][..]));
        let mut want = 0.0;
        for ((s, segment), lit) in (0u64..).zip(weights.chunks(n)).zip(lit) {
            reference
                .load_segment(id, s, segment)
                .expect("weights in range");
            reference.set_mac_cursor(cursor.wrapping_add(s));
            want += reference_mac(&mut reference, lit).value;
        }
        let segments = weights.len().div_ceil(n);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{n} lanes, {:?}, {} weights, {} activations, cursor {cursor}: {got} vs {want}",
            arm.config().noise,
            weights.len(),
            activations.len()
        );
        assert_eq!(row.segments(), segments);
        assert_eq!(kernel.mac_cursor(), cursor.wrapping_add(segments as u64));
    }

    proptest! {
        /// One kernel call per row reproduces the per-slot reference run
        /// once per segment, on every checked channel count and noise
        /// setting: multi-segment rows with parked rings, activations that
        /// stop short so whole segments are dark, and cursors near
        /// `u64::MAX`, where the segment cursors and slot keys wrap.
        #[test]
        fn mac_row_matches_the_per_segment_reference(
            row in proptest::collection::vec((-1.0f64..=1.0, 0u8..8), 1..=60),
            lanes in proptest::collection::vec((0.0f64..=1.0, 0u8..8), 0..=60),
            key in (0u64..u64::MAX, 0u64..1 << 40, 0u64..64),
        ) {
            let weights: Vec<f64> = row.into_iter().map(weight).collect();
            let lit = lanes.len() % (weights.len() + 1);
            let activations: Vec<f64> = lanes.into_iter().take(lit).map(activation).collect();
            let (seed, frame, back) = key;
            for arm in &reference_arms() {
                assert_row_matches_reference(
                    arm,
                    &weights,
                    &activations,
                    (seed, frame, u64::MAX - back),
                );
            }
        }
    }

    /// [`mac_row_matches_the_per_segment_reference`] over 10⁶ random rows
    /// of 1–60 weights, spread over every arm of [`reference_arms`]. Run it
    /// in release:
    ///
    /// ```text
    /// cargo test --release -p lightator-photonics --lib -- --ignored arm::tests::mac_matches
    /// ```
    #[test]
    #[ignore = "10^6 rows; run in release"]
    fn mac_matches_the_per_segment_reference_over_a_million_rows() {
        let arms = reference_arms();
        let mut rng = SmallRng::seed_from_u64(31);
        for row in 0..1_000_000 {
            let arm = &arms[row % arms.len()];
            let weights: Vec<f64> = (0..rng.gen_range(1..=60))
                .map(|_| weight((rng.gen_range(-1.0..=1.0), rng.gen_range(0..8))))
                .collect();
            let activations: Vec<f64> = (0..rng.gen_range(0..=weights.len()))
                .map(|_| activation((rng.gen_range(0.0..=1.0), rng.gen_range(0..8))))
                .collect();
            let cursor = if rng.gen_bool(0.5) {
                u64::MAX - rng.gen_range(0..64)
            } else {
                rng.gen_range(0..1 << 40)
            };
            let key = (rng.gen(), rng.gen_range(0..1 << 40), cursor);
            assert_row_matches_reference(arm, &weights, &activations, key);
        }
    }

    /// A kernel call's windows hold the keyed draw in every slot, slots no
    /// lane reads included. Slot `i` of MAC `s` in the MAC window from
    /// cursor `c` is `mac_normal(c + s, n, i)`, past slot `n` too; with only
    /// the detector drawing, each MAC's detection block still lands in its
    /// place over whatever the window held. Slot `k` of a ring window is
    /// `weight_normal` of ring `(first & !1) + k`, for rows that start at an
    /// even and at an odd ring. Every channel count from 1 to 25, cursors
    /// that wrap past `u64::MAX`.
    #[test]
    fn dense_windows_hold_every_keyed_draw() {
        let framed = |noise| {
            let mut injector = NoiseInjector::new(noise);
            injector.begin_frame(11, 3);
            injector
        };
        let every = framed(NoiseConfig::default());
        let detection_only = framed(NoiseConfig {
            detector_relative_sigma: NoiseConfig::default().detector_relative_sigma,
            ..NoiseConfig::ideal()
        });
        let rng = *every.rng();
        let id = RowId { layer: 2, row: 7 };
        let mut draws = Draws::default();
        for channels in 1..=25 {
            let per_mac = mac_blocks(channels);
            for cursor in [0, 5, u64::MAX - 2, u64::MAX] {
                for segments in [1, 3] {
                    let slots = draws.macs(&every, (cursor, channels), segments);
                    assert_eq!(slots.len(), 2 * per_mac * segments);
                    for (s, mac) in (0u64..).zip(slots.chunks_exact(2 * per_mac)) {
                        for (slot, z) in mac.iter().enumerate() {
                            let want = rng.mac_normal(cursor.wrapping_add(s), channels, slot);
                            assert_eq!(
                                z.to_bits(),
                                want.to_bits(),
                                "{channels} channels, cursor {cursor} + {s}, slot {slot}"
                            );
                        }
                    }
                    // Over a window of stale draws (a cursor further on),
                    // the detector-only call rewrites each detection block.
                    draws.macs(&every, (cursor ^ (1 << 63), channels), segments);
                    let slots = draws.macs(&detection_only, (cursor, channels), segments);
                    let detection = 2 * (channels / 2);
                    for (s, mac) in (0u64..).zip(slots.chunks_exact(2 * per_mac)) {
                        for slot in [detection, detection + 1] {
                            let want = rng.mac_normal(cursor.wrapping_add(s), channels, slot);
                            assert_eq!(mac[slot].to_bits(), want.to_bits());
                        }
                    }
                }
            }
            let n = channels as u64;
            for first_ring in [0, 1, 2 * n, 2 * n + 1, (1 << 40) + n] {
                let origin = first_ring & !1;
                for rings in [1, channels, 3 * channels] {
                    let slots = draws.rings(&rng, id, first_ring, rings);
                    assert_eq!(
                        slots.len(),
                        ((first_ring - origin) as usize + rings).next_multiple_of(2)
                    );
                    for (k, z) in (0u64..).zip(slots) {
                        let want = rng.weight_normal(id, origin + k);
                        assert_eq!(
                            z.to_bits(),
                            want.to_bits(),
                            "{rings} rings from ring {first_ring}, slot {k}"
                        );
                    }
                }
            }
        }
    }

    /// A segment with no live lane, parked or dark, still draws its
    /// detection noise and adds it to the row: with only the first of three
    /// segments lit, the row reads that segment's MAC plus the other two
    /// segments' detection draws, and with none lit, the three draws.
    #[test]
    fn dark_segments_still_add_their_detection_noise() {
        let sigma = NoiseConfig::default().detector_relative_sigma;
        let mut arm = OpticalArm::new(ArmConfig {
            noise: NoiseConfig {
                detector_relative_sigma: sigma,
                ..NoiseConfig::ideal()
            },
            ..ArmConfig::default()
        })
        .expect("valid");
        let mut first = arm.clone();
        first.load_weights(&[0.5; 9]).expect("ok");
        let mut row = LoadedRow::new();
        for segment in [&[0.5; 9][..], &[0.0; 9], &[-0.25, 0.75]] {
            arm.load_weights(segment).expect("ok");
            arm.push_loaded(&mut row);
        }
        let rng = CounterRng::new(4, 2);
        let draw = |cursor| 0.0 + sigma * rng.mac_normal(cursor, 9, 9);
        for lit in [&[][..], &[0.5; 9]] {
            let lit_value = if lit.is_empty() {
                draw(u64::MAX)
            } else {
                first.begin_frame(4, 2);
                first.set_mac_cursor(u64::MAX);
                first.mac(lit).expect("ok").value
            };
            arm.begin_frame(4, 2);
            arm.set_mac_cursor(u64::MAX);
            let got = arm.mac_row(&mut row, lit);
            let want = 0.0 + lit_value + draw(0) + draw(1);
            assert_eq!(got.to_bits(), want.to_bits(), "{got} vs {want}");
            assert_ne!(draw(0), 0.0);
            assert_eq!(arm.mac_cursor(), 2);
        }
    }

    /// A realised weight belongs to the frame its MAC runs in, whether the
    /// rings were loaded before or after [`OpticalArm::begin_frame`], and a
    /// row keeps it across the frame's MACs: with only weight noise on, one
    /// frame's MACs of one input agree, and the next frame's differ. An
    /// arm with another weight sigma realises the row afresh.
    #[test]
    fn realised_weights_follow_the_frame_of_the_mac() {
        let weights = [0.3, -0.7, 0.2, 0.1, 0.5, -0.1, 0.9, -0.4, 0.6];
        let activations = [0.2, 0.4, 0.6, 0.8, 1.0, 0.1, 0.3, 0.5, 0.7];
        let noise = NoiseConfig {
            weight_sigma: NoiseConfig::default().weight_sigma,
            ..NoiseConfig::ideal()
        };
        let arm = OpticalArm::new(ArmConfig {
            noise,
            ..ArmConfig::default()
        })
        .expect("valid");
        let mut loaded_first = arm.clone();
        loaded_first.load_weights(&weights).expect("ok");
        loaded_first.begin_frame(3, 0);
        let frame0 = loaded_first.mac(&activations).expect("ok").value;
        loaded_first.begin_frame(3, 1);
        let frame1 = loaded_first.mac(&activations).expect("ok").value;
        assert_ne!(frame0.to_bits(), frame1.to_bits());
        for frame in [0, 1] {
            let mut framed_first = arm.clone();
            framed_first.begin_frame(3, frame);
            framed_first.load_weights(&weights).expect("ok");
            let macs: Vec<f64> = (0..3)
                .map(|_| framed_first.mac(&activations).expect("ok").value)
                .collect();
            let want = [frame0, frame1][frame as usize];
            assert!(
                macs.iter().all(|v| v.to_bits() == want.to_bits()),
                "{macs:?}"
            );
        }
        let mut row = LoadedRow::new();
        loaded_first.push_loaded(&mut row);
        loaded_first.begin_frame(3, 0);
        assert_eq!(
            loaded_first.mac_row(&mut row, &activations).to_bits(),
            frame0.to_bits()
        );
        loaded_first.begin_frame(3, 1);
        assert_eq!(
            loaded_first.mac_row(&mut row, &activations).to_bits(),
            frame1.to_bits()
        );
        // The same row on an arm without weight noise, in the same frame,
        // realises its own weights, not the ones the row last held.
        let mut ideal = ideal_arm();
        ideal.load_weights(&weights).expect("ok");
        ideal.begin_frame(3, 1);
        let want = ideal.mac(&activations).expect("ok").value;
        ideal.set_mac_cursor(0);
        assert_eq!(
            ideal.mac_row(&mut row, &activations).to_bits(),
            want.to_bits()
        );
    }

    /// A segment that fails to load leaves the row as it was.
    #[test]
    fn a_failed_segment_leaves_the_row_unchanged() {
        let arm = ideal_arm();
        let mut row = LoadedRow::new();
        arm.push_segment(&mut row, [0.5, 0.0, -0.25]).expect("ok");
        let loaded = row.clone();
        for bad in [vec![0.5, f64::NAN], vec![0.5; 10]] {
            assert!(arm.push_segment(&mut row, bad).is_err());
            assert_eq!(row, loaded);
        }
        assert_eq!(row.segments(), 1);
    }

    #[test]
    fn rejects_zero_channels() {
        let cfg = ArmConfig {
            channels: 0,
            ..ArmConfig::default()
        };
        assert!(OpticalArm::new(cfg).is_err());
    }

    /// Regression: the arm used to accept any sigma, so a NaN weight sigma
    /// returned a NaN MAC and an infinite detector sigma returned −∞.
    #[test]
    fn rejects_invalid_noise_sigmas() {
        for (field, noise) in [
            (
                "weight_sigma",
                NoiseConfig {
                    weight_sigma: f64::NAN,
                    ..NoiseConfig::default()
                },
            ),
            (
                "detector_relative_sigma",
                NoiseConfig {
                    detector_relative_sigma: f64::INFINITY,
                    ..NoiseConfig::default()
                },
            ),
        ] {
            let err = OpticalArm::new(ArmConfig {
                noise,
                ..ArmConfig::default()
            })
            .expect_err("invalid sigma must be rejected");
            assert!(
                matches!(err, PhotonicsError::InvalidParameter { name, .. } if name == field),
                "{err:?}"
            );
        }
    }

    #[test]
    fn ideal_mac_matches_dot_product() {
        let mut arm = ideal_arm();
        let weights = [0.5, -0.25, 0.0, 0.9, -0.9, 0.125, 0.75, -0.5, 0.25];
        let activations = [1.0, 0.5, 0.25, 0.0, 1.0, 0.5, 0.25, 0.0, 1.0];
        arm.load_weights(&weights).expect("ok");
        arm.begin_frame(0, 0);
        let out = arm.mac(&activations).expect("ok");
        let exact: f64 = weights.iter().zip(activations).map(|(w, a)| w * a).sum();
        assert!((out.ideal - exact).abs() < 1e-12);
        // The only residual error in the ideal configuration comes from the
        // finite MR extinction ratio (weights cannot be realised exactly).
        assert!(
            (out.value - exact).abs() < 0.05,
            "value {} vs exact {exact}",
            out.value
        );
    }

    #[test]
    fn noisy_mac_stays_close_to_ideal() {
        let mut arm = OpticalArm::new(ArmConfig::default()).expect("valid");
        let weights = [0.3, -0.7, 0.2, 0.0, 0.5, -0.1, 0.9, -0.4, 0.6];
        arm.load_weights(&weights).expect("ok");
        arm.begin_frame(9, 0);
        let activations = [0.2, 0.4, 0.6, 0.8, 1.0, 0.1, 0.3, 0.5, 0.7];
        let out = arm.mac(&activations).expect("ok");
        assert!(out.error() < 0.15, "error {}", out.error());
    }

    #[test]
    fn short_vectors_pad_with_zero() {
        let mut arm = ideal_arm();
        arm.load_weights(&[1.0, 1.0]).expect("ok");
        arm.begin_frame(2, 0);
        let out = arm.mac(&[0.5]).expect("ok");
        assert!((out.ideal - 0.5).abs() < 1e-12);
        assert_eq!(arm.active_rings(), 2);
    }

    /// Regression test: channels past the activation vector are dark. With
    /// VCSEL noise on, they used to draw intensity noise, and rings holding
    /// weights there added `max(0, σ·z)·t` to the sum. A fully loaded arm fed
    /// one activation must now match the arm whose other rings are parked.
    #[test]
    fn missing_activation_channels_are_dark() {
        let noise = NoiseConfig {
            vcsel_relative_sigma: NoiseConfig::default().vcsel_relative_sigma,
            ..NoiseConfig::ideal()
        };
        let loaded_arm = |weights: &[f64]| {
            let mut arm = OpticalArm::new(ArmConfig {
                noise,
                ..ArmConfig::default()
            })
            .expect("valid");
            arm.load_weights(weights).expect("ok");
            arm
        };
        let mut full = loaded_arm(&[0.5; 9]);
        let mut parked = loaded_arm(&[0.5]);
        for frame in 0..200 {
            full.begin_frame(6, frame);
            parked.begin_frame(6, frame);
            let dark = full.mac(&[0.5]).expect("ok");
            let reference = parked.mac(&[0.5]).expect("ok");
            assert_eq!(
                dark.value.to_bits(),
                reference.value.to_bits(),
                "frame {frame}: dark channels changed the MAC"
            );
            assert_eq!(dark.ideal.to_bits(), reference.ideal.to_bits());
        }
    }

    #[test]
    fn rejects_oversized_inputs() {
        let mut arm = ideal_arm();
        assert!(arm.load_weights(&[0.0; 10]).is_err());
        let too_many = [0.1; 10];
        assert!(arm.mac(&too_many).is_err());
    }

    #[test]
    fn rejects_out_of_range_values() {
        let mut arm = ideal_arm();
        assert!(arm.load_weights(&[1.5]).is_err());
        assert!(arm.load_weights(&[f64::NAN]).is_err());
        arm.load_weights(&[0.5]).expect("ok");
        assert!(arm.mac(&[-0.1]).is_err());
        assert!(arm.mac(&[1.1]).is_err());
    }

    #[test]
    fn zero_weights_draw_no_tuning_power() {
        let mut arm = ideal_arm();
        arm.load_weights(&[0.0; 9]).expect("ok");
        assert_eq!(arm.active_rings(), 0);
    }

    #[test]
    fn negative_weights_produce_negative_outputs() {
        let mut arm = ideal_arm();
        arm.load_weights(&[-0.8]).expect("ok");
        arm.begin_frame(5, 0);
        let out = arm.mac(&[1.0]).expect("ok");
        assert!(out.value < -0.6);
    }

    #[test]
    fn reloading_weights_overwrites_previous_state() {
        let mut arm = ideal_arm();
        arm.load_weights(&[0.5; 9]).expect("ok");
        arm.load_weights(&[0.25]).expect("ok");
        assert_eq!(arm.active_rings(), 1);
        assert_eq!(arm.weights()[1], 0.0);
    }

    #[test]
    fn mac_cursor_repositions_the_noise_stream() {
        let weights = [0.3, -0.7, 0.2, 0.1, 0.5, -0.1, 0.9, -0.4, 0.6];
        let activations = [0.2, 0.4, 0.6, 0.8, 1.0, 0.1, 0.3, 0.5, 0.7];
        let mut arm = OpticalArm::new(ArmConfig::default()).expect("valid");
        arm.load_weights(&weights).expect("ok");
        arm.begin_frame(7, 4);
        let sequential: Vec<f64> = (0..5)
            .map(|_| arm.mac(&activations).expect("ok").value)
            .collect();
        // Replaying any cursor position on a fresh clone reproduces the bits.
        for (cursor, expected) in sequential.iter().enumerate() {
            let mut replay = OpticalArm::new(ArmConfig::default()).expect("valid");
            replay.load_weights(&weights).expect("ok");
            replay.begin_frame(7, 4);
            replay.set_mac_cursor(cursor as u64);
            let out = replay.mac(&activations).expect("ok");
            assert_eq!(out.value.to_bits(), expected.to_bits());
            assert_eq!(replay.mac_cursor(), cursor as u64 + 1);
        }
    }

    /// Regression test for the cross-channel spare-coupling bug at the arm
    /// level: the perturbation each channel contributes must be unaffected
    /// by ablating another channel. The old sequential sampler failed this
    /// from the second MAC call onward.
    #[test]
    fn channel_ablation_does_not_shift_other_channels() {
        let weights = [0.3, -0.7, 0.2, 0.1, 0.5, -0.1, 0.9, -0.4, 0.6];
        let activations = [0.2, 0.4, 0.6, 0.8, 1.0, 0.1, 0.3, 0.5, 0.7];
        let run = |noise: NoiseConfig| -> Vec<f64> {
            let mut arm = OpticalArm::new(ArmConfig {
                noise,
                ..ArmConfig::default()
            })
            .expect("valid");
            arm.load_weights(&weights).expect("ok");
            arm.begin_frame(3, 1);
            (0..8)
                .map(|_| arm.mac(&activations).expect("ok").value)
                .collect()
        };
        let base = NoiseConfig::default();
        let full = run(base);
        let no_weight = run(NoiseConfig {
            weight_sigma: 0.0,
            ..base
        });
        let no_vcsel = run(NoiseConfig {
            vcsel_relative_sigma: 0.0,
            ..base
        });
        let no_detector = run(NoiseConfig {
            detector_relative_sigma: 0.0,
            ..base
        });
        for call in 0..full.len() {
            // The weight-noise contribution (full − no_weight) must be the
            // same whether or not detector noise is enabled: detection noise
            // is additive and keyed independently, so it cancels exactly.
            let weight_delta_with_detector = full[call] - no_weight[call];
            let weight_delta_without = {
                let no_det_no_weight = {
                    let cfg = NoiseConfig {
                        detector_relative_sigma: 0.0,
                        weight_sigma: 0.0,
                        ..base
                    };
                    run(cfg)
                };
                no_detector[call] - no_det_no_weight[call]
            };
            assert!(
                (weight_delta_with_detector - weight_delta_without).abs() < 1e-12,
                "call {call}: weight-noise delta changed when detector noise was ablated \
                 ({weight_delta_with_detector} vs {weight_delta_without})"
            );
            // Same independence for the VCSEL channel.
            let vcsel_delta = full[call] - no_vcsel[call];
            assert!(vcsel_delta.is_finite());
        }
    }
}
