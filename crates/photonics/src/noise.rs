//! Analog noise and non-ideality injection.
//!
//! The functional accuracy experiments (paper Table 1) run quantized DNNs
//! through the photonic MAC datapath. This module centralises the stochastic
//! error sources applied to analog quantities: relative amplitude noise on
//! VCSEL outputs, detector-referred additive noise, and the finite resolution
//! of MR tuning DACs.
//!
//! Gaussian samples come from a counter-based (Philox-style) generator: each
//! draw is a pure function of its key, the `(seed, frame)` stream and the
//! draw's place in it. One Philox block feeds one Box–Muller transform,
//! whose two branches, cosine and sine, are two independent standard
//! normals. Two block streams hold every draw:
//!
//! * **The MAC stream** ([`CounterRng::mac_normal`]). A MAC on an arm of
//!   `channels` rings has `channels + 1` slots: slot `i` is channel `i`'s
//!   VCSEL intensity draw and slot `channels` the balanced detector's draw.
//!   Slot `2b` is the cosine branch of the MAC's block `b` and slot `2b + 1`
//!   its sine branch, and block `b` of the MAC at cursor `c` is keyed by
//!   `c·⌈(channels + 1)/2⌉ + b`. A full 9-lane MAC computes 5 blocks.
//! * **The ring stream** ([`CounterRng::weight_normal`]). A ring's weight
//!   error is fixed while the ring holds its weight, so it is drawn once per
//!   programming, keyed by the ring's identity: its layer, its row
//!   ([`RowId`]) and its weight index `j` in the row. Rings `2p` and
//!   `2p + 1` of a row are the cosine and sine branches of the row's block
//!   `p`. The frame is the programming epoch: every MAC of a row in one
//!   frame reads the same realised weights, whichever stride, stream tile or
//!   worker runs it.
//!
//! A kernel call computes one dense window of each stream it reads: every
//! ring pair of a row it realises, and every block of the MACs it runs,
//! while the VCSEL sigma is non-zero (only each MAC's detection block while
//! only the detector's sigma is, and nothing with ideal optics). Blocks no
//! lane reads, those of parked rings and dark channels, are computed and
//! dropped. Two consequences follow from the keying:
//!
//! * **Per-channel independence.** Zeroing one channel's sigma leaves every
//!   other channel's draws bit-identical, so noise-ablation sweeps compare
//!   exactly what they claim to compare: no draw's key depends on which
//!   blocks were computed, so a dropped or skipped block moves nothing.
//!   (The previous sequential Box–Muller stream shared one cached spare
//!   across channels, so ablating one channel silently shifted the others.)
//! * **Order independence.** Draws need no sequential RNG state, so MAC
//!   loops can be tiled across threads and still produce the sequential
//!   bits exactly.
//!
//! The transform itself is computed from the two Philox words with `+ − × ÷
//! √` and integer operations only: an exact integer range reduction and
//! table-free polynomials for `ln`, `sin` and `cos`, each within one ulp.
//! Those operations are correctly rounded on every IEEE-754 target, so a
//! draw's bits do not depend on the host's libm: the same key gives the
//! same draw on any platform.
//!
//! [`crate::arm::OpticalArm::mac_row`] computes the MAC window of a whole
//! programmed row as one batch, in three phases: the Philox words of the
//! window's contiguous counters, in one plain loop whose rounds compile to
//! scalar `mulq`; the Box–Muller transform over the window, whose iterations
//! are independent, written as `[cos, sin]` straight into the slots the
//! combine reads; and the lane combine, segment by segment in lane order,
//! each segment's detection, and the sum of the segments. A row's realised
//! weights are drawn the same way, once per row and frame, from a window of
//! every ring pair of the row. The transform converts its integers to
//! doubles by exact bit arithmetic (a magic-constant add and a subtraction)
//! instead of `as f64`, a scalar `cvtsi2sd` on x86-64, so the compiler runs
//! it on two blocks at a time in SSE2 registers, from the Philox words to
//! the normals. The batch cannot move a bit: a draw is a pure function of
//! its key, so computing it earlier, next to another or with no reader
//! changes nothing; each conversion is exact, so
//! it gives the bits of `as f64`; each value goes through the same IEEE-754
//! operations as [`CounterRng::mac_normal`], [`CounterRng::weight_normal`]
//! and [`NoiseInjector`]'s perturbations, which share its `ln`,
//! `sin`/`cos` and offset-and-clamp code; `+ − × ÷ √` round the same in a
//! vector lane as in scalar code, and Rust never fuses a multiply-add; and
//! both rails still sum in lane order.

use crate::error::{PhotonicsError, Result};
use serde::{Deserialize, Serialize};

/// Configuration of the analog non-idealities applied to the photonic MAC.
///
/// Each sigma is a constant relative to the full-scale signal: the arm's
/// only source for that noise, not derived from a device model, and the
/// same at every signal level. The detector's sigma of 0.003 puts 333
/// levels in full scale, above the 16 a 4-bit activation needs; the claims
/// ledger (`crates/bench/tests/claims_ledger.rs`) pins that as its SNR row.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// Relative RMS amplitude noise of each modulated VCSEL (RIN + driver).
    pub vcsel_relative_sigma: f64,
    /// Detector-referred additive RMS noise relative to full scale
    /// (shot + thermal, folded into one knob for architecture studies).
    pub detector_relative_sigma: f64,
    /// RMS error of the realised MR weight caused by finite tuning-DAC
    /// resolution and thermal drift, in absolute weight units. Both are
    /// fixed while a ring holds its weight, so the error is drawn once per
    /// ring programming per frame, keyed by the ring's row and weight index
    /// ([`CounterRng::weight_normal`]): every MAC of the row in that frame
    /// reads the same realised weight, a gain error that does not average
    /// out over a layer's output positions.
    pub weight_sigma: f64,
    /// Whether inter-channel crosstalk should be applied by arm simulations.
    pub apply_crosstalk: bool,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            vcsel_relative_sigma: 0.004,
            detector_relative_sigma: 0.003,
            weight_sigma: 0.004,
            apply_crosstalk: true,
        }
    }
}

impl NoiseConfig {
    /// A perfectly ideal (noise-free, crosstalk-free) configuration.
    #[must_use]
    pub fn ideal() -> Self {
        Self {
            vcsel_relative_sigma: 0.0,
            detector_relative_sigma: 0.0,
            weight_sigma: 0.0,
            apply_crosstalk: false,
        }
    }

    /// Checks that every noise sigma is an RMS magnitude: finite and
    /// non-negative. A negative sigma would sign-flip every draw of its
    /// channel, a NaN one would poison them, and an infinite one would
    /// saturate or overflow the MAC.
    ///
    /// # Errors
    ///
    /// Returns [`PhotonicsError::InvalidParameter`] naming the first field
    /// that fails.
    pub fn validate(&self) -> Result<()> {
        let sigmas = [
            ("vcsel_relative_sigma", self.vcsel_relative_sigma),
            ("detector_relative_sigma", self.detector_relative_sigma),
            ("weight_sigma", self.weight_sigma),
        ];
        for (name, value) in sigmas {
            if !value.is_finite() || value < 0.0 {
                return Err(PhotonicsError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }

    /// Returns `true` when every stochastic term is zero.
    #[must_use]
    pub fn is_ideal(&self) -> bool {
        self.vcsel_relative_sigma == 0.0
            && self.detector_relative_sigma == 0.0
            && self.weight_sigma == 0.0
            && !self.apply_crosstalk
    }

    /// Scales every stochastic term by `factor` (useful for sensitivity
    /// sweeps / the noise ablation bench).
    ///
    /// A sigma is an RMS magnitude, so a negative scale has no physical
    /// meaning; negative (or NaN) factors are clamped to zero, making
    /// `scaled(-1.0)` equivalent to zeroing every stochastic term.
    #[must_use]
    pub fn scaled(&self, factor: f64) -> Self {
        let factor = factor.max(0.0);
        Self {
            vcsel_relative_sigma: self.vcsel_relative_sigma * factor,
            detector_relative_sigma: self.detector_relative_sigma * factor,
            weight_sigma: self.weight_sigma * factor,
            apply_crosstalk: self.apply_crosstalk,
        }
    }
}

/// The physical noise source a draw belongs to.
///
/// [`NoiseChannel::Intensity`] and [`NoiseChannel::Detection`] draws are
/// slots of one packed MAC stream ([`CounterRng::mac_normal`]): where a slot
/// sits in its MAC says which source it feeds. [`NoiseChannel::Weight`]
/// draws come from the ring stream ([`CounterRng::weight_normal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NoiseChannel {
    /// VCSEL amplitude noise on the modulated intensities.
    Intensity,
    /// Realised MR weight error (tuning-DAC resolution + thermal drift).
    Weight,
    /// Detector-referred additive noise on the balanced output.
    Detection,
}

/// The rings of one programmed row: the weighted layer it belongs to and
/// its row in that layer (an output channel or feature). With a ring's
/// weight index in the row, it keys the ring's weight error
/// ([`CounterRng::weight_normal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RowId {
    /// The layer's position in its model.
    pub layer: u64,
    /// The row's position in its layer.
    pub row: u64,
}

/// Philox key tag of the MAC stream (intensity and detection draws).
const MAC_TAG: u64 = 0;
/// Philox key tag of layer 0's ring stream; layer `l` uses tag
/// `WEIGHT_TAG + l`. Renumbering a tag moves every draw of its stream.
const WEIGHT_TAG: u64 = 2;

/// Philox-2x64 round multiplier (Salmon et al., "Parallel random numbers:
/// as easy as 1, 2, 3", SC'11).
const PHILOX_M: u64 = 0xD2B7_4407_B1CE_6E93;
/// Weyl sequence increment applied to the Philox key each round (the golden
/// ratio in 0.64 fixed point, as in the reference implementation).
const PHILOX_W: u64 = 0x9E37_79B9_7F4A_7C15;
/// Odd multiplier mixing the block tag into the Philox key so the MAC and
/// ring streams are decorrelated even under identical counters.
const CHANNEL_KEY_MUL: u64 = 0xA076_1D64_78BD_642F;

/// Philox blocks one MAC on an arm of `channels` rings owns: its
/// `channels + 1` slots, two to a block.
pub(crate) fn mac_blocks(channels: usize) -> usize {
    channels / 2 + 1
}

/// Branch `slot % 2` of one block's normal pair: the cosine branch for an
/// even slot, the sine branch for an odd one.
#[inline]
fn branch((cos, sin): (f64, f64), slot: usize) -> f64 {
    if slot.is_multiple_of(2) {
        cos
    } else {
        sin
    }
}

/// A counter-based Gaussian generator (Philox-2x64, 10 rounds).
///
/// Unlike a sequential RNG, a `CounterRng` carries no mutable stream state:
/// every draw is a pure function of `(seed, frame)` and its key. Draws can
/// therefore be evaluated in any order — or concurrently — and still
/// reproduce the exact bits of a sequential walk. No Box–Muller spare is
/// cached across calls: both branches of a block are keyed slots, so
/// ablating one channel cannot shift another channel's sequence.
///
/// ```
/// use lightator_photonics::noise::{CounterRng, NoiseChannel, RowId};
///
/// let rng = CounterRng::new(7, 0);
/// let a = rng.standard_normal(NoiseChannel::Intensity, 3);
/// let b = rng.standard_normal(NoiseChannel::Intensity, 3);
/// assert_eq!(a.to_bits(), b.to_bits()); // pure function of the key
/// assert!(a.is_finite());
/// // A 9-lane MAC's slots 0–9 are elements 10c..10c + 10 of the MAC
/// // stream: lane 3 of the MAC at cursor 2 is element 23.
/// let lane = rng.mac_normal(2, 9, 3);
/// let flat = rng.standard_normal(NoiseChannel::Intensity, 23);
/// assert_eq!(lane.to_bits(), flat.to_bits());
/// // Rings 4 and 5 of a row share its block 2.
/// let row = RowId { layer: 1, row: 6 };
/// assert_ne!(rng.weight_normal(row, 4).to_bits(), rng.weight_normal(row, 5).to_bits());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterRng {
    seed: u64,
    frame: u64,
}

impl CounterRng {
    /// Creates a generator for one `(seed, frame)` noise stream.
    #[must_use]
    pub fn new(seed: u64, frame: u64) -> Self {
        Self { seed, frame }
    }

    /// The platform seed this stream is keyed by.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The frame index this stream is keyed by.
    #[must_use]
    pub fn frame(&self) -> u64 {
        self.frame
    }

    /// One Philox-2x64-10 block for `(seed, frame, tag, element)`.
    #[inline]
    fn block(&self, tag: u64, element: u64) -> [u64; 2] {
        let mut key = self.seed ^ tag.wrapping_add(1).wrapping_mul(CHANNEL_KEY_MUL);
        let mut ctr = [element, self.frame];
        for _ in 0..10 {
            let product = u128::from(PHILOX_M) * u128::from(ctr[0]);
            let hi = (product >> 64) as u64;
            let lo = product as u64;
            ctr = [hi ^ key ^ ctr[1], lo];
            key = key.wrapping_add(PHILOX_W);
        }
        ctr
    }

    /// The Philox words of the MAC stream's block `element`: block `b` of
    /// the MAC at cursor `c` is element `c·⌈(channels + 1)/2⌉ + b`. The
    /// input of [`normal_pairs`].
    #[inline]
    pub(crate) fn mac_block(&self, element: u64) -> [u64; 2] {
        self.block(MAC_TAG, element)
    }

    /// The Philox words of `row`'s ring block `pair`, which holds rings
    /// `2·pair` and `2·pair + 1`.
    ///
    /// The layer selects the stream's tag and the row and pair share the
    /// counter word, so keys are distinct for rows and pairs below 2³²:
    /// far more than any model's layer holds.
    #[inline]
    fn weight_block(&self, row: RowId, pair: u64) -> [u64; 2] {
        self.block(
            WEIGHT_TAG.wrapping_add(row.layer),
            (row.row << 32).wrapping_add(pair),
        )
    }

    /// Phase 1 of a MAC window: the Philox words of the MAC stream's blocks
    /// `first`, `first + 1`, … (wrapping), one per entry of `blocks`. The
    /// input of [`normal_pairs`].
    pub(crate) fn mac_window(&self, first: u64, blocks: &mut [[u64; 2]]) {
        self.window(MAC_TAG, first, blocks);
    }

    /// Phase 1 of a ring window: the Philox words of `row`'s ring blocks
    /// `first`, `first + 1`, …, one per entry of `blocks`, as
    /// [`CounterRng::weight_normal`] keys them. The input of
    /// [`normal_pairs`].
    pub(crate) fn weight_window(&self, row: RowId, first: u64, blocks: &mut [[u64; 2]]) {
        self.window(
            WEIGHT_TAG.wrapping_add(row.layer),
            (row.row << 32).wrapping_add(first),
            blocks,
        );
    }

    /// Blocks `first + i` of stream `tag` into `blocks[i]`: one plain loop
    /// over contiguous counters. Its rounds compile to scalar `mulq`.
    fn window(&self, tag: u64, first: u64, blocks: &mut [[u64; 2]]) {
        for (i, words) in (0u64..).zip(blocks.iter_mut()) {
            *words = self.block(tag, first.wrapping_add(i));
        }
    }

    /// The Box–Muller polar form of one Philox block's two words,
    /// `(r, sin θ, cos θ)`: the block's two normals are `r·cos θ` and
    /// `r·sin θ`.
    ///
    /// The first word gives `u1 = (m + 1)·2⁻⁵³ ∈ (0, 1]` from its top 53
    /// bits `m`, so `r = √(−2 ln u1)` is finite and exactly 0 at `u1 = 1`.
    /// The second gives the angle `θ = 2π·k·2⁻⁵³` from its top 53 bits `k`,
    /// reduced to a quarter turn exactly in integers: nothing multiplies by
    /// a rounded 2π. See [`ln_unit`] and [`sin_cos_turn`].
    #[inline]
    fn polar([x0, x1]: [u64; 2]) -> (f64, f64, f64) {
        let (sin, cos) = sin_cos_turn(x1 >> 11);
        ((-2.0 * ln_unit((x0 >> 11) + 1)).sqrt(), sin, cos)
    }

    /// One standard-normal draw — a pure function of
    /// `(seed, frame, channel, element)`: branch `element % 2` (cosine when
    /// even, sine when odd) of block `element / 2` of the channel's stream.
    ///
    /// Intensity and detection draws read the MAC stream, in which slot `s`
    /// of the MAC at cursor `c` on an arm of `channels` rings is element
    /// `2·c·⌈(channels + 1)/2⌉ + s` while that is below 2⁶⁴
    /// ([`CounterRng::mac_normal`] keys every cursor). Weight draws read
    /// layer 0's ring stream, in which element `r·2³³ + j` is ring `j` of
    /// row `r` ([`CounterRng::weight_normal`]).
    #[must_use]
    pub fn standard_normal(&self, channel: NoiseChannel, element: u64) -> f64 {
        let tag = match channel {
            NoiseChannel::Intensity | NoiseChannel::Detection => MAC_TAG,
            NoiseChannel::Weight => WEIGHT_TAG,
        };
        branch(
            normal_pair(self.block(tag, element / 2)),
            (element % 2) as usize,
        )
    }

    /// The draw of slot `slot` of the MAC at cursor `cursor` on an arm of
    /// `channels` rings: channel `slot`'s VCSEL intensity draw for
    /// `slot < channels`, the detector's draw for `slot == channels`. It is
    /// branch `slot % 2` of the MAC's block `slot / 2`, keyed by
    /// `cursor·⌈(channels + 1)/2⌉ + slot / 2` (wrapping).
    #[must_use]
    pub fn mac_normal(&self, cursor: u64, channels: usize, slot: usize) -> f64 {
        let element = cursor
            .wrapping_mul(mac_blocks(channels) as u64)
            .wrapping_add((slot / 2) as u64);
        branch(normal_pair(self.mac_block(element)), slot)
    }

    /// The weight error draw of ring `index` of `row`, drawn once per
    /// programming: branch `index % 2` of the row's ring block `index / 2`.
    #[must_use]
    pub fn weight_normal(&self, row: RowId, index: u64) -> f64 {
        branch(
            normal_pair(self.weight_block(row, index / 2)),
            (index % 2) as usize,
        )
    }

    /// Draws one sample from `N(mean, sigma²)` at `(channel, element)`.
    ///
    /// A `sigma` of zero returns `mean` exactly. Because draws are keyed
    /// rather than streamed, the early return cannot shift any other draw.
    #[must_use]
    pub fn sample(&self, channel: NoiseChannel, element: u64, mean: f64, sigma: f64) -> f64 {
        if sigma == 0.0 {
            return mean;
        }
        mean + sigma * self.standard_normal(channel, element)
    }
}

/// The two standard normals of one Philox block, `(r·cos θ, r·sin θ)`:
/// two slots of a MAC, or two rings of a row.
#[inline]
fn normal_pair(words: [u64; 2]) -> (f64, f64) {
    let (r, sin, cos) = CounterRng::polar(words);
    (r * cos, r * sin)
}

/// Phase 2 of a window ([`crate::arm::OpticalArm::mac_row`]): each
/// block's [`normal_pair`] written as `[cos, sin]` into its slot pair, the
/// two slots the block's draws fill. No iteration reads another's result;
/// the module doc says why the batch gives the same bits as one block at a
/// time.
pub(crate) fn normal_pairs<'a>(pairs: impl IntoIterator<Item = (&'a mut [f64; 2], &'a [u64; 2])>) {
    for (slots, &words) in pairs {
        let (cos, sin) = normal_pair(words);
        *slots = [cos, sin];
    }
}

/// `mean + sigma·z`; a zero `sigma` returns `mean` exactly, whatever `z`
/// holds, so a channel switched off needs no draw.
#[inline]
pub(crate) fn offset(mean: f64, sigma: f64, z: f64) -> f64 {
    if sigma == 0.0 {
        mean
    } else {
        mean + sigma * z
    }
}

/// [`offset`] clamped to `[0, 1]`: one perturbed lane quantity, a VCSEL
/// intensity or a ring transmission (see [`NoiseInjector::perturb_lane`]).
#[inline]
pub(crate) fn offset_unit(mean: f64, sigma: f64, z: f64) -> f64 {
    offset(mean, sigma, z).clamp(0.0, 1.0)
}

/// The transmission a ring programmed to the signed `transmission` realises,
/// `clamp(|t| + sigma·z, 0, 1)`, with the sign of `t`: the sign selects the
/// balanced detector's rail (see [`NoiseInjector::realise_weight`]).
#[inline]
pub(crate) fn realised(transmission: f64, sigma: f64, z: f64) -> f64 {
    offset_unit(transmission.abs(), sigma, z).copysign(transmission)
}

// The Box–Muller arithmetic below uses only `+ − × ÷ √` and integer
// operations. Each is correctly rounded on every IEEE-754 target and Rust
// never contracts a multiply-add into an FMA, so a draw's bits do not depend
// on the host's libm. There are no tables.
//
// The polynomial coefficients are fdlibm's (k_sin.c, k_cos.c, e_log.c):
// Copyright (C) 1993 by Sun Microsystems, Inc. All rights reserved.
// Developed at SunPro, a Sun Microsystems, Inc. business. Permission to use,
// copy, modify, and distribute this software is freely granted, provided
// that this notice is preserved.

/// Minimax coefficients of `sin x = x + x³·(S1 + x²·S2 + … + x¹⁰·S6)` on
/// `|x| ≤ π/4`.
const SIN: [f64; 6] = [
    -0.16666666666666632,
    0.00833333333332249,
    -0.0001984126982985795,
    2.7557313707070068e-06,
    -2.5050760253406863e-08,
    1.58969099521155e-10,
];
/// Minimax coefficients of `cos x = 1 − x²/2 + x⁴·(C1 + x²·C2 + … + x¹⁰·C6)`
/// on `|x| ≤ π/4`.
const COS: [f64; 6] = [
    0.0416666666666666,
    -0.001388888888887411,
    2.480158728947673e-05,
    -2.7557314351390663e-07,
    2.087572321298175e-09,
    -1.1359647557788195e-11,
];
/// Minimax coefficients of `(ln((1+s)/(1−s)) − 2s)/s` in `z = s²` for
/// `|s| ≤ 3 − 2√2` (`Lg1`…`Lg7`).
const LG: [f64; 7] = [
    0.6666666666666735,
    0.3999999999940942,
    0.2857142874366239,
    0.22222198432149784,
    0.1818357216161805,
    0.15313837699209373,
    0.14798198605116586,
];
/// `ln 2` split so that `k·LN2_HI` is exact for `|k| < 2¹¹`.
const LN2_HI: f64 = f64::from_bits(0x3FE6_2E42_FEE0_0000);
const LN2_LO: f64 = f64::from_bits(0x3DEA_39EF_3579_3C76);
/// `π/2` rounded to a double, split into halves of at most 25 significant
/// bits so that each product with a 26-bit factor is exact, and the
/// residue `π/2 − (FRAC_PI_2_HI + FRAC_PI_2_LO)`.
const FRAC_PI_2_HI: f64 = f64::from_bits(0x3FF9_21FB_5000_0000);
const FRAC_PI_2_LO: f64 = f64::from_bits(0x3E51_10B4_6000_0000);
const FRAC_PI_2_TAIL: f64 = f64::from_bits(0x3C91_A626_3314_5C07);
/// `2⁻⁵¹`, one step of a quarter-turn remainder.
const TWO_POW_M51: f64 = 1.0 / (1u64 << 51) as f64;
/// `1.5·2⁵²`: its mantissa has bit 51 set and bits 0–50 clear, so adding
/// an integer `|j| < 2⁵¹` to its bits gives the double `1.5·2⁵² + j`.
const MAGIC: f64 = 6_755_399_441_055_744.0;

// The two conversions below are exact on their domains, so they give the
// bits of `as f64`, but as an integer add and a subtraction, which stay in
// the vector registers `normal_pairs` runs in; `as f64` is a scalar
// `cvtsi2sd` on x86-64.

/// `j as f64` for `|j| < 2⁵¹`: [`MAGIC`] plus `j`, less [`MAGIC`], which
/// is exact.
#[inline]
fn small_to_f64(j: i64) -> f64 {
    f64::from_bits(MAGIC.to_bits().wrapping_add(j as u64)) - MAGIC
}

/// `n as f64` for `n ≤ 2⁵³`: the halves above and below `2²⁶` convert
/// exactly, scaling the high half by `2²⁶` is exact, and their sum is `n`,
/// which a double holds.
#[inline]
fn u53_to_f64(n: u64) -> f64 {
    const TWO_POW_26: f64 = (1u64 << 26) as f64;
    small_to_f64((n >> 26) as i64) * TWO_POW_26 + small_to_f64((n & ((1 << 26) - 1)) as i64)
}

/// `ln(n·2⁻⁵³)` for `n ∈ [1, 2⁵³]`, within one ulp.
///
/// `n = 2ᵉ·f` with `f ∈ [√½, √2)` is split exactly from the bits of `n` as
/// a double. Then `ln f = 2 atanh s` with `s = (f − 1)/(f + 1)`, finished
/// by a polynomial in `s²`, and `ln(n·2⁻⁵³) = (e − 53)·ln 2 + ln f`.
/// `n = 2⁵³` gives exactly 0.
fn ln_unit(n: u64) -> f64 {
    // n ≤ 2⁵³ converts exactly. Adding the high word of 1.0 minus that of
    // √½ carries every mantissa at or above √2's (to 20 bits) into the
    // exponent; masking the mantissa and adding √½'s high word back leaves
    // f ∈ [√½, √2) with f·2^(k+53) = n exactly, and no branch.
    const SQRT_HALF_HIGH: u64 = 0x3FE6_A09E << 32;
    let bits = u53_to_f64(n).to_bits() + ((0x3FF0_0000 << 32) - SQRT_HALF_HIGH);
    let k = small_to_f64((bits >> 52) as i64 - 1023 - 53);
    let f = f64::from_bits((bits & 0x000F_FFFF_FFFF_FFFF) + SQRT_HALF_HIGH);
    let f = f - 1.0;
    let half_f2 = 0.5 * f * f;
    let s = f / (2.0 + f);
    let z = s * s;
    let w = z * z;
    let odd = z * (LG[0] + w * (LG[2] + w * (LG[4] + w * LG[6])));
    let even = w * (LG[1] + w * (LG[3] + w * LG[5]));
    let r = odd + even;
    k * LN2_HI - ((half_f2 - (s * (half_f2 + r) + k * LN2_LO)) - f)
}

/// `(sin θ, cos θ)` for `θ = 2π·k·2⁻⁵³`, `k < 2⁵³`, within one ulp.
///
/// The nearest quarter turn `n = ⌊(k + 2⁵⁰)/2⁵¹⌋` and the remainder
/// `t = (k − n·2⁵¹)·2⁻⁵¹ ∈ [−½, ½]` are exact. `x = t·π/2` is formed as
/// a double-double (Dekker's exact product plus the residue of π/2), the
/// sine and cosine polynomials run on it (`|x| ≤ π/4`), and the quadrant
/// `n mod 4` swaps and negates them. Quadrant points give exact `0`/`±1`.
fn sin_cos_turn(k: u64) -> (f64, f64) {
    let n = (k + (1 << 50)) >> 51;
    // |j| ≤ 2⁵⁰. Splitting it at 2²⁶ (rounding to nearest) leaves halves
    // of at most 25 and 26 bits, so every partial product below is exact.
    let j = k as i64 - (n << 51) as i64;
    let j_hi = ((j + (1 << 25)) >> 26) << 26;
    let (t_hi, t_lo) = (
        small_to_f64(j_hi) * TWO_POW_M51,
        small_to_f64(j - j_hi) * TWO_POW_M51,
    );
    let t = small_to_f64(j) * TWO_POW_M51;
    let x = t * (FRAC_PI_2_HI + FRAC_PI_2_LO);
    let x_err = t_lo * FRAC_PI_2_LO
        - (((x - t_hi * FRAC_PI_2_HI) - t_lo * FRAC_PI_2_HI) - t_hi * FRAC_PI_2_LO);
    let y = x_err + t * FRAC_PI_2_TAIL;

    let z = x * x;
    let v = z * x;
    let r = SIN[1] + z * (SIN[2] + z * (SIN[3] + z * (SIN[4] + z * SIN[5])));
    let sin = x - ((z * (0.5 * y - v * r) - y) - v * SIN[0]);
    let w = z * z;
    let r = z * (COS[0] + z * (COS[1] + z * COS[2])) + w * w * (COS[3] + z * (COS[4] + z * COS[5]));
    let half_z = 0.5 * z;
    let w = 1.0 - half_z;
    let cos = w + (((1.0 - w) - half_z) + (z * r - x * y));

    // θ = n·π/2 + x: odd quadrants swap sine and cosine; the sine is
    // negative in quadrants 2 and 3, the cosine in quadrants 1 and 2.
    let (sin, cos) = if n & 1 == 0 { (sin, cos) } else { (cos, sin) };
    let negate =
        |value: f64, quadrants: u64| f64::from_bits(value.to_bits() ^ ((quadrants & 2) << 62));
    (negate(sin, n), negate(cos, n + 1))
}

/// Applies the configured non-idealities to analog quantities.
///
/// The injector is positioned on a `(seed, frame)` stream with
/// [`NoiseInjector::begin_frame`]; individual perturbations are then keyed
/// by their MAC slot or ring and take `&self`, so callers may evaluate them
/// in any order (including concurrently) without changing a single bit.
#[derive(Debug, Clone)]
pub struct NoiseInjector {
    config: NoiseConfig,
    rng: CounterRng,
}

impl NoiseInjector {
    /// Creates an injector for a configuration, positioned at
    /// `(seed 0, frame 0)` until [`NoiseInjector::begin_frame`] is called.
    #[must_use]
    pub fn new(config: NoiseConfig) -> Self {
        Self {
            config,
            rng: CounterRng::new(0, 0),
        }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }

    /// The counter-based generator the injector draws from.
    #[must_use]
    pub fn rng(&self) -> &CounterRng {
        &self.rng
    }

    /// Repositions the injector on the `(seed, frame)` noise stream. Every
    /// draw after this call is a pure function of `(seed, frame)` and its
    /// key.
    pub fn begin_frame(&mut self, seed: u64, frame: u64) {
        self.rng = CounterRng::new(seed, frame);
    }

    /// Perturbs the normalised VCSEL intensity (full scale = 1.0) of
    /// channel `channel` in the MAC at cursor `cursor` on an arm of
    /// `channels` rings, with that slot's draw ([`CounterRng::mac_normal`]),
    /// which is not computed when the sigma is zero. A zero sigma returns
    /// the intensity exactly. The result is clamped to `[0, 1]`: intensity
    /// can be neither negative nor above the saturated laser output.
    #[must_use]
    pub fn perturb_lane(
        &self,
        cursor: u64,
        channels: usize,
        channel: usize,
        intensity: f64,
    ) -> f64 {
        let sigma = self.config.vcsel_relative_sigma;
        let z = if sigma == 0.0 {
            0.0
        } else {
            self.rng.mac_normal(cursor, channels, channel)
        };
        offset_unit(intensity, sigma, z)
    }

    /// The transmission ring `index` of `row` realises in this frame when
    /// programmed to the signed `transmission`: `clamp(|t| + σ_w·z, 0, 1)`
    /// with the sign of `t`, from the ring's draw
    /// ([`CounterRng::weight_normal`]), which is not computed when
    /// `weight_sigma` is zero. A ring cannot transmit more than it
    /// receives, and the sign still selects the detector's rail.
    #[must_use]
    pub fn realise_weight(&self, row: RowId, index: u64, transmission: f64) -> f64 {
        let sigma = self.config.weight_sigma;
        let z = if sigma == 0.0 {
            0.0
        } else {
            self.rng.weight_normal(row, index)
        };
        realised(transmission, sigma, z)
    }

    /// Adds detector-referred noise to a normalised MAC result (full scale
    /// = 1.0 per accumulated term; the caller passes the already-summed
    /// value so the noise is applied once per detection event, as in
    /// hardware): the last slot of the MAC at cursor `cursor` on an arm of
    /// `channels` rings.
    #[must_use]
    pub fn perturb_detection(&self, cursor: u64, channels: usize, value: f64) -> f64 {
        let sigma = self.config.detector_relative_sigma;
        if sigma == 0.0 {
            return value;
        }
        offset(
            value,
            sigma,
            self.rng.mac_normal(cursor, channels, channels),
        )
    }
}

#[cfg(test)]
mod accuracy;

#[cfg(test)]
mod tests {
    use super::*;

    /// The Box–Muller kernels' integer-to-double conversions give the bits
    /// of `as f64` at the edges of their domains and on 10⁶ random values
    /// each, half of them spread over every magnitude.
    #[test]
    fn exact_conversions_match_as_f64() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        const SMALL: i64 = (1 << 51) - 1;
        const U53: u64 = 1 << 53;
        let check = |j: i64, n: u64| {
            assert_eq!(small_to_f64(j).to_bits(), (j as f64).to_bits(), "{j}");
            assert_eq!(u53_to_f64(n).to_bits(), (n as f64).to_bits(), "{n}");
        };
        for (j, n) in [
            (0, 0),
            (1, 1),
            (-1, (1 << 26) - 1),
            (SMALL, 1 << 26),
            (-SMALL, SMALL as u64),
            (1 << 50, 1 << 52),
            (-(1 << 50), U53 - 1),
            (SMALL - 1, U53),
        ] {
            check(j, n);
        }
        let mut rng = SmallRng::seed_from_u64(31);
        for i in 0..1_000_000 {
            let (j, n) = if i % 2 == 0 {
                (rng.gen_range(-SMALL..=SMALL), rng.gen_range(0..=U53))
            } else {
                let j = rng.gen_range(-SMALL..=SMALL) >> rng.gen_range(0..51);
                (j, rng.gen_range(0..=U53) >> rng.gen_range(0..53))
            };
            check(j, n);
        }
    }

    #[test]
    fn ideal_config_reports_ideal() {
        assert!(NoiseConfig::ideal().is_ideal());
        assert!(!NoiseConfig::default().is_ideal());
    }

    #[test]
    fn validate_rejects_non_finite_and_negative_sigmas() {
        assert!(NoiseConfig::default().validate().is_ok());
        assert!(NoiseConfig::ideal().validate().is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.5] {
            let base = NoiseConfig::default();
            for (field, config) in [
                (
                    "vcsel_relative_sigma",
                    NoiseConfig {
                        vcsel_relative_sigma: bad,
                        ..base
                    },
                ),
                (
                    "detector_relative_sigma",
                    NoiseConfig {
                        detector_relative_sigma: bad,
                        ..base
                    },
                ),
                (
                    "weight_sigma",
                    NoiseConfig {
                        weight_sigma: bad,
                        ..base
                    },
                ),
            ] {
                match config.validate() {
                    Err(PhotonicsError::InvalidParameter { name, value }) => {
                        assert_eq!(name, field);
                        assert_eq!(value.to_bits(), bad.to_bits());
                    }
                    other => panic!("{field} = {bad}: expected InvalidParameter, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn scaled_config_scales_all_terms() {
        let doubled = NoiseConfig::default().scaled(2.0);
        let base = NoiseConfig::default();
        assert!((doubled.vcsel_relative_sigma - 2.0 * base.vcsel_relative_sigma).abs() < 1e-15);
        assert!(
            (doubled.detector_relative_sigma - 2.0 * base.detector_relative_sigma).abs() < 1e-15
        );
        assert!((doubled.weight_sigma - 2.0 * base.weight_sigma).abs() < 1e-15);
    }

    #[test]
    fn scaled_clamps_negative_factors_to_ideal_sigmas() {
        let flipped = NoiseConfig::default().scaled(-3.0);
        assert_eq!(flipped.vcsel_relative_sigma, 0.0);
        assert_eq!(flipped.detector_relative_sigma, 0.0);
        assert_eq!(flipped.weight_sigma, 0.0);
        // Crosstalk is not a stochastic term and is preserved.
        assert!(flipped.apply_crosstalk);
        let nan = NoiseConfig::default().scaled(f64::NAN);
        assert_eq!(nan.weight_sigma, 0.0);
    }

    #[test]
    fn counter_rng_is_a_pure_function_of_its_key() {
        let rng = CounterRng::new(42, 3);
        for element in [0u64, 1, 17, u64::MAX] {
            for channel in [
                NoiseChannel::Intensity,
                NoiseChannel::Weight,
                NoiseChannel::Detection,
            ] {
                let a = rng.standard_normal(channel, element);
                let b = rng.standard_normal(channel, element);
                assert_eq!(a.to_bits(), b.to_bits());
                assert!(a.is_finite());
            }
        }
        // Any coordinate change produces a different draw.
        let base = rng.standard_normal(NoiseChannel::Intensity, 5);
        assert_ne!(
            base.to_bits(),
            CounterRng::new(43, 3)
                .standard_normal(NoiseChannel::Intensity, 5)
                .to_bits()
        );
        assert_ne!(
            base.to_bits(),
            CounterRng::new(42, 4)
                .standard_normal(NoiseChannel::Intensity, 5)
                .to_bits()
        );
        assert_ne!(
            base.to_bits(),
            rng.standard_normal(NoiseChannel::Weight, 5).to_bits()
        );
        assert_ne!(
            base.to_bits(),
            rng.standard_normal(NoiseChannel::Intensity, 6).to_bits()
        );
    }

    #[test]
    fn counter_rng_zero_sigma_is_deterministic() {
        let rng = CounterRng::new(1, 0);
        assert_eq!(rng.sample(NoiseChannel::Weight, 9, 0.7, 0.0), 0.7);
    }

    #[test]
    fn counter_rng_statistics_are_reasonable() {
        let rng = CounterRng::new(42, 0);
        let n = 20_000u64;
        let samples: Vec<f64> = (0..n)
            .map(|element| rng.sample(NoiseChannel::Detection, element, 1.0, 0.5))
            .collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.02, "sample mean {mean}");
        assert!(
            (var.sqrt() - 0.5).abs() < 0.02,
            "sample sigma {}",
            var.sqrt()
        );
    }

    /// A MAC's slots are the branches of its keyed blocks, two to a block,
    /// and the flat channel streams name the same draws; a ring's draw is
    /// its row's block branch, and layer 0's rings are the flat weight
    /// stream.
    #[test]
    fn mac_normals_are_the_keyed_slot_draws() {
        for (seed, frame) in [(0u64, 0u64), (7, 13), (u64::MAX, 1 << 40)] {
            let rng = CounterRng::new(seed, frame);
            for channels in [1usize, 2, 4, 9, 16] {
                let per_mac = mac_blocks(channels) as u64;
                assert_eq!(per_mac, (channels as u64 + 2) / 2);
                for cursor in (0..200u64).chain([1 << 40, u64::MAX - 1, u64::MAX]) {
                    for slot in 0..=channels {
                        let got = rng.mac_normal(cursor, channels, slot);
                        let block = cursor.wrapping_mul(per_mac).wrapping_add(slot as u64 / 2);
                        let (cos, sin) = normal_pair(rng.mac_block(block));
                        let want = if slot.is_multiple_of(2) { cos } else { sin };
                        assert_eq!(got.to_bits(), want.to_bits());
                        if cursor < 1 << 40 {
                            let element = 2 * cursor * per_mac + slot as u64;
                            for channel in [NoiseChannel::Intensity, NoiseChannel::Detection] {
                                let flat = rng.standard_normal(channel, element);
                                assert_eq!(got.to_bits(), flat.to_bits());
                            }
                        }
                    }
                }
            }
            for (layer, row) in [(0u64, 0u64), (0, 3), (4, 1 << 20)] {
                let id = RowId { layer, row };
                for ring in (0..500u64).chain([(1 << 33) - 2, (1 << 33) - 1]) {
                    let got = rng.weight_normal(id, ring);
                    let (cos, sin) = normal_pair(rng.weight_block(id, ring / 2));
                    let want = if ring.is_multiple_of(2) { cos } else { sin };
                    assert_eq!(got.to_bits(), want.to_bits());
                    if layer == 0 {
                        let flat = rng.standard_normal(NoiseChannel::Weight, (row << 33) + ring);
                        assert_eq!(got.to_bits(), flat.to_bits());
                    }
                }
            }
        }
    }

    /// Over 2·10⁴ 9-lane MACs, every packed slot, detection included, is a
    /// standard normal, and the cosine and sine slots of each block are
    /// uncorrelated.
    #[test]
    fn packed_normals_are_standard_and_uncorrelated() {
        const CHANNELS: usize = 9;
        let rng = CounterRng::new(42, 5);
        let n = 20_000u64;
        let slots: Vec<Vec<f64>> = (0..=CHANNELS)
            .map(|slot| {
                (0..n)
                    .map(|cursor| rng.mac_normal(cursor, CHANNELS, slot))
                    .collect()
            })
            .collect();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / n as f64;
        let moments: Vec<(f64, f64)> = slots
            .iter()
            .map(|xs| {
                let m = mean(xs);
                (
                    m,
                    (xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n as f64).sqrt(),
                )
            })
            .collect();
        for (slot, &(m, sigma)) in moments.iter().enumerate() {
            assert!(m.abs() < 0.03, "slot {slot} mean {m}");
            assert!((sigma - 1.0).abs() < 0.02, "slot {slot} sigma {sigma}");
        }
        for cos in (0..=CHANNELS).step_by(2) {
            let sin = cos + 1;
            let ((m_cos, s_cos), (m_sin, s_sin)) = (moments[cos], moments[sin]);
            let products: Vec<f64> = slots[cos]
                .iter()
                .zip(&slots[sin])
                .map(|(a, b)| (a - m_cos) * (b - m_sin))
                .collect();
            let correlation = mean(&products) / (s_cos * s_sin);
            assert!(
                correlation.abs() < 0.02,
                "slots {cos}, {sin}: {correlation}"
            );
        }
    }

    /// A zero sigma returns its mean exactly while the other channel still
    /// draws.
    #[test]
    fn perturb_lane_returns_the_mean_of_a_zero_sigma_channel() {
        for config in [
            NoiseConfig {
                vcsel_relative_sigma: 0.0,
                ..NoiseConfig::default()
            },
            NoiseConfig {
                weight_sigma: 0.0,
                ..NoiseConfig::default()
            },
        ] {
            let mut injector = NoiseInjector::new(config);
            injector.begin_frame(9, 4);
            for element in 0..256u64 {
                let i = injector.perturb_lane(element, 9, (element % 9) as usize, 0.375);
                let w = injector.realise_weight(RowId::default(), element, 0.625);
                assert_eq!(i == 0.375, config.vcsel_relative_sigma == 0.0);
                assert_eq!(w == 0.625, config.weight_sigma == 0.0);
            }
        }
    }

    #[test]
    fn perturbed_values_stay_in_physical_range() {
        let mut injector = NoiseInjector::new(NoiseConfig::default().scaled(20.0));
        injector.begin_frame(3, 0);
        for element in 0..1_000u64 {
            let i = injector.perturb_lane(element, 9, (element % 9) as usize, 0.98);
            let w = injector.realise_weight(RowId::default(), element, 0.02);
            // The sign of a negative weight is kept for the rail.
            let negative = injector.realise_weight(RowId::default(), element, -0.98);
            assert!((0.0..=1.0).contains(&i));
            assert!((0.0..=1.0).contains(&w));
            assert!((-1.0..=0.0).contains(&negative) && negative.is_sign_negative());
        }
    }

    #[test]
    fn ideal_injector_is_transparent() {
        let mut injector = NoiseInjector::new(NoiseConfig::ideal());
        injector.begin_frame(5, 2);
        assert_eq!(injector.perturb_lane(0, 9, 0, 0.33), 0.33);
        assert_eq!(injector.realise_weight(RowId::default(), 0, 0.66), 0.66);
        assert_eq!(injector.realise_weight(RowId::default(), 1, -0.66), -0.66);
        assert_eq!(injector.perturb_detection(2, 9, -0.4), -0.4);
    }

    #[test]
    fn detection_noise_can_be_negative() {
        let mut injector = NoiseInjector::new(NoiseConfig {
            detector_relative_sigma: 0.5,
            ..NoiseConfig::default()
        });
        injector.begin_frame(11, 0);
        let saw_below = (0..200u64).any(|cursor| injector.perturb_detection(cursor, 9, 0.0) < 0.0);
        assert!(
            saw_below,
            "detector noise must be able to push values negative"
        );
    }

    /// Regression test for the cross-channel spare-coupling bug: with the
    /// old sequential Box–Muller stream, zeroing one channel's sigma (which
    /// skipped its draws) shifted every later draw in the *other* channels.
    /// With keyed draws, ablating any one channel leaves the other two
    /// bit-identical.
    #[test]
    fn zeroing_one_channel_leaves_other_channels_bit_identical() {
        let base = NoiseConfig::default();
        let ablations = [
            NoiseConfig {
                vcsel_relative_sigma: 0.0,
                ..base
            },
            NoiseConfig {
                weight_sigma: 0.0,
                ..base
            },
            NoiseConfig {
                detector_relative_sigma: 0.0,
                ..base
            },
        ];
        for ablated_config in ablations {
            let mut full = NoiseInjector::new(base);
            let mut ablated = NoiseInjector::new(ablated_config);
            full.begin_frame(7, 13);
            ablated.begin_frame(7, 13);
            let row = RowId { layer: 2, row: 5 };
            for cursor in 0..64u64 {
                for channel in 0..9 {
                    if ablated_config.vcsel_relative_sigma != 0.0 {
                        assert_eq!(
                            full.perturb_lane(cursor, 9, channel, 0.5).to_bits(),
                            ablated.perturb_lane(cursor, 9, channel, 0.5).to_bits()
                        );
                    }
                }
                if ablated_config.weight_sigma != 0.0 {
                    assert_eq!(
                        full.realise_weight(row, cursor, 0.5).to_bits(),
                        ablated.realise_weight(row, cursor, 0.5).to_bits()
                    );
                }
                if ablated_config.detector_relative_sigma != 0.0 {
                    assert_eq!(
                        full.perturb_detection(cursor, 9, 0.5).to_bits(),
                        ablated.perturb_detection(cursor, 9, 0.5).to_bits()
                    );
                }
            }
        }
    }
}
