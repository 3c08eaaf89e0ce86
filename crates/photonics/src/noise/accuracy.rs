//! Accuracy of the Box–Muller kernels ([`ln_unit`], [`sin_cos_turn`])
//! against a double-double reference evaluated here with `+ − × ÷` alone:
//! no libm and no dependency. Its constants come from series too:
//! `ln 2 = 2 atanh(1/3)` and `π/2 = 2·(4 atan(1/5) − atan(1/239))` (Machin).
//! The reference carries about 100 bits, so its own error is far below the
//! 2-ulp bound the kernels are held to.
//!
//! Inputs are the edges (`u1 = 1`, `u1 = 2⁻⁵³`, `u2 = 0`, every quadrant
//! point and both sides of every quarter-turn rounding flip) plus the words
//! of keyed Philox blocks. The tier-1 test checks 2¹⁸ blocks; the same
//! body over 10⁷ blocks is `#[ignore]`d and run in release by CI:
//!
//! ```text
//! cargo test --release -p lightator-photonics --lib -- --ignored noise::accuracy
//! ```

use super::{ln_unit, sin_cos_turn, CounterRng, MAC_TAG, WEIGHT_TAG};
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Error bound of every kernel, in ulps of the exact result.
const MAX_ULPS: f64 = 2.0;

/// An unevaluated sum `hi + lo` with `|lo| ≤ ulp(hi)/2`.
#[derive(Debug, Clone, Copy)]
struct Dd {
    hi: f64,
    lo: f64,
}

impl Dd {
    const fn new(value: f64) -> Self {
        Self { hi: value, lo: 0.0 }
    }

    /// Knuth's two-sum: `a + b` exactly.
    fn two_sum(a: f64, b: f64) -> Self {
        let hi = a + b;
        let b_virtual = hi - a;
        let lo = (a - (hi - b_virtual)) + (b - b_virtual);
        Self { hi, lo }
    }

    /// `a + b` exactly, for `|a| ≥ |b|`.
    fn quick_two_sum(a: f64, b: f64) -> Self {
        let hi = a + b;
        Self {
            hi,
            lo: b - (hi - a),
        }
    }

    /// Dekker's two-product with Veltkamp's split: `a·b` exactly.
    fn two_prod(a: f64, b: f64) -> Self {
        let split = |x: f64| {
            let c = 134_217_729.0 * x;
            let hi = c - (c - x);
            (hi, x - hi)
        };
        let hi = a * b;
        let ((a_hi, a_lo), (b_hi, b_lo)) = (split(a), split(b));
        let lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo;
        Self { hi, lo }
    }

    fn abs(self) -> Self {
        if self.hi < 0.0 {
            -self
        } else {
            self
        }
    }
}

impl Add for Dd {
    type Output = Self;
    fn add(self, other: Self) -> Self {
        let s = Self::two_sum(self.hi, other.hi);
        let t = Self::two_sum(self.lo, other.lo);
        let s = Self::quick_two_sum(s.hi, s.lo + t.hi);
        Self::quick_two_sum(s.hi, s.lo + t.lo)
    }
}

impl Neg for Dd {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            hi: -self.hi,
            lo: -self.lo,
        }
    }
}

impl Sub for Dd {
    type Output = Self;
    fn sub(self, other: Self) -> Self {
        self + -other
    }
}

impl Mul for Dd {
    type Output = Self;
    fn mul(self, other: Self) -> Self {
        let p = Self::two_prod(self.hi, other.hi);
        Self::quick_two_sum(p.hi, p.lo + (self.hi * other.lo + self.lo * other.hi))
    }
}

impl Div for Dd {
    type Output = Self;
    fn div(self, other: Self) -> Self {
        let q1 = self.hi / other.hi;
        let r = self - other * Dd::new(q1);
        let q2 = r.hi / other.hi;
        let r = r - other * Dd::new(q2);
        let q3 = r.hi / other.hi;
        Self::quick_two_sum(q1, q2) + Dd::new(q3)
    }
}

/// `Σ x^(2i+1)/(2i+1)` (atanh) or, with `alternate`, `Σ (−1)ⁱ·x^(2i+1)/(2i+1)`
/// (atan), until a term no longer moves the sum.
fn odd_series(x: Dd, alternate: bool) -> Dd {
    let x2 = x * x;
    let (mut power, mut sum) = (x, x);
    for i in 1u32.. {
        power = power * x2;
        let term = power / Dd::new(f64::from(2 * i + 1));
        if term.abs().hi <= sum.abs().hi * 1e-33 {
            break;
        }
        sum = if alternate && i % 2 == 1 {
            sum - term
        } else {
            sum + term
        };
    }
    sum
}

/// `p(z) = Σ cᵢ·zⁱ` by Horner's rule.
fn horner(coefficients: &[Dd], z: Dd) -> Dd {
    coefficients
        .iter()
        .rev()
        .fold(Dd::new(0.0), |acc, &c| acc * z + c)
}

/// The reference functions: double-double constants and series
/// coefficients, computed once.
struct Reference {
    ln2: Dd,
    frac_pi_2: Dd,
    /// `1/(2i+1)`: `atanh s = s·Σ s²ⁱ/(2i+1)`; 21 terms reach 10⁻³⁴ for
    /// `s² ≤ (3 − 2√2)²`.
    atanh: Vec<Dd>,
    /// `(−1)ⁱ/(2i+1)!` and `(−1)ⁱ/(2i)!`; 15 terms reach 10⁻³⁴ for
    /// `|x| ≤ π/4`.
    sin: Vec<Dd>,
    cos: Vec<Dd>,
}

impl Reference {
    fn new() -> Self {
        let ln2 = Dd::new(2.0) * odd_series(Dd::new(1.0) / Dd::new(3.0), false);
        let atan = |d: f64| odd_series(Dd::new(1.0) / Dd::new(d), true);
        let frac_pi_2 = Dd::new(2.0) * (Dd::new(4.0) * atan(5.0) - atan(239.0));
        let atanh = (0..21)
            .map(|i| Dd::new(1.0) / Dd::new(f64::from(2 * i + 1)))
            .collect();
        // 1/n! for n < 30, then the alternating odd and even terms.
        let mut inverse_factorial = vec![Dd::new(1.0)];
        for n in 1..30 {
            let previous = inverse_factorial[n - 1];
            inverse_factorial.push(previous / Dd::new(n as f64));
        }
        let alternate = |i: usize, value: Dd| if i.is_multiple_of(2) { value } else { -value };
        let sin = (0..15)
            .map(|i| alternate(i, inverse_factorial[2 * i + 1]))
            .collect();
        let cos = (0..15)
            .map(|i| alternate(i, inverse_factorial[2 * i]))
            .collect();
        Self {
            ln2,
            frac_pi_2,
            atanh,
            sin,
            cos,
        }
    }

    /// `ln(n·2⁻⁵³)`: `n = 2ᵉ·f` with `f ∈ [√½, √2)` and
    /// `ln f = 2 atanh((f−1)/(f+1))`.
    fn ln(&self, n: u64) -> Dd {
        let mut e = 63 - n.leading_zeros();
        let mut f = n as f64 / (1u64 << e) as f64;
        if f * f >= 2.0 {
            f /= 2.0;
            e += 1;
        }
        let f = Dd::new(f);
        let s = (f - Dd::new(1.0)) / (f + Dd::new(1.0));
        Dd::new(f64::from(e) - 53.0) * self.ln2 + Dd::new(2.0) * s * horner(&self.atanh, s * s)
    }

    /// `(sin, cos)` of `2π·k·2⁻⁵³` by Taylor series on the nearest quarter
    /// turn's remainder `x = (k/2⁵¹ − q)·π/2`, `|x| ≤ π/4`.
    fn sin_cos(&self, k: u64) -> (Dd, Dd) {
        let q = (k + (1 << 50)) / (1 << 51);
        let t = (k as i64 - (q as i64) * (1 << 51)) as f64 / (1u64 << 51) as f64;
        let x = Dd::new(t) * self.frac_pi_2;
        let x2 = x * x;
        let (sin, cos) = (x * horner(&self.sin, x2), horner(&self.cos, x2));
        match q % 4 {
            0 => (sin, cos),
            1 => (cos, -sin),
            2 => (-sin, -cos),
            _ => (-cos, sin),
        }
    }
}

/// `|got − exact|` in ulps of `exact`; an exact zero must be met exactly.
fn ulps(got: f64, exact: Dd) -> f64 {
    if exact.hi == 0.0 {
        return if got == 0.0 { 0.0 } else { f64::INFINITY };
    }
    let ulp = f64::from_bits(exact.hi.abs().to_bits() & (0x7FF << 52)) / (1u64 << 52) as f64;
    ((got - exact.hi) - exact.lo).abs() / ulp
}

/// The worst error seen per kernel, with the input that produced it.
#[derive(Debug, Default)]
struct Worst {
    ln: (f64, u64),
    sin: (f64, u64),
    cos: (f64, u64),
}

struct Checker {
    reference: Reference,
    worst: Worst,
}

impl Checker {
    fn new() -> Self {
        Self {
            reference: Reference::new(),
            worst: Worst::default(),
        }
    }

    fn ln(&mut self, n: u64) {
        let error = ulps(ln_unit(n), self.reference.ln(n));
        if error > self.worst.ln.0 || error.is_nan() {
            self.worst.ln = (error, n);
        }
    }

    fn sin_cos(&mut self, k: u64) {
        let (sin, cos) = sin_cos_turn(k);
        let (exact_sin, exact_cos) = self.reference.sin_cos(k);
        let (sin_error, cos_error) = (ulps(sin, exact_sin), ulps(cos, exact_cos));
        if sin_error > self.worst.sin.0 || sin_error.is_nan() {
            self.worst.sin = (sin_error, k);
        }
        if cos_error > self.worst.cos.0 || cos_error.is_nan() {
            self.worst.cos = (cos_error, k);
        }
    }

    /// Both kernels on the words of `blocks` keyed Philox blocks.
    fn keyed_blocks(&mut self, blocks: u64) {
        let keys = [(7u64, 0u64), (u64::MAX, 1 << 40), (0x5EED, 3)];
        for element in 0..blocks {
            let (seed, frame) = keys[(element % 3) as usize];
            let tag = if element.is_multiple_of(2) {
                MAC_TAG
            } else {
                WEIGHT_TAG
            };
            let [x0, x1] = CounterRng::new(seed, frame).block(tag, element / 3);
            self.ln((x0 >> 11) + 1);
            self.sin_cos(x1 >> 11);
        }
    }

    fn assert_within_bound(&self) {
        let Worst { ln, sin, cos } = self.worst;
        eprintln!("worst error (ulp, input): ln {ln:?}, sin {sin:?}, cos {cos:?}");
        for (kernel, (error, input)) in [("ln", ln), ("sin", sin), ("cos", cos)] {
            assert!(
                error <= MAX_ULPS,
                "{kernel} is off by {error} ulp at input {input:#x}"
            );
        }
    }
}

#[test]
fn reference_constants_match_their_rounded_doubles() {
    let Reference { ln2, frac_pi_2, .. } = Reference::new();
    assert_eq!(ln2.hi, std::f64::consts::LN_2);
    assert_eq!(frac_pi_2.hi, std::f64::consts::FRAC_PI_2);
    // The kernels' split constants carry the same values.
    assert!(
        (ln2 - Dd::new(super::LN2_HI) - Dd::new(super::LN2_LO))
            .hi
            .abs()
            < 1e-25
    );
    let residue = frac_pi_2 - Dd::new(super::FRAC_PI_2_HI) - Dd::new(super::FRAC_PI_2_LO);
    assert!((residue.hi - super::FRAC_PI_2_TAIL).abs() < 1e-30);
}

#[test]
fn edges_are_exact_where_the_result_is() {
    // u1 = 1: ln and r are exactly 0. u2 = 0: sin 0 and cos 1 exactly.
    assert_eq!(ln_unit(1 << 53), 0.0);
    let (r, sin, cos) = CounterRng::polar([u64::MAX, 0]);
    assert_eq!((r, sin, cos), (0.0, 0.0, 1.0));
    // Every quadrant point gives exact 0 and ±1.
    for (quadrant, expected) in [
        (0, (0.0, 1.0)),
        (1, (1.0, 0.0)),
        (2, (0.0, -1.0)),
        (3, (-1.0, 0.0)),
    ] {
        assert_eq!(
            sin_cos_turn(quadrant << 51),
            expected,
            "quadrant {quadrant}"
        );
    }
}

#[test]
fn edges_are_within_two_ulps() {
    let mut checker = Checker::new();
    // u1 = 2⁻⁵³ and its neighbours, u1 = 1 and just below it, and every
    // binade boundary of n.
    for n in [1, 2, 3, (1 << 53) - 1, 1 << 53] {
        checker.ln(n);
    }
    for e in 1..=53 {
        for n in [(1u64 << e) - 1, 1 << e, (1 << e) + 1] {
            checker.ln(n.min(1 << 53));
        }
    }
    // Quadrant points and their neighbours; both sides of every
    // k = 2⁵⁰·(2j+1), where the nearest quarter turn flips.
    for quadrant in 0u64..=4 {
        let point = quadrant << 51;
        for k in [point.wrapping_sub(1), point, point + 1] {
            if k < 1 << 53 {
                checker.sin_cos(k);
            }
        }
    }
    for j in 0u64..4 {
        let flip = (1u64 << 50) * (2 * j + 1);
        for k in flip - 2..=flip + 2 {
            checker.sin_cos(k);
        }
    }
    checker.assert_within_bound();
}

#[test]
fn keyed_draws_are_within_two_ulps() {
    let mut checker = Checker::new();
    checker.keyed_blocks(1 << 18);
    checker.assert_within_bound();
}

#[test]
#[ignore = "10⁷ keyed blocks; run in release"]
fn ten_million_keyed_draws_are_within_two_ulps() {
    let mut checker = Checker::new();
    checker.keyed_blocks(10_000_000);
    checker.assert_within_bound();
}
