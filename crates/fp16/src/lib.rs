//! Software IEEE 754 binary16 ("half precision", FP16) arithmetic.
//!
//! The paper evaluates every transformer model in FP16, and the correctness of
//! *safe softmax* and of the decomposed softmax (LS / IR / GS sub-layers)
//! depends on half-precision range and rounding behaviour — e.g. `e^{x-m}`
//! is computed specifically so that intermediate exponentials stay inside
//! binary16's tiny dynamic range (max finite value 65504). To reproduce those
//! numerics faithfully without GPU hardware, this crate implements binary16
//! bit-exactly in software:
//!
//! * [`F16`] — a 16-bit storage type with correct conversions to/from `f32`
//!   and `f64`. Narrowing rounds once, to nearest with ties to even,
//!   including subnormals, overflow to infinity and NaNs (quieted).
//!   Widening is exact. No conversion takes a data-dependent branch: each
//!   computes its normal and its subnormal result and selects one, so every
//!   element costs the same few operations whatever its value.
//! * Arithmetic operators that compute in `f32` and round back to binary16
//!   after every operation, matching how GPU CUDA cores treat scalar half
//!   math (fused wide ops are opt-in via [`F16::mul_add`]).
//! * Inspection helpers ([`F16::is_nan`], [`F16::classify`], [`F16::ulp`],
//!   [`ulp_distance`]) used by the test suites to state accuracy bounds.
//!
//! # Examples
//!
//! ```
//! use resoftmax_fp16::F16;
//!
//! let a = F16::from_f32(1.5);
//! let b = F16::from_f32(2.25);
//! assert_eq!((a + b).to_f32(), 3.75);
//!
//! // binary16 saturates to infinity beyond 65504:
//! assert!(F16::from_f32(70000.0).is_infinite());
//!
//! // safe softmax exists precisely because of this:
//! assert!(F16::from_f32(12.0).to_f32().exp() > 65504.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod ops;

use core::cmp::Ordering;
use core::fmt;
use core::num::FpCategory;

pub use convert::{
    f16_bits_from_f32, f16_bits_from_f32_slice, f32_from_f16_bits, f32_from_f16_bits_slice,
};

/// An IEEE 754 binary16 floating-point number stored as its raw bit pattern.
///
/// Layout: 1 sign bit, 5 exponent bits (bias 15), 10 mantissa bits.
///
/// All arithmetic rounds to nearest-even after every operation, which is the
/// behaviour of scalar half-precision math on the GPUs modeled by
/// `resoftmax-gpusim`.
#[derive(Clone, Copy, Default)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct F16(pub(crate) u16);

/// Number of mantissa (fraction) bits in binary16.
pub const MANTISSA_BITS: u32 = 10;
/// Exponent bias of binary16.
pub const EXPONENT_BIAS: i32 = 15;

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0x0000);
    /// Negative zero.
    pub const NEG_ZERO: F16 = F16(0x8000);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Negative one.
    pub const NEG_ONE: F16 = F16(0xBC00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Negative infinity.
    pub const NEG_INFINITY: F16 = F16(0xFC00);
    /// A quiet NaN.
    pub const NAN: F16 = F16(0x7E00);
    /// Largest finite value, `65504.0`.
    pub const MAX: F16 = F16(0x7BFF);
    /// Smallest finite value, `-65504.0`.
    pub const MIN: F16 = F16(0xFBFF);
    /// Smallest positive normal value, `2^-14`.
    pub const MIN_POSITIVE: F16 = F16(0x0400);
    /// Smallest positive subnormal value, `2^-24`.
    pub const MIN_POSITIVE_SUBNORMAL: F16 = F16(0x0001);
    /// Machine epsilon: difference between 1.0 and the next representable
    /// value, `2^-10`.
    pub const EPSILON: F16 = F16(0x1400);

    /// Creates an `F16` from its raw bit pattern.
    #[inline]
    pub const fn from_bits(bits: u16) -> Self {
        F16(bits)
    }

    /// Returns the raw bit pattern.
    #[inline]
    pub const fn to_bits(self) -> u16 {
        self.0
    }

    /// Converts an `f32` to binary16 with round-to-nearest-even.
    ///
    /// Values with magnitude above [`F16::MAX`] become infinities; tiny values
    /// round to subnormals or zero. NaNs stay NaNs (payload is normalized to a
    /// quiet NaN).
    #[inline]
    pub fn from_f32(x: f32) -> Self {
        F16(convert::f16_bits_from_f32(x))
    }

    /// Converts an `f64` to binary16 with a single rounding.
    ///
    /// Going through `f32` first could double-round; this converts directly
    /// from the `f64` bit pattern instead.
    #[inline]
    pub fn from_f64(x: f64) -> Self {
        F16(convert::f16_bits_from_f64(x))
    }

    /// Widens to `f32` (exact; every binary16 value is representable).
    #[inline]
    pub fn to_f32(self) -> f32 {
        convert::f32_from_f16_bits(self.0)
    }

    /// Widens to `f64` (exact).
    #[inline]
    pub fn to_f64(self) -> f64 {
        self.to_f32() as f64
    }

    /// Returns `true` if the value is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7FFF) > 0x7C00
    }

    /// Returns `true` for positive or negative infinity.
    #[inline]
    pub fn is_infinite(self) -> bool {
        (self.0 & 0x7FFF) == 0x7C00
    }

    /// Returns `true` if the value is neither infinite nor NaN.
    #[inline]
    pub fn is_finite(self) -> bool {
        (self.0 & 0x7C00) != 0x7C00
    }

    /// Returns `true` for +0.0 or -0.0.
    #[inline]
    pub fn is_zero(self) -> bool {
        (self.0 & 0x7FFF) == 0
    }

    /// Returns `true` if the value is subnormal (nonzero with biased
    /// exponent 0).
    #[inline]
    pub fn is_subnormal(self) -> bool {
        (self.0 & 0x7C00) == 0 && (self.0 & 0x03FF) != 0
    }

    /// Returns `true` if the sign bit is set (including -0.0 and NaNs with a
    /// sign bit).
    #[inline]
    pub fn is_sign_negative(self) -> bool {
        self.0 & 0x8000 != 0
    }

    /// Returns `true` if the sign bit is clear.
    #[inline]
    pub fn is_sign_positive(self) -> bool {
        !self.is_sign_negative()
    }

    /// Floating-point category of the value.
    pub fn classify(self) -> FpCategory {
        let exp = self.0 & 0x7C00;
        let man = self.0 & 0x03FF;
        match (exp, man) {
            (0, 0) => FpCategory::Zero,
            (0, _) => FpCategory::Subnormal,
            (0x7C00, 0) => FpCategory::Infinite,
            (0x7C00, _) => FpCategory::Nan,
            _ => FpCategory::Normal,
        }
    }

    /// Absolute value (clears the sign bit).
    #[inline]
    pub fn abs(self) -> Self {
        F16(self.0 & 0x7FFF)
    }

    /// Negation (flips the sign bit, like IEEE negate).
    #[inline]
    pub fn negate(self) -> Self {
        F16(self.0 ^ 0x8000)
    }

    /// `e^self`, computed in `f32` and rounded once to binary16.
    #[inline]
    pub fn exp(self) -> Self {
        F16::from_f32(self.to_f32().exp())
    }

    /// Natural logarithm, computed in `f32` and rounded once to binary16.
    #[inline]
    pub fn ln(self) -> Self {
        F16::from_f32(self.to_f32().ln())
    }

    /// Square root, computed in `f32` and rounded once to binary16.
    #[inline]
    pub fn sqrt(self) -> Self {
        F16::from_f32(self.to_f32().sqrt())
    }

    /// Reciprocal `1/self` with a single rounding.
    #[inline]
    pub fn recip(self) -> Self {
        F16::from_f32(self.to_f32().recip())
    }

    /// Fused multiply-add `self * a + b` with a *single* rounding at the end,
    /// matching GPU HFMA behaviour.
    #[inline]
    pub fn mul_add(self, a: F16, b: F16) -> Self {
        F16::from_f64(self.to_f64() * a.to_f64() + b.to_f64())
    }

    /// IEEE maximum: propagates the non-NaN operand if exactly one is NaN
    /// (like CUDA `__hmax` / `fmax`), returns NaN if both are.
    pub fn max(self, other: F16) -> Self {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => F16::NAN,
            (true, false) => other,
            (false, true) => self,
            (false, false) => {
                if self.to_f32() >= other.to_f32() {
                    self
                } else {
                    other
                }
            }
        }
    }

    /// IEEE minimum with the same NaN handling as [`F16::max`].
    pub fn min(self, other: F16) -> Self {
        match (self.is_nan(), other.is_nan()) {
            (true, true) => F16::NAN,
            (true, false) => other,
            (false, true) => self,
            (false, false) => {
                if self.to_f32() <= other.to_f32() {
                    self
                } else {
                    other
                }
            }
        }
    }

    /// The size of one unit-in-the-last-place at this value's magnitude.
    ///
    /// Returns infinity for infinities and NaN for NaN.
    pub fn ulp(self) -> f32 {
        if self.is_nan() {
            return f32::NAN;
        }
        if self.is_infinite() {
            return f32::INFINITY;
        }
        let exp_bits = ((self.0 >> MANTISSA_BITS) & 0x1F) as i32;
        let exp = if exp_bits == 0 {
            // subnormal range: ulp = 2^-24
            1 - EXPONENT_BIAS - MANTISSA_BITS as i32
        } else {
            exp_bits - EXPONENT_BIAS - MANTISSA_BITS as i32
        };
        (exp as f32).exp2()
    }

    /// Next representable value toward +infinity.
    ///
    /// # Panics
    ///
    /// Panics if `self` is NaN or +infinity.
    pub fn next_up(self) -> Self {
        assert!(!self.is_nan(), "next_up of NaN");
        assert!(
            self != F16::INFINITY,
            "next_up of +infinity is not representable"
        );
        if self.is_sign_negative() {
            if (self.0 & 0x7FFF) == 0 {
                // -0.0 -> smallest positive subnormal
                F16(0x0001)
            } else {
                F16(self.0 - 1)
            }
        } else {
            F16(self.0 + 1)
        }
    }

    /// Total order rank used for ULP distance: maps the 16-bit patterns onto a
    /// monotone integer line (negative values reversed), so adjacent
    /// representable values differ by exactly 1.
    fn monotone_rank(self) -> i32 {
        let b = self.0;
        if b & 0x8000 != 0 {
            -((b & 0x7FFF) as i32)
        } else {
            (b & 0x7FFF) as i32
        }
    }
}

/// Number of representable binary16 values between `a` and `b`
/// (0 when bit-identical or when both are zeros of either sign).
///
/// Returns `u32::MAX` if either input is NaN, so NaNs never pass an ULP bound.
///
/// # Examples
///
/// ```
/// use resoftmax_fp16::{ulp_distance, F16};
/// let one = F16::ONE;
/// assert_eq!(ulp_distance(one, one.next_up()), 1);
/// assert_eq!(ulp_distance(F16::ZERO, F16::NEG_ZERO), 0);
/// ```
pub fn ulp_distance(a: F16, b: F16) -> u32 {
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    a.monotone_rank().abs_diff(b.monotone_rank())
}

impl PartialEq for F16 {
    fn eq(&self, other: &Self) -> bool {
        if self.is_nan() || other.is_nan() {
            return false;
        }
        // +0 == -0
        if self.is_zero() && other.is_zero() {
            return true;
        }
        self.0 == other.0
    }
}

impl PartialOrd for F16 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.to_f32().partial_cmp(&other.to_f32())
    }
}

impl fmt::Debug for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "F16({})", self.to_f32())
    }
}

impl fmt::Display for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&self.to_f32(), f)
    }
}

impl fmt::LowerHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl fmt::Binary for F16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Binary::fmt(&self.0, f)
    }
}

impl From<f32> for F16 {
    fn from(x: f32) -> Self {
        F16::from_f32(x)
    }
}

impl From<F16> for f32 {
    fn from(x: F16) -> Self {
        x.to_f32()
    }
}

impl From<F16> for f64 {
    fn from(x: F16) -> Self {
        x.to_f64()
    }
}

impl From<i8> for F16 {
    fn from(x: i8) -> Self {
        F16::from_f32(x as f32)
    }
}

impl From<u8> for F16 {
    fn from(x: u8) -> Self {
        F16::from_f32(x as f32)
    }
}

impl core::str::FromStr for F16 {
    type Err = core::num::ParseFloatError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.parse::<f32>().map(F16::from_f32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_round_trip() {
        assert_eq!(F16::ZERO.to_f32(), 0.0);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::NEG_ONE.to_f32(), -1.0);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
        assert_eq!(F16::MIN.to_f32(), -65504.0);
        assert_eq!(F16::MIN_POSITIVE.to_f32(), 2.0f32.powi(-14));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.to_f32(), 2.0f32.powi(-24));
        assert_eq!(F16::EPSILON.to_f32(), 2.0f32.powi(-10));
        assert!(F16::NAN.is_nan());
        assert!(F16::INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_infinite());
        assert!(F16::NEG_INFINITY.is_sign_negative());
    }

    #[test]
    fn classify_covers_all_categories() {
        assert_eq!(F16::ZERO.classify(), FpCategory::Zero);
        assert_eq!(F16::NEG_ZERO.classify(), FpCategory::Zero);
        assert_eq!(
            F16::MIN_POSITIVE_SUBNORMAL.classify(),
            FpCategory::Subnormal
        );
        assert_eq!(F16::ONE.classify(), FpCategory::Normal);
        assert_eq!(F16::INFINITY.classify(), FpCategory::Infinite);
        assert_eq!(F16::NAN.classify(), FpCategory::Nan);
    }

    #[test]
    fn zero_signs_compare_equal() {
        assert_eq!(F16::ZERO, F16::NEG_ZERO);
        assert_ne!(F16::ZERO.to_bits(), F16::NEG_ZERO.to_bits());
    }

    #[test]
    fn nan_is_not_equal_to_itself() {
        assert_ne!(F16::NAN, F16::NAN);
    }

    #[test]
    fn max_min_follow_cuda_nan_semantics() {
        let x = F16::from_f32(3.0);
        assert_eq!(F16::NAN.max(x), x);
        assert_eq!(x.max(F16::NAN), x);
        assert!(F16::NAN.max(F16::NAN).is_nan());
        assert_eq!(F16::NAN.min(x), x);
        assert_eq!(x.min(F16::NAN), x);
        assert_eq!(x.max(F16::from_f32(5.0)).to_f32(), 5.0);
        assert_eq!(x.min(F16::from_f32(5.0)).to_f32(), 3.0);
    }

    #[test]
    fn ulp_at_one_is_epsilon() {
        assert_eq!(F16::ONE.ulp(), 2.0f32.powi(-10));
        assert_eq!(F16::from_f32(2.0).ulp(), 2.0f32.powi(-9));
        assert_eq!(F16::MIN_POSITIVE_SUBNORMAL.ulp(), 2.0f32.powi(-24));
    }

    #[test]
    fn next_up_walks_one_ulp() {
        let one = F16::ONE;
        assert_eq!(one.next_up().to_f32(), 1.0 + 2.0f32.powi(-10));
        assert_eq!(F16::NEG_ZERO.next_up(), F16::MIN_POSITIVE_SUBNORMAL);
        let neg = F16::from_f32(-1.0);
        assert!(neg.next_up().to_f32() > -1.0);
    }

    #[test]
    fn ulp_distance_basics() {
        assert_eq!(ulp_distance(F16::ONE, F16::ONE), 0);
        assert_eq!(ulp_distance(F16::ONE, F16::ONE.next_up()), 1);
        assert_eq!(ulp_distance(F16::ZERO, F16::NEG_ZERO), 0);
        assert_eq!(ulp_distance(F16::NAN, F16::ONE), u32::MAX);
        // across zero: -min_subnormal .. +min_subnormal is 2 steps
        let neg_sub = F16::MIN_POSITIVE_SUBNORMAL.negate();
        assert_eq!(ulp_distance(neg_sub, F16::MIN_POSITIVE_SUBNORMAL), 2);
    }

    #[test]
    fn exp_overflows_at_moderate_inputs() {
        // e^12 > 65504 — the reason safe softmax subtracts the max.
        assert!(F16::from_f32(12.0).exp().is_infinite());
        assert!(F16::from_f32(11.0).exp().is_finite());
        assert_eq!(F16::ZERO.exp(), F16::ONE);
    }

    #[test]
    fn abs_and_negate() {
        assert_eq!(F16::from_f32(-2.5).abs().to_f32(), 2.5);
        assert_eq!(F16::from_f32(2.5).negate().to_f32(), -2.5);
        assert!(F16::NAN.negate().is_nan());
    }

    #[test]
    fn display_and_debug_are_nonempty() {
        assert_eq!(format!("{}", F16::from_f32(1.5)), "1.5");
        assert_eq!(format!("{:?}", F16::from_f32(1.5)), "F16(1.5)");
        assert_eq!(format!("{:x}", F16::ONE), "3c00");
        assert_eq!(format!("{:X}", F16::ONE), "3C00");
        assert_eq!(format!("{:b}", F16::ONE), "11110000000000");
    }

    #[test]
    fn from_str_parses() {
        let x: F16 = "1.5".parse().unwrap();
        assert_eq!(x.to_f32(), 1.5);
        assert!("abc".parse::<F16>().is_err());
    }

    #[test]
    fn send_sync() {
        fn assert_send<T: Send>() {}
        fn assert_sync<T: Sync>() {}
        assert_send::<F16>();
        assert_sync::<F16>();
    }
}
