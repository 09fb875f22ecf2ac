//! Bit-level conversions between binary16, binary32 and binary64.
//!
//! Both narrowing conversions round once, to nearest with ties to even: the
//! IEEE 754 default and what GPU conversion instructions (`F2F.F16.F32`)
//! implement. No conversion takes a data-dependent branch: each computes its
//! normal and its subnormal result and selects one of them, or infinity or a
//! quiet NaN, with comparisons on the magnitude.
//!
//! * A normal binary16 result rebiases the exponent and rounds with one
//!   integer add on the bit pattern: ones in every bit below the kept
//!   mantissa, plus the kept mantissa's last bit, so an exact half carries
//!   only into an odd mantissa. A carry out of the mantissa steps the
//!   exponent, and out of [`F16::MAX`](crate::F16::MAX) gives infinity.
//! * A subnormal result (or zero) is one float add of a constant whose ulp
//!   is 2⁻²⁴, the binary16 subnormal step (`0.5` in `f32`, `2²⁸` in `f64`):
//!   the add rounds `|x| < 2⁻¹⁴` to a whole number of steps, which lands in
//!   the sum's low mantissa bits.
//! * Widening is exact. A subnormal's mantissa under the exponent of 2⁻¹⁴
//!   reads as `2⁻¹⁴ + m·2⁻²⁴`, and subtracting 2⁻¹⁴ again leaves `m·2⁻²⁴`.

/// Converts an `f32` bit-for-bit to the nearest binary16 bit pattern.
///
/// Handles all cases: NaN (quieted), infinities, overflow to infinity,
/// normals, subnormals, underflow to zero, and signed zeros.
pub fn f16_bits_from_f32(x: f32) -> u16 {
    let bits = x.to_bits();
    let abs = bits & 0x7FFF_FFFF;
    // Rebias 127 -> 15, then round away the 13 low mantissa bits.
    let normal = (abs + 0x0FFF + ((abs >> 13) & 1)).wrapping_sub(112 << 23) >> 13;
    // 0.5 is 0x3F00_0000 and its ulp is 2^-24, so the sum's low 16 bits
    // count the subnormal steps.
    let subnormal = (f32::from_bits(abs) + 0.5).to_bits();
    let inf_or_nan = if x.is_nan() { 0x7E00 } else { 0x7C00 };
    let half = if abs >= 143 << 23 {
        inf_or_nan // |x| >= 2^16
    } else if abs < 113 << 23 {
        subnormal // |x| < 2^-14
    } else {
        normal
    };
    (bits >> 16) as u16 & 0x8000 | half as u16
}

/// Converts an `f64` directly to the nearest binary16 bit pattern with a
/// single rounding (no intermediate `f32` double-rounding).
pub fn f16_bits_from_f64(x: f64) -> u16 {
    let bits = x.to_bits();
    let abs = bits & 0x7FFF_FFFF_FFFF_FFFF;
    // Rebias 1023 -> 15, then round away the 42 low mantissa bits.
    let normal = (abs + ((1 << 41) - 1) + ((abs >> 42) & 1)).wrapping_sub(1008 << 52) >> 42;
    // 2^28 is 0x41B0_0000_0000_0000 and its ulp is 2^-24, so the sum's low
    // 16 bits count the subnormal steps.
    let subnormal = (f64::from_bits(abs) + 268_435_456.0).to_bits();
    let inf_or_nan = if x.is_nan() { 0x7E00 } else { 0x7C00 };
    let half = if abs >= 1039 << 52 {
        inf_or_nan // |x| >= 2^16
    } else if abs < 1009 << 52 {
        subnormal // |x| < 2^-14
    } else {
        normal
    };
    (bits >> 48) as u16 & 0x8000 | half as u16
}

/// Widens a binary16 bit pattern to the exactly-equal `f32`.
///
/// A NaN keeps its payload and comes out quiet.
pub fn f32_from_f16_bits(bits: u16) -> f32 {
    let abs = u32::from(bits & 0x7FFF);
    // Rebias 15 -> 127.
    let normal = (abs << 13) + (112 << 23);
    // 2^-14 is 113 << 23: exponent 2^-14 on the mantissa, minus 2^-14.
    let subnormal = (f32::from_bits(normal + (1 << 23)) - f32::from_bits(113 << 23)).to_bits();
    let quiet = if abs > 0x7C00 { 0x0040_0000 } else { 0 };
    let out = if abs >= 0x7C00 {
        (normal + (112 << 23)) | quiet // exponent all ones
    } else if abs < 0x0400 {
        subnormal
    } else {
        normal
    };
    f32::from_bits(u32::from(bits & 0x8000) << 16 | out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::F16;

    /// Brute-force oracle: find the nearest representable f16 to `x` by
    /// scanning candidates around the result.
    fn slow_nearest(x: f32) -> u16 {
        assert!(x.is_finite());
        let mut best = 0u16;
        let mut best_err = f64::INFINITY;
        for bits in 0..=0xFFFFu16 {
            let v = F16::from_bits(bits);
            if v.is_nan() {
                continue;
            }
            let err = (v.to_f64() - x as f64).abs();
            // prefer the even-mantissa finite candidate on exact ties
            let tie_to_even = err == best_err && bits & 1 == 0 && v.is_finite();
            if err < best_err || tie_to_even {
                best = bits;
                best_err = err;
            }
        }
        best
    }

    #[test]
    fn every_f16_round_trips_through_f32() {
        for bits in 0..=0xFFFFu16 {
            let x = F16::from_bits(bits);
            let back = F16::from_f32(x.to_f32());
            if x.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(back.to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn every_f16_round_trips_through_f64() {
        for bits in 0..=0xFFFFu16 {
            let x = F16::from_bits(bits);
            let back = F16::from_f64(x.to_f64());
            if x.is_nan() {
                assert!(back.is_nan(), "bits {bits:#06x}");
            } else {
                assert_eq!(back.to_bits(), bits, "bits {bits:#06x}");
            }
        }
    }

    #[test]
    fn rounding_matches_slow_oracle_at_boundaries() {
        // Check values around every kind of boundary against the brute-force
        // oracle (each is a half-way or near-half-way pattern).
        let interesting: &[f32] = &[
            0.0,
            -0.0,
            1.0,
            1.0 + 2.0f32.powi(-11), // exactly half ulp above 1.0 -> ties to even (1.0)
            1.0 + 2.0f32.powi(-11) * 1.01, // just above half ulp -> rounds up
            1.0 + 3.0 * 2.0f32.powi(-11), // 1.5 ulp -> ties to even (rounds up)
            65504.0,                // MAX
            65519.9,                // just below the MAX/inf rounding boundary
            2.0f32.powi(-14),       // smallest normal
            2.0f32.powi(-14) - 2.0f32.powi(-25), // largest subnormal + half ulp territory
            2.0f32.powi(-24),       // smallest subnormal
            2.0f32.powi(-25),       // exactly half of smallest subnormal -> ties to even (0)
            2.0f32.powi(-25) * 1.001, // just above -> rounds to min subnormal
            2.0f32.powi(-26),       // underflow to 0
            -1.5,
            -65504.0,
            1234.5678,
            0.1,
            std::f32::consts::PI,
        ];
        for &x in interesting {
            let got = f16_bits_from_f32(x);
            let want = slow_nearest(x);
            // Compare as values (0x0000 vs 0x8000 both zero-equal for -0 input
            // handled by comparing exact bits except the -0 case).
            if x == 0.0 || (got & 0x7FFF == 0 && want & 0x7FFF == 0) {
                // zeros of either sign are value-equal; the oracle does not
                // track the sign of a rounded-to-zero result
                assert_eq!(got & 0x7FFF, 0, "zero case {x}");
            } else {
                assert_eq!(
                    got,
                    want,
                    "x={x}: got {got:#06x} ({}), want {want:#06x} ({})",
                    F16::from_bits(got),
                    F16::from_bits(want)
                );
            }
        }
    }

    /// Exhaustive RNE check at the subnormal boundary: the midpoint between
    /// consecutive f16 subnormals `k·2^-24` and `(k+1)·2^-24` is
    /// `(2k+1)·2^-25`, exactly representable in f32 and f64. Ties must go
    /// to the even mantissa; one-ULP offsets must break the tie in the
    /// right direction — for every `k`, on both conversion paths.
    #[test]
    fn subnormal_midpoints_tie_to_even_exhaustively() {
        for k in 0u32..=1023 {
            let mid64 = f64::from(2 * k + 1) * 2f64.powi(-25);
            let mid32 = mid64 as f32; // exact: 11-bit significand at most
            let even = if k % 2 == 0 { k } else { k + 1 } as u16;
            assert_eq!(f16_bits_from_f32(mid32), even, "k={k} tie (f32 path)");
            assert_eq!(f16_bits_from_f64(mid64), even, "k={k} tie (f64 path)");
            let up = f32::from_bits(mid32.to_bits() + 1);
            assert_eq!(f16_bits_from_f32(up), (k + 1) as u16, "k={k} above");
            let down = f32::from_bits(mid32.to_bits() - 1);
            assert_eq!(f16_bits_from_f32(down), k as u16, "k={k} below");
        }
        // Every subnormal (and the smallest normal) is a fixed point of
        // both narrowing paths.
        for bits in 0..=0x0400u16 {
            let v = f32_from_f16_bits(bits);
            assert_eq!(f16_bits_from_f32(v), bits, "bits {bits:#06x}");
            assert_eq!(f16_bits_from_f64(f64::from(v)), bits, "bits {bits:#06x}");
        }
    }

    #[test]
    fn overflow_boundary_to_infinity() {
        // 65520 is exactly half way between 65504 (MAX) and 65536 (would-be
        // next value): ties-to-even rounds to infinity (even exponent pattern).
        assert_eq!(f16_bits_from_f32(65519.996), 0x7BFF);
        assert!(F16::from_f32(65520.0).is_infinite());
        assert!(F16::from_f32(-65520.0).is_infinite());
        assert_eq!(f16_bits_from_f32(65519.0), 0x7BFF);
    }

    #[test]
    fn f64_single_rounding_differs_from_double_rounding() {
        // Construct a value where f64 -> f32 -> f16 double-rounds upward but
        // direct f64 -> f16 correctly rounds down:
        // pick x = 1 + 2^-11 + 2^-36: f32 rounding keeps 2^-11 + tiny,
        // and already rounds the 2^-36 away to produce exactly 1 + 2^-11
        // (tie) -> f16 ties-to-even gives 1.0. Direct rounding sees the 2^-36
        // sticky bit and rounds up to 1 + 2^-10.
        let x = 1.0f64 + 2.0f64.powi(-11) + 2.0f64.powi(-36);
        let direct = F16::from_f64(x);
        assert_eq!(
            direct.to_f32(),
            1.0 + 2.0f32.powi(-10),
            "direct must round up"
        );
    }

    #[test]
    fn nan_payload_quieted() {
        let signaling = f32::from_bits(0x7F80_0001);
        assert!(F16::from_f32(signaling).is_nan());
        let neg_nan = f32::from_bits(0xFFC0_0000);
        let h = F16::from_f32(neg_nan);
        assert!(h.is_nan());
        assert!(h.is_sign_negative());
    }

    #[test]
    fn subnormal_f32_inputs_underflow_to_zero() {
        let tiny = f32::from_bits(1); // smallest positive subnormal f32
        assert_eq!(F16::from_f32(tiny).to_bits(), 0);
        assert_eq!(F16::from_f32(-tiny).to_bits(), 0x8000);
    }
}

/// Converts a slice of `f32` to binary16 bit patterns (round-to-nearest-even
/// elementwise) — the bulk form used when staging host data for a simulated
/// device buffer.
pub fn f16_bits_from_f32_slice(xs: &[f32]) -> Vec<u16> {
    xs.iter().map(|&x| f16_bits_from_f32(x)).collect()
}

/// Widens a slice of binary16 bit patterns to `f32`.
pub fn f32_from_f16_bits_slice(bits: &[u16]) -> Vec<f32> {
    bits.iter().map(|&b| f32_from_f16_bits(b)).collect()
}

#[cfg(test)]
mod slice_tests {
    use super::*;

    #[test]
    fn slice_roundtrip() {
        let xs = [0.0f32, 1.5, -2.25, 65504.0, 1e-8];
        let bits = f16_bits_from_f32_slice(&xs);
        let back = f32_from_f16_bits_slice(&bits);
        assert_eq!(back[0], 0.0);
        assert_eq!(back[1], 1.5);
        assert_eq!(back[2], -2.25);
        assert_eq!(back[3], 65504.0);
        assert_eq!(back[4], 0.0, "underflows to zero");
        assert_eq!(bits.len(), xs.len());
    }

    #[test]
    fn empty_slices() {
        assert!(f16_bits_from_f32_slice(&[]).is_empty());
        assert!(f32_from_f16_bits_slice(&[]).is_empty());
    }
}
