//! The branch-free conversions against the branching ones they replaced.
//!
//! `old` holds the previous `f16_bits_from_f32`, `f16_bits_from_f64` and
//! `f32_from_f16_bits` verbatim: each tested rounding and special case with
//! a branch. The sweeps compare raw bits, so a NaN must keep the same payload
//! and a zero the same sign. Release builds narrow every `f32`; debug builds
//! skip that sweep (about 2³² conversions per side) and take every 251st
//! pattern instead, and miri takes a small strided subset of every sweep.

use std::num::NonZeroUsize;
use std::thread;

use resoftmax_fp16::{f16_bits_from_f32, f32_from_f16_bits, F16};

mod old {
    /// Converts an `f32` bit-for-bit to the nearest binary16 bit pattern.
    ///
    /// Handles all cases: NaN (quieted), infinities, overflow to infinity,
    /// normals, subnormals, underflow to zero, and signed zeros.
    pub fn f16_bits_from_f32(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let man = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if man == 0 {
                sign | 0x7C00
            } else {
                // Quiet NaN; keep the top mantissa bit set so it stays a NaN.
                sign | 0x7E00
            };
        }

        // Unbiased exponent.
        let unbiased = exp - 127;
        if unbiased >= 16 {
            // Too large: round to infinity. (65504 + 16 rounds to inf; values in
            // [65504, 65520) round back down to MAX and have unbiased == 15.)
            return sign | 0x7C00;
        }
        if unbiased >= -14 {
            // Normal range for f16 (possibly rounding up to inf at the top).
            // 23-bit mantissa -> 10-bit: shift out 13 bits with RNE.
            let half_exp = (unbiased + 15) as u32; // 1..=30
            let combined = (half_exp << 10) as u16 | (man >> 13) as u16;
            let round_bit = (man >> 12) & 1;
            let sticky = man & 0x0FFF;
            let round_up = round_bit == 1 && (sticky != 0 || (combined & 1) == 1);
            // Rounding up may carry into the exponent — and from 0x7BFF (MAX) to
            // 0x7C00 (inf), which is the correct IEEE behaviour.
            return sign | combined.wrapping_add(round_up as u16);
        }
        if unbiased >= -25 {
            // Subnormal f16 range: value = 0.xxxx * 2^-14.
            // Implicit leading 1 becomes explicit; shift = number of discarded bits.
            let man = man | 0x0080_0000; // add implicit bit -> 24-bit significand
            let shift = (-14 - unbiased) as u32 + 13; // unbiased -25..=-15 -> 14..=24
            let kept = (man >> shift) as u16;
            let round_bit = (man >> (shift - 1)) & 1;
            let sticky = man & ((1 << (shift - 1)) - 1);
            let round_up = round_bit == 1 && (sticky != 0 || (kept & 1) == 1);
            return sign | kept.wrapping_add(round_up as u16);
        }
        // Underflow to (signed) zero.
        sign
    }

    /// Converts an `f64` directly to the nearest binary16 bit pattern with a
    /// single rounding (no intermediate `f32` double-rounding).
    pub fn f16_bits_from_f64(x: f64) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 48) & 0x8000) as u16;
        let exp = ((bits >> 52) & 0x7FF) as i32;
        let man = bits & 0x000F_FFFF_FFFF_FFFF;

        if exp == 0x7FF {
            return if man == 0 {
                sign | 0x7C00
            } else {
                sign | 0x7E00
            };
        }

        let unbiased = exp - 1023;
        if unbiased >= 16 {
            return sign | 0x7C00;
        }
        if unbiased >= -14 {
            let half_exp = (unbiased + 15) as u64;
            let combined = ((half_exp << 10) | (man >> 42)) as u16;
            let round_bit = (man >> 41) & 1;
            let sticky = man & ((1u64 << 41) - 1);
            let round_up = round_bit == 1 && (sticky != 0 || (combined & 1) == 1);
            return sign | combined.wrapping_add(round_up as u16);
        }
        if unbiased >= -25 {
            let man = man | 0x0010_0000_0000_0000;
            let shift = (-14 - unbiased) as u32 + 42;
            let kept = (man >> shift) as u16;
            let round_bit = (man >> (shift - 1)) & 1;
            let sticky = man & ((1u64 << (shift - 1)) - 1);
            let round_up = round_bit == 1 && (sticky != 0 || (kept & 1) == 1);
            return sign | kept.wrapping_add(round_up as u16);
        }
        sign
    }

    /// Widens a binary16 bit pattern to the exactly-equal `f32`.
    pub fn f32_from_f16_bits(bits: u16) -> f32 {
        let sign = ((bits & 0x8000) as u32) << 16;
        let exp = ((bits >> 10) & 0x1F) as u32;
        let man = (bits & 0x03FF) as u32;

        let out = if exp == 0 {
            if man == 0 {
                sign // signed zero
            } else {
                // Subnormal: normalize. value = man * 2^-24 = 1.xxx * 2^(-14-shift).
                let shift = man.leading_zeros() - 21; // bring MSB to bit 10
                let man = (man << shift) & 0x03FF;
                let exp = 127 - 14 - shift;
                sign | (exp << 23) | (man << 13)
            }
        } else if exp == 0x1F {
            if man == 0 {
                sign | 0x7F80_0000 // infinity
            } else {
                sign | 0x7FC0_0000 | (man << 13) // NaN, keep payload
            }
        } else {
            sign | ((exp + 127 - 15) << 23) | (man << 13)
        };
        f32::from_bits(out)
    }
}

/// Every `step`-th `f32` bit pattern from 0, split across threads.
fn narrow_f32_patterns(step: u64) {
    let threads = if cfg!(miri) {
        1
    } else {
        thread::available_parallelism()
            .map_or(1, NonZeroUsize::get)
            .min(8) as u64
    };
    let per_thread = (1u64 << 32).div_ceil(threads * step) * step;
    thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || {
                let end = ((t + 1) * per_thread).min(1 << 32);
                for bits in (t * per_thread..end).step_by(step as usize) {
                    let x = f32::from_bits(bits as u32);
                    let (got, want) = (f16_bits_from_f32(x), old::f16_bits_from_f32(x));
                    assert_eq!(got, want, "f32 {bits:#010x}: {got:#06x} vs {want:#06x}");
                }
            });
        }
    });
}

#[test]
#[cfg_attr(
    any(miri, debug_assertions),
    ignore = "2^32 conversions per side; run in release"
)]
fn every_f32_narrows_as_before() {
    narrow_f32_patterns(1);
}

#[test]
fn strided_f32_patterns_narrow_as_before() {
    narrow_f32_patterns(if cfg!(miri) { 1_000_003 } else { 251 });
}

#[test]
fn every_f16_widens_as_before() {
    let step = if cfg!(miri) { 97 } else { 1 };
    for bits in (0..=u16::MAX).step_by(step) {
        let (got, want) = (f32_from_f16_bits(bits), old::f32_from_f16_bits(bits));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "f16 {bits:#06x}: {got} vs {want}"
        );
    }
}

/// The value of a non-negative binary16 pattern below `0x7C00`, or of
/// `0x7C00` read as the next binade's first value, 2¹⁶.
fn f16_value(bits: u16) -> f64 {
    let (exp, man) = (i32::from(bits >> 10), f64::from(bits & 0x03FF));
    if exp == 0 {
        man * 2f64.powi(-24)
    } else {
        (1024.0 + man) * 2f64.powi(exp - 25)
    }
}

/// One step of splitmix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Non-negative `f64` inputs for the narrowing sweep (each is also tried
/// negated): every binary16 value, the midpoint to its successor and the
/// midpoint moved by 1 and by 2ᵏ `f64` ulps either way; seeded mantissas
/// under every biased exponent; subnormal, infinite and NaN patterns.
fn f64_inputs() -> Vec<f64> {
    let (half_step, k_step, per_exp) = if cfg!(miri) {
        (1021, 11, 2)
    } else {
        (1, 1, 32)
    };
    let mut xs = Vec::new();
    for bits in (0..0x7C00u16).step_by(half_step) {
        let (lo, hi) = (f16_value(bits), f16_value(bits + 1));
        let mid = lo.midpoint(hi);
        xs.extend([lo, hi, mid]);
        for k in (0..=52).step_by(k_step) {
            let d = 1u64 << k;
            xs.push(f64::from_bits(mid.to_bits() + d));
            xs.push(f64::from_bits(mid.to_bits() - d));
        }
    }
    let mut state = 0x5EED;
    for exp in 0..=0x7FFu64 {
        xs.push(f64::from_bits(exp << 52));
        xs.push(f64::from_bits(exp << 52 | 0x000F_FFFF_FFFF_FFFF));
        for _ in 0..per_exp {
            xs.push(f64::from_bits(exp << 52 | next(&mut state) >> 12));
        }
    }
    // Zero, infinity and the extreme normals are in the exponent sweep.
    xs.extend([1, 0x7FF0_0000_0000_0001, 0x7FF4_0000_0000_0000].map(f64::from_bits));
    xs.push(f64::NAN);
    xs
}

#[test]
fn f64_sweep_narrows_as_before() {
    let xs = f64_inputs();
    for x in xs.iter().flat_map(|&x| [x, -x]) {
        let (got, want) = (F16::from_f64(x).to_bits(), old::f16_bits_from_f64(x));
        assert_eq!(
            got,
            want,
            "f64 {:#018x} ({x:e}): {got:#06x} vs {want:#06x}",
            x.to_bits()
        );
    }
}
