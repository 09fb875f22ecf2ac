//! Property-based tests of the recomposition mathematics: for random inputs,
//! random sub-vector lengths, and all precisions, the paper's equalities hold.

use proptest::prelude::*;
use resoftmax_fp16::F16;
use resoftmax_kernels::{
    apply_mask, decomposed_softmax, inter_reduce, local_softmax, online_attention,
    recomposed_attention, reference_attention, softmax_backward, softmax_rows, softmax_rows_f64,
};
use resoftmax_tensor::{max_abs_diff, randn_matrix, Matrix};

/// Dimensions where T divides L.
fn dims_strategy() -> impl Strategy<Value = (usize, usize)> {
    (1usize..6, 1usize..5).prop_map(|(nsv, tpow)| {
        let t = 1 << tpow; // 2..16
        (nsv * t, t)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Eq. 2 == Eq. 1 in f64, for any (L, T) with T | L.
    #[test]
    fn decomposition_equivalence((l, t) in dims_strategy(), rows in 1usize..6, seed in 0u64..10_000) {
        let x = randn_matrix::<f64>(rows, l, 3.0, seed);
        let mono = softmax_rows_f64(&x);
        let dec = decomposed_softmax(&x, t).unwrap();
        prop_assert!(max_abs_diff(&mono, &dec) < 1e-13);
    }

    /// Decomposition equivalence survives arbitrary masking.
    #[test]
    fn decomposition_with_masks(
        (l, t) in dims_strategy(),
        seed in 0u64..10_000,
        mask_bits in proptest::collection::vec(any::<bool>(), 1..128),
    ) {
        let x = randn_matrix::<f64>(2, l, 2.0, seed);
        let mask: Vec<bool> = (0..2 * l).map(|i| mask_bits[i % mask_bits.len()]).collect();
        let masked = apply_mask(&x, &mask).unwrap();
        let mono = softmax_rows_f64(&masked);
        let dec = decomposed_softmax(&masked, t).unwrap();
        prop_assert!(max_abs_diff(&mono, &dec) < 1e-13);
    }

    /// Decomposed softmax rows sum to 1 (or 0 if fully masked) at any T.
    #[test]
    fn decomposed_rows_normalized((l, t) in dims_strategy(), seed in 0u64..10_000) {
        let x = randn_matrix::<f64>(3, l, 5.0, seed);
        let dec = decomposed_softmax(&x, t).unwrap();
        for r in 0..3 {
            let s: f64 = dec.row(r).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-12, "row {r}: {s}");
        }
    }

    /// r' is a probability distribution over sub-vectors.
    #[test]
    fn reconstruction_factors_form_distribution((l, t) in dims_strategy(), seed in 0u64..10_000) {
        let x = randn_matrix::<f64>(3, l, 2.0, seed);
        let ls = local_softmax(&x, t).unwrap();
        let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
        for r in 0..3 {
            let mut s = 0.0;
            for k in 0..l / t {
                let v = ir.r_prime.get(r, k);
                prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
                s += v;
            }
            prop_assert!((s - 1.0).abs() < 1e-12);
        }
    }

    /// The three attention pipelines (unfused, SDF-fused, online) agree.
    #[test]
    fn all_three_pipelines_agree(
        t_pow in 2usize..5,
        nsv in 1usize..4,
        d_pow in 2usize..5,
        seed in 0u64..10_000,
    ) {
        let t = 1 << t_pow;
        let l = nsv * t;
        let d = 1 << d_pow;
        let scale = 1.0 / (d as f64).sqrt();
        let q = randn_matrix::<f64>(l, d, 1.0, seed);
        let k = randn_matrix::<f64>(l, d, 1.0, seed + 1);
        let v = randn_matrix::<f64>(l, d, 1.0, seed + 2);
        let reference = reference_attention(&q, &k, &v, scale, None).unwrap();
        let (sdf, _) = recomposed_attention(&q, &k, &v, t, scale, None).unwrap();
        let online = online_attention(&q, &k, &v, t, scale, None).unwrap();
        prop_assert!(max_abs_diff(&reference, &sdf) < 1e-4);
        prop_assert!(max_abs_diff(&reference, &online) < 1e-4);
    }

    /// Softmax backward: gradient rows sum to zero (Σ dx = 0) and
    /// dx = 0 wherever y = 0.
    #[test]
    fn backward_invariants(l in 2usize..64, seed in 0u64..10_000) {
        let x = randn_matrix::<f64>(2, l, 2.0, seed);
        let y = softmax_rows_f64(&x);
        let dy = randn_matrix::<f64>(2, l, 1.0, seed + 1);
        let dx = softmax_backward(&y, &dy).unwrap();
        for r in 0..2 {
            let s: f64 = dx.row(r).iter().sum();
            prop_assert!(s.abs() < 1e-10, "row {r}: {s}");
        }
    }

    /// binary16 decomposition stays within a small multiple of the fp16
    /// quantum from the exact result, for any T.
    #[test]
    fn fp16_error_bounded((l, t) in dims_strategy(), seed in 0u64..10_000) {
        let x = randn_matrix::<F16>(2, l, 2.0, seed);
        let dec = decomposed_softmax(&x, t).unwrap();
        let oracle = softmax_rows_f64(&x);
        prop_assert!(!dec.has_nan());
        // outputs are ≤ 1; allow ~4 ulps at 1.0 = 4×2^-10 ≈ 4e-3
        prop_assert!(max_abs_diff(&oracle, &dec) < 4e-3);
    }

    /// Shift invariance holds through the decomposed path (safe softmax).
    #[test]
    fn decomposed_shift_invariance((l, t) in dims_strategy(), shift in -50.0f64..50.0, seed in 0u64..10_000) {
        let x = randn_matrix::<f64>(2, l, 1.0, seed);
        let shifted = x.map(|v| v + shift);
        let a = decomposed_softmax(&x, t).unwrap();
        let b = decomposed_softmax(&shifted, t).unwrap();
        prop_assert!(max_abs_diff(&a, &b) < 1e-12);
    }

    /// softmax of a one-hot-ish row concentrates on the max regardless of T.
    #[test]
    fn peak_concentration((l, t) in dims_strategy(), peak in 0usize..64, seed in 0u64..10_000) {
        let peak = peak % l;
        let mut x = randn_matrix::<f64>(1, l, 0.1, seed);
        x.set(0, peak, 40.0);
        let dec = decomposed_softmax(&x, t).unwrap();
        prop_assert!(dec.get(0, peak) > 0.999);
    }

    /// Monolithic softmax at working precision is itself close to the
    /// oracle (the decomposed path can't be blamed for baseline error).
    #[test]
    fn monolithic_matches_oracle(l in 1usize..128, seed in 0u64..10_000) {
        let x = randn_matrix::<f64>(2, l, 3.0, seed);
        let mono = softmax_rows(&x);
        let oracle = softmax_rows_f64(&x);
        prop_assert!(max_abs_diff(&mono, &oracle) < 1e-12);
    }

    /// Fully masked matrices yield all-zero outputs through every path.
    #[test]
    fn fully_masked_is_zero((l, t) in dims_strategy()) {
        let x = Matrix::<f64>::filled(2, l, f64::NEG_INFINITY);
        let dec = decomposed_softmax(&x, t).unwrap();
        prop_assert!(dec.as_slice().iter().all(|&v| v == 0.0));
        let mono = softmax_rows(&x);
        prop_assert!(mono.as_slice().iter().all(|&v| v == 0.0));
    }
}
