//! Numeric verification of the paper's mathematical claims.
//!
//! Every claim in §3 reduces to an equality between pipelines; this module
//! measures those equalities on random matrices at three precisions and
//! reports the observed error, so examples, tests and the README can *show*
//! — not assert — that the recomposition is exact.

use resoftmax_fp16::{ulp_distance, F16};
use resoftmax_kernels::{
    decomposed_softmax, recomposed_attention, reference_attention, softmax_backward, softmax_rows,
    softmax_rows_f64,
};
use resoftmax_model::SoftmaxStrategy;
use resoftmax_tensor::{max_abs_diff, randn_matrix, Matrix};
use serde::{Deserialize, Serialize};

/// Binary16 comparison tolerances for a decomposed-softmax pipeline over
/// rows of length `l` split into `t`-wide sub-vectors, derived from the
/// certified error bound of the decomposed strategy
/// ([`SoftmaxStrategy::certified_bound`]) instead of hand-picked constants.
/// The static bound is worst-case, so it is a sound acceptance threshold
/// for any measured error — the `resoftmax-bench` cross-validation suite
/// pins `measured ≤ derived` over the full analysis grid.
///
/// Compared to the historical hand constants: the derived absolute/ULP
/// tolerances are somewhat *looser* (e.g. 3.9e-3 vs 2e-3 and 10 vs 8 ULPs
/// at `l=256, t=64` — the price of a certificate that must hold for every
/// input), while the derived row-sum tolerance is *tighter* (3.9e-3 vs the
/// old 2e-2 blanket).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DerivedTolerances {
    /// Max acceptable |Δ| vs the correctly rounded oracle. Softmax outputs
    /// lie in `[0, 1]`, so the certified relative bound doubles as an
    /// absolute one.
    pub abs: f64,
    /// Max acceptable ULP distance at binary16.
    pub ulps: u32,
    /// Max acceptable row-sum deviation from 1.0.
    pub row_sum: f64,
}

/// Derives the binary16 verification tolerances for `verify_decomposition`
/// at `(l, t)` from the certified error bound of the fp32-accumulation
/// decomposed pipeline.
pub fn derived_fp16_tolerances(l: usize, t: usize) -> DerivedTolerances {
    let b = SoftmaxStrategy::Decomposed.certified_bound(l, t);
    DerivedTolerances {
        abs: b.rel,
        ulps: b.ulps,
        row_sum: b.row_sum,
    }
}

/// Derives the binary16 absolute tolerance for `verify_fusion` at `(l, t)`:
/// the certified relative softmax bound scaled by the attention output
/// range. With unit-variance `V` the output magnitude is bounded by ~4
/// (a 4σ row of a convex combination), so `|Δoutput| ≤ 4 × rel`.
pub fn derived_fusion_tolerance(l: usize, t: usize) -> f64 {
    4.0 * SoftmaxStrategy::Recomposed.certified_bound(l, t).rel
}

/// Observed error between the decomposed/fused pipeline and the monolithic
/// reference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EquivalenceReport {
    /// Row length used.
    pub l: usize,
    /// Sub-vector length used.
    pub t: usize,
    /// Max |Δ| of the decomposition vs the f64 oracle, computed in f64.
    pub max_abs_f64: f64,
    /// Max |Δ| computed in f32.
    pub max_abs_f32: f64,
    /// Max |Δ| computed in binary16.
    pub max_abs_fp16: f64,
    /// Max ULP distance of the binary16 decomposition from the
    /// correctly-rounded oracle result.
    pub max_ulp_fp16: u32,
    /// Worst row-sum deviation from 1.0 of the binary16 decomposition.
    pub max_row_sum_err_fp16: f64,
}

/// Measures decomposed softmax (Eq. 2) against monolithic safe softmax
/// (Eq. 1) on a seeded random `rows × l` matrix.
///
/// # Panics
///
/// Panics if `t` does not divide `l`.
pub fn verify_decomposition(rows: usize, l: usize, t: usize, seed: u64) -> EquivalenceReport {
    assert!(l.is_multiple_of(t), "t must divide l");
    // f64: must be exact to ~1e-14.
    let x64 = randn_matrix::<f64>(rows, l, 3.0, seed);
    let oracle = softmax_rows_f64(&x64);
    let dec64 = decomposed_softmax(&x64, t).expect("t divides l");
    let max_abs_f64 = max_abs_diff(&oracle, &dec64);

    // f32.
    let x32: Matrix<f32> = x64.cast();
    let dec32 = decomposed_softmax(&x32, t).expect("t divides l");
    let ref32 = softmax_rows(&x32);
    let max_abs_f32 = max_abs_diff(&ref32, &dec32);

    // binary16: measure against the correctly rounded oracle.
    let x16: Matrix<F16> = x64.cast();
    let dec16 = decomposed_softmax(&x16, t).expect("t divides l");
    let oracle16 = softmax_rows_f64(&x16);
    let max_abs_fp16 = max_abs_diff(&oracle16, &dec16);
    let rounded_oracle: Matrix<F16> = oracle16.cast();
    let max_ulp_fp16 = dec16
        .as_slice()
        .iter()
        .zip(rounded_oracle.as_slice())
        .map(|(&a, &b)| ulp_distance(a, b))
        .max()
        .unwrap_or(0);
    let max_row_sum_err_fp16 = (0..rows)
        .map(|r| {
            let s: f64 = dec16.row(r).iter().map(|v| v.to_f64()).sum();
            (s - 1.0).abs()
        })
        .fold(0.0, f64::max);

    EquivalenceReport {
        l,
        t,
        max_abs_f64,
        max_abs_f32,
        max_abs_fp16,
        max_ulp_fp16,
        max_row_sum_err_fp16,
    }
}

/// Observed error of the fully fused attention pipeline
/// (`Q·Kᵀ`+LS → IR → GS+`P·V`) against the unfused reference.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusionReport {
    /// Sequence length.
    pub l: usize,
    /// Head size.
    pub d_head: usize,
    /// Sub-vector / tile width.
    pub t: usize,
    /// Max |Δ| at f64.
    pub max_abs_f64: f64,
    /// Max |Δ| at binary16.
    pub max_abs_fp16: f64,
}

/// Measures the recomposed (fused) attention layer against the unfused
/// reference at f64 and binary16.
///
/// # Panics
///
/// Panics if `t` does not divide `l`.
pub fn verify_fusion(l: usize, d_head: usize, t: usize, seed: u64) -> FusionReport {
    assert!(l.is_multiple_of(t), "t must divide l");
    let scale = 1.0 / (d_head as f64).sqrt();

    let q = randn_matrix::<f64>(l, d_head, 1.0, seed);
    let k = randn_matrix::<f64>(l, d_head, 1.0, seed + 1);
    let v = randn_matrix::<f64>(l, d_head, 1.0, seed + 2);
    let reference = reference_attention(&q, &k, &v, scale, None).expect("shapes ok");
    let (fused, _) = recomposed_attention(&q, &k, &v, t, scale, None).expect("shapes ok");
    let max_abs_f64 = max_abs_diff(&reference, &fused);

    let q16: Matrix<F16> = q.cast();
    let k16: Matrix<F16> = k.cast();
    let v16: Matrix<F16> = v.cast();
    let ref16 = reference_attention(&q16, &k16, &v16, scale, None).expect("shapes ok");
    let (fused16, _) = recomposed_attention(&q16, &k16, &v16, t, scale, None).expect("shapes ok");
    let max_abs_fp16 = max_abs_diff(&ref16, &fused16);

    FusionReport {
        l,
        d_head,
        t,
        max_abs_f64,
        max_abs_fp16,
    }
}

/// Verifies the training claim (§6 / Eq. 3): softmax backward computed from
/// the *output* matches central finite differences of the forward pass, so
/// the input never needs to be stored. Returns the max |Δ| against finite
/// differences.
pub fn verify_backward(rows: usize, l: usize, seed: u64) -> f64 {
    let x = randn_matrix::<f64>(rows, l, 1.0, seed);
    let dy = randn_matrix::<f64>(rows, l, 1.0, seed + 1);
    let y = softmax_rows_f64(&x);
    let dx = softmax_backward(&y, &dy).expect("dy has the shape of y");
    let eps = 1e-6;
    let mut worst = 0.0f64;
    for r in 0..rows {
        for c in 0..l {
            let mut xp = x.clone();
            xp.set(r, c, x.get(r, c) + eps);
            let mut xm = x.clone();
            xm.set(r, c, x.get(r, c) - eps);
            let loss = |m: &Matrix<f64>| -> f64 {
                softmax_rows_f64(m)
                    .as_slice()
                    .iter()
                    .zip(dy.as_slice())
                    .map(|(a, b)| a * b)
                    .sum()
            };
            let numeric = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            worst = worst.max((numeric - dx.get(r, c)).abs());
        }
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decomposition_exact_at_f64() {
        let r = verify_decomposition(8, 256, 64, 42);
        // f64/f32 thresholds stay hand-set: they bound *compute* precision,
        // outside the binary16 error model's scope.
        assert!(r.max_abs_f64 < 1e-13, "{r:?}");
        assert!(r.max_abs_f32 < 1e-6, "{r:?}");
        // Binary16 thresholds are the certified bounds, not hand constants.
        let tol = derived_fp16_tolerances(256, 64);
        assert!(r.max_abs_fp16 < tol.abs, "{r:?} vs {tol:?}");
        assert!(r.max_ulp_fp16 <= tol.ulps, "{r:?} vs {tol:?}");
        assert!(r.max_row_sum_err_fp16 < tol.row_sum, "{r:?} vs {tol:?}");
    }

    #[test]
    fn fusion_exact_at_f64() {
        let r = verify_fusion(128, 64, 64, 7);
        assert!(r.max_abs_f64 < 1e-5, "{r:?}"); // f32 MMA accumulators
        assert!(r.max_abs_fp16 < derived_fusion_tolerance(128, 64), "{r:?}");
    }

    #[test]
    fn derived_tolerances_relate_to_old_hand_constants_as_documented() {
        let tol = derived_fp16_tolerances(256, 64);
        // Looser than the old 2e-3 abs / 8 ULP constants (worst-case
        // certificates), tighter than the old 2e-2 row-sum blanket.
        assert!(tol.abs > 2e-3 && tol.abs < 1e-2, "{tol:?}");
        assert!(tol.ulps >= 8, "{tol:?}");
        assert!(tol.row_sum < 2e-2, "{tol:?}");
        // Tolerances grow with the sub-vector count and tile width, never
        // past the certification budget at paper-scale shapes.
        assert!(derived_fp16_tolerances(4096, 64).abs < resoftmax_analyzer::CERT_BUDGET_REL);
    }

    #[test]
    fn backward_matches_finite_differences() {
        assert!(verify_backward(2, 16, 3) < 1e-5);
    }

    #[test]
    fn t_sweep_stays_exact() {
        for t in [16, 32, 64, 128, 256] {
            let r = verify_decomposition(4, 256, t, 11);
            assert!(r.max_abs_f64 < 1e-13, "t={t}: {r:?}");
        }
    }
}

/// Observed error of the online-softmax pipelines (dense and block-sparse)
/// against their unfused references.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineReport {
    /// Sequence length.
    pub l: usize,
    /// Tile / block width used.
    pub t: usize,
    /// Dense online vs unfused reference, f64 inputs.
    pub dense_max_abs: f64,
    /// Block-sparse online vs unfused block-sparse pipeline (BigBird
    /// pattern), f64 inputs.
    pub sparse_max_abs: f64,
}

/// Measures the online-softmax extension against the references.
///
/// # Panics
///
/// Panics if `t` does not divide `l`.
pub fn verify_online(l: usize, d_head: usize, t: usize, seed: u64) -> OnlineReport {
    use resoftmax_kernels::{bs_online_attention, online_attention};
    use resoftmax_sparse::{block_sparse_softmax, pattern, sddmm, spmm, BigBirdConfig};
    use resoftmax_tensor::scale as scale_op;

    assert!(l.is_multiple_of(t), "t must divide l");
    let scale = 1.0 / (d_head as f64).sqrt();
    let q = randn_matrix::<f64>(l, d_head, 1.0, seed);
    let k = randn_matrix::<f64>(l, d_head, 1.0, seed + 1);
    let v = randn_matrix::<f64>(l, d_head, 1.0, seed + 2);

    let dense_ref = reference_attention(&q, &k, &v, scale, None).expect("shapes ok");
    let dense_online = online_attention(&q, &k, &v, t, scale, None).expect("shapes ok");
    let dense_max_abs = max_abs_diff(&dense_ref, &dense_online);

    let layout = pattern::bigbird(
        l,
        &BigBirdConfig {
            block: t,
            random_blocks: 2,
            ..Default::default()
        },
    );
    let mut scores = sddmm(&q, &k, &layout).expect("shapes ok");
    for block in scores.blocks_mut() {
        *block = scale_op(block, scale);
    }
    let sparse_ref = spmm(&block_sparse_softmax(&scores), &v).expect("shapes ok");
    let sparse_online = bs_online_attention(&q, &k, &v, &layout, scale).expect("shapes ok");
    let sparse_max_abs = max_abs_diff(&sparse_ref, &sparse_online);

    OnlineReport {
        l,
        t,
        dense_max_abs,
        sparse_max_abs,
    }
}

#[cfg(test)]
mod online_verify_tests {
    use super::*;

    #[test]
    fn online_pipelines_verified() {
        let r = verify_online(128, 32, 16, 77);
        assert!(r.dense_max_abs < 1e-5, "{r:?}");
        assert!(r.sparse_max_abs < 1e-5, "{r:?}");
    }
}
