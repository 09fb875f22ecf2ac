//! Numeric fused attention (§3.3): `Q·Kᵀ`+Scale+Mask+**LS** epilogue and
//! **GS**+`P·V` prologue, with GPU-faithful rounding.
//!
//! The fused kernels differ numerically from the unfused pipeline in exactly
//! one way: values that previously round-tripped through half-precision
//! off-chip storage stay in `f32` registers across the fusion boundary.
//! Concretely:
//!
//! * The LS epilogue applies scale, mask, and the local exponentials to the
//!   MatMul's *`f32` accumulator tile* before anything rounds to FP16
//!   (the unfused path rounds the raw scores to FP16 first).
//! * The GS prologue multiplies `x' · r'` in `f32` and rounds once to FP16
//!   as it feeds the tensor-core MMA (whose operands must be half).
//!
//! Tests assert these pipelines agree with the monolithic reference within
//! tight half-precision bounds — the paper's correctness claim ("the
//! decomposed softmax sub-layers perform identically to the existing softmax
//! layer in terms of mathematics") plus honest rounding.
//!
//! Each operand is widened once per call and every product accumulates as a
//! row update, leaving each output's rounding sequence unchanged.

use crate::decomposed::{
    check_r_prime, check_subvector, inter_reduce, ls_leaf, InterReductionOutput, LocalSoftmaxOutput,
};
use crate::softmax::{check_mask, check_v};
use rayon::prelude::*;
use resoftmax_tensor::{row_update, transpose, Matrix, Scalar, ShapeError};
use std::iter::once;

/// Fused `scores = scale · (Q·Kᵀ)` + mask + local softmax over output tiles
/// of width `t` (the LS sub-vector length equals the MatMul tile width —
/// the condition that makes the fusion legal, §3.3).
///
/// `mask`, if given, is a row-major `L × L` element mask (`false` = `-inf`).
/// The epilogue is LS on the `f32` tile: `x'` (`L × L`), `m'` and `d'`
/// (`L × N_sv`) each round once to `T`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `q`/`k` disagree on `d_head`, rows differ, `t`
/// does not divide `L`, or `mask` is given with a length other than `L²`.
pub fn fused_qk_ls<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    t: usize,
    scale: f64,
    mask: Option<&[bool]>,
) -> Result<LocalSoftmaxOutput<T>, ShapeError> {
    if q.cols() != k.cols() || q.rows() != k.rows() {
        return Err(ShapeError::new(format!(
            "fused_qk_ls q {:?} vs k {:?}",
            q.shape(),
            k.shape()
        )));
    }
    let l = q.rows();
    let n_sv = check_subvector(l, t)?;
    check_mask(mask, l * l)?;
    let _span = resoftmax_obs::span!("fused_qk_ls", "kernels");
    let q_wide = q.map(Scalar::to_f32);
    let kt_wide = transpose(k).map(Scalar::to_f32);

    // A row's f32 accumulators, then the LS epilogue per output tile of
    // width t.
    Ok(LocalSoftmaxOutput::by_rows(
        l,
        l,
        n_sv,
        |r, x_row, m_row, d_row| {
            // MatMul inner products in f32 (tensor-core accumulate).
            let mut acc = vec![0.0f32; l];
            row_update(&mut acc, q_wide.row(r), &kt_wide, 0);
            for (sv, (tile, x_tile)) in acc.chunks_mut(t).zip(x_row.chunks_mut(t)).enumerate() {
                // Epilogue in f32: scale, mask, then the leaf.
                for (j, a) in tile.iter_mut().enumerate() {
                    *a *= scale as f32;
                    if mask.is_some_and(|mk| !mk[r * l + sv * t + j]) {
                        *a = f32::NEG_INFINITY;
                    }
                }
                (m_row[sv], d_row[sv]) = ls_leaf(tile, x_tile, |e| e, |d, e| d + e);
            }
        },
    ))
}

/// Fused GS + `P·V`: multiplies each `x'` element by its sub-vector's `r'`
/// in `f32`, rounds once to the working precision (tensor-core operands are
/// half), and accumulates `P·V` in `f32`.
///
/// # Errors
///
/// Returns [`ShapeError`] on inconsistent shapes.
pub fn fused_gs_pv<T: Scalar>(
    x_prime: &Matrix<T>,
    r_prime: &Matrix<T>,
    v: &Matrix<T>,
    t: usize,
) -> Result<Matrix<T>, ShapeError> {
    check_r_prime(r_prime, x_prime.rows(), check_subvector(x_prime.cols(), t)?)?;
    check_v(v, x_prime.cols())?;
    let _span = resoftmax_obs::span!("fused_gs_pv", "kernels");
    Ok(gs_pv_rows(x_prime.rows(), v, |r| {
        let tiles = x_prime.row(r).chunks(t).zip(r_prime.row(r));
        tiles.enumerate().map(move |(sv, (x, &rk))| (x, rk, sv * t))
    }))
}

/// GS·`P·V` on the pool, output row `r` from its tiles `tiles(r)`, each
/// `(x', r', first column)`: every `x'·r'` in `f32`, rounded once to `T`
/// as it feeds the MMA (zeros skipped), times the widened `V` row of its
/// column, accumulated in `f32`; each output rounds once to `T`.
pub(crate) fn gs_pv_rows<'a, T: Scalar, I>(
    rows: usize,
    v: &Matrix<T>,
    tiles: impl Fn(usize) -> I + Sync,
) -> Matrix<T>
where
    I: Iterator<Item = (&'a [T], T, usize)>,
{
    let v_wide = v.map(Scalar::to_f32);
    let mut out = Matrix::zeros(rows, v.cols());
    out.as_mut_slice()
        .par_chunks_mut(v.cols().max(1))
        .enumerate()
        .for_each(|(r, o_row)| {
            let mut acc = vec![0.0f32; o_row.len()];
            for (x_tile, rk, c0) in tiles(r) {
                let rk = rk.to_f32();
                for (j, x) in x_tile.iter().enumerate() {
                    let pf = T::from_f32(x.to_f32() * rk).to_f32();
                    if pf == 0.0 {
                        continue;
                    }
                    for (a, &vk) in acc.iter_mut().zip(v_wide.row(c0 + j)) {
                        *a += pf * vk;
                    }
                }
            }
            for (o, a) in o_row.iter_mut().zip(&acc) {
                *o = T::from_f64(f64::from(*a));
            }
        });
    out
}

/// The complete recomposed attention layer: fused `Q·Kᵀ`+Scale+Mask+LS,
/// standalone IR, fused GS+`P·V` (Fig. 6 of the paper).
///
/// Returns the attention output (`L × D_head`) and the IR intermediates (so
/// callers can check `m`/`d` or reuse them for training).
///
/// # Errors
///
/// Returns [`ShapeError`] on any dimension mismatch.
pub fn recomposed_attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    t: usize,
    scale: f64,
    mask: Option<&[bool]>,
) -> Result<(Matrix<T>, InterReductionOutput<T>), ShapeError> {
    let _span = resoftmax_obs::span!("recomposed_attention", "kernels");
    let ls = fused_qk_ls(q, k, t, scale, mask)?;
    let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
    let out = fused_gs_pv(&ls.x_prime, &ir.r_prime, v, t)?;
    Ok((out, ir))
}

/// Unfused reference attention at the same working precision: scores rounded
/// to `T`, scale+mask, monolithic softmax, `P·V` with `f32` accumulation.
///
/// # Errors
///
/// Returns [`ShapeError`] on any dimension mismatch, including a `mask`
/// whose length is not `q.rows() · k.rows()`.
pub fn reference_attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    scale: f64,
    mask: Option<&[bool]>,
) -> Result<Matrix<T>, ShapeError> {
    use crate::softmax::{apply_mask, softmax_rows};
    use resoftmax_tensor::{matmul_transpose_b, scale as scale_op};

    let _span = resoftmax_obs::span!("reference_attention", "kernels");
    check_v(v, k.rows())?;
    check_mask(mask, q.rows() * k.rows())?;
    let scores = matmul_transpose_b(q, k)?;
    let scaled = scale_op(&scores, scale);
    let masked = match mask {
        Some(m) => apply_mask(&scaled, m)?,
        None => scaled,
    };
    let p = softmax_rows(&masked);
    // P·V with f32 accumulation: the GS·`P·V` walk, each row one tile, r' = 1.
    Ok(gs_pv_rows(p.rows(), v, |r| once((p.row(r), T::one(), 0))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::causal_mask;
    use resoftmax_fp16::F16;
    use resoftmax_tensor::{max_abs_diff, randn_matrix};

    const SCALE: f64 = 0.125; // 1/sqrt(64)

    #[test]
    fn fused_matches_reference_f64() {
        let (l, d) = (64, 16);
        let q = randn_matrix::<f64>(l, d, 1.0, 1);
        let k = randn_matrix::<f64>(l, d, 1.0, 2);
        let v = randn_matrix::<f64>(l, d, 1.0, 3);
        let reference = reference_attention(&q, &k, &v, SCALE, None).unwrap();
        for t in [8, 16, 32, 64] {
            let (fused, _) = recomposed_attention(&q, &k, &v, t, SCALE, None).unwrap();
            assert!(
                max_abs_diff(&reference, &fused) < 1e-5,
                "T={t}: {}",
                max_abs_diff(&reference, &fused)
            );
        }
    }

    #[test]
    fn fused_matches_reference_fp16() {
        let (l, d) = (64, 32);
        let q = randn_matrix::<F16>(l, d, 0.7, 4);
        let k = randn_matrix::<F16>(l, d, 0.7, 5);
        let v = randn_matrix::<F16>(l, d, 0.7, 6);
        let reference = reference_attention(&q, &k, &v, SCALE, None).unwrap();
        let (fused, _) = recomposed_attention(&q, &k, &v, 16, SCALE, None).unwrap();
        // Half precision with different rounding points: small divergence
        // allowed, catastrophic divergence not.
        assert!(
            max_abs_diff(&reference, &fused) < 5e-3,
            "{}",
            max_abs_diff(&reference, &fused)
        );
    }

    #[test]
    fn causal_masked_attention() {
        let (l, d) = (32, 8);
        let q = randn_matrix::<f64>(l, d, 1.0, 7);
        let k = randn_matrix::<f64>(l, d, 1.0, 8);
        let v = randn_matrix::<f64>(l, d, 1.0, 9);
        let mask = causal_mask(l);
        let reference = reference_attention(&q, &k, &v, SCALE, Some(&mask)).unwrap();
        let (fused, _) = recomposed_attention(&q, &k, &v, 8, SCALE, Some(&mask)).unwrap();
        assert!(max_abs_diff(&reference, &fused) < 1e-6);
    }

    #[test]
    fn first_row_of_causal_attention_is_v0() {
        // Row 0 attends only to position 0: output == v[0].
        let (l, d) = (16, 4);
        let q = randn_matrix::<f64>(l, d, 1.0, 10);
        let k = randn_matrix::<f64>(l, d, 1.0, 11);
        let v = randn_matrix::<f64>(l, d, 1.0, 12);
        let mask = causal_mask(l);
        let (out, _) = recomposed_attention(&q, &k, &v, 4, SCALE, Some(&mask)).unwrap();
        for j in 0..d {
            // f32 accumulators in the fused pipeline: ~1e-7 relative error
            assert!((out.get(0, j) - v.get(0, j)).abs() < 1e-5);
        }
    }

    #[test]
    fn ir_intermediates_are_consistent() {
        let (l, d) = (32, 8);
        let q = randn_matrix::<f64>(l, d, 1.0, 13);
        let k = randn_matrix::<f64>(l, d, 1.0, 14);
        let v = randn_matrix::<f64>(l, d, 1.0, 15);
        let (_, ir) = recomposed_attention(&q, &k, &v, 8, SCALE, None).unwrap();
        // r' sums to 1 per row.
        for r in 0..l {
            let s: f64 = ir.r_prime.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-6, "row {r}: {s}");
        }
        assert_eq!(ir.m.len(), l);
        assert_eq!(ir.d.len(), l);
    }

    #[test]
    fn shape_errors_everywhere() {
        let q = randn_matrix::<f64>(16, 8, 1.0, 0);
        let k_bad = randn_matrix::<f64>(16, 4, 1.0, 0);
        assert!(fused_qk_ls(&q, &k_bad, 4, 1.0, None).is_err());
        let k = randn_matrix::<f64>(16, 8, 1.0, 0);
        assert!(fused_qk_ls(&q, &k, 5, 1.0, None).is_err());

        let xp = Matrix::<f64>::zeros(16, 16);
        let rp_bad = Matrix::<f64>::zeros(16, 3);
        let v = Matrix::<f64>::zeros(16, 8);
        assert!(fused_gs_pv(&xp, &rp_bad, &v, 4).is_err());
        let rp = Matrix::<f64>::zeros(16, 4);
        let v_bad = Matrix::<f64>::zeros(8, 8);
        assert!(fused_gs_pv(&xp, &rp, &v_bad, 4).is_err());
        assert!(reference_attention(&q, &k, &v_bad, 1.0, None).is_err());
    }

    #[test]
    fn wrong_mask_length_is_an_error() {
        let q = randn_matrix::<f64>(8, 4, 1.0, 0);
        let k = randn_matrix::<f64>(8, 4, 1.0, 1);
        let v = randn_matrix::<f64>(8, 4, 1.0, 2);
        let short = [true; 3];
        assert!(fused_qk_ls(&q, &k, 4, 1.0, Some(&short)).is_err());
        assert!(reference_attention(&q, &k, &v, 1.0, Some(&short)).is_err());
        assert!(crate::online_attention(&q, &k, &v, 4, 1.0, Some(&short)).is_err());
        // The right length still runs.
        let full = [true; 64];
        assert!(fused_qk_ls(&q, &k, 4, 1.0, Some(&full)).is_ok());
        assert!(reference_attention(&q, &k, &v, 1.0, Some(&full)).is_ok());
        assert!(crate::online_attention(&q, &k, &v, 4, 1.0, Some(&full)).is_ok());
    }
}
