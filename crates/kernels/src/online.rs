//! Extension: *online-softmax* fully-fused attention.
//!
//! The paper's related work (§7) notes that libraries ship fused MHA kernels
//! only for short sequences, and cites Milakov & Gimelshein's online
//! normalizer calculation \[21\] without pursuing it. This module implements
//! that pursuit — the approach that later became FlashAttention: a single
//! kernel that streams K/V tiles past each Q tile while maintaining a
//! *running* max `m`, normalizer `d`, and pre-scaled output accumulator,
//! rescaling the accumulator whenever the running max changes:
//!
//! ```text
//! m_new = max(m, m_tile)
//! d_new = d·e^{m−m_new} + d_tile·e^{m_tile−m_new}
//! acc   = acc·(d·e^{m−m_new}/d_new) + (P_tile·V_tile)·(e^{m_tile−m_new}/d_new)
//! ```
//!
//! The attention matrix never exists in memory at all — not even the `x'`
//! the paper's SDF writes — so its off-chip traffic drops to Q/K/V/output
//! only. Mathematically it is yet another regrouping of Eq. 2 and agrees
//! with the reference to the same precision as the SDF pipeline.

use crate::normalizer::Normalizer;
use crate::softmax::check_mask;
use crate::sparse_numeric::RowTiles;
use rayon::prelude::*;
use resoftmax_tensor::{row_update, transpose, Matrix, Scalar, ShapeError};
use std::ops::Range;

/// Fully-fused attention via online softmax: computes
/// `softmax(scale · mask(Q·Kᵀ)) · V` in one pass over K/V tiles of width
/// `t`, never materializing the attention matrix.
///
/// Accumulation is `f32` (tensor-core style); the output rounds once to `T`.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes are inconsistent, `t` does not divide
/// `L`, or `mask` is given with a length other than `L²`.
pub fn online_attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    t: usize,
    scale: f64,
    mask: Option<&[bool]>,
) -> Result<Matrix<T>, ShapeError> {
    let l = q.rows();
    if k.rows() != l || v.rows() != l || k.cols() != q.cols() {
        return Err(ShapeError::new(format!(
            "online_attention q {:?}, k {:?}, v {:?}",
            q.shape(),
            k.shape(),
            v.shape()
        )));
    }
    if t == 0 || !l.is_multiple_of(t) {
        return Err(ShapeError::new(format!("tile {t} must divide L {l}")));
    }
    check_mask(mask, l * l)?;
    let _span = resoftmax_obs::span!("online_attention", "kernels");
    Ok(online_rows(q, k, v, scale, mask, |_| {
        (0..l).step_by(t).map(move |c| c..c + t)
    }))
}

/// Online attention on the pool: query row `r` folds its key tiles
/// `tiles(r)` (column ranges, in order) into one running pair. Each tile's
/// scores accumulate in `f32` from the widened operands, are scaled and
/// masked (`mask` is row-major, one entry per score), and fold in; the
/// `P·V` accumulator is rescaled by the factor each fold returns. A fully
/// masked tile contributes nothing, and so does a zero weight. Each output
/// rounds `acc/d` once to `T`; a row that saw nothing stays zero.
fn online_rows<T: Scalar, I: Iterator<Item = Range<usize>>>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    scale: f64,
    mask: Option<&[bool]>,
    tiles: impl Fn(usize) -> I + Sync,
) -> Matrix<T> {
    let l = k.rows();
    let q_wide = q.map(Scalar::to_f32);
    let kt_wide = transpose(k).map(Scalar::to_f32);
    let v_wide = v.map(Scalar::to_f32);
    let mut out = Matrix::zeros(q.rows(), v.cols());
    // Rows are independent: parallelize (the per-row online recurrence is
    // sequential by construction, matching the kernel's dataflow).
    out.as_mut_slice()
        .par_chunks_mut(v.cols().max(1))
        .enumerate()
        .for_each(|(r, out_row)| {
            let mut n = Normalizer::EMPTY;
            let mut acc = vec![0.0f32; out_row.len()];
            let mut pv = vec![0.0f32; out_row.len()];
            let mut s = Vec::new();
            for cols in tiles(r) {
                s.clear();
                s.resize(cols.len(), 0.0f32);
                row_update(&mut s, q_wide.row(r), &kt_wide, cols.start);
                for (c, sc) in cols.clone().zip(&mut s) {
                    *sc *= scale as f32;
                    if mask.is_some_and(|m| !m[r * l + c]) {
                        *sc = f32::NEG_INFINITY;
                    }
                }
                let Some(alpha) = n.observe(&mut s, |e| e, |d, e| d + e) else {
                    continue;
                };
                pv.fill(0.0);
                for (c, &e) in cols.zip(&s) {
                    if e == 0.0 {
                        continue;
                    }
                    for (p, &vc) in pv.iter_mut().zip(v_wide.row(c)) {
                        *p += e * vc;
                    }
                }
                for (a, p) in acc.iter_mut().zip(&pv) {
                    *a = *a * alpha + p;
                }
            }
            if n.d > 0.0 {
                for (o, a) in out_row.iter_mut().zip(&acc) {
                    *o = T::from_f64((a / n.d) as f64);
                }
            }
        });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::{recomposed_attention, reference_attention};
    use crate::softmax::{apply_mask, causal_mask};
    use resoftmax_fp16::F16;
    use resoftmax_tensor::{max_abs_diff, randn_matrix};

    const SCALE: f64 = 0.125;

    #[test]
    fn matches_reference_f64() {
        let (l, d) = (64, 16);
        let q = randn_matrix::<f64>(l, d, 1.0, 1);
        let k = randn_matrix::<f64>(l, d, 1.0, 2);
        let v = randn_matrix::<f64>(l, d, 1.0, 3);
        let reference = reference_attention(&q, &k, &v, SCALE, None).unwrap();
        for t in [8, 16, 32, 64] {
            let online = online_attention(&q, &k, &v, t, SCALE, None).unwrap();
            assert!(
                max_abs_diff(&reference, &online) < 1e-5,
                "t={t}: {}",
                max_abs_diff(&reference, &online)
            );
        }
    }

    #[test]
    fn matches_recomposed_fp16() {
        let (l, d) = (64, 32);
        let q = randn_matrix::<F16>(l, d, 0.7, 4);
        let k = randn_matrix::<F16>(l, d, 0.7, 5);
        let v = randn_matrix::<F16>(l, d, 0.7, 6);
        let (sdf, _) = recomposed_attention(&q, &k, &v, 16, SCALE, None).unwrap();
        let online = online_attention(&q, &k, &v, 16, SCALE, None).unwrap();
        assert!(max_abs_diff(&sdf, &online) < 5e-3);
        assert!(!online.has_nan());
    }

    #[test]
    fn causal_mask_agrees() {
        let (l, d) = (32, 8);
        let q = randn_matrix::<f64>(l, d, 1.0, 7);
        let k = randn_matrix::<f64>(l, d, 1.0, 8);
        let v = randn_matrix::<f64>(l, d, 1.0, 9);
        let mask = causal_mask(l);
        let reference = reference_attention(&q, &k, &v, SCALE, Some(&mask)).unwrap();
        let online = online_attention(&q, &k, &v, 8, SCALE, Some(&mask)).unwrap();
        assert!(max_abs_diff(&reference, &online) < 1e-6);
        // row 0 attends only to itself
        for j in 0..d {
            assert!((online.get(0, j) - v.get(0, j)).abs() < 1e-6);
        }
    }

    #[test]
    fn running_rescale_survives_large_late_maxima() {
        // The max appears in the LAST tile: the accumulated prefix must be
        // rescaled away almost entirely without overflow or NaN.
        let (l, d) = (32, 4);
        let q = Matrix::<f64>::filled(l, d, 1.0);
        let mut k = randn_matrix::<f64>(l, d, 0.1, 10);
        for p in 0..d {
            k.set(l - 1, p, 25.0); // huge score for the final key
        }
        let v = randn_matrix::<f64>(l, d, 1.0, 11);
        let reference = reference_attention(&q, &k, &v, 1.0, None).unwrap();
        let online = online_attention(&q, &k, &v, 8, 1.0, None).unwrap();
        assert!(max_abs_diff(&reference, &online) < 1e-5);
        // attention should be ~all on the last value row
        for j in 0..d {
            assert!((online.get(0, j) - v.get(l - 1, j)).abs() < 1e-3);
        }
    }

    #[test]
    fn fully_masked_rows_are_zero() {
        let (l, d) = (16, 4);
        let q = randn_matrix::<f64>(l, d, 1.0, 12);
        let k = randn_matrix::<f64>(l, d, 1.0, 13);
        let v = randn_matrix::<f64>(l, d, 1.0, 14);
        let mut mask = vec![true; l * l];
        mask[..l].fill(false); // row 0 fully masked
        let online = online_attention(&q, &k, &v, 4, SCALE, Some(&mask)).unwrap();
        for j in 0..d {
            assert_eq!(online.get(0, j), 0.0);
        }
    }

    #[test]
    fn shape_errors() {
        let q = randn_matrix::<f64>(16, 8, 1.0, 0);
        let k = randn_matrix::<f64>(16, 8, 1.0, 1);
        let v = randn_matrix::<f64>(16, 8, 1.0, 2);
        assert!(online_attention(&q, &k, &v, 5, 1.0, None).is_err());
        assert!(online_attention(&q, &k, &v, 0, 1.0, None).is_err());
        let k_bad = randn_matrix::<f64>(16, 4, 1.0, 3);
        assert!(online_attention(&q, &k_bad, &v, 4, 1.0, None).is_err());
        let v_bad = randn_matrix::<f64>(8, 8, 1.0, 4);
        assert!(online_attention(&q, &k, &v_bad, 4, 1.0, None).is_err());
    }

    #[test]
    fn equivalent_to_masked_dense_restriction() {
        // masked online == unmasked online on a causal support computed by
        // explicit apply_mask on the scores path (sanity of mask plumbing)
        let (l, d) = (16, 4);
        let q = randn_matrix::<f64>(l, d, 1.0, 20);
        let k = randn_matrix::<f64>(l, d, 1.0, 21);
        let v = randn_matrix::<f64>(l, d, 1.0, 22);
        let mask = causal_mask(l);
        let a = online_attention(&q, &k, &v, 4, SCALE, Some(&mask)).unwrap();
        // reference path through apply_mask
        let scores = resoftmax_tensor::matmul_transpose_b(&q, &k).unwrap();
        let masked = apply_mask(&resoftmax_tensor::scale(&scores, SCALE), &mask).unwrap();
        let p = crate::softmax::softmax_rows(&masked);
        let b = resoftmax_tensor::matmul(&p, &v).unwrap();
        assert!(max_abs_diff(&a, &b) < 1e-6);
    }
}

/// Extension: block-sparse online-softmax attention — one pass over each
/// row's *retained* K/V blocks with the running-rescale recurrence, never
/// materializing even the sparse attention blocks.
///
/// Equals `sddmm → block_sparse_softmax → spmm` on the same support.
///
/// # Errors
///
/// Returns [`ShapeError`] on dimension mismatch with the layout.
pub fn bs_online_attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    layout: &resoftmax_sparse::BlockLayout,
    scale: f64,
) -> Result<Matrix<T>, ShapeError> {
    let l = layout.seq_len();
    if q.rows() != l || k.rows() != l || v.rows() != l || k.cols() != q.cols() {
        return Err(ShapeError::new(format!(
            "bs_online_attention q {:?}, k {:?}, v {:?}, L={l}",
            q.shape(),
            k.shape(),
            v.shape()
        )));
    }
    let _span = resoftmax_obs::span!("bs_online_attention", "kernels");
    let (b, rows) = (layout.block(), RowTiles::new(layout));
    Ok(online_rows(q, k, v, scale, None, |r| {
        rows.of(r).map(move |(_, bc)| bc * b..(bc + 1) * b)
    }))
}

#[cfg(test)]
mod bs_online_tests {
    use super::*;
    use resoftmax_sparse::{block_sparse_softmax, pattern, sddmm, spmm, BigBirdConfig};
    use resoftmax_tensor::{max_abs_diff, randn_matrix, scale as scale_op};

    #[test]
    fn matches_unfused_block_sparse_pipeline() {
        let l = 128;
        let layout = pattern::bigbird(
            l,
            &BigBirdConfig {
                block: 16,
                random_blocks: 2,
                ..Default::default()
            },
        );
        let sc = 0.25;
        let q = randn_matrix::<f64>(l, 16, 1.0, 700);
        let k = randn_matrix::<f64>(l, 16, 1.0, 701);
        let v = randn_matrix::<f64>(l, 16, 1.0, 702);
        let mut scores = sddmm(&q, &k, &layout).unwrap();
        for block in scores.blocks_mut() {
            *block = scale_op(block, sc);
        }
        let reference = spmm(&block_sparse_softmax(&scores), &v).unwrap();
        let online = bs_online_attention(&q, &k, &v, &layout, sc).unwrap();
        assert!(
            max_abs_diff(&reference, &online) < 1e-5,
            "diff {}",
            max_abs_diff(&reference, &online)
        );
    }

    #[test]
    fn rows_without_blocks_stay_zero() {
        let l = 32;
        let mut layout = resoftmax_sparse::BlockLayout::empty(l, 16);
        layout.set(0, 0, true); // only the first block-row attends
        let q = randn_matrix::<f64>(l, 8, 1.0, 710);
        let k = randn_matrix::<f64>(l, 8, 1.0, 711);
        let v = randn_matrix::<f64>(l, 8, 1.0, 712);
        let out = bs_online_attention(&q, &k, &v, &layout, 1.0).unwrap();
        for r in 16..32 {
            for j in 0..8 {
                assert_eq!(out.get(r, j), 0.0, "empty row {r} must be zero");
            }
        }
        // attended rows are nonzero
        assert!(out.row(0).iter().any(|&x| x != 0.0));
    }

    #[test]
    fn shape_errors() {
        let layout = pattern::sliding_window(32, 16, 1);
        let q = randn_matrix::<f64>(32, 8, 1.0, 0);
        let k_bad = randn_matrix::<f64>(32, 4, 1.0, 1);
        let v = randn_matrix::<f64>(32, 8, 1.0, 2);
        assert!(bs_online_attention(&q, &k_bad, &v, &layout, 1.0).is_err());
        let v_bad = randn_matrix::<f64>(16, 8, 1.0, 3);
        assert!(bs_online_attention(&q, &k_bad, &v_bad, &layout, 1.0).is_err());
    }
}
