//! Numeric decomposed softmax over block-sparse attention (§3.4).
//!
//! For block-sparse attention the natural sub-vector is one retained block:
//! `T = block`. Each kernel here is its dense twin walking only a row's
//! retained tiles: LS makes a leaf of each retained block, IR reduces over
//! each row's retained blocks, GS scales per retained block. Skipped blocks
//! contribute nothing — exactly the semantics of the masked dense softmax
//! restricted to the support, down to the masked rule: a block row whose
//! scores are all `−∞` contributes zeros.

use crate::decomposed::{backward_row, check_r_prime, inter_reduce, ls_leaf, InterReductionOutput};
use crate::fused::gs_pv_rows;
use crate::normalizer::to;
use crate::softmax::check_v;
use resoftmax_sparse::{BlockLayout, BlockSparseMatrix};
use resoftmax_tensor::{Matrix, Scalar, ShapeError};
use std::ops::Range;

/// Output of block-sparse LS.
#[derive(Debug, Clone, PartialEq)]
pub struct BsLocalSoftmaxOutput<T: Scalar> {
    /// Locally-normalized values, same layout as the input scores.
    pub x_prime: BlockSparseMatrix<T>,
    /// `m'` per (row, retained block of that row): stored dense
    /// `L × n_blocks` with `-inf` where the block is skipped.
    pub m_prime: Matrix<T>,
    /// `d'` with the same convention (`0` where skipped).
    pub d_prime: Matrix<T>,
}

/// Each row's retained tiles, as `(BSR block index, block column)`.
pub(crate) struct RowTiles {
    block: usize,
    row_ptr: Vec<usize>,
    cols: Vec<usize>,
}

impl RowTiles {
    pub(crate) fn new(layout: &BlockLayout) -> Self {
        RowTiles {
            block: layout.block(),
            row_ptr: layout.row_ptr(),
            cols: layout.iter_blocks().map(|(_, bc)| bc).collect(),
        }
    }

    /// The BSR indices of row `r`'s retained blocks.
    fn range(&self, r: usize) -> Range<usize> {
        let br = r / self.block;
        self.row_ptr[br]..self.row_ptr[br + 1]
    }

    /// Row `r`'s retained tiles, in order.
    pub(crate) fn of(&self, r: usize) -> impl Iterator<Item = (usize, usize)> + Clone + '_ {
        self.range(r).map(|i| (i, self.cols[i]))
    }
}

/// LS over each retained block of a block-sparse score matrix: the dense LS
/// leaf (`f64`, exponentials rounded to `T`) on each row's retained tiles.
/// A tile whose scores are all `−∞` gets zeros, `m' = −∞` and `d' = 0`.
pub fn bs_local_softmax<T: Scalar>(scores: &BlockSparseMatrix<T>) -> BsLocalSoftmaxOutput<T> {
    let layout = scores.layout();
    let (b, l) = (layout.block(), layout.seq_len());
    let rows = RowTiles::new(layout);
    let mut x_prime = BlockSparseMatrix::zeros(layout.clone());
    let mut m_prime = Matrix::filled(l, layout.n_blocks(), T::neg_infinity());
    let mut d_prime = Matrix::zeros(l, layout.n_blocks());
    let mut e = vec![0.0f64; b];
    for r in 0..l {
        for (i, bc) in rows.of(r) {
            for (ej, v) in e.iter_mut().zip(scores.blocks()[i].row(r % b)) {
                *ej = v.to_f64();
            }
            let x_tile = x_prime.blocks_mut()[i].row_mut(r % b);
            let (m, d) = ls_leaf(&mut e, x_tile, to::<T>, |d, e| d + e);
            m_prime.set(r, bc, m);
            d_prime.set(r, bc, d);
        }
    }
    BsLocalSoftmaxOutput {
        x_prime,
        m_prime,
        d_prime,
    }
}

/// GS over the retained blocks: `y = x' · r'` where `r'` is indexed by
/// (row, block-column).
///
/// # Errors
///
/// Returns [`ShapeError`] if `r_prime` is not `L × n_blocks`.
pub fn bs_global_scale<T: Scalar>(
    x_prime: &BlockSparseMatrix<T>,
    r_prime: &Matrix<T>,
) -> Result<BlockSparseMatrix<T>, ShapeError> {
    let layout = x_prime.layout();
    check_r_prime(r_prime, layout.seq_len(), layout.n_blocks())?;
    let b = layout.block();
    let mut y = x_prime.clone();
    for ((br, bc), block) in layout.iter_blocks().zip(y.blocks_mut()) {
        for within in 0..b {
            let rk = r_prime.get(br * b + within, bc).to_f64();
            for v in block.row_mut(within) {
                *v = T::from_f64(v.to_f64() * rk);
            }
        }
    }
    Ok(y)
}

/// The full block-sparse decomposed softmax: LS → IR → GS.
///
/// Mathematically identical to
/// [`resoftmax_sparse::block_sparse_softmax`] on the same support.
pub fn bs_decomposed_softmax<T: Scalar>(
    scores: &BlockSparseMatrix<T>,
) -> (BlockSparseMatrix<T>, InterReductionOutput<T>) {
    let ls = bs_local_softmax(scores);
    // IR treats skipped blocks as -inf/0 entries, contributing nothing —
    // the same reduction as the dense decomposition.
    let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
    let y = bs_global_scale(&ls.x_prime, &ir.r_prime).expect("IR gives r' the layout's shape");
    (y, ir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_sparse::{block_sparse_softmax, pattern, sddmm, spmm, BigBirdConfig};
    use resoftmax_tensor::{max_abs_diff, randn_matrix};

    fn scores_fixture(l: usize, block: usize) -> BlockSparseMatrix<f64> {
        let layout = pattern::bigbird(
            l,
            &BigBirdConfig {
                block,
                random_blocks: 2,
                ..Default::default()
            },
        );
        let q = randn_matrix::<f64>(l, 16, 1.0, 100);
        let k = randn_matrix::<f64>(l, 16, 1.0, 101);
        sddmm(&q, &k, &layout).unwrap()
    }

    #[test]
    fn decomposed_matches_monolithic_block_sparse() {
        let scores = scores_fixture(128, 16);
        let monolithic = block_sparse_softmax(&scores);
        let (decomposed, _) = bs_decomposed_softmax(&scores);
        let diff = max_abs_diff(&monolithic.to_dense(0.0), &decomposed.to_dense(0.0));
        assert!(diff < 1e-12, "diff {diff}");
    }

    #[test]
    fn rows_sum_to_one_over_support() {
        let scores = scores_fixture(128, 16);
        let (y, _) = bs_decomposed_softmax(&scores);
        for r in 0..128 {
            let (_, vals) = y.row_support(r);
            let s: f64 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r}: {s}");
        }
    }

    #[test]
    fn ls_blocks_locally_normalized() {
        let scores = scores_fixture(64, 16);
        let ls = bs_local_softmax(&scores);
        for (idx, _) in scores.layout().iter_blocks().enumerate() {
            let block = &ls.x_prime.blocks()[idx];
            for within in 0..16 {
                let s: f64 = (0..16).map(|c| block.get(within, c)).sum();
                assert!((s - 1.0).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn r_prime_sums_to_one_over_retained_blocks() {
        let scores = scores_fixture(64, 16);
        let (_, ir) = bs_decomposed_softmax(&scores);
        for r in 0..64 {
            let s: f64 = ir.r_prime.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r}: {s}");
        }
    }

    #[test]
    fn end_to_end_sparse_attention_with_decomposition() {
        // sddmm -> decomposed softmax -> spmm equals monolithic pipeline.
        let l = 128;
        let layout = pattern::longformer(
            l,
            &pattern::LongformerConfig {
                block: 16,
                window: 32,
                global_tokens: 16,
            },
        );
        let q = randn_matrix::<f64>(l, 8, 1.0, 200);
        let k = randn_matrix::<f64>(l, 8, 1.0, 201);
        let v = randn_matrix::<f64>(l, 8, 1.0, 202);
        let scores = sddmm(&q, &k, &layout).unwrap();
        let mono = spmm(&block_sparse_softmax(&scores), &v).unwrap();
        let (dec, _) = bs_decomposed_softmax(&scores);
        let dec_out = spmm(&dec, &v).unwrap();
        assert!(max_abs_diff(&mono, &dec_out) < 1e-12);
    }

    #[test]
    fn gs_rejects_bad_r_shape() {
        let scores = scores_fixture(64, 16);
        let ls = bs_local_softmax(&scores);
        let bad = Matrix::<f64>::zeros(64, 2);
        assert!(bs_global_scale(&ls.x_prime, &bad).is_err());
    }
}

/// The fully recomposed block-sparse attention pipeline (§3.4): SDDMM with a
/// fused scale+LS epilogue semantics, IR, and GS applied inside the SpMM
/// prologue — never materializing normalized probabilities.
///
/// Numerically this equals [`resoftmax_sparse::block_sparse_softmax`] +
/// [`resoftmax_sparse::spmm`] on the same support; the fused form simply
/// reorders the scaling into the SpMM accumulation (one extra rounding per
/// element, like the dense GS+`P·V` fusion).
///
/// # Errors
///
/// Returns [`ShapeError`] on dimension mismatch, `v` checked first.
pub fn bs_recomposed_attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    layout: &BlockLayout,
    scale: f64,
) -> Result<Matrix<T>, ShapeError> {
    use resoftmax_tensor::scale as scale_op;

    check_v(v, layout.seq_len())?;
    // Fused QK + scale + LS: numerically, scale then local softmax per block.
    let mut scores = resoftmax_sparse::sddmm(q, k, layout)?;
    for block in scores.blocks_mut() {
        *block = scale_op(block, scale);
    }
    let ls = bs_local_softmax(&scores);
    let ir = inter_reduce(&ls.m_prime, &ls.d_prime);

    // Fused GS + SpMM: the dense GS·`P·V` walk over each row's retained
    // tiles.
    let (b, rows) = (layout.block(), RowTiles::new(layout));
    let (x_prime, r_prime) = (ls.x_prime.blocks(), &ir.r_prime);
    Ok(gs_pv_rows(layout.seq_len(), v, |r| {
        (rows.of(r)).map(move |(i, bc)| (x_prime[i].row(r % b), r_prime.get(r, bc), bc * b))
    }))
}

#[cfg(test)]
mod recomposed_tests {
    use super::*;
    use resoftmax_sparse::{block_sparse_softmax, pattern, sddmm, spmm, BigBirdConfig};
    use resoftmax_tensor::{max_abs_diff, randn_matrix, scale as scale_op};

    #[test]
    fn fused_block_sparse_equals_unfused() {
        let l = 128;
        let layout = pattern::bigbird(
            l,
            &BigBirdConfig {
                block: 16,
                random_blocks: 2,
                ..Default::default()
            },
        );
        let scale = 0.25;
        let q = randn_matrix::<f64>(l, 16, 1.0, 300);
        let k = randn_matrix::<f64>(l, 16, 1.0, 301);
        let v = randn_matrix::<f64>(l, 16, 1.0, 302);

        // Unfused reference on the same support.
        let mut scores = sddmm(&q, &k, &layout).unwrap();
        for block in scores.blocks_mut() {
            *block = scale_op(block, scale);
        }
        let reference = spmm(&block_sparse_softmax(&scores), &v).unwrap();

        let fused = bs_recomposed_attention(&q, &k, &v, &layout, scale).unwrap();
        assert!(
            max_abs_diff(&reference, &fused) < 1e-5,
            "diff {}",
            max_abs_diff(&reference, &fused)
        );
    }

    #[test]
    fn fused_block_sparse_fp16_stays_finite() {
        use resoftmax_fp16::F16;
        let l = 64;
        let layout = pattern::sliding_window(l, 16, 1);
        let q = randn_matrix::<F16>(l, 8, 1.0, 310);
        let k = randn_matrix::<F16>(l, 8, 1.0, 311);
        let v = randn_matrix::<F16>(l, 8, 1.0, 312);
        let out = bs_recomposed_attention(&q, &k, &v, &layout, 0.35).unwrap();
        assert!(!out.has_nan());
        assert!(out.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn fused_rejects_bad_v() {
        let l = 32;
        let layout = pattern::sliding_window(l, 16, 1);
        let q = randn_matrix::<f64>(l, 8, 1.0, 1);
        let k = randn_matrix::<f64>(l, 8, 1.0, 2);
        let v_bad = randn_matrix::<f64>(16, 8, 1.0, 3);
        assert!(bs_recomposed_attention(&q, &k, &v_bad, &layout, 1.0).is_err());
    }
}

/// Block-sparse decomposed softmax *backward*: given the stored block-sparse
/// `x'` and the `r'` factors (`L × n_blocks`), and the upstream gradient
/// `dy` on the same support, computes `dx = y ⊙ (dy − Σ y·dy)` over the
/// support with the row dot decomposed per retained block — the sparse
/// mirror of [`crate::decomposed_softmax_backward`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `dy`'s layout differs from `x'`'s or `r'` is
/// not `L × n_blocks`.
pub fn bs_decomposed_softmax_backward<T: Scalar>(
    x_prime: &BlockSparseMatrix<T>,
    r_prime: &Matrix<T>,
    dy: &BlockSparseMatrix<T>,
) -> Result<BlockSparseMatrix<T>, ShapeError> {
    let layout = x_prime.layout();
    if dy.layout() != layout {
        return Err(ShapeError::new("dy layout differs from x'"));
    }
    check_r_prime(r_prime, layout.seq_len(), layout.n_blocks())?;
    let b = layout.block();
    let rows = RowTiles::new(layout);
    let mut dx = BlockSparseMatrix::zeros(layout.clone());
    for r in 0..layout.seq_len() {
        let tiles = rows.of(r).map(|(i, bc)| {
            let (x, dy) = (&x_prime.blocks()[i], &dy.blocks()[i]);
            (x.row(r % b), dy.row(r % b), r_prime.get(r, bc))
        });
        let dx_tiles = dx.blocks_mut()[rows.range(r)].iter_mut();
        backward_row(tiles, dx_tiles.map(|block| block.row_mut(r % b)));
    }
    Ok(dx)
}

#[cfg(test)]
mod backward_tests {
    use super::*;
    use crate::softmax::softmax_backward;
    use resoftmax_sparse::{block_sparse_softmax, pattern, sddmm, BigBirdConfig};
    use resoftmax_tensor::{max_abs_diff, randn_matrix};

    #[test]
    fn sparse_backward_matches_masked_dense() {
        let l = 96;
        let layout = pattern::bigbird(
            l,
            &BigBirdConfig {
                block: 16,
                random_blocks: 1,
                ..Default::default()
            },
        );
        let q = randn_matrix::<f64>(l, 8, 1.0, 600);
        let k = randn_matrix::<f64>(l, 8, 1.0, 601);
        let scores = sddmm(&q, &k, &layout).unwrap();
        let dy_dense = randn_matrix::<f64>(l, l, 1.0, 602);
        let dy = BlockSparseMatrix::from_dense(&dy_dense, layout.clone()).unwrap();

        // Decomposed sparse path.
        let ls = bs_local_softmax(&scores);
        let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
        let dx = bs_decomposed_softmax_backward(&ls.x_prime, &ir.r_prime, &dy).unwrap();

        // Dense reference restricted to the support: y = sparse softmax,
        // upstream gradient zero outside the support.
        let y = block_sparse_softmax(&scores).to_dense(0.0);
        let dy_masked = dy.to_dense(0.0);
        let reference = softmax_backward(&y, &dy_masked).unwrap();
        let diff = max_abs_diff(&reference, &dx.to_dense(0.0));
        assert!(diff < 1e-12, "diff {diff}");
    }

    #[test]
    fn sparse_backward_rows_sum_to_zero() {
        let l = 64;
        let layout = pattern::sliding_window(l, 16, 1);
        let q = randn_matrix::<f64>(l, 8, 1.0, 610);
        let k = randn_matrix::<f64>(l, 8, 1.0, 611);
        let scores = sddmm(&q, &k, &layout).unwrap();
        let dy =
            BlockSparseMatrix::from_dense(&randn_matrix::<f64>(l, l, 1.0, 612), layout.clone())
                .unwrap();
        let ls = bs_local_softmax(&scores);
        let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
        let dx = bs_decomposed_softmax_backward(&ls.x_prime, &ir.r_prime, &dy).unwrap();
        for r in 0..l {
            let (_, vals) = dx.row_support(r);
            let s: f64 = vals.iter().sum();
            assert!(s.abs() < 1e-10, "row {r}: {s}");
        }
    }
}
