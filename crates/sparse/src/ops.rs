//! Numeric block-sparse matrices and the attention operations over them.
//!
//! [`BlockSparseMatrix`] stores only the retained blocks of an `L × L`
//! attention matrix (BSR order). The three operations of a block-sparse SDA
//! block are provided:
//!
//! * [`sddmm`] — sampled dense-dense matmul: compute `Q·Kᵀ` only where the
//!   layout retains a block (the first MatMul of sparse attention).
//! * [`block_sparse_softmax`] — row softmax over each row's retained support.
//! * [`spmm`] — block-sparse × dense matmul (`P·V`, the second MatMul).
//!
//! Semantics are validated against the dense reference: sparse attention is
//! exactly dense attention with a `-inf` mask outside the support.

use crate::layout::BlockLayout;
use resoftmax_tensor::{matmul_transpose_b, Matrix, Scalar, ShapeError};

/// A block-sparse `L × L` matrix: layout + dense blocks in BSR (row-major
/// retained-block) order.
#[derive(Clone, PartialEq)]
pub struct BlockSparseMatrix<T> {
    layout: BlockLayout,
    blocks: Vec<Matrix<T>>,
}

impl<T: Scalar> core::fmt::Debug for BlockSparseMatrix<T> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "BlockSparseMatrix<{}> L={} block={} nnz_blocks={}",
            T::NAME,
            self.layout.seq_len(),
            self.layout.block(),
            self.blocks.len()
        )
    }
}

impl<T: Scalar> BlockSparseMatrix<T> {
    /// Creates a block-sparse matrix of zeros with the given layout.
    pub fn zeros(layout: BlockLayout) -> Self {
        let b = layout.block();
        let blocks = layout.iter_blocks().map(|_| Matrix::zeros(b, b)).collect();
        BlockSparseMatrix { layout, blocks }
    }

    /// Gathers the retained blocks of a dense matrix.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `dense` is not `L × L` for the layout.
    pub fn from_dense(dense: &Matrix<T>, layout: BlockLayout) -> Result<Self, ShapeError> {
        let l = layout.seq_len();
        if dense.shape() != (l, l) {
            return Err(ShapeError::new(format!(
                "dense {:?} vs layout {l}x{l}",
                dense.shape()
            )));
        }
        let b = layout.block();
        let blocks = layout
            .iter_blocks()
            .map(|(br, bc)| dense.block(br * b, bc * b, b, b).expect("in range"))
            .collect();
        Ok(BlockSparseMatrix { layout, blocks })
    }

    /// The sparsity layout.
    pub fn layout(&self) -> &BlockLayout {
        &self.layout
    }

    /// The retained blocks in BSR order.
    pub fn blocks(&self) -> &[Matrix<T>] {
        &self.blocks
    }

    /// Mutable blocks (BSR order).
    pub fn blocks_mut(&mut self) -> &mut [Matrix<T>] {
        &mut self.blocks
    }

    /// Expands to a dense matrix, placing `fill` outside the support
    /// (use `T::zero()` after softmax, `T::neg_infinity()` before).
    pub fn to_dense(&self, fill: T) -> Matrix<T> {
        let l = self.layout.seq_len();
        let b = self.layout.block();
        let mut out = Matrix::filled(l, l, fill);
        for ((br, bc), block) in self.layout.iter_blocks().zip(&self.blocks) {
            out.write_block(br * b, bc * b, block).expect("in range");
        }
        out
    }

    /// Device bytes of the retained blocks only.
    pub fn device_bytes(&self) -> u64 {
        self.blocks.iter().map(Matrix::device_bytes).sum()
    }

    /// Extracts row `r`'s support as `(column_indices, values)`, scanning the
    /// retained blocks of its block-row in order.
    pub fn row_support(&self, r: usize) -> (Vec<usize>, Vec<T>) {
        let b = self.layout.block();
        let br = r / b;
        let within = r % b;
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for ((row_blk, col_blk), block) in self.layout.iter_blocks().zip(&self.blocks) {
            if row_blk != br {
                continue;
            }
            for c in 0..b {
                cols.push(col_blk * b + c);
                vals.push(block.get(within, c));
            }
        }
        (cols, vals)
    }
}

/// Sampled dense-dense matmul: `scores[block] = Q_block · K_blockᵀ` for every
/// retained block. `q` and `k` are `L × D_head` (row-major, K untransposed).
///
/// # Errors
///
/// Returns [`ShapeError`] if `q`/`k` are not `L × d` with matching `d`.
pub fn sddmm<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    layout: &BlockLayout,
) -> Result<BlockSparseMatrix<T>, ShapeError> {
    let l = layout.seq_len();
    if q.rows() != l || k.rows() != l || q.cols() != k.cols() {
        return Err(ShapeError::new(format!(
            "sddmm q {:?}, k {:?}, L={l}",
            q.shape(),
            k.shape()
        )));
    }
    let _span = resoftmax_obs::span!("sddmm", "sparse");
    let b = layout.block();
    let d = q.cols();
    // Retained blocks are independent output tiles: one map entry each.
    let coords: Vec<(usize, usize)> = layout.iter_blocks().collect();
    let blocks = resoftmax_parallel::parallel_map(&coords, |_, &(br, bc)| {
        let qb = q.block(br * b, 0, b, d).expect("in range");
        let kb = k.block(bc * b, 0, b, d).expect("in range");
        matmul_transpose_b(&qb, &kb).expect("dims match")
    });
    Ok(BlockSparseMatrix {
        layout: layout.clone(),
        blocks,
    })
}

/// Row softmax over the retained support of each row (safe softmax with the
/// max subtracted), computed in `f64` and rounded once per element.
///
/// A row whose retained scores are all `-inf` gives zeros, as the dense
/// softmax does. Rows with empty support are left untouched (they have no
/// retained blocks to write into).
pub fn block_sparse_softmax<T: Scalar>(scores: &BlockSparseMatrix<T>) -> BlockSparseMatrix<T> {
    let _span = resoftmax_obs::span!("block_sparse_softmax", "sparse");
    let b = scores.layout.block();
    let mut out = scores.clone();

    // BSR order keeps each block-row's retained blocks contiguous, and rows
    // reduce only over their own support — block-rows parallelize bit-exactly.
    let row_ptr = scores.layout.row_ptr();
    let lens: Vec<usize> = row_ptr.windows(2).map(|w| w[1] - w[0]).collect();
    resoftmax_parallel::parallel_ranges_mut(&mut out.blocks, &lens, |br, row_blocks| {
        if row_blocks.is_empty() {
            return;
        }
        let src_row = &scores.blocks[row_ptr[br]..row_ptr[br] + row_blocks.len()];
        for within in 0..b {
            // max over support
            let mut m = f64::NEG_INFINITY;
            for blk in src_row {
                for c in 0..b {
                    m = m.max(blk.get(within, c).to_f64());
                }
            }
            if m == f64::NEG_INFINITY {
                for ob in row_blocks.iter_mut() {
                    for c in 0..b {
                        ob.set(within, c, T::zero());
                    }
                }
                continue;
            }
            // normalizer
            let mut d = 0.0f64;
            for blk in src_row {
                for c in 0..b {
                    d += (blk.get(within, c).to_f64() - m).exp();
                }
            }
            // scale
            for (ob, blk) in row_blocks.iter_mut().zip(src_row) {
                for c in 0..b {
                    let y = (blk.get(within, c).to_f64() - m).exp() / d;
                    ob.set(within, c, T::from_f64(y));
                }
            }
        }
    });
    out
}

/// Block-sparse × dense matmul: `out = P · V` where `p` is block-sparse
/// `L × L` and `v` is dense `L × D_head`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `v.rows() != L`.
pub fn spmm<T: Scalar>(p: &BlockSparseMatrix<T>, v: &Matrix<T>) -> Result<Matrix<T>, ShapeError> {
    let l = p.layout.seq_len();
    if v.rows() != l {
        return Err(ShapeError::new(format!("spmm v {:?} vs L={l}", v.shape())));
    }
    let _span = resoftmax_obs::span!("spmm", "sparse");
    let b = p.layout.block();
    let d = v.cols();
    let mut out = Matrix::<T>::zeros(l, d);
    // f64 accumulators per output element, accumulated block by block.
    // Each block-row touches only its own band of `b` output rows, so bands
    // parallelize with per-element accumulation order unchanged (the blocks
    // of one block-row are consecutive in BSR order).
    let row_ptr = p.layout.row_ptr();
    let order: Vec<(usize, usize)> = p.layout.iter_blocks().collect();
    resoftmax_parallel::parallel_chunks_mut(out.as_mut_slice(), (b * d).max(1), |br, band| {
        let mut acc = vec![0.0f64; band.len()];
        for bi in row_ptr[br]..row_ptr[br + 1] {
            let (_, bc) = order[bi];
            let block = &p.blocks[bi];
            for r in 0..b {
                for c in 0..b {
                    let pv = block.get(r, c).to_f64();
                    if pv == 0.0 {
                        continue;
                    }
                    let k_row = bc * b + c;
                    for j in 0..d {
                        acc[r * d + j] += pv * v.get(k_row, j).to_f64();
                    }
                }
            }
        }
        for (o, a) in band.iter_mut().zip(&acc) {
            *o = T::from_f64(*a);
        }
    });
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{bigbird, sliding_window, BigBirdConfig};
    use resoftmax_tensor::{matmul, max_abs_diff, randn_matrix, transpose};

    /// Dense reference: full QKᵀ, -inf outside support, dense softmax, PV.
    fn dense_reference(
        q: &Matrix<f64>,
        k: &Matrix<f64>,
        v: &Matrix<f64>,
        layout: &BlockLayout,
    ) -> Matrix<f64> {
        let l = layout.seq_len();
        let scores = matmul(q, &transpose(k)).unwrap();
        let mask = layout.element_mask();
        let masked = Matrix::from_fn(l, l, |r, c| {
            if mask[r * l + c] {
                scores.get(r, c)
            } else {
                f64::NEG_INFINITY
            }
        });
        // dense softmax
        let mut p = Matrix::<f64>::zeros(l, l);
        for r in 0..l {
            let m = masked
                .row(r)
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max);
            let d: f64 = masked.row(r).iter().map(|x| (x - m).exp()).sum();
            for c in 0..l {
                p.set(r, c, (masked.get(r, c) - m).exp() / d);
            }
        }
        matmul(&p, v).unwrap()
    }

    #[test]
    fn from_dense_to_dense_roundtrip() {
        let layout = sliding_window(8, 2, 1);
        let dense = randn_matrix::<f64>(8, 8, 1.0, 1);
        let bs = BlockSparseMatrix::from_dense(&dense, layout.clone()).unwrap();
        let back = bs.to_dense(0.0);
        for (r, c, v) in dense.iter() {
            let mask = layout.element_mask();
            if mask[r * 8 + c] {
                assert_eq!(back.get(r, c), v);
            } else {
                assert_eq!(back.get(r, c), 0.0);
            }
        }
        assert!(BlockSparseMatrix::from_dense(&randn_matrix::<f64>(4, 8, 1.0, 2), layout).is_err());
    }

    #[test]
    fn zeros_and_bytes() {
        let layout = sliding_window(8, 2, 0); // diagonal only: 4 blocks of 2x2
        let z = BlockSparseMatrix::<f32>::zeros(layout);
        assert_eq!(z.blocks().len(), 4);
        assert_eq!(z.device_bytes(), 4 * 4 * 4);
    }

    #[test]
    fn sddmm_matches_dense_on_support() {
        let layout = sliding_window(8, 2, 1);
        let q = randn_matrix::<f64>(8, 4, 1.0, 10);
        let k = randn_matrix::<f64>(8, 4, 1.0, 11);
        let bs = sddmm(&q, &k, &layout).unwrap();
        let dense = matmul(&q, &transpose(&k)).unwrap();
        let mask = layout.element_mask();
        let expanded = bs.to_dense(0.0);
        for (r, c, v) in expanded.iter() {
            if mask[r * 8 + c] {
                assert!((v - dense.get(r, c)).abs() < 1e-9);
            }
        }
        // shape errors
        assert!(sddmm(&randn_matrix::<f64>(4, 4, 1.0, 0), &k, &layout).is_err());
        assert!(sddmm(&q, &randn_matrix::<f64>(8, 5, 1.0, 0), &layout).is_err());
    }

    #[test]
    fn sparse_softmax_rows_sum_to_one() {
        let layout = bigbird(
            256,
            &BigBirdConfig {
                block: 32,
                ..Default::default()
            },
        );
        let q = randn_matrix::<f64>(256, 16, 1.0, 20);
        let k = randn_matrix::<f64>(256, 16, 1.0, 21);
        let p = block_sparse_softmax(&sddmm(&q, &k, &layout).unwrap());
        for r in 0..256 {
            let (_, vals) = p.row_support(r);
            let s: f64 = vals.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {r} sums to {s}");
        }
    }

    #[test]
    fn full_sparse_attention_equals_masked_dense_reference() {
        let layout = bigbird(
            128,
            &BigBirdConfig {
                block: 16,
                random_blocks: 2,
                ..Default::default()
            },
        );
        let q = randn_matrix::<f64>(128, 8, 1.0, 30);
        let k = randn_matrix::<f64>(128, 8, 1.0, 31);
        let v = randn_matrix::<f64>(128, 8, 1.0, 32);

        let scores = sddmm(&q, &k, &layout).unwrap();
        let p = block_sparse_softmax(&scores);
        let out = spmm(&p, &v).unwrap();

        let reference = dense_reference(&q, &k, &v, &layout);
        assert!(
            max_abs_diff(&out, &reference) < 1e-9,
            "diff {}",
            max_abs_diff(&out, &reference)
        );
    }

    #[test]
    fn dense_layout_reduces_to_dense_attention() {
        let layout = BlockLayout::dense(32, 8);
        let q = randn_matrix::<f64>(32, 8, 1.0, 40);
        let k = randn_matrix::<f64>(32, 8, 1.0, 41);
        let v = randn_matrix::<f64>(32, 8, 1.0, 42);
        let out = spmm(&block_sparse_softmax(&sddmm(&q, &k, &layout).unwrap()), &v).unwrap();
        let reference = dense_reference(&q, &k, &v, &layout);
        assert!(max_abs_diff(&out, &reference) < 1e-9);
    }

    #[test]
    fn spmm_shape_error() {
        let layout = BlockLayout::dense(8, 2);
        let p = BlockSparseMatrix::<f64>::zeros(layout);
        assert!(spmm(&p, &randn_matrix::<f64>(4, 2, 1.0, 0)).is_err());
    }

    #[test]
    fn row_support_columns_are_correct() {
        let mut layout = BlockLayout::empty(8, 2);
        layout.set(1, 0, true);
        layout.set(1, 3, true);
        let mut bs = BlockSparseMatrix::<f32>::zeros(layout);
        bs.blocks_mut()[0].set(0, 1, 7.0); // block (1,0), within-row 0 => row 2, col 1
        let (cols, vals) = bs.row_support(2);
        assert_eq!(cols, vec![0, 1, 6, 7]);
        assert_eq!(vals[1], 7.0);
        // empty row
        let (cols0, _) = bs.row_support(0);
        assert!(cols0.is_empty());
    }
}
