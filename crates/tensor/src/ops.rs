//! Reference linear-algebra operations.
//!
//! Two matrix-multiply dataflows are provided:
//!
//! * [`matmul`] — the naive triple loop with `f64` accumulation; the oracle
//!   everything else is tested against.
//! * [`matmul_tiled`] — the *outer-product dataflow* used by GPU MatMul
//!   kernels (Fig. 3(b) of the paper): the output is partitioned into
//!   square-ish tiles, one "thread block" per tile, LHS columns / RHS rows
//!   streamed through and accumulated into the resident output tile with
//!   `f32` accumulators (tensor-core style: half inputs, single-precision
//!   accumulate).
//!
//! The tiled variant exists so kernels in `resoftmax-kernels` share its exact
//! accumulation order — making "fused epilogue" results bit-comparable to
//! "separate kernel" results in tests.
//!
//! Fast paths widen each operand once per call and accumulate with
//! [`row_update`], leaving every output's rounding sequence unchanged.

use crate::matrix::{Matrix, ShapeError};
use crate::scalar::Scalar;
use crate::tile::TileDims;
use core::ops::{AddAssign, Mul};
use rayon::prelude::*;

/// Naive matrix multiply `A (m×k) · B (k×n)` with `f64` accumulation.
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.rows()`.
pub fn matmul<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(format!(
            "matmul {}x{} · {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    // Rows of the output are independent (the k-reduction happens entirely
    // within one row's dot products), so row bands parallelize bit-exactly.
    out.as_mut_slice()
        .par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            for (j, o) in row.iter_mut().enumerate() {
                let mut acc = 0.0f64;
                for p in 0..k {
                    acc += a.get(i, p).to_f64() * b.get(p, j).to_f64();
                }
                *o = T::from_f64(acc);
            }
        });
    Ok(out)
}

/// `A (m×k) · Bᵀ` where `b` is stored as `n×k` — the `Q·Kᵀ` shape used by the
/// attention layer (both operands row-major, K not physically transposed).
///
/// # Errors
///
/// Returns [`ShapeError`] if `a.cols() != b.cols()`.
pub fn matmul_transpose_b<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> Result<Matrix<T>, ShapeError> {
    if a.cols() != b.cols() {
        return Err(ShapeError::new(format!(
            "matmul_transpose_b {}x{} · ({}x{})ᵀ",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let n = b.rows();
    let a_wide = a.map(Scalar::to_f64);
    let bt_wide = transpose(b).map(Scalar::to_f64);
    let mut out = Matrix::zeros(a.rows(), n);
    out.as_mut_slice()
        .par_chunks_mut(n.max(1))
        .enumerate()
        .for_each(|(i, row)| {
            let mut acc = vec![0.0f64; n];
            row_update(&mut acc, a_wide.row(i), &bt_wide, 0);
            for (o, &s) in row.iter_mut().zip(&acc) {
                *o = T::from_f64(s);
            }
        });
    Ok(out)
}

/// Row update `acc[j] += Σ_p a[p] · bt[p][start + j]` for `p = 0, 1, …` in
/// order: the dot products of `a` with columns `start..start + acc.len()`
/// of `bt`, computed as one scaled row add per `p`.
///
/// Every `acc[j]` goes through exactly the additions of the scalar loop
/// `for p { acc[j] += a[p] * bt[p][start + j] }`, in the same order, so the
/// result is bit-identical to it; the inner loop runs over independent
/// outputs in contiguous memory, which the compiler vectorizes.
///
/// # Panics
///
/// Panics if `a.len() > bt.rows()` or `start + acc.len() > bt.cols()`.
pub fn row_update<W>(acc: &mut [W], a: &[W], bt: &Matrix<W>, start: usize)
where
    W: Scalar + Mul<Output = W> + AddAssign,
{
    let cols = start..start + acc.len();
    for (p, &ap) in a.iter().enumerate() {
        for (s, &b) in acc.iter_mut().zip(&bt.row(p)[cols.clone()]) {
            *s += ap * b;
        }
    }
}

/// Tiled matrix multiply with the GPU outer-product dataflow and `f32`
/// accumulators.
///
/// The output is divided into `tiles.h x tiles.w` tiles; within each tile the
/// reduction dimension is traversed in order, accumulating rank-1 updates —
/// the same order a tensor-core MMA pipeline commits partial sums, so results
/// match fused-kernel implementations bit-for-bit at `T = F16`.
///
/// # Errors
///
/// Returns [`ShapeError`] if inner dimensions mismatch.
pub fn matmul_tiled<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    tiles: TileDims,
) -> Result<Matrix<T>, ShapeError> {
    if a.cols() != b.rows() {
        return Err(ShapeError::new(format!(
            "matmul_tiled {}x{} · {}x{}",
            a.rows(),
            a.cols(),
            b.rows(),
            b.cols()
        )));
    }
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    // One band of tile-rows per chunk: every tile is computed by exactly one
    // worker with its own accumulator, in the same within-tile order as the
    // serial loop, so results are bit-identical at any thread count.
    out.as_mut_slice()
        .par_chunks_mut((tiles.h * n).max(1))
        .enumerate()
        .for_each(|(strip, band)| {
            let tr = strip * tiles.h;
            let th = band.len().checked_div(n).unwrap_or(0);
            for tc in (0..n).step_by(tiles.w) {
                let tw = tiles.w.min(n - tc);
                // Accumulator tile resident "on chip".
                let mut acc = vec![0.0f32; th * tw];
                for p in 0..k {
                    // One LHS column fragment and RHS row fragment: rank-1
                    // update.
                    for r in 0..th {
                        let av = a.get(tr + r, p).to_f32();
                        for c in 0..tw {
                            acc[r * tw + c] += av * b.get(p, tc + c).to_f32();
                        }
                    }
                }
                for r in 0..th {
                    for c in 0..tw {
                        band[r * n + tc + c] = T::from_f32(acc[r * tw + c]);
                    }
                }
            }
        });
    Ok(out)
}

/// Transposes a matrix. The fast paths use it once per call to lay out the
/// `Bᵀ` operand (`Kᵀ`, `d × L`, in attention) that [`row_update`] streams.
pub fn transpose<T: Scalar>(m: &Matrix<T>) -> Matrix<T> {
    Matrix::from_fn(m.cols(), m.rows(), |r, c| m.get(c, r))
}

/// Elementwise sum of two equal-shaped matrices.
///
/// # Errors
///
/// Returns [`ShapeError`] on shape mismatch.
pub fn add<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>, ShapeError> {
    elementwise_binary(a, b, |x, y| T::from_f64(x.to_f64() + y.to_f64()))
}

/// Multiplies every element by a constant.
pub fn scale<T: Scalar>(m: &Matrix<T>, factor: f64) -> Matrix<T> {
    m.map(|x| T::from_f64(x.to_f64() * factor))
}

/// Applies a unary function elementwise.
pub fn elementwise_unary<T: Scalar, U: Scalar>(m: &Matrix<T>, f: impl FnMut(T) -> U) -> Matrix<U> {
    m.map(f)
}

/// Applies a binary function elementwise to two equal-shaped matrices.
///
/// # Errors
///
/// Returns [`ShapeError`] on shape mismatch.
pub fn elementwise_binary<T: Scalar, F: FnMut(T, T) -> T>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    mut f: F,
) -> Result<Matrix<T>, ShapeError> {
    if a.shape() != b.shape() {
        return Err(ShapeError::new(format!(
            "elementwise {:?} vs {:?}",
            a.shape(),
            b.shape()
        )));
    }
    let data = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| f(x, y))
        .collect();
    Matrix::from_vec(a.rows(), a.cols(), data)
}

/// Per-row maximum values.
pub fn row_max<T: Scalar>(m: &Matrix<T>) -> Vec<T> {
    (0..m.rows())
        .map(|r| {
            m.row(r)
                .iter()
                .copied()
                .fold(T::neg_infinity(), |a, b| if b > a { b } else { a })
        })
        .collect()
}

/// Per-row sums with `f64` accumulation.
pub fn row_sum<T: Scalar>(m: &Matrix<T>) -> Vec<T> {
    (0..m.rows())
        .map(|r| T::from_f64(m.row(r).iter().map(|x| x.to_f64()).sum()))
        .collect()
}

/// Largest absolute elementwise difference between two matrices (in `f64`).
///
/// # Panics
///
/// Panics if shapes differ.
pub fn max_abs_diff<T: Scalar, U: Scalar>(a: &Matrix<T>, b: &Matrix<U>) -> f64 {
    assert_eq!(a.shape(), b.shape(), "max_abs_diff shape mismatch");
    a.as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(&x, &y)| (x.to_f64() - y.to_f64()).abs())
        .fold(0.0, f64::max)
}

/// Frobenius norm in `f64`.
pub fn frobenius_norm<T: Scalar>(m: &Matrix<T>) -> f64 {
    m.as_slice()
        .iter()
        .map(|x| x.to_f64() * x.to_f64())
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::randn_matrix;
    use resoftmax_fp16::F16;

    #[test]
    fn matmul_small_known() {
        let a = Matrix::<f32>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::<f32>::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_shape_error() {
        let a = Matrix::<f32>::zeros(2, 3);
        let b = Matrix::<f32>::zeros(2, 3);
        assert!(matmul(&a, &b).is_err());
        assert!(matmul_tiled(&a, &b, TileDims::new(2, 2)).is_err());
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = randn_matrix::<f32>(5, 5, 1.0, 42);
        let i = Matrix::<f32>::identity(5);
        assert_eq!(matmul(&a, &i).unwrap(), a);
        assert_eq!(matmul(&i, &a).unwrap(), a);
    }

    #[test]
    fn matmul_transpose_b_matches_explicit_transpose() {
        let a = randn_matrix::<f32>(4, 6, 1.0, 1);
        let b = randn_matrix::<f32>(5, 6, 1.0, 2); // n x k
        let via_t = matmul(&a, &transpose(&b)).unwrap();
        let direct = matmul_transpose_b(&a, &b).unwrap();
        assert!(max_abs_diff(&via_t, &direct) < 1e-6);
        // mismatched inner dims
        let bad = Matrix::<f32>::zeros(5, 7);
        assert!(matmul_transpose_b(&a, &bad).is_err());
    }

    #[test]
    fn tiled_matches_naive_fp32() {
        let a = randn_matrix::<f32>(13, 9, 1.0, 7);
        let b = randn_matrix::<f32>(9, 11, 1.0, 8);
        let naive = matmul(&a, &b).unwrap();
        for tile in [1, 2, 3, 4, 8, 16] {
            let tiled = matmul_tiled(&a, &b, TileDims::new(tile, tile)).unwrap();
            assert!(
                max_abs_diff(&naive, &tiled) < 1e-4,
                "tile {tile}: diff {}",
                max_abs_diff(&naive, &tiled)
            );
        }
    }

    #[test]
    fn tiled_fp16_close_to_fp64_reference() {
        let a64 = randn_matrix::<f64>(16, 32, 0.5, 3);
        let b64 = randn_matrix::<f64>(32, 16, 0.5, 4);
        let ref64 = matmul(&a64, &b64).unwrap();
        let a16: Matrix<F16> = a64.cast();
        let b16: Matrix<F16> = b64.cast();
        let c16 = matmul_tiled(&a16, &b16, TileDims::new(8, 8)).unwrap();
        // fp16 inputs + fp32 accumulate: expect ~1e-2 relative error at k=32
        assert!(max_abs_diff(&ref64, &c16) < 0.05);
    }

    #[test]
    fn transpose_involution() {
        let m = randn_matrix::<f32>(3, 7, 1.0, 5);
        assert_eq!(transpose(&transpose(&m)), m);
        assert_eq!(transpose(&m).shape(), (7, 3));
        assert_eq!(transpose(&m).get(6, 2), m.get(2, 6));
    }

    #[test]
    fn add_and_scale() {
        let a = Matrix::<f32>::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::<f32>::from_rows(&[&[10.0, 20.0]]);
        assert_eq!(add(&a, &b).unwrap().as_slice(), &[11.0, 22.0]);
        assert_eq!(scale(&a, 3.0).as_slice(), &[3.0, 6.0]);
        let bad = Matrix::<f32>::zeros(2, 1);
        assert!(add(&a, &bad).is_err());
    }

    #[test]
    fn row_reductions() {
        let m = Matrix::<f32>::from_rows(&[&[1.0, 5.0, 3.0], &[-2.0, -7.0, -1.0]]);
        assert_eq!(row_max(&m), vec![5.0, -1.0]);
        assert_eq!(row_sum(&m), vec![9.0, -10.0]);
    }

    #[test]
    fn row_max_handles_all_neg_infinity() {
        let m = Matrix::<f32>::filled(1, 3, f32::NEG_INFINITY);
        assert_eq!(row_max(&m), vec![f32::NEG_INFINITY]);
    }

    #[test]
    fn norms_and_diffs() {
        let m = Matrix::<f32>::from_rows(&[&[3.0, 4.0]]);
        assert!((frobenius_norm(&m) - 5.0).abs() < 1e-12);
        let z = Matrix::<f32>::zeros(1, 2);
        assert_eq!(max_abs_diff(&m, &z), 4.0);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn max_abs_diff_shape_panics() {
        let a = Matrix::<f32>::zeros(1, 2);
        let b = Matrix::<f32>::zeros(2, 1);
        let _ = max_abs_diff(&a, &b);
    }
}
