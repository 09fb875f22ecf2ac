//! Numeric safe softmax — the monolithic reference (paper Eq. 1) — plus the
//! masked variant used by attention and the backward pass (paper Eq. 3).
//!
//! Rounding model: elementwise transcendentals round once at the working
//! precision `T`; reductions (the normalizer `d`, backward row-dots)
//! accumulate wide and round once on use — so the `f64` instantiation is an
//! exact oracle while the binary16 instantiation still rounds every stored
//! element, like CUDA softmax kernels that keep partial sums in registers.

use crate::decomposed::{backward_row, ls_leaf};
use crate::normalizer::to;
use rayon::prelude::*;
use resoftmax_tensor::{Matrix, Scalar, ShapeError};
use std::iter::once;

/// Safe softmax along each row (paper Eq. 1):
/// `y_i = e^{x_i - m} / Σ_j e^{x_j - m}` with `m = max_i x_i`.
///
/// This is the three-sweep monolithic formulation: one sweep for `m`, one for
/// `d`, one to normalize — the data-access pattern that makes the layer
/// unfusable with adjacent MatMuls (§2.3).
///
/// Rows of all `-inf` (fully masked) produce all zeros rather than NaN,
/// matching the convention of attention kernels.
///
/// # Example
///
/// ```
/// use resoftmax_kernels::softmax_rows;
/// use resoftmax_tensor::Matrix;
///
/// let x = Matrix::<f32>::from_rows(&[&[1.0, 2.0, 3.0]]);
/// let y = softmax_rows(&x);
/// let sum: f32 = y.row(0).iter().sum();
/// assert!((sum - 1.0).abs() < 1e-6);
/// ```
pub fn softmax_rows<T: Scalar>(x: &Matrix<T>) -> Matrix<T> {
    let cols = x.cols();
    let mut y = Matrix::zeros(x.rows(), cols);
    // Rows are independent: parallelize across them (deterministic — the
    // per-row accumulation order is unchanged).
    y.as_mut_slice()
        .par_chunks_mut(cols.max(1))
        .enumerate()
        .for_each(|(r, out)| {
            // The row widened once and made one LS leaf: sweeps 1 and 2
            // (max, then the rounded exponentials and their wide sum), then
            // sweep 3 normalizes.
            let mut e: Vec<f64> = x.row(r).iter().map(|v| v.to_f64()).collect();
            ls_leaf(&mut e, out, to::<T>, |d, e| d + e);
        });
    y
}

/// Exact `f64` oracle used by the test suites.
pub fn softmax_rows_f64<T: Scalar>(x: &Matrix<T>) -> Matrix<f64> {
    let mut y = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let m = x
            .row(r)
            .iter()
            .fold(f64::NEG_INFINITY, |a, v| a.max(v.to_f64()));
        if m == f64::NEG_INFINITY {
            continue;
        }
        let d: f64 = x.row(r).iter().map(|v| (v.to_f64() - m).exp()).sum();
        for c in 0..x.cols() {
            y.set(r, c, (x.get(r, c).to_f64() - m).exp() / d);
        }
    }
    y
}

/// Applies an attention mask: elements where `mask` is `false` become `-inf`
/// (paper §2.1: "a mask layer is utilized on the attention matrix to make the
/// elements that fall short of certain criteria equal to −∞").
///
/// # Errors
///
/// Returns [`ShapeError`] if `mask.len() != x.len()` (row-major element
/// mask).
pub fn apply_mask<T: Scalar>(x: &Matrix<T>, mask: &[bool]) -> Result<Matrix<T>, ShapeError> {
    check_mask(Some(mask), x.len())?;
    let cols = x.cols();
    Ok(Matrix::from_fn(x.rows(), cols, |r, c| {
        if mask[r * cols + c] {
            x.get(r, c)
        } else {
            T::neg_infinity()
        }
    }))
}

/// Checks that `v` has one row per key, `l` of them.
pub(crate) fn check_v<T: Scalar>(v: &Matrix<T>, l: usize) -> Result<(), ShapeError> {
    if v.rows() != l {
        return Err(ShapeError::new(format!("v rows {} vs L {l}", v.rows())));
    }
    Ok(())
}

/// Checks that an optional row-major element mask covers `len` scores.
pub(crate) fn check_mask(mask: Option<&[bool]>, len: usize) -> Result<(), ShapeError> {
    match mask {
        Some(m) if m.len() != len => Err(ShapeError::new(format!(
            "mask length {} vs {len} scores",
            m.len()
        ))),
        _ => Ok(()),
    }
}

/// Causal (autoregressive) element mask for an `l × l` attention matrix:
/// position `i` may attend to `j <= i`.
pub fn causal_mask(l: usize) -> Vec<bool> {
    let mut m = vec![false; l * l];
    for i in 0..l {
        for j in 0..=i {
            m[i * l + j] = true;
        }
    }
    m
}

/// Softmax backward (paper Eq. 3, §6): given the forward *output* `y` and the
/// upstream gradient `dy`, returns `dx` where
/// `dx_k = y_k · (dy_k − Σ_i dy_i · y_i)`.
///
/// The point of Eq. 3 in the paper: the backward pass needs only `Y`, never
/// the softmax *input*, so recomposition (which avoids materializing the
/// input to off-chip memory) remains legal in training.
///
/// # Errors
///
/// Returns [`ShapeError`] if the shapes of `y` and `dy` differ.
pub fn softmax_backward<T: Scalar>(y: &Matrix<T>, dy: &Matrix<T>) -> Result<Matrix<T>, ShapeError> {
    if y.shape() != dy.shape() {
        return Err(ShapeError::new(format!(
            "dy shape {:?} vs y {:?}",
            dy.shape(),
            y.shape()
        )));
    }
    let cols = y.cols();
    let mut dx = Matrix::zeros(y.rows(), cols);
    dx.as_mut_slice()
        .par_chunks_mut(cols.max(1))
        .enumerate()
        .for_each(|(r, out)| {
            // The decomposed backward with the whole row as one tile, r' = 1.
            backward_row(once((y.row(r), dy.row(r), T::one())), once(out));
        });
    Ok(dx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_fp16::F16;
    use resoftmax_tensor::{max_abs_diff, randn_matrix, uniform_matrix};

    #[test]
    fn rows_sum_to_one() {
        let x = randn_matrix::<f32>(10, 50, 3.0, 1);
        let y = softmax_rows(&x);
        for r in 0..10 {
            let s: f32 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {r} sums to {s}");
        }
    }

    #[test]
    fn matches_f64_oracle() {
        let x = randn_matrix::<f64>(8, 64, 2.0, 2);
        let y = softmax_rows(&x);
        let oracle = softmax_rows_f64(&x);
        assert!(max_abs_diff(&y, &oracle) < 1e-6);
    }

    #[test]
    fn shift_invariance() {
        // softmax(x + c) == softmax(x)
        let x = randn_matrix::<f64>(4, 16, 1.0, 3);
        let shifted = x.map(|v| v + 100.0);
        assert!(max_abs_diff(&softmax_rows(&x), &softmax_rows(&shifted)) < 1e-12);
    }

    #[test]
    fn safe_in_half_precision_where_naive_overflows() {
        // Scores around 20: e^20 overflows binary16, but safe softmax with
        // max subtraction stays finite.
        let x = uniform_matrix::<F16>(4, 32, 15.0, 25.0, 4);
        let y = softmax_rows(&x);
        assert!(!y.has_nan());
        assert!(y.as_slice().iter().all(|v| v.is_finite()));
        for r in 0..4 {
            let s: f64 = y.row(r).iter().map(|v| v.to_f64()).sum();
            assert!((s - 1.0).abs() < 2e-2, "fp16 row sum {s}");
        }
    }

    #[test]
    fn fully_masked_row_is_zero_not_nan() {
        let x = Matrix::<f32>::filled(2, 8, f32::NEG_INFINITY);
        let y = softmax_rows(&x);
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn single_peak_dominates() {
        let mut x = Matrix::<f32>::zeros(1, 100);
        x.set(0, 37, 50.0);
        let y = softmax_rows(&x);
        assert!(y.get(0, 37) > 0.999);
    }

    #[test]
    fn mask_application() {
        let x = Matrix::<f32>::from_rows(&[&[1.0, 2.0, 3.0, 4.0]]);
        let mask = [true, false, true, false];
        let masked = apply_mask(&x, &mask).unwrap();
        assert_eq!(masked.get(0, 0), 1.0);
        assert_eq!(masked.get(0, 1), f32::NEG_INFINITY);
        let y = softmax_rows(&masked);
        assert_eq!(y.get(0, 1), 0.0);
        assert_eq!(y.get(0, 3), 0.0);
        let s: f32 = y.row(0).iter().sum();
        assert!((s - 1.0).abs() < 1e-6);
    }

    #[test]
    fn causal_mask_shape() {
        let m = causal_mask(4);
        assert!(m[0]); // (0,0)
        assert!(!m[1]); // (0,1) future
        assert!(m[4] && m[5]); // (1,0), (1,1)
        assert!(!m[6]); // (1,2)
        assert_eq!(m.iter().filter(|&&b| b).count(), 10);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let x = randn_matrix::<f64>(3, 8, 1.0, 7);
        let y = softmax_rows_f64(&x);
        let dy = randn_matrix::<f64>(3, 8, 1.0, 8);
        let dx = softmax_backward(&y, &dy).unwrap();

        // Finite differences on a scalar loss Σ dy ⊙ softmax(x).
        let eps = 1e-6;
        for r in 0..3 {
            for c in 0..8 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let loss = |m: &Matrix<f64>| -> f64 {
                    let y = softmax_rows_f64(m);
                    y.as_slice()
                        .iter()
                        .zip(dy.as_slice())
                        .map(|(a, b)| a * b)
                        .sum()
                };
                let numeric = (loss(&xp) - loss(&xm)) / (2.0 * eps);
                assert!(
                    (numeric - dx.get(r, c)).abs() < 1e-5,
                    "({r},{c}): fd {numeric} vs analytic {}",
                    dx.get(r, c)
                );
            }
        }
    }

    #[test]
    fn backward_gradient_rows_sum_to_zero() {
        // Σ_k dx_k = Σ y_k dy_k − (Σ y_k)(Σ y dy) = 0 since Σ y_k = 1.
        let x = randn_matrix::<f64>(5, 32, 1.5, 9);
        let y = softmax_rows_f64(&x);
        let dy = randn_matrix::<f64>(5, 32, 1.0, 10);
        let dx = softmax_backward(&y, &dy).unwrap();
        for r in 0..5 {
            let s: f64 = dx.row(r).iter().sum();
            assert!(s.abs() < 1e-9, "row {r} gradient sum {s}");
        }
    }

    #[test]
    fn bad_mask_is_an_error() {
        let x = Matrix::<f32>::zeros(2, 2);
        assert!(apply_mask(&x, &[true; 3]).is_err());
        assert!(apply_mask(&x, &[true; 4]).is_ok());
    }

    #[test]
    fn backward_shape_mismatch_is_an_error() {
        let y = Matrix::<f32>::zeros(2, 3);
        assert!(softmax_backward(&y, &Matrix::zeros(3, 2)).is_err());
        assert!(softmax_backward(&y, &Matrix::zeros(2, 3)).is_ok());
    }
}
