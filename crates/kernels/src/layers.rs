//! Numeric implementations of the non-attention layers (§2.1): fully
//! connected (with bias), LayerNorm, and GeLU — completing the kernel
//! catalog's numeric column so a whole transformer block can be executed,
//! not just priced.
//!
//! Same rounding model as the rest of the catalog: elementwise results round
//! once at the working precision; reductions accumulate wide.

use rayon::prelude::*;
use resoftmax_tensor::{row_update, Matrix, Scalar, ShapeError};

/// Fully connected layer: `y = x · w + b` with `f32`-style wide accumulation
/// (`x`: rows × d_in, `w`: d_in × d_out, `b`: length d_out).
///
/// # Errors
///
/// Returns [`ShapeError`] on dimension mismatch.
pub fn linear<T: Scalar>(x: &Matrix<T>, w: &Matrix<T>, b: &[T]) -> Result<Matrix<T>, ShapeError> {
    if x.cols() != w.rows() {
        return Err(ShapeError::new(format!(
            "linear x {:?} · w {:?}",
            x.shape(),
            w.shape()
        )));
    }
    if b.len() != w.cols() {
        return Err(ShapeError::new(format!(
            "bias length {} vs d_out {}",
            b.len(),
            w.cols()
        )));
    }
    let d_out = w.cols();
    // `w` is `d_in × d_out`: already the `Bᵀ` layout a row update streams.
    let x_wide = x.map(Scalar::to_f32);
    let w_wide = w.map(Scalar::to_f32);
    let mut y = Matrix::zeros(x.rows(), d_out);
    y.as_mut_slice()
        .par_chunks_mut(d_out.max(1))
        .enumerate()
        .for_each(|(r, out)| {
            let mut acc = vec![0.0f32; d_out];
            row_update(&mut acc, x_wide.row(r), &w_wide, 0);
            for ((o, a), bj) in out.iter_mut().zip(&acc).zip(b) {
                *o = T::from_f64(*a as f64 + bj.to_f64());
            }
        });
    Ok(y)
}

/// LayerNorm over each row: `(x − μ) / √(σ² + ε) · γ + β`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `gamma`/`beta` don't match the row width.
pub fn layernorm<T: Scalar>(
    x: &Matrix<T>,
    gamma: &[T],
    beta: &[T],
    eps: f64,
) -> Result<Matrix<T>, ShapeError> {
    let d = x.cols();
    if gamma.len() != d || beta.len() != d {
        return Err(ShapeError::new(format!(
            "layernorm params {} / {} vs width {d}",
            gamma.len(),
            beta.len()
        )));
    }
    let mut y = Matrix::zeros(x.rows(), d);
    y.as_mut_slice()
        .par_chunks_mut(d.max(1))
        .enumerate()
        .for_each(|(r, out)| {
            let row = x.row(r);
            let mean: f64 = row.iter().map(|v| v.to_f64()).sum::<f64>() / d as f64;
            let var: f64 = row
                .iter()
                .map(|v| {
                    let e = v.to_f64() - mean;
                    e * e
                })
                .sum::<f64>()
                / d as f64;
            let inv = 1.0 / (var + eps).sqrt();
            for ((o, v), (g, b)) in out.iter_mut().zip(row).zip(gamma.iter().zip(beta)) {
                *o = T::from_f64((v.to_f64() - mean) * inv * g.to_f64() + b.to_f64());
            }
        });
    Ok(y)
}

/// GeLU activation (tanh approximation, the BERT/GPT formulation):
/// `0.5·x·(1 + tanh(√(2/π)·(x + 0.044715·x³)))`.
pub fn gelu<T: Scalar>(x: &Matrix<T>) -> Matrix<T> {
    const SQRT_2_OVER_PI: f64 = 0.797_884_560_802_865_4;
    x.map(|v| {
        let x = v.to_f64();
        let inner = SQRT_2_OVER_PI * (x + 0.044715 * x * x * x);
        T::from_f64(0.5 * x * (1.0 + inner.tanh()))
    })
}

/// Residual addition `a + b`.
///
/// # Errors
///
/// Returns [`ShapeError`] on shape mismatch.
pub fn residual<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Result<Matrix<T>, ShapeError> {
    resoftmax_tensor::add(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_fp16::F16;
    use resoftmax_tensor::{matmul, max_abs_diff, randn_matrix};

    #[test]
    fn linear_matches_matmul_plus_bias() {
        let x = randn_matrix::<f64>(8, 16, 1.0, 1);
        let w = randn_matrix::<f64>(16, 4, 1.0, 2);
        let b: Vec<f64> = (0..4).map(|i| i as f64).collect();
        let y = linear(&x, &w, &b).unwrap();
        let reference = matmul(&x, &w).unwrap();
        for r in 0..8 {
            for (c, bias) in b.iter().enumerate() {
                assert!((y.get(r, c) - (reference.get(r, c) + bias)).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn linear_shape_errors() {
        let x = randn_matrix::<f64>(8, 16, 1.0, 1);
        let w_bad = randn_matrix::<f64>(8, 4, 1.0, 2);
        assert!(linear(&x, &w_bad, &[0.0; 4]).is_err());
        let w = randn_matrix::<f64>(16, 4, 1.0, 2);
        assert!(linear(&x, &w, &[0.0; 3]).is_err());
    }

    #[test]
    fn layernorm_normalizes() {
        let x = randn_matrix::<f64>(6, 64, 3.0, 3);
        let gamma = vec![1.0; 64];
        let beta = vec![0.0; 64];
        let y = layernorm(&x, &gamma, &beta, 1e-5).unwrap();
        for r in 0..6 {
            let mean: f64 = y.row(r).iter().sum::<f64>() / 64.0;
            let var: f64 = y
                .row(r)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f64>()
                / 64.0;
            assert!(mean.abs() < 1e-12, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_affine_params_apply() {
        let x = randn_matrix::<f64>(2, 8, 1.0, 4);
        let gamma = vec![2.0; 8];
        let beta = vec![3.0; 8];
        let plain = layernorm(&x, &[1.0; 8], &[0.0; 8], 1e-5).unwrap();
        let affine = layernorm(&x, &gamma, &beta, 1e-5).unwrap();
        for (a, p) in affine.as_slice().iter().zip(plain.as_slice()) {
            assert!((a - (p * 2.0 + 3.0)).abs() < 1e-12);
        }
        assert!(layernorm(&x, &[1.0; 7], &[0.0; 8], 1e-5).is_err());
    }

    #[test]
    fn gelu_known_values() {
        let x = Matrix::<f64>::from_rows(&[&[0.0, 1.0, -1.0, 3.0, -3.0]]);
        let y = gelu(&x);
        assert_eq!(y.get(0, 0), 0.0);
        assert!((y.get(0, 1) - 0.8412).abs() < 1e-3);
        assert!((y.get(0, 2) + 0.1588).abs() < 1e-3);
        assert!((y.get(0, 3) - 2.9964).abs() < 1e-3);
        assert!(y.get(0, 4).abs() < 0.01, "gelu(-3) ≈ 0");
        // gelu(x) − gelu(−x) == x (the 0.5·x terms cancel symmetrically)
        assert!((y.get(0, 1) - y.get(0, 2) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fp16_layers_stay_finite() {
        let x = randn_matrix::<F16>(4, 32, 2.0, 5);
        let w = randn_matrix::<F16>(32, 32, 0.3, 6);
        let b = vec![F16::ZERO; 32];
        let y = linear(&x, &w, &b).unwrap();
        assert!(!y.has_nan());
        let g = vec![F16::ONE; 32];
        let z = vec![F16::ZERO; 32];
        let n = layernorm(&y, &g, &z, 1e-5).unwrap();
        assert!(!n.has_nan());
        let a = gelu(&n);
        assert!(!a.has_nan());
        // compare against f64 path
        let y64 = linear(&x.cast::<f64>(), &w.cast::<f64>(), &vec![0.0; 32]).unwrap();
        assert!(max_abs_diff(&y64, &y) < 0.05);
    }

    #[test]
    fn residual_adds() {
        let a = randn_matrix::<f64>(3, 3, 1.0, 7);
        let b = randn_matrix::<f64>(3, 3, 1.0, 8);
        let r = residual(&a, &b).unwrap();
        assert!((r.get(1, 1) - (a.get(1, 1) + b.get(1, 1))).abs() < 1e-15);
    }
}
