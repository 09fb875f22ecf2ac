//! The paper's softmax decomposition (§3.2, Eq. 2): Local Softmax (LS),
//! Inter-sub-vector Reduction (IR), Global Scaling (GS).
//!
//! Each row vector `X` of the attention matrix is split into `N_sv = L / T`
//! sub-vectors of length `T`. The three sub-layers compute:
//!
//! * **LS** — per sub-vector `k`: local max `m'_k`, local normalizer
//!   `d'_k = Σ_j e^{x_{k,j} − m'_k}`, and the locally-normalized values
//!   `x'_{k,j} = e^{x_{k,j} − m'_k} / d'_k`.
//! * **IR** — across the sub-vectors of one row: global max `m = max_k m'_k`,
//!   global normalizer `d = Σ_k e^{m'_k − m} · d'_k`, and the per-sub-vector
//!   *reconstruction factor* `r'_k = e^{m'_k − m} · d'_k / d`.
//! * **GS** — elementwise `y_{k,j} = x'_{k,j} · r'_k`.
//!
//! Substituting: `y = (e^{x−m'}/d') · (e^{m'−m} d'/d) = e^{x−m}/d` — exactly
//! Eq. 1. The decomposition exists because LS's tile-shaped access pattern
//! matches a MatMul output tile, enabling the fusion in `crate::fused`.

use resoftmax_tensor::{Matrix, Scalar, ShapeError};

/// Output of the LS sub-layer over a whole matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSoftmaxOutput<T: Scalar> {
    /// Locally-normalized values `X'`, same shape as the input.
    pub x_prime: Matrix<T>,
    /// Per-(row, sub-vector) local maxima `m'`, shape `rows × N_sv`.
    pub m_prime: Matrix<T>,
    /// Per-(row, sub-vector) local normalizers `d'`, shape `rows × N_sv`.
    pub d_prime: Matrix<T>,
}

/// Output of the IR sub-layer.
#[derive(Debug, Clone, PartialEq)]
pub struct InterReductionOutput<T: Scalar> {
    /// Per-row global max `m` (rows × 1).
    pub m: Vec<T>,
    /// Per-row global normalizer `d` (rows × 1).
    pub d: Vec<T>,
    /// Reconstruction factors `r'`, shape `rows × N_sv`.
    pub r_prime: Matrix<T>,
}

/// Validates that `cols` divides into sub-vectors of length `t`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `t == 0` or `cols % t != 0`.
pub fn check_subvector(cols: usize, t: usize) -> Result<usize, ShapeError> {
    if t == 0 {
        return Err(ShapeError::new("sub-vector length T must be nonzero"));
    }
    if !cols.is_multiple_of(t) {
        return Err(ShapeError::new(format!(
            "row length {cols} not divisible by sub-vector length {t}"
        )));
    }
    Ok(cols / t)
}

/// LS: local softmax over each length-`t` sub-vector of each row.
///
/// Exponentials round once at `T`; `d'` accumulates in `f32`
/// (register-resident partial sums).
///
/// # Errors
///
/// Returns [`ShapeError`] if `t` does not divide the row length.
pub fn local_softmax<T: Scalar>(
    x: &Matrix<T>,
    t: usize,
) -> Result<LocalSoftmaxOutput<T>, ShapeError> {
    local_softmax_with(x, t, |e| {
        let d = e.iter().fold(0.0f64, |d, &ej| d + ej);
        (d, T::from_f64(d))
    })
}

/// The LS body shared by [`local_softmax`] and
/// [`local_softmax_narrow_accum`]. `normalizer` folds one sub-vector's
/// rounded exponentials (widened, in order) into the divisor the values are
/// normalized by and the `d'` that is stored.
///
/// Each element is widened once and its exponential evaluated once. Rows
/// are independent — each owns a disjoint row of all three outputs — so
/// they run on the pool with bit-identical per-row arithmetic.
fn local_softmax_with<T: Scalar>(
    x: &Matrix<T>,
    t: usize,
    normalizer: impl Fn(&[f64]) -> (f64, T) + Sync,
) -> Result<LocalSoftmaxOutput<T>, ShapeError> {
    let n_sv = check_subvector(x.cols(), t)?;
    let mut x_prime = Matrix::zeros(x.rows(), x.cols());
    let mut m_prime = Matrix::zeros(x.rows(), n_sv);
    let mut d_prime = Matrix::zeros(x.rows(), n_sv);
    resoftmax_parallel::parallel_chunks_mut3(
        x_prime.as_mut_slice(),
        x.cols().max(1),
        m_prime.as_mut_slice(),
        n_sv.max(1),
        d_prime.as_mut_slice(),
        n_sv.max(1),
        |r, x_row, m_row, d_row| {
            let mut e = vec![0.0f64; t];
            let tiles = x.row(r).chunks(t).zip(x_row.chunks_mut(t));
            for (k, (x_tile, out)) in tiles.enumerate() {
                for (ej, v) in e.iter_mut().zip(x_tile) {
                    *ej = v.to_f64();
                }
                let m = e.iter().fold(f64::NEG_INFINITY, |a, &v| a.max(v));
                if m == f64::NEG_INFINITY {
                    // Fully masked sub-vector: d' = 0, values 0; IR treats it
                    // as contributing nothing.
                    m_row[k] = T::neg_infinity();
                    continue;
                }
                for ej in &mut e {
                    *ej = T::from_f64((*ej - m).exp()).to_f64();
                }
                let (d, d_stored) = normalizer(&e);
                for (o, &ej) in out.iter_mut().zip(&e) {
                    *o = T::from_f64(ej / d);
                }
                m_row[k] = T::from_f64(m);
                d_row[k] = d_stored;
            }
        },
    );
    Ok(LocalSoftmaxOutput {
        x_prime,
        m_prime,
        d_prime,
    })
}

/// LS with the normalizer accumulated at *working* precision: the partial
/// sum `d'` rounds to `T` after every add, modelling a kernel that keeps its
/// accumulator in the data's own format rather than widening — the `SDF16`
/// strategy's fp16 LS epilogue. This is the empirical counterpart of the
/// analyzer's `AccumFormat::Fp16` LS term: the static certificate charges
/// one unit roundoff at `T`'s precision per accumulation step, and this
/// function realizes exactly that rounding pattern so the bound can be
/// cross-validated against measured error. For `T = f64` it coincides with
/// [`local_softmax`] (the wide accumulator *is* the working format there).
///
/// # Errors
///
/// Returns [`ShapeError`] if `t` does not divide the row length.
pub fn local_softmax_narrow_accum<T: Scalar>(
    x: &Matrix<T>,
    t: usize,
) -> Result<LocalSoftmaxOutput<T>, ShapeError> {
    local_softmax_with(x, t, |e| {
        // The accumulator lives at working precision: every partial sum
        // rounds to `T` before the next add.
        let d = e
            .iter()
            .fold(T::zero(), |d, &ej| T::from_f64(d.to_f64() + ej));
        (d.to_f64(), d)
    })
}

/// The decomposed pipeline LS → IR → GS with the LS normalizer accumulated
/// at working precision ([`local_softmax_narrow_accum`]) — the numeric model
/// of the `SDF16` strategy. IR and GS still reduce wide, matching the
/// schedule builder's metadata (only the LS epilogue takes the narrow
/// format).
///
/// # Errors
///
/// Returns [`ShapeError`] if `t` does not divide the row length.
pub fn decomposed_softmax_narrow_accum<T: Scalar>(
    x: &Matrix<T>,
    t: usize,
) -> Result<Matrix<T>, ShapeError> {
    let ls = local_softmax_narrow_accum(x, t)?;
    let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
    global_scale(&ls.x_prime, &ir.r_prime, t)
}

/// IR: reduces `m'`, `d'` across each row's sub-vectors into the global `m`,
/// `d`, and emits the reconstruction factor `r'_k = e^{m'_k − m} · d'_k / d`.
///
/// Reductions run in `f32`; `r'` rounds once to `T`.
///
/// # Panics
///
/// Panics if `m_prime` and `d_prime` shapes differ.
pub fn inter_reduce<T: Scalar>(
    m_prime: &Matrix<T>,
    d_prime: &Matrix<T>,
) -> InterReductionOutput<T> {
    assert_eq!(m_prime.shape(), d_prime.shape(), "m'/d' shape mismatch");
    let (rows, n_sv) = m_prime.shape();
    let mut m_out = Vec::with_capacity(rows);
    let mut d_out = Vec::with_capacity(rows);
    let mut r_prime = Matrix::zeros(rows, n_sv);
    for r in 0..rows {
        let m = m_prime
            .row(r)
            .iter()
            .fold(f64::NEG_INFINITY, |a, v| a.max(v.to_f64()));
        if m == f64::NEG_INFINITY {
            // Entire row masked.
            m_out.push(T::neg_infinity());
            d_out.push(T::zero());
            continue;
        }
        let mut d = 0.0f64;
        for k in 0..n_sv {
            let mk = m_prime.get(r, k).to_f64();
            if mk == f64::NEG_INFINITY {
                continue;
            }
            d += (mk - m).exp() * d_prime.get(r, k).to_f64();
        }
        for k in 0..n_sv {
            let mk = m_prime.get(r, k).to_f64();
            if mk == f64::NEG_INFINITY {
                continue;
            }
            let rk = (mk - m).exp() * d_prime.get(r, k).to_f64() / d;
            r_prime.set(r, k, T::from_f64(rk));
        }
        m_out.push(T::from_f64(m));
        d_out.push(T::from_f64(d));
    }
    InterReductionOutput {
        m: m_out,
        d: d_out,
        r_prime,
    }
}

/// GS: `y_{k,j} = x'_{k,j} · r'_k` — pure elementwise scaling with one factor
/// per sub-vector, the access pattern that fuses into the following MatMul's
/// prologue.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes are inconsistent with `t`.
pub fn global_scale<T: Scalar>(
    x_prime: &Matrix<T>,
    r_prime: &Matrix<T>,
    t: usize,
) -> Result<Matrix<T>, ShapeError> {
    let n_sv = check_subvector(x_prime.cols(), t)?;
    if r_prime.shape() != (x_prime.rows(), n_sv) {
        return Err(ShapeError::new(format!(
            "r' shape {:?} vs expected {}x{}",
            r_prime.shape(),
            x_prime.rows(),
            n_sv
        )));
    }
    let mut y = Matrix::zeros(x_prime.rows(), x_prime.cols());
    for r in 0..x_prime.rows() {
        let tiles = x_prime.row(r).chunks(t).zip(r_prime.row(r));
        for (y_tile, (x_tile, rk)) in y.row_mut(r).chunks_mut(t).zip(tiles) {
            let rk = rk.to_f64();
            for (o, x) in y_tile.iter_mut().zip(x_tile) {
                *o = T::from_f64(x.to_f64() * rk);
            }
        }
    }
    Ok(y)
}

/// The full decomposed pipeline LS → IR → GS (paper Eq. 2), mathematically
/// identical to [`crate::softmax_rows`].
///
/// # Errors
///
/// Returns [`ShapeError`] if `t` does not divide the row length.
pub fn decomposed_softmax<T: Scalar>(x: &Matrix<T>, t: usize) -> Result<Matrix<T>, ShapeError> {
    let _span = resoftmax_obs::span!("decomposed_softmax", "kernels");
    let ls = local_softmax(x, t)?;
    let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
    global_scale(&ls.x_prime, &ir.r_prime, t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::softmax::{apply_mask, softmax_rows, softmax_rows_f64};
    use resoftmax_fp16::F16;
    use resoftmax_tensor::{max_abs_diff, randn_matrix};

    #[test]
    fn equivalence_in_f64_is_essentially_exact() {
        let x = randn_matrix::<f64>(16, 128, 3.0, 1);
        let reference = softmax_rows_f64(&x);
        for t in [1, 2, 4, 8, 16, 32, 64, 128] {
            let dec = decomposed_softmax(&x, t).unwrap();
            assert!(
                max_abs_diff(&reference, &dec) < 1e-14,
                "T={t}: diff {}",
                max_abs_diff(&reference, &dec)
            );
        }
    }

    #[test]
    fn equivalence_in_f32() {
        let x = randn_matrix::<f32>(8, 256, 5.0, 2);
        let reference = softmax_rows(&x);
        let dec = decomposed_softmax(&x, 64).unwrap();
        assert!(max_abs_diff(&reference, &dec) < 1e-6);
    }

    #[test]
    fn equivalence_in_fp16_within_rounding() {
        // The decomposed path performs more roundings (x', r' stored in
        // binary16) so results differ by small relative error, never more.
        let x = randn_matrix::<F16>(8, 256, 3.0, 3);
        let oracle = softmax_rows_f64(&x);
        let dec = decomposed_softmax(&x, 64).unwrap();
        // Largest softmax outputs are O(0.1); allow ~2 fp16 ulps at that scale.
        assert!(
            max_abs_diff(&oracle, &dec) < 2e-3,
            "diff {}",
            max_abs_diff(&oracle, &dec)
        );
        // Rows still sum to ~1 in half precision.
        for r in 0..8 {
            let s: f64 = dec.row(r).iter().map(|v| v.to_f64()).sum();
            assert!((s - 1.0).abs() < 2e-2, "row {r} sums to {s}");
        }
    }

    #[test]
    fn fp16_decomposition_never_overflows() {
        // Large scores that would overflow a naive exponential.
        let x = randn_matrix::<F16>(4, 128, 8.0, 4).map(|v| {
            // push values up toward the overflow-dangerous region
            F16::from_f32(v.to_f32().abs() + 5.0)
        });
        let dec = decomposed_softmax(&x, 32).unwrap();
        assert!(!dec.has_nan());
        assert!(dec.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn ls_outputs_are_locally_normalized() {
        let x = randn_matrix::<f64>(4, 64, 2.0, 5);
        let ls = local_softmax(&x, 16).unwrap();
        // each sub-vector of x' sums to 1
        for r in 0..4 {
            for k in 0..4 {
                let s: f64 = (0..16).map(|j| ls.x_prime.get(r, k * 16 + j)).sum();
                assert!((s - 1.0).abs() < 1e-12, "row {r} sv {k}: {s}");
            }
        }
        // m' is the true sub-vector max
        for r in 0..4 {
            for k in 0..4 {
                let m = (0..16)
                    .map(|j| x.get(r, k * 16 + j))
                    .fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(ls.m_prime.get(r, k), m);
            }
        }
    }

    #[test]
    fn ir_reconstruction_factors_sum_to_one() {
        // Σ_k r'_k = Σ_k e^{m'_k−m} d'_k / d = d/d = 1.
        let x = randn_matrix::<f64>(6, 96, 2.0, 6);
        let ls = local_softmax(&x, 8).unwrap();
        let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
        for r in 0..6 {
            let s: f64 = ir.r_prime.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r}: Σr' = {s}");
        }
        // m equals the global max
        for r in 0..6 {
            let m = x.row(r).iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
            assert_eq!(ir.m[r], m);
        }
    }

    #[test]
    fn masked_subvectors_contribute_nothing() {
        let x = randn_matrix::<f64>(2, 32, 1.0, 7);
        // Mask out the entire second sub-vector (cols 8..16) of row 0.
        let mut mask = vec![true; 64];
        mask[8..16].fill(false);
        let masked = apply_mask(&x, &mask);
        let dec = decomposed_softmax(&masked, 8).unwrap();
        let reference = softmax_rows_f64(&masked);
        assert!(max_abs_diff(&reference, &dec) < 1e-14);
        for c in 8..16 {
            assert_eq!(dec.get(0, c), 0.0);
        }
    }

    #[test]
    fn fully_masked_row_is_zero() {
        let x = Matrix::<f64>::filled(1, 16, f64::NEG_INFINITY);
        let dec = decomposed_softmax(&x, 4).unwrap();
        assert!(dec.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn t_equal_l_degenerates_to_single_subvector() {
        // With T = L the decomposition is trivially the monolithic softmax
        // with r' = 1.
        let x = randn_matrix::<f64>(4, 32, 1.0, 8);
        let ls = local_softmax(&x, 32).unwrap();
        let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
        for r in 0..4 {
            assert!((ir.r_prime.get(r, 0) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn narrow_accum_is_identity_at_f64() {
        // With T = f64 the "narrow" accumulator is the wide one: the two LS
        // variants must agree bit-for-bit.
        let x = randn_matrix::<f64>(4, 128, 3.0, 9);
        let wide = local_softmax(&x, 16).unwrap();
        let narrow = local_softmax_narrow_accum(&x, 16).unwrap();
        assert_eq!(wide, narrow);
    }

    #[test]
    fn narrow_accum_fp16_stays_close_and_normalized() {
        // Step-rounding the fp16 normalizer adds roughly (T−1) half-precision
        // roundoffs on top of the wide pipeline — small at T = 16, and rows
        // must still sum to ~1 after IR's wide rescale.
        let x = randn_matrix::<F16>(8, 256, 3.0, 10);
        let oracle = softmax_rows_f64(&x);
        let narrow = decomposed_softmax_narrow_accum(&x, 16).unwrap();
        assert!(
            max_abs_diff(&oracle, &narrow) < 1.2e-2,
            "diff {}",
            max_abs_diff(&oracle, &narrow)
        );
        for r in 0..8 {
            let s: f64 = narrow.row(r).iter().map(|v| v.to_f64()).sum();
            assert!((s - 1.0).abs() < 2e-2, "row {r} sums to {s}");
        }
    }

    #[test]
    fn narrow_accum_masked_rows_and_shapes() {
        let x = Matrix::<F16>::filled(1, 16, F16::neg_infinity());
        let dec = decomposed_softmax_narrow_accum(&x, 4).unwrap();
        assert!(dec.as_slice().iter().all(|v| v.to_f64() == 0.0));
        let bad = Matrix::<F16>::zeros(2, 10);
        assert!(local_softmax_narrow_accum(&bad, 3).is_err());
        assert!(decomposed_softmax_narrow_accum(&bad, 0).is_err());
    }

    #[test]
    fn shape_errors() {
        let x = Matrix::<f64>::zeros(2, 10);
        assert!(local_softmax(&x, 3).is_err());
        assert!(local_softmax(&x, 0).is_err());
        assert!(decomposed_softmax(&x, 4).is_err());
        let xp = Matrix::<f64>::zeros(2, 8);
        let bad_r = Matrix::<f64>::zeros(2, 3);
        assert!(global_scale(&xp, &bad_r, 4).is_err());
    }
}

/// The decomposed softmax *backward* (the §6 extension, mirrored from the
/// forward decomposition): given the stored LS outputs `x'` and the IR
/// factors `r'` (so `y = x' ⊙ r'` per sub-vector), and the upstream gradient
/// `dy`, computes `dx = y ⊙ (dy − Σ_i dy_i·y_i)` without ever materializing
/// `y` — the row dot is itself decomposed into per-sub-vector partial dots
/// (the backward LS) reduced across sub-vectors (the backward IR), leaving a
/// purely elementwise final scaling (the backward GS).
///
/// Numerically identical to [`crate::softmax_backward`] applied to the
/// reconstructed `y`, modulo one extra rounding per element.
///
/// # Errors
///
/// Returns [`ShapeError`] if shapes are inconsistent with `t`.
pub fn decomposed_softmax_backward<T: Scalar>(
    x_prime: &Matrix<T>,
    r_prime: &Matrix<T>,
    dy: &Matrix<T>,
    t: usize,
) -> Result<Matrix<T>, ShapeError> {
    let n_sv = check_subvector(x_prime.cols(), t)?;
    if r_prime.shape() != (x_prime.rows(), n_sv) {
        return Err(ShapeError::new(format!(
            "r' shape {:?} vs expected {}x{n_sv}",
            r_prime.shape(),
            x_prime.rows()
        )));
    }
    if dy.shape() != x_prime.shape() {
        return Err(ShapeError::new(format!(
            "dy shape {:?} vs x' {:?}",
            dy.shape(),
            x_prime.shape()
        )));
    }
    let (rows, cols) = x_prime.shape();
    let mut dx = Matrix::zeros(rows, cols);
    for r in 0..rows {
        // Backward LS: per-sub-vector partial dots Σ_j dy·x' (scaled later).
        // Backward IR: combine with r' into the global row dot.
        let mut dot = 0.0f64;
        for k in 0..n_sv {
            let mut partial = 0.0f64;
            for j in 0..t {
                let c = k * t + j;
                partial += dy.get(r, c).to_f64() * x_prime.get(r, c).to_f64();
            }
            dot += partial * r_prime.get(r, k).to_f64();
        }
        // Backward GS: elementwise dx = (x'·r') ⊙ (dy − dot).
        for k in 0..n_sv {
            let rk = r_prime.get(r, k).to_f64();
            for j in 0..t {
                let c = k * t + j;
                let y = x_prime.get(r, c).to_f64() * rk;
                dx.set(r, c, T::from_f64(y * (dy.get(r, c).to_f64() - dot)));
            }
        }
    }
    Ok(dx)
}

#[cfg(test)]
mod backward_tests {
    use super::*;
    use crate::softmax::{softmax_backward, softmax_rows_f64};
    use resoftmax_tensor::{max_abs_diff, randn_matrix};

    #[test]
    fn decomposed_backward_matches_monolithic() {
        let (rows, l, t) = (6, 96, 16);
        let x = randn_matrix::<f64>(rows, l, 2.0, 500);
        let dy = randn_matrix::<f64>(rows, l, 1.0, 501);

        // Forward via decomposition, keeping x' and r'.
        let ls = local_softmax(&x, t).unwrap();
        let ir = inter_reduce(&ls.m_prime, &ls.d_prime);

        // Monolithic reference: backward from the reconstructed y.
        let y = softmax_rows_f64(&x);
        let reference = softmax_backward(&y, &dy);

        let dec = decomposed_softmax_backward(&ls.x_prime, &ir.r_prime, &dy, t).unwrap();
        assert!(
            max_abs_diff(&reference, &dec) < 1e-12,
            "diff {}",
            max_abs_diff(&reference, &dec)
        );
    }

    #[test]
    fn decomposed_backward_rows_sum_to_zero() {
        let (rows, l, t) = (3, 64, 8);
        let x = randn_matrix::<f64>(rows, l, 1.5, 510);
        let dy = randn_matrix::<f64>(rows, l, 1.0, 511);
        let ls = local_softmax(&x, t).unwrap();
        let ir = inter_reduce(&ls.m_prime, &ls.d_prime);
        let dec = decomposed_softmax_backward(&ls.x_prime, &ir.r_prime, &dy, t).unwrap();
        for r in 0..rows {
            let s: f64 = dec.row(r).iter().sum();
            assert!(s.abs() < 1e-10, "row {r}: {s}");
        }
    }

    #[test]
    fn decomposed_backward_shape_errors() {
        let xp = Matrix::<f64>::zeros(2, 16);
        let rp = Matrix::<f64>::zeros(2, 4);
        let dy = Matrix::<f64>::zeros(2, 16);
        assert!(decomposed_softmax_backward(&xp, &rp, &dy, 4).is_ok());
        assert!(decomposed_softmax_backward(&xp, &rp, &dy, 5).is_err());
        let rp_bad = Matrix::<f64>::zeros(2, 3);
        assert!(decomposed_softmax_backward(&xp, &rp_bad, &dy, 4).is_err());
        let dy_bad = Matrix::<f64>::zeros(2, 8);
        assert!(decomposed_softmax_backward(&xp, &rp, &dy_bad, 4).is_err());
    }
}
