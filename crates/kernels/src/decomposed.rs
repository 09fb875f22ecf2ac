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

use crate::normalizer::{to, Accum, Normalizer};
use resoftmax_tensor::{Matrix, Scalar, ShapeError};

/// Output of the LS sub-layer over a whole matrix, standalone or as the
/// fused `Q·Kᵀ` epilogue.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalSoftmaxOutput<T: Scalar> {
    /// Locally-normalized values `X'`, same shape as the input.
    pub x_prime: Matrix<T>,
    /// Per-(row, sub-vector) local maxima `m'`, shape `rows × N_sv`.
    pub m_prime: Matrix<T>,
    /// Per-(row, sub-vector) local normalizers `d'`, shape `rows × N_sv`.
    pub d_prime: Matrix<T>,
}

impl<T: Scalar> LocalSoftmaxOutput<T> {
    /// Runs `leaves(r, x'_r, m'_r, d'_r)` for each of `rows` rows of `cols`
    /// elements in `n_sv` sub-vectors. Rows are independent — each owns a
    /// disjoint row of all three outputs — so they run on the pool with
    /// bit-identical per-row arithmetic.
    pub(crate) fn by_rows(
        rows: usize,
        cols: usize,
        n_sv: usize,
        leaves: impl Fn(usize, &mut [T], &mut [T], &mut [T]) + Sync,
    ) -> Self {
        let mut x_prime = Matrix::zeros(rows, cols);
        let mut m_prime = Matrix::zeros(rows, n_sv);
        let mut d_prime = Matrix::zeros(rows, n_sv);
        resoftmax_parallel::parallel_chunks_mut3(
            x_prime.as_mut_slice(),
            cols.max(1),
            m_prime.as_mut_slice(),
            n_sv.max(1),
            d_prime.as_mut_slice(),
            n_sv.max(1),
            leaves,
        );
        LocalSoftmaxOutput {
            x_prime,
            m_prime,
            d_prime,
        }
    }
}

/// One LS leaf: observes `tile` into a fresh pair, writes its locally
/// normalized values `e/d'` to `x_prime` (zeros for a fully masked tile)
/// and returns `(m', d')`, each rounded once to `T`.
pub(crate) fn ls_leaf<T: Scalar, A: Accum>(
    tile: &mut [A],
    x_prime: &mut [T],
    round: impl Fn(A) -> A,
    add: impl Fn(A, A) -> A,
) -> (T, T) {
    let mut n = Normalizer::EMPTY;
    let kept = n.observe(tile, round, add).is_some();
    for (o, &e) in x_prime.iter_mut().zip(tile.iter()) {
        *o = if kept {
            T::from_f64((e / n.d).into())
        } else {
            T::zero()
        };
    }
    (T::from_f64(n.m.into()), T::from_f64(n.d.into()))
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

/// Checks that `r'` holds one factor per (row, sub-vector): `rows × n_sv`.
pub(crate) fn check_r_prime<T: Scalar>(
    r_prime: &Matrix<T>,
    rows: usize,
    n_sv: usize,
) -> Result<(), ShapeError> {
    if r_prime.shape() != (rows, n_sv) {
        return Err(ShapeError::new(format!(
            "r' shape {:?} vs expected {rows}x{n_sv}",
            r_prime.shape()
        )));
    }
    Ok(())
}

/// LS: local softmax over each length-`t` sub-vector of each row.
///
/// Exponentials round once at `T`; `d'` accumulates in `f64` and rounds
/// once to `T`.
///
/// # Errors
///
/// Returns [`ShapeError`] if `t` does not divide the row length.
pub fn local_softmax<T: Scalar>(
    x: &Matrix<T>,
    t: usize,
) -> Result<LocalSoftmaxOutput<T>, ShapeError> {
    local_softmax_with(x, t, |d, e| d + e)
}

/// The LS body shared by [`local_softmax`] and
/// [`local_softmax_narrow_accum`]: each sub-vector is widened once and made
/// a leaf whose partial sums `add` folds.
fn local_softmax_with<T: Scalar>(
    x: &Matrix<T>,
    t: usize,
    add: impl Fn(f64, f64) -> f64 + Sync,
) -> Result<LocalSoftmaxOutput<T>, ShapeError> {
    let n_sv = check_subvector(x.cols(), t)?;
    Ok(LocalSoftmaxOutput::by_rows(
        x.rows(),
        x.cols(),
        n_sv,
        |r, x_row, m_row, d_row| {
            let mut e = vec![0.0f64; t];
            let tiles = x.row(r).chunks(t).zip(x_row.chunks_mut(t));
            for (k, (x_tile, out)) in tiles.enumerate() {
                for (ej, v) in e.iter_mut().zip(x_tile) {
                    *ej = v.to_f64();
                }
                (m_row[k], d_row[k]) = ls_leaf(&mut e, out, to::<T>, &add);
            }
        },
    ))
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
    // The accumulator lives at working precision: every partial sum rounds
    // to `T` before the next add.
    local_softmax_with(x, t, |d, e| to::<T>(d + e))
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
/// The max and the sum run in `f64`; `m`, `d` and `r'` round once to `T`.
/// A fully masked sub-vector (`m'_k = −∞`) gets `r'_k = 0`, and a fully
/// masked row `m = −∞`, `d = 0`.
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
    let mut m = Vec::with_capacity(rows);
    let mut d = Vec::with_capacity(rows);
    let mut r_prime = Matrix::zeros(rows, n_sv);
    for r in 0..rows {
        let leaves =
            (m_prime.row(r).iter().zip(d_prime.row(r))).map(|(mk, dk)| (mk.to_f64(), dk.to_f64()));
        let n = Normalizer::merge(leaves.clone());
        for (rk, (mk, dk)) in r_prime.row_mut(r).iter_mut().zip(leaves) {
            if let Some(share) = n.share(mk, dk) {
                *rk = T::from_f64(share / n.d);
            }
        }
        m.push(T::from_f64(n.m));
        d.push(T::from_f64(n.d));
    }
    InterReductionOutput { m, d, r_prime }
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
    check_r_prime(r_prime, x_prime.rows(), check_subvector(x_prime.cols(), t)?)?;
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
        let masked = apply_mask(&x, &mask).unwrap();
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
    check_r_prime(r_prime, x_prime.rows(), check_subvector(x_prime.cols(), t)?)?;
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
        let tiles = (x_prime.row(r).chunks(t).zip(dy.row(r).chunks(t))).zip(r_prime.row(r));
        backward_row(
            tiles.map(|((x, dy), &rk)| (x, dy, rk)),
            dx.row_mut(r).chunks_mut(t),
        );
    }
    Ok(dx)
}

/// The decomposed backward of one row from its tiles `(x', dy, r')`:
/// per-tile partial dots `Σ dy·x'` (the backward LS), combined with `r'`
/// into the row dot (the backward IR), then `dx = x'·r' ⊙ (dy − dot)` into
/// `dx`'s tiles (the backward GS). All in `f64`, each `dx` rounded once.
pub(crate) fn backward_row<'a, T: Scalar>(
    tiles: impl Iterator<Item = (&'a [T], &'a [T], T)> + Clone,
    dx: impl Iterator<Item = &'a mut [T]>,
) {
    let mut dot = 0.0f64;
    for (x, dy, rk) in tiles.clone() {
        let partial = (x.iter().zip(dy)).fold(0.0f64, |p, (x, dy)| p + dy.to_f64() * x.to_f64());
        dot += partial * rk.to_f64();
    }
    for ((x, dy, rk), dx) in tiles.zip(dx) {
        let rk = rk.to_f64();
        for ((o, x), dy) in dx.iter_mut().zip(x).zip(dy) {
            *o = T::from_f64(x.to_f64() * rk * (dy.to_f64() - dot));
        }
    }
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
        let reference = softmax_backward(&y, &dy).unwrap();

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
