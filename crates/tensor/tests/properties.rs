//! Property-based tests for matrix operations.

use proptest::prelude::*;
use resoftmax_fp16::F16;
use resoftmax_tensor::{
    add, matmul, matmul_tiled, matmul_transpose_b, max_abs_diff, row_max, row_sum, scale,
    transpose, Matrix, Scalar, TileDims, TileIter,
};

/// `matmul_tiled`'s loop before it widened its operands once per call,
/// verbatim but serial (each band of tile-rows is independent): it decodes
/// both operands inside the rank-1 update.
fn tiled_per_element<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, tiles: TileDims) -> Matrix<T> {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    out.as_mut_slice()
        .chunks_mut((tiles.h * n).max(1))
        .enumerate()
        .for_each(|(strip, band)| {
            let tr = strip * tiles.h;
            let th = band.len().checked_div(n).unwrap_or(0);
            for tc in (0..n).step_by(tiles.w) {
                let tw = tiles.w.min(n - tc);
                let mut acc = vec![0.0f32; th * tw];
                for p in 0..k {
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
    out
}

/// The raw bits of every element, widened exactly to `f64`.
fn bits<T: Scalar>(m: &Matrix<T>) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
}

/// Strategy for a small random f64 matrix with bounded entries.
fn matrix_strategy(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<f64>> {
    proptest::collection::vec(-10.0f64..10.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v).unwrap())
}

/// Strategy for matrix dimensions small enough for O(n³) reference math.
fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..12, 1usize..12, 1usize..12)
}

proptest! {
    /// The tiled (outer-product dataflow) matmul agrees with the naive oracle
    /// for every tile shape.
    #[test]
    fn tiled_matmul_matches_naive(
        (m, k, n) in dims(),
        th in 1usize..8,
        tw in 1usize..8,
        seed in 0u64..1000,
    ) {
        let a = resoftmax_tensor::randn_matrix::<f64>(m, k, 1.0, seed);
        let b = resoftmax_tensor::randn_matrix::<f64>(k, n, 1.0, seed + 1);
        let naive = matmul(&a, &b).unwrap();
        let tiled = matmul_tiled(&a, &b, TileDims::new(th, tw)).unwrap();
        // f32 accumulators in the tiled path: tolerance scales with k
        prop_assert!(max_abs_diff(&naive, &tiled) < 1e-3 * k as f64);
    }

    /// The tiled matmul keeps the bits of its per-element loop at every
    /// precision, tile shape and edge tile.
    #[test]
    fn tiled_matmul_keeps_the_per_element_bits(
        (m, k, n) in dims(),
        th in 1usize..8,
        tw in 1usize..8,
        seed in 0u64..1000,
    ) {
        let a = resoftmax_tensor::randn_matrix::<f64>(m, k, 4.0, seed);
        let b = resoftmax_tensor::randn_matrix::<f64>(k, n, 4.0, seed + 1);
        let tiles = TileDims::new(th, tw);
        let (a16, b16): (Matrix<F16>, Matrix<F16>) = (a.cast(), b.cast());
        prop_assert_eq!(
            bits(&matmul_tiled(&a16, &b16, tiles).unwrap()),
            bits(&tiled_per_element(&a16, &b16, tiles))
        );
        let (a32, b32): (Matrix<f32>, Matrix<f32>) = (a.cast(), b.cast());
        prop_assert_eq!(
            bits(&matmul_tiled(&a32, &b32, tiles).unwrap()),
            bits(&tiled_per_element(&a32, &b32, tiles))
        );
        prop_assert_eq!(
            bits(&matmul_tiled(&a, &b, tiles).unwrap()),
            bits(&tiled_per_element(&a, &b, tiles))
        );
    }

    /// A·Bᵀ via the fused-layout function equals the explicit transpose.
    #[test]
    fn transpose_b_consistent((m, k, n) in dims(), seed in 0u64..1000) {
        let a = resoftmax_tensor::randn_matrix::<f64>(m, k, 1.0, seed);
        let b = resoftmax_tensor::randn_matrix::<f64>(n, k, 1.0, seed + 1);
        let direct = matmul_transpose_b(&a, &b).unwrap();
        let explicit = matmul(&a, &transpose(&b)).unwrap();
        prop_assert!(max_abs_diff(&direct, &explicit) < 1e-9);
    }

    /// Matmul distributes over addition: (A+B)·C == A·C + B·C.
    #[test]
    fn matmul_distributes((m, k, n) in dims(), s1 in 0u64..500, s2 in 500u64..1000) {
        let a = resoftmax_tensor::randn_matrix::<f64>(m, k, 1.0, s1);
        let b = resoftmax_tensor::randn_matrix::<f64>(m, k, 1.0, s2);
        let c = resoftmax_tensor::randn_matrix::<f64>(k, n, 1.0, s1 + s2);
        let lhs = matmul(&add(&a, &b).unwrap(), &c).unwrap();
        let rhs = add(&matmul(&a, &c).unwrap(), &matmul(&b, &c).unwrap()).unwrap();
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-9);
    }

    /// transpose(A·B) == transpose(B)·transpose(A).
    #[test]
    fn transpose_of_product((m, k, n) in dims(), seed in 0u64..1000) {
        let a = resoftmax_tensor::randn_matrix::<f64>(m, k, 1.0, seed);
        let b = resoftmax_tensor::randn_matrix::<f64>(k, n, 1.0, seed + 7);
        let lhs = transpose(&matmul(&a, &b).unwrap());
        let rhs = matmul(&transpose(&b), &transpose(&a)).unwrap();
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-9);
    }

    /// Scaling commutes with matmul.
    #[test]
    fn scale_commutes((m, k, n) in dims(), factor in -3.0f64..3.0, seed in 0u64..1000) {
        let a = resoftmax_tensor::randn_matrix::<f64>(m, k, 1.0, seed);
        let b = resoftmax_tensor::randn_matrix::<f64>(k, n, 1.0, seed + 3);
        let lhs = matmul(&scale(&a, factor), &b).unwrap();
        let rhs = scale(&matmul(&a, &b).unwrap(), factor);
        prop_assert!(max_abs_diff(&lhs, &rhs) < 1e-8);
    }

    /// row_max is invariant under column permutation-ish shuffles (reversal).
    #[test]
    fn row_max_column_order_invariant(m in matrix_strategy(5, 7)) {
        let reversed = Matrix::from_fn(5, 7, |r, c| m.get(r, 6 - c));
        prop_assert_eq!(row_max(&m), row_max(&reversed));
    }

    /// row_sum of the transpose equals column sums.
    #[test]
    fn row_sum_transpose(m in matrix_strategy(4, 6)) {
        let t = transpose(&m);
        let col_sums: Vec<f64> = (0..6).map(|c| (0..4).map(|r| m.get(r, c)).sum()).collect();
        let rs = row_sum(&t);
        for (a, b) in rs.iter().zip(&col_sums) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    /// Tiles always partition the matrix: total area equals matrix area.
    #[test]
    fn tiles_partition(rows in 1usize..40, cols in 1usize..40, th in 1usize..10, tw in 1usize..10) {
        let total: usize = TileIter::new(rows, cols, TileDims::new(th, tw))
            .map(|t| t.area())
            .sum();
        prop_assert_eq!(total, rows * cols);
    }

    /// Casting f64 -> f16 -> f64 introduces at most ~0.1% relative error for
    /// values in binary16's comfortable range.
    #[test]
    fn cast_roundtrip_error_bounded(m in matrix_strategy(3, 3)) {
        let h: Matrix<resoftmax_fp16::F16> = m.cast();
        let back: Matrix<f64> = h.cast();
        for ((_, _, a), (_, _, b)) in m.iter().zip(back.iter()) {
            prop_assert!((a - b).abs() <= a.abs() * 1e-3 + 1e-6);
        }
    }
}
