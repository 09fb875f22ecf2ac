//! The block-sparse kernels against their dense twins at the edges: a block
//! row whose retained scores are all `−∞`, and malformed `r'`, `dy` and `v`.

use resoftmax_kernels::{
    bs_decomposed_softmax, bs_decomposed_softmax_backward, bs_recomposed_attention,
    decomposed_softmax, softmax_rows,
};
use resoftmax_sparse::{block_sparse_softmax, pattern, BlockSparseMatrix};
use resoftmax_tensor::{randn_matrix, Matrix};

/// Row 3 fully masked, row 12 masked only inside its diagonal block: both
/// block-sparse softmaxes give what the dense ones give on the same scores
/// (`−∞` outside the support), zeros and no NaN.
#[test]
fn masked_rows_follow_the_dense_rule() {
    let (l, b) = (32, 8);
    let mut x = randn_matrix::<f64>(l, l, 1.0, 400);
    for c in 0..l {
        x.set(3, c, f64::NEG_INFINITY);
    }
    for c in 8..16 {
        x.set(12, c, f64::NEG_INFINITY);
    }
    let scores = BlockSparseMatrix::from_dense(&x, pattern::sliding_window(l, b, 1)).unwrap();
    let dense = scores.to_dense(f64::NEG_INFINITY);
    let mono = block_sparse_softmax(&scores).to_dense(0.0);
    let dec = bs_decomposed_softmax(&scores).0.to_dense(0.0);
    assert!(!mono.has_nan() && !dec.has_nan());
    assert_eq!(mono, softmax_rows(&dense));
    assert_eq!(dec, decomposed_softmax(&dense, b).unwrap());
    let mut masked = mono.row(3).iter().chain(&mono.row(12)[8..16]);
    assert!(masked.all(|&y| y == 0.0));
}

#[test]
fn malformed_operands_are_errors() {
    let layout = pattern::sliding_window(32, 8, 1);
    let x = BlockSparseMatrix::<f64>::zeros(layout.clone());
    let r_prime = Matrix::<f64>::zeros(32, 4);
    assert!(bs_decomposed_softmax_backward(&x, &r_prime, &x).is_ok());
    let bad_r = Matrix::<f64>::zeros(32, 3);
    assert!(bs_decomposed_softmax_backward(&x, &bad_r, &x).is_err());
    let other = BlockSparseMatrix::zeros(pattern::sliding_window(32, 8, 0));
    assert!(bs_decomposed_softmax_backward(&x, &r_prime, &other).is_err());
    // `v` is checked before any score is computed: `q` is malformed too.
    let (q_bad, k) = (
        randn_matrix::<f64>(16, 8, 1.0, 1),
        randn_matrix(32, 8, 1.0, 2),
    );
    let err = bs_recomposed_attention(&q_bad, &k, &q_bad, &layout, 1.0).unwrap_err();
    assert!(err.to_string().contains("v rows"), "{err}");
}
