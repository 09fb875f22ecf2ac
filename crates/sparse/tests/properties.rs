//! Property-based tests of block-sparse layouts, patterns and operations.

use proptest::prelude::*;
use resoftmax_sparse::{
    block_sparse_softmax, pattern, sddmm, spmm, BigBirdConfig, BlockLayout, BlockSparseMatrix,
    LongformerConfig, PatternStats,
};
use resoftmax_tensor::{matmul, max_abs_diff, randn_matrix, transpose, Matrix};

fn geometry() -> impl Strategy<Value = (usize, usize)> {
    // (n_blocks, block) with modest element counts
    (1usize..10, 1usize..4).prop_map(|(n, bp)| (n, 1 << (bp + 1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pattern generators always retain the diagonal (every token attends to
    /// itself) and stay within density bounds.
    #[test]
    fn patterns_retain_diagonal((n, block) in geometry(), seed in 0u64..1000) {
        let l = n * block;
        let bb = pattern::bigbird(l, &BigBirdConfig {
            block,
            global_blocks: 1,
            window_blocks: 3,
            random_blocks: 1,
            seed,
        });
        let lf = pattern::longformer(l, &LongformerConfig {
            block,
            window: block * 2,
            global_tokens: block,
        });
        for layout in [&bb, &lf] {
            for i in 0..n {
                prop_assert!(layout.is_set(i, i), "diagonal block ({i},{i}) missing");
            }
            let d = layout.density();
            prop_assert!(d > 0.0 && d <= 1.0);
        }
    }

    /// union is commutative, idempotent, and monotone in density.
    #[test]
    fn union_laws((n, block) in geometry(), seed in 0u64..1000) {
        let l = n * block;
        let a = pattern::sliding_window(l, block, 1);
        let b = pattern::bigbird(l, &BigBirdConfig {
            block, global_blocks: 1, window_blocks: 1, random_blocks: 1, seed,
        });
        let ab = a.union(&b);
        let ba = b.union(&a);
        prop_assert_eq!(&ab, &ba);
        prop_assert_eq!(&a.union(&a), &a);
        prop_assert!(ab.nnz_blocks() >= a.nnz_blocks().max(b.nnz_blocks()));
        prop_assert!(ab.nnz_blocks() <= a.nnz_blocks() + b.nnz_blocks());
    }

    /// causal() removes exactly the strictly-upper blocks.
    #[test]
    fn causal_law((n, block) in geometry()) {
        let dense = BlockLayout::dense(n * block, block);
        let c = dense.causal();
        prop_assert_eq!(c.nnz_blocks(), n * (n + 1) / 2);
        for r in 0..n {
            for col in 0..n {
                prop_assert_eq!(c.is_set(r, col), col <= r);
            }
        }
    }

    /// The per-row counts a layout keeps agree with its mask after every
    /// mutation, and equal masks make equal layouts whichever constructors
    /// built them.
    #[test]
    fn row_counts_track_the_mask(
        (n, block) in geometry(),
        bits in proptest::collection::vec(any::<bool>(), 81),
        other_bits in proptest::collection::vec(any::<bool>(), 81),
        sets in proptest::collection::vec((0usize..9, 0usize..9, any::<bool>()), 0..40),
    ) {
        let mut l = BlockLayout::from_mask(block, n, bits[..n * n].to_vec()).unwrap();
        counts_match(&l)?;
        for (r, c, value) in sets {
            let (r, c) = (r % n, c % n);
            l.set(r, c, value);
            counts_match(&l)?;
            // Setting a block to the value it already has changes nothing.
            l.set(r, c, value);
            counts_match(&l)?;
            prop_assert_eq!(&l, &rebuilt(&l));
        }
        let other = BlockLayout::from_mask(block, n, other_bits[..n * n].to_vec()).unwrap();
        let u = l.union(&other);
        counts_match(&u)?;
        prop_assert_eq!(&u, &rebuilt(&u));
        let c = u.causal();
        counts_match(&c)?;
        prop_assert_eq!(&c, &rebuilt(&c));

        let seq_len = n * block;
        let mut filled = BlockLayout::empty(seq_len, block);
        for r in 0..n {
            for col in 0..n {
                filled.set(r, col, true);
            }
        }
        prop_assert_eq!(&filled, &BlockLayout::dense(seq_len, block));
        prop_assert_eq!(&rebuilt(&filled), &BlockLayout::dense(seq_len, block));
        prop_assert_eq!(
            &BlockLayout::from_mask(block, n, vec![false; n * n]).unwrap(),
            &BlockLayout::empty(seq_len, block)
        );
    }

    /// element_mask cardinality equals nnz_elements.
    #[test]
    fn element_mask_cardinality((n, block) in geometry(), seed in 0u64..1000) {
        let layout = pattern::bigbird(n * block, &BigBirdConfig {
            block, global_blocks: 1, window_blocks: 1, random_blocks: 2, seed,
        });
        let mask = layout.element_mask();
        let set = mask.iter().filter(|&&b| b).count();
        prop_assert_eq!(set, layout.nnz_elements());
    }

    /// Stats are internally consistent.
    #[test]
    fn stats_consistency((n, block) in geometry(), seed in 0u64..1000) {
        let layout = pattern::bigbird(n * block, &BigBirdConfig {
            block, global_blocks: 1, window_blocks: 3, random_blocks: 1, seed,
        });
        let s = PatternStats::of(&layout);
        prop_assert!(s.row_min <= s.row_max);
        prop_assert!(s.row_mean >= s.row_min as f64 && s.row_mean <= s.row_max as f64);
        prop_assert!((s.density - s.nnz_blocks as f64 / (n * n) as f64).abs() < 1e-12);
        prop_assert!(s.imbalance >= 1.0 - 1e-12);
    }

    /// Block-sparse attention == masked dense attention, for random patterns.
    #[test]
    fn sparse_equals_masked_dense((n, block) in geometry(), seed in 0u64..1000) {
        let l = n * block;
        prop_assume!(l <= 128);
        let layout = pattern::bigbird(l, &BigBirdConfig {
            block, global_blocks: 1, window_blocks: 1, random_blocks: 1, seed,
        });
        let d = 8;
        let q = randn_matrix::<f64>(l, d, 1.0, seed);
        let k = randn_matrix::<f64>(l, d, 1.0, seed + 1);
        let v = randn_matrix::<f64>(l, d, 1.0, seed + 2);
        let sparse = spmm(&block_sparse_softmax(&sddmm(&q, &k, &layout).unwrap()), &v).unwrap();

        let mask = layout.element_mask();
        let scores = matmul(&q, &transpose(&k)).unwrap();
        let masked = Matrix::from_fn(l, l, |r, c| {
            if mask[r * l + c] { scores.get(r, c) } else { f64::NEG_INFINITY }
        });
        let p = resoftmax_kernels_free_softmax(&masked);
        let dense = matmul(&p, &v).unwrap();
        prop_assert!(max_abs_diff(&sparse, &dense) < 1e-9);
    }

    /// from_dense ∘ to_dense is the identity on the support.
    #[test]
    fn dense_roundtrip((n, block) in geometry(), seed in 0u64..1000) {
        let l = n * block;
        let layout = pattern::sliding_window(l, block, 1);
        let m = randn_matrix::<f64>(l, l, 1.0, seed);
        let bs = BlockSparseMatrix::from_dense(&m, layout.clone()).unwrap();
        let back = bs.to_dense(0.0);
        let bs2 = BlockSparseMatrix::from_dense(&back, layout).unwrap();
        prop_assert_eq!(bs, bs2);
    }
}

/// Checks a layout's kept counts against a recount of its mask:
/// `row_counts` per block-row, `nnz_blocks` against the retained-block
/// iterator, and `row_ptr` as the counts' prefix sum.
fn counts_match(l: &BlockLayout) -> Result<(), String> {
    let n = l.n_blocks();
    let recount: Vec<usize> = (0..n)
        .map(|r| (0..n).filter(|&c| l.is_set(r, c)).count())
        .collect();
    prop_assert_eq!(l.row_counts(), recount.clone());
    prop_assert_eq!(l.nnz_blocks(), l.iter_blocks().count());
    let mut prefix = vec![0];
    for count in &recount {
        prefix.push(prefix[prefix.len() - 1] + count);
    }
    prop_assert_eq!(l.row_ptr(), prefix);
    Ok(())
}

/// The same mask, rebuilt through `from_mask`.
fn rebuilt(l: &BlockLayout) -> BlockLayout {
    let n = l.n_blocks();
    let mask = (0..n * n).map(|i| l.is_set(i / n, i % n)).collect();
    BlockLayout::from_mask(l.block(), n, mask).unwrap()
}

/// Local dense softmax reference (avoiding a circular dev-dependency on
/// resoftmax-kernels).
fn resoftmax_kernels_free_softmax(x: &Matrix<f64>) -> Matrix<f64> {
    let mut y = Matrix::zeros(x.rows(), x.cols());
    for r in 0..x.rows() {
        let m = x.row(r).iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if m == f64::NEG_INFINITY {
            continue;
        }
        let d: f64 = x.row(r).iter().map(|v| (v - m).exp()).sum();
        for c in 0..x.cols() {
            y.set(r, c, (x.get(r, c) - m).exp() / d);
        }
    }
    y
}
