//! The pattern generators pinned to a frozen copy of themselves.
//!
//! The generators draw every layout in place: one mask, each block-row's
//! count kept as blocks are retained, and BigBird's random blocks picked by
//! replaying `choose_multiple`'s partial Fisher–Yates on one reused buffer.
//! This file keeps the generators as they stood before, built from
//! throw-away layouts, unions and per-row candidate vectors, and asserts
//! that both give the same mask and the same `row_counts` for the
//! evaluation models' patterns at every power-of-two length from 512 to
//! 8192, and for generated patterns. The first test is small enough for
//! miri.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use resoftmax_sparse::{pattern, BigBirdConfig, BlockLayout, LongformerConfig};

// ---------------------------------------------------------------------------
// The frozen generators, as they were; `union` is `BlockLayout::union`'s
// zip of the two masks, recounted by `from_mask`. Do not edit them to follow
// the crate.
// ---------------------------------------------------------------------------

fn union(a: &BlockLayout, b: &BlockLayout) -> BlockLayout {
    assert_eq!(a.block(), b.block(), "block size mismatch");
    assert_eq!(a.n_blocks(), b.n_blocks(), "grid mismatch");
    let n = a.n_blocks();
    let mask = (0..n * n)
        .map(|i| a.is_set(i / n, i % n) || b.is_set(i / n, i % n))
        .collect();
    BlockLayout::from_mask(a.block(), n, mask).unwrap()
}

fn sliding_window(seq_len: usize, block: usize, half_width_blocks: usize) -> BlockLayout {
    let mut l = BlockLayout::empty(seq_len, block);
    let n = l.n_blocks();
    for r in 0..n {
        let lo = r.saturating_sub(half_width_blocks);
        let hi = (r + half_width_blocks).min(n - 1);
        for c in lo..=hi {
            l.set(r, c, true);
        }
    }
    l
}

fn global(seq_len: usize, block: usize, global_blocks: usize) -> BlockLayout {
    let mut l = BlockLayout::empty(seq_len, block);
    let n = l.n_blocks();
    let g = global_blocks.min(n);
    for r in 0..n {
        for c in 0..n {
            if r < g || c < g {
                l.set(r, c, true);
            }
        }
    }
    l
}

fn bigbird(seq_len: usize, cfg: &BigBirdConfig) -> BlockLayout {
    let window_half = cfg.window_blocks / 2;
    let mut l = union(
        &sliding_window(seq_len, cfg.block, window_half),
        &global(seq_len, cfg.block, cfg.global_blocks),
    );
    let n = l.n_blocks();
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    for r in 0..n {
        let candidates: Vec<usize> = (0..n).filter(|&c| !l.is_set(r, c)).collect();
        for &c in candidates.choose_multiple(&mut rng, cfg.random_blocks.min(candidates.len())) {
            l.set(r, c, true);
        }
    }
    l
}

fn longformer(seq_len: usize, cfg: &LongformerConfig) -> BlockLayout {
    let half_blocks = (cfg.window / 2).div_ceil(cfg.block);
    let global_blocks = cfg.global_tokens.div_ceil(cfg.block);
    union(
        &sliding_window(seq_len, cfg.block, half_blocks),
        &global(seq_len, cfg.block, global_blocks),
    )
}

fn strided(seq_len: usize, block: usize, local_blocks: usize, stride_blocks: usize) -> BlockLayout {
    assert!(stride_blocks > 0, "stride must be nonzero");
    let mut l = sliding_window(seq_len, block, local_blocks);
    let n = l.n_blocks();
    for r in 0..n {
        let mut c = 0;
        while c < n {
            l.set(r, c, true);
            c += stride_blocks;
        }
    }
    l
}

// ---------------------------------------------------------------------------

/// Equal layouts: the same geometry, mask and `row_counts` (`==` compares
/// all of them), and the count queries agree.
fn assert_same(drawn: &BlockLayout, frozen: &BlockLayout, what: &str) {
    assert_eq!(
        drawn.row_counts(),
        frozen.row_counts(),
        "{what}: row counts"
    );
    assert_eq!(drawn, frozen, "{what}: mask");
    assert_eq!(drawn.nnz_blocks(), frozen.nnz_blocks(), "{what}: nnz");
}

/// Every generator at `seq_len` with the evaluation models' parameters
/// (BigBird-large, Longformer-large, the Sparse Transformer preset), their
/// building blocks, and a union of two of them.
fn assert_models_at(seq_len: usize) {
    let bb = BigBirdConfig::default();
    let lf = LongformerConfig::default();
    let cases = [
        (
            "bigbird",
            pattern::bigbird(seq_len, &bb),
            bigbird(seq_len, &bb),
        ),
        (
            "longformer",
            pattern::longformer(seq_len, &lf),
            longformer(seq_len, &lf),
        ),
        (
            "strided",
            pattern::strided(seq_len, 64, 1, 8),
            strided(seq_len, 64, 1, 8),
        ),
        (
            "sliding_window",
            pattern::sliding_window(seq_len, 64, 4),
            sliding_window(seq_len, 64, 4),
        ),
        (
            "global",
            pattern::global(seq_len, 64, 1),
            global(seq_len, 64, 1),
        ),
        (
            "union",
            pattern::strided(seq_len, 64, 1, 8).union(&pattern::bigbird(seq_len, &bb)),
            union(&strided(seq_len, 64, 1, 8), &bigbird(seq_len, &bb)),
        ),
    ];
    for (name, drawn, frozen) in &cases {
        assert_same(drawn, frozen, &format!("{name} at L = {seq_len}"));
    }
}

#[test]
fn evaluation_patterns_at_512_and_1024_match_the_frozen_generators() {
    for seq_len in [512, 1024] {
        assert_models_at(seq_len);
    }
}

#[test]
#[cfg_attr(miri, ignore = "the long lengths are far too slow under miri")]
fn evaluation_patterns_up_to_8192_match_the_frozen_generators() {
    for seq_len in [2048, 4096, 8192] {
        assert_models_at(seq_len);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Generated BigBird and Longformer parameters, including windows wider
    /// than the grid, more global or random blocks than there are columns,
    /// and a grid of one block.
    #[test]
    #[cfg_attr(miri, ignore = "generated grids are too slow under miri")]
    fn generated_patterns_match_the_frozen_generators(
        n in 1usize..40,
        block in prop_oneof![Just(1usize), Just(16), Just(64)],
        window_blocks in 0usize..12,
        global_blocks in 0usize..6,
        random_blocks in 0usize..12,
        seed in any::<u64>(),
        stride_blocks in 1usize..9,
    ) {
        let seq_len = n * block;
        let bb = BigBirdConfig { block, global_blocks, window_blocks, random_blocks, seed };
        assert_same(&pattern::bigbird(seq_len, &bb), &bigbird(seq_len, &bb), "bigbird");
        let lf = LongformerConfig {
            block,
            window: window_blocks * block + seed as usize % block.max(2),
            global_tokens: global_blocks * block,
        };
        assert_same(&pattern::longformer(seq_len, &lf), &longformer(seq_len, &lf), "longformer");
        assert_same(
            &pattern::strided(seq_len, block, window_blocks, stride_blocks),
            &strided(seq_len, block, window_blocks, stride_blocks),
            "strided",
        );
        let a = pattern::sliding_window(seq_len, block, window_blocks);
        let b = pattern::global(seq_len, block, global_blocks);
        assert_same(&a, &sliding_window(seq_len, block, window_blocks), "sliding_window");
        assert_same(&b, &global(seq_len, block, global_blocks), "global");
        assert_same(&a.union(&b), &union(&a, &b), "union");
    }
}
