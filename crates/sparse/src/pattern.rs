//! Sparse-attention pattern generators.
//!
//! Each generator produces a [`BlockLayout`] replicating a published
//! attention pattern at block granularity:
//!
//! * [`bigbird`] — BigBird (Zaheer et al., NeurIPS 2020): global + sliding
//!   window + random blocks.
//! * [`longformer`] — Longformer (Beltagy et al., 2020): sliding window +
//!   task-designated global tokens.
//! * [`strided`] — Sparse Transformer (Child et al., 2019): local window +
//!   strided column attention.
//! * [`sliding_window`], [`global`] — building blocks, exposed for custom
//!   patterns.

use crate::layout::BlockLayout;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Parameters of the BigBird block-sparse pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BigBirdConfig {
    /// Square block side (HuggingFace default 64).
    pub block: usize,
    /// Number of *global* block rows/cols at the start of the sequence
    /// (HuggingFace `num_global_blocks`, default 1 each side — we model the
    /// ITC variant where the first `global_blocks` are global).
    pub global_blocks: usize,
    /// Sliding-window width in blocks (HuggingFace default 3: diagonal ± 1).
    pub window_blocks: usize,
    /// Random blocks per block-row (HuggingFace default 3).
    pub random_blocks: usize,
    /// Seed for the random component.
    pub seed: u64,
}

impl Default for BigBirdConfig {
    fn default() -> Self {
        BigBirdConfig {
            block: 64,
            global_blocks: 1,
            window_blocks: 3,
            random_blocks: 3,
            seed: 0x5eed,
        }
    }
}

/// Parameters of the Longformer pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LongformerConfig {
    /// Square block side.
    pub block: usize,
    /// Total sliding-window width in *elements* (HuggingFace
    /// `attention_window`; Longformer-large uses 512, i.e. each token
    /// attends 256 left + 256 right).
    pub window: usize,
    /// Number of global tokens (rounded up to blocks), e.g. question tokens
    /// in QA; small for TriviaQA-style tasks.
    pub global_tokens: usize,
}

impl Default for LongformerConfig {
    fn default() -> Self {
        LongformerConfig {
            block: 64,
            window: 512,
            global_tokens: 64,
        }
    }
}

/// Sliding-window pattern: block `(r, c)` kept iff `|r - c| <= half_width`
/// (in blocks).
///
/// # Panics
///
/// Panics if `seq_len` is not a multiple of `block`.
pub fn sliding_window(seq_len: usize, block: usize, half_width_blocks: usize) -> BlockLayout {
    let mut l = BlockLayout::empty(seq_len, block);
    let n = l.n_blocks();
    for r in 0..n {
        l.retain_run(r, window(r, half_width_blocks, n));
    }
    l
}

/// Global pattern: the first `global_blocks` block-rows and block-columns are
/// fully retained (those tokens attend to and are attended by everyone).
///
/// # Panics
///
/// Panics if `seq_len` is not a multiple of `block`.
pub fn global(seq_len: usize, block: usize, global_blocks: usize) -> BlockLayout {
    let mut l = BlockLayout::empty(seq_len, block);
    retain_global(&mut l, global_blocks);
    l
}

/// The columns of block-row `r`'s window of `half_width_blocks` either side
/// of the diagonal, in a grid of `n` blocks.
fn window(r: usize, half_width_blocks: usize, n: usize) -> Range<usize> {
    r.saturating_sub(half_width_blocks)..r.saturating_add(half_width_blocks).min(n - 1) + 1
}

/// Retains the first `global_blocks` block-rows and block-columns of `l`.
fn retain_global(l: &mut BlockLayout, global_blocks: usize) {
    let n = l.n_blocks();
    let g = global_blocks.min(n);
    for r in 0..n {
        l.retain_run(r, 0..if r < g { n } else { g });
    }
}

/// BigBird: global ∪ window ∪ random.
///
/// The random component picks `random_blocks` distinct non-window,
/// non-global columns per block-row, deterministically from `cfg.seed`.
///
/// # Panics
///
/// Panics if `seq_len` is not a multiple of `cfg.block`.
pub fn bigbird(seq_len: usize, cfg: &BigBirdConfig) -> BlockLayout {
    let window_half = cfg.window_blocks / 2;
    let mut l = sliding_window(seq_len, cfg.block, window_half);
    retain_global(&mut l, cfg.global_blocks);
    let n = l.n_blocks();
    let g = cfg.global_blocks.min(n);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    // The row's columns outside the window and the globals, ascending (a
    // global row has none). The random blocks are the draws of
    // `SliceRandom::choose_multiple` over them, a partial Fisher–Yates,
    // replayed on this buffer: the same values in the same order, so the
    // same blocks for a seed.
    let mut candidates = Vec::with_capacity(n);
    for r in g..n {
        let w = window(r, window_half, n);
        candidates.clear();
        candidates.extend(g..w.start);
        candidates.extend(w.end..n);
        for i in 0..cfg.random_blocks.min(candidates.len()) {
            let j = i + (rng.next_u64() % (candidates.len() - i) as u64) as usize;
            candidates.swap(i, j);
            l.set(r, candidates[i], true);
        }
    }
    l
}

/// Longformer: sliding window (±`window` elements) plus global tokens.
///
/// # Panics
///
/// Panics if `seq_len` is not a multiple of `cfg.block`.
pub fn longformer(seq_len: usize, cfg: &LongformerConfig) -> BlockLayout {
    let half_blocks = (cfg.window / 2).div_ceil(cfg.block);
    let mut l = sliding_window(seq_len, cfg.block, half_blocks);
    retain_global(&mut l, cfg.global_tokens.div_ceil(cfg.block));
    l
}

/// Sparse Transformer strided pattern: local window of `local_blocks` plus
/// every `stride_blocks`-th column.
///
/// # Panics
///
/// Panics if `seq_len` is not a multiple of `block`, or `stride_blocks == 0`.
pub fn strided(
    seq_len: usize,
    block: usize,
    local_blocks: usize,
    stride_blocks: usize,
) -> BlockLayout {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sliding_window_shape() {
        let l = sliding_window(512, 64, 1);
        assert_eq!(l.n_blocks(), 8);
        // interior rows have 3 blocks, edges 2
        assert_eq!(l.row_counts(), vec![2, 3, 3, 3, 3, 3, 3, 2]);
        assert!(l.is_set(4, 3) && l.is_set(4, 4) && l.is_set(4, 5));
        assert!(!l.is_set(4, 6));
    }

    #[test]
    fn global_rows_and_cols() {
        let l = global(512, 64, 1);
        assert!(l.is_set(0, 7), "global row");
        assert!(l.is_set(7, 0), "global col");
        assert!(!l.is_set(3, 3), "interior not set");
        assert_eq!(l.nnz_blocks(), 8 + 8 - 1);
    }

    #[test]
    fn bigbird_components_present() {
        let cfg = BigBirdConfig::default();
        let l = bigbird(4096, &cfg);
        let n = l.n_blocks();
        assert_eq!(n, 64);
        // window
        assert!(l.is_set(30, 30) && l.is_set(30, 29) && l.is_set(30, 31));
        // global
        assert!(l.is_set(0, 50) && l.is_set(50, 0));
        // every interior row has window(3) + global(1) + random(3) = 7 blocks
        let counts = l.row_counts();
        for (r, &cnt) in counts.iter().enumerate().skip(1).take(n - 2) {
            assert!((6..=7).contains(&cnt), "row {r} has {cnt} blocks");
        }
        // deterministic in seed
        let l2 = bigbird(4096, &cfg);
        assert_eq!(l, l2);
        let l3 = bigbird(4096, &BigBirdConfig { seed: 999, ..cfg });
        assert_ne!(l, l3, "different seed, different randomness");
    }

    #[test]
    fn bigbird_density_scales_inversely_with_length() {
        let cfg = BigBirdConfig::default();
        let d1k = bigbird(1024, &cfg).density();
        let d4k = bigbird(4096, &cfg).density();
        assert!(d4k < d1k, "longer sequence = sparser: {d4k} < {d1k}");
        // paper: BigBird reduces attention computation to ~14.3% of BERT at L=4096
        assert!(d4k > 0.05 && d4k < 0.25, "density at 4k: {d4k}");
    }

    #[test]
    fn longformer_window_in_elements() {
        let cfg = LongformerConfig {
            block: 64,
            window: 512,
            global_tokens: 64,
        };
        let l = longformer(4096, &cfg);
        // 512 total = 256 each side = 4 blocks each side
        assert!(l.is_set(32, 28) && l.is_set(32, 36));
        assert!(!l.is_set(32, 27) && !l.is_set(32, 37));
        assert!(l.is_set(32, 0), "global column");
    }

    #[test]
    fn strided_pattern() {
        let l = strided(512, 64, 1, 4);
        assert!(l.is_set(5, 0) && l.is_set(5, 4), "strided columns");
        assert!(l.is_set(5, 5) && l.is_set(5, 6), "local window");
        assert!(!l.is_set(5, 2));
    }

    #[test]
    #[should_panic(expected = "stride must be nonzero")]
    fn zero_stride_panics() {
        let _ = strided(512, 64, 1, 0);
    }

    #[test]
    fn causal_composition_for_autoregressive_models() {
        let l = sliding_window(512, 64, 2).causal();
        assert!(l.is_set(4, 2) && l.is_set(4, 4));
        assert!(!l.is_set(4, 5), "future masked");
    }
}
