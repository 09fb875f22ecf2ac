//! Block-granular KV-cache pool accounting.
//!
//! Real engines (vLLM-style) carve the post-weights HBM remainder into
//! fixed-size blocks of KV pages; a request holds `ceil(tokens /
//! block_tokens)` blocks and admission fails when the pool cannot cover a
//! request's resident context. Only the *accounting* is simulated here — the
//! timing model already charges the cache-streaming traffic per kernel.

use crate::error::{require, Error};
use resoftmax_kernels::costs::FP16_BYTES;
use resoftmax_model::ModelConfig;

/// Bytes of KV cache one token occupies: a K row and a V row of `d_model`
/// fp16 elements per layer (heads × d_head = d_model).
pub fn kv_bytes_per_token(model: &ModelConfig) -> u64 {
    (model.layers * 2 * model.d_model * FP16_BYTES) as u64
}

/// Rough fp16 weight footprint of the model: QKV + output projection
/// (4·d²) plus the two FF matrices (2·d·d_ff) per layer, bias/embedding
/// terms ignored (sub-percent).
pub fn weight_bytes(model: &ModelConfig) -> u64 {
    (model.layers
        * (4 * model.d_model * model.d_model + 2 * model.d_model * model.d_ff)
        * FP16_BYTES) as u64
}

/// A fixed-capacity pool of KV-cache blocks with per-request allocation,
/// occupancy tracking, and admission control on exhaustion.
#[derive(Debug, Clone)]
pub struct KvPool {
    block_bytes: u64,
    block_tokens: usize,
    total_blocks: u64,
    used_blocks: u64,
    peak_blocks: u64,
}

impl KvPool {
    /// Builds a pool of `capacity_bytes` carved into blocks of
    /// `block_tokens` tokens at `bytes_per_token`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Config`] when `block_tokens` or `bytes_per_token` is
    /// zero, or the parameters produce zero usable blocks — a pool that can
    /// never admit anything is a configuration error, not a state.
    pub fn new(
        capacity_bytes: u64,
        block_tokens: usize,
        bytes_per_token: u64,
    ) -> Result<Self, Error> {
        require(block_tokens > 0, || {
            "KV block size must be nonzero".to_owned()
        })?;
        require(bytes_per_token > 0, || {
            "KV bytes per token must be nonzero".to_owned()
        })?;
        let block_bytes = block_tokens as u64 * bytes_per_token;
        let total_blocks = capacity_bytes / block_bytes;
        require(total_blocks > 0, || {
            format!("KV pool capacity {capacity_bytes}B is below one {block_bytes}B block")
        })?;
        Ok(KvPool {
            block_bytes,
            block_tokens,
            total_blocks,
            used_blocks: 0,
            peak_blocks: 0,
        })
    }

    /// Blocks required to hold `tokens` of context.
    pub fn blocks_for(&self, tokens: usize) -> u64 {
        tokens.div_ceil(self.block_tokens) as u64
    }

    /// `true` when `blocks` more blocks fit right now.
    pub fn can_alloc(&self, blocks: u64) -> bool {
        self.used_blocks + blocks <= self.total_blocks
    }

    /// Claims `blocks` blocks; returns `false` (allocating nothing) when the
    /// pool cannot cover them.
    pub fn try_alloc(&mut self, blocks: u64) -> bool {
        if !self.can_alloc(blocks) {
            return false;
        }
        self.used_blocks += blocks;
        self.peak_blocks = self.peak_blocks.max(self.used_blocks);
        true
    }

    /// Returns `blocks` blocks to the pool.
    ///
    /// # Panics
    ///
    /// Panics when freeing more than is allocated — callers own exact
    /// per-request counts, so this is always an accounting bug.
    pub fn free(&mut self, blocks: u64) {
        assert!(
            blocks <= self.used_blocks,
            "freeing {blocks} blocks but only {} allocated",
            self.used_blocks
        );
        self.used_blocks -= blocks;
    }

    /// Total pool size in blocks.
    pub fn total_blocks(&self) -> u64 {
        self.total_blocks
    }

    /// Currently allocated blocks.
    pub fn used_blocks(&self) -> u64 {
        self.used_blocks
    }

    /// Current occupancy in `[0, 1]`.
    pub fn occupancy(&self) -> f64 {
        self.used_blocks as f64 / self.total_blocks as f64
    }

    /// High-water occupancy in `[0, 1]`.
    pub fn peak_occupancy(&self) -> f64 {
        self.peak_blocks as f64 / self.total_blocks as f64
    }

    /// Bytes per block.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_allocates_and_frees_block_granular() {
        let mut p = KvPool::new(1000, 4, 10).unwrap(); // 40B blocks → 25 blocks
        assert_eq!(p.total_blocks(), 25);
        assert_eq!(p.blocks_for(1), 1);
        assert_eq!(p.blocks_for(4), 1);
        assert_eq!(p.blocks_for(5), 2);
        assert!(p.try_alloc(20));
        assert!(!p.try_alloc(6), "over-capacity alloc must fail");
        assert_eq!(p.used_blocks(), 20, "failed alloc must not leak");
        assert!(p.try_alloc(5));
        assert!((p.occupancy() - 1.0).abs() < 1e-12);
        p.free(25);
        assert_eq!(p.used_blocks(), 0);
        assert!((p.peak_occupancy() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_block_pool_rejected() {
        let e = KvPool::new(10, 4, 10).unwrap_err();
        assert!(matches!(e, Error::Config { .. }), "{e}");
        assert!(e.to_string().contains("below one"), "{e}");
    }

    #[test]
    fn zero_block_size_rejected() {
        let e = KvPool::new(1000, 0, 10).unwrap_err();
        assert!(matches!(e, Error::Config { .. }), "{e}");
        assert!(e.to_string().contains("block size must be nonzero"), "{e}");
    }

    #[test]
    fn zero_bytes_per_token_rejected() {
        let e = KvPool::new(1000, 4, 0).unwrap_err();
        assert!(matches!(e, Error::Config { .. }), "{e}");
        assert!(
            e.to_string().contains("bytes per token must be nonzero"),
            "{e}"
        );
    }

    #[test]
    fn gpt_neo_footprints_are_plausible() {
        let m = ModelConfig::gpt_neo_1_3b();
        // 24 layers × 2 × 2048 × 2B = 192 KiB per token.
        assert_eq!(kv_bytes_per_token(&m), 196_608);
        // ~1.2B parameters of the 1.3B total (embeddings excluded).
        let params = weight_bytes(&m) / 2;
        assert!((1_000_000_000..1_400_000_000).contains(&params), "{params}");
    }
}
