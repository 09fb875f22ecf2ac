//! Cost profiles: [`resoftmax_gpusim::KernelDesc`] generators for every
//! kernel in the catalog.
//!
//! Each generator derives the kernel's grid, per-thread-block resources and
//! per-block work *from the same tiling the numeric implementations use*, so
//! the performance model and the mathematics cannot drift apart.
//!
//! Conventions shared by all generators:
//!
//! * FP16 storage everywhere (2 bytes/element), matching the paper's
//!   evaluation setup.
//! * Transcendentals cost [`EXP_FLOP_EQUIV`] CUDA-FLOP equivalents — GPU
//!   `exp` runs on the SFU pipe at a fraction of FMA throughput, which is
//!   what makes LS/GS epilogues add a visible 28–55% to fused MatMul time
//!   (§5.1) despite being "a few ops per element".
//! * Per-block DRAM traffic counts each operand once per *cache lifetime*:
//!   operands small enough to stay L2-resident within a kernel (Q/K/V
//!   fragments, weights) are amortized across the grid; attention-matrix-
//!   sized operands are streamed per block. Inter-kernel reuse is the
//!   simulator's L2 model's job, driven by the buffer declarations: each
//!   attention builder names its buffers within the caller's
//!   [`Scope`](resoftmax_gpusim::Scope) (`l3.scores`), and the FC, elementwise
//!   and LayerNorm builders take [`BufferId`](resoftmax_gpusim::BufferId)s,
//!   since a layer-boundary kernel reads one layer and writes the next.

pub mod common;
pub mod dense;
pub mod sparse;
pub mod sparse_training;
pub mod training;

use serde::{Deserialize, Serialize};

/// Bytes per stored element (half precision).
pub const FP16_BYTES: usize = 2;

/// CUDA-FLOP equivalents of one transcendental (exp): SFU `MUFU.EX2` issues
/// far below FMA rate but interleaves with loads; 16 is the effective
/// per-element weight once that overlap is accounted for. The *serialized*
/// cost a fused epilogue adds to a MatMul is modeled separately via
/// [`FUSED_MATMUL_EFFICIENCY`].
pub const EXP_FLOP_EQUIV: f64 = 16.0;

/// Roofline efficiencies: the fraction of peak rates each kernel class
/// achieves, calibrated jointly so the paper's Fig. 2 breakdown, the SD/SDF
/// speedups of Fig. 8, and the "+28–55% fused-MatMul time" observation are
/// simultaneously consistent (they pin these values tightly — see
/// EXPERIMENTS.md §Calibration).
///
/// Dense/tensor-core MatMul and FC kernels: pipeline drain, epilogue and tile
/// quantization keep real CUTLASS/cuBLAS kernels near 3/4 of roofline.
pub const MATMUL_ROOFLINE_EFFICIENCY: f64 = 0.75;

/// Monolithic (row-per-block) softmax: the three strictly-ordered passes are
/// separated by block-wide barriers that idle the memory pipe between phases.
pub const SOFTMAX_PHASE_EFFICIENCY: f64 = 0.6;

/// Additional factor on the *block-sparse* baseline softmax: the row is
/// traversed through block-index indirection (segment starts per retained
/// block), on top of the phase barriers.
pub const SPARSE_GATHER_EFFICIENCY: f64 = 0.85;

/// Single-pass streaming kernels (standalone LS/IR/GS, elementwise,
/// LayerNorm): near-peak.
pub const STREAM_EFFICIENCY: f64 = 0.93;

/// MatMul with a fused LS *epilogue*: the SFU exponentials and reduction
/// state serialize against the MMA pipeline and cost occupancy, leaving the
/// fused kernel ~45% slower than the plain MatMul — the top of the paper's
/// §5.1 band ("the execution time of MatMul increases by approximately
/// 28%∼55%"): 0.75 × 0.70.
pub const FUSED_MATMUL_EFFICIENCY: f64 = 0.52;

/// MatMul with a fused LS epilogue whose partial sums accumulate in
/// binary16 instead of binary32: halving the accumulator register
/// pressure lifts occupancy enough to claw back a few points of the fused
/// penalty (0.75 × 0.75) — but the variant is only *legal* where the
/// analyzer's numerics pass certifies its error bound (small `T`).
pub const FUSED_MATMUL_F16ACC_EFFICIENCY: f64 = 0.56;

/// MatMul with a fused GS-style *prologue* (elementwise multiply on the
/// streamed operand, no transcendentals): a milder ~30% slowdown — the
/// bottom of the paper's 28–55% band: 0.75 × 0.77.
pub const GS_PROLOGUE_EFFICIENCY: f64 = 0.58;

/// Dimensions of one multi-head attention invocation.
///
/// Self-attention has a square `L × L` attention matrix; *cross*-attention
/// (decoder queries over encoder keys, §2.1) is rectangular `L × L_kv` —
/// construct with [`AttnDims::cross`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttnDims {
    /// Query-side sequence length `L` (attention-matrix rows).
    pub l: usize,
    /// Key/value-side sequence length (attention-matrix columns). Equals
    /// `l` for self-attention.
    pub kv_len: usize,
    /// Per-head hidden size `D_head`.
    pub d_head: usize,
    /// Number of heads `H_num`.
    pub heads: usize,
    /// Batch size.
    pub batch: usize,
}

impl AttnDims {
    /// Self-attention dimensions (`kv_len == l`).
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(l: usize, d_head: usize, heads: usize, batch: usize) -> Self {
        Self::cross(l, l, d_head, heads, batch)
    }

    /// Cross-attention dimensions: `l` queries over `kv_len` keys/values.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn cross(l: usize, kv_len: usize, d_head: usize, heads: usize, batch: usize) -> Self {
        assert!(
            l > 0 && kv_len > 0 && d_head > 0 && heads > 0 && batch > 0,
            "dimensions must be nonzero"
        );
        AttnDims {
            l,
            kv_len,
            d_head,
            heads,
            batch,
        }
    }

    /// Independent attention instances (`heads × batch`).
    pub fn instances(&self) -> u64 {
        (self.heads * self.batch) as u64
    }

    /// Bytes of one full attention matrix across all instances.
    pub fn attn_bytes(&self) -> u64 {
        (self.l * self.kv_len * FP16_BYTES) as u64 * self.instances()
    }

    /// Bytes of the query-side `L × D_head` operand across all instances.
    pub fn q_bytes(&self) -> u64 {
        (self.l * self.d_head * FP16_BYTES) as u64 * self.instances()
    }

    /// Bytes of one key/value-side `L_kv × D_head` operand across all
    /// instances.
    pub fn kv_bytes(&self) -> u64 {
        (self.kv_len * self.d_head * FP16_BYTES) as u64 * self.instances()
    }

    /// Bytes of one `L × D_head` operand (Q or the SDA output) across all
    /// instances. Retained alias of [`AttnDims::q_bytes`] for self-attention
    /// call sites.
    pub fn qkv_bytes(&self) -> u64 {
        self.q_bytes()
    }

    /// Bytes of the `m'`/`d'`/`r'` intermediates for sub-vector length `t`
    /// across all instances (one value per row per sub-vector of the
    /// key-side axis).
    pub fn intermediate_bytes(&self, t: usize) -> u64 {
        ((self.l * (self.kv_len / t).max(1)) * FP16_BYTES) as u64 * self.instances()
    }
}

/// MatMul output-tile configuration. The tile width `n` doubles as the LS
/// sub-vector length `T` when LS is fused (§3.3: "setting T of the LS kernel
/// equal to the output tile width of the MatMul kernel").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TileConfig {
    /// Tile height (rows of the output per thread block).
    pub m: usize,
    /// Tile width — the paper's `T`.
    pub n: usize,
}

impl Default for TileConfig {
    /// 64×64 tiles: the paper observes `T ≥ 64` in transformer MatMuls.
    fn default() -> Self {
        TileConfig { m: 64, n: 64 }
    }
}

impl TileConfig {
    /// Creates a tile configuration.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(m: usize, n: usize) -> Self {
        assert!(m > 0 && n > 0, "tile dims must be nonzero");
        TileConfig { m, n }
    }
}

/// Thread count for a row-resident kernel over `elems` elements: one thread
/// per four elements, warp-aligned (a multiple of 32), within `[32, 1024]`.
/// Real row kernels launch whole warps; a grid of, say, 65 threads would
/// leave 31 lanes of the third warp idle while still occupying its scheduler
/// slot, so occupancy math must see the rounded figure.
pub fn row_threads(elems: usize) -> u32 {
    ((elems / 4).clamp(32, 1024).next_multiple_of(32)).min(1024) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_byte_math() {
        // BERT-large at L=4096: 16 heads, d_head 64, batch 1.
        let d = AttnDims::new(4096, 64, 16, 1);
        assert_eq!(d.instances(), 16);
        // paper §2.3: "the attention matrix is 512MB in size for a single
        // batch assuming a half-precision floating-point number per element"
        assert_eq!(d.attn_bytes(), 512 * 1024 * 1024);
        assert_eq!(d.qkv_bytes(), 8 * 1024 * 1024);
        // m'/d' at T=64: 1/64th of one attention-matrix plane per instance
        assert_eq!(d.intermediate_bytes(64), 512 * 1024 * 1024 / 64);
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_dims_panic() {
        let _ = AttnDims::new(0, 64, 16, 1);
    }

    #[test]
    fn tile_default_matches_paper_observation() {
        let t = TileConfig::default();
        assert!(t.n >= 64);
    }
}
