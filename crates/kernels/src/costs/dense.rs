//! Cost profiles for the dense-attention kernels (BERT, GPT-Neo).

use super::{
    AttnDims, TileConfig, EXP_FLOP_EQUIV, FP16_BYTES, FUSED_MATMUL_EFFICIENCY,
    FUSED_MATMUL_F16ACC_EFFICIENCY, GS_PROLOGUE_EFFICIENCY, MATMUL_ROOFLINE_EFFICIENCY,
    SOFTMAX_PHASE_EFFICIENCY, STREAM_EFFICIENCY,
};
use resoftmax_gpusim::{
    AccumFormat, KernelCategory, KernelDesc, KernelMeta, ParallelSplit, Scope, TbShape, TbWork,
};

/// Base metadata shared by every dense attention kernel.
fn attn_meta(dims: &AttnDims) -> KernelMeta {
    KernelMeta {
        rows: Some(dims.l),
        kv_len: Some(dims.kv_len),
        d_head: Some(dims.d_head),
        instances: Some(dims.instances()),
        ..KernelMeta::default()
    }
}

/// What the `Q·Kᵀ` MatMul's epilogue computes in addition to the MMA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QkEpilogue {
    /// Raw scores only (HuggingFace-style; scale/mask run as separate
    /// kernels).
    None,
    /// Scale + mask fused (TensorRT/DeepSpeed-style baseline, §4).
    ScaleMask,
    /// Scale + mask + Local Softmax fused — the paper's contribution (SDF).
    /// Writes `x'`, `m'`, `d'` instead of raw scores.
    ScaleMaskLocalSoftmax,
    /// [`ScaleMaskLocalSoftmax`](Self::ScaleMaskLocalSoftmax) with the LS
    /// partial sums accumulated in binary16 instead of binary32: cheaper
    /// (halved accumulator registers), admissible only where the analyzer
    /// certifies the resulting error bound.
    ScaleMaskLocalSoftmaxF16Acc,
}

impl QkEpilogue {
    /// `true` for the epilogues that fuse a Local Softmax.
    pub fn fuses_ls(self) -> bool {
        matches!(
            self,
            QkEpilogue::ScaleMaskLocalSoftmax | QkEpilogue::ScaleMaskLocalSoftmaxF16Acc
        )
    }
}

/// What the `P·V` MatMul's prologue computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PvPrologue {
    /// Reads finished probabilities (baseline).
    None,
    /// Reads `x'` and `r'`, applying Global Scaling on the fly (SDF).
    GlobalScaling,
}

/// Cost of the `Q·Kᵀ` attention-score MatMul.
///
/// Per-TB traffic: Q and K fragments amortized (both fit L2 within the
/// kernel), the output tile streamed out. Tensor-core FLOPs `2·m·n·d_head`
/// per tile.
pub fn matmul_qk(
    dims: &AttnDims,
    tile: TileConfig,
    scope: Scope,
    epilogue: QkEpilogue,
) -> KernelDesc {
    let inst = dims.instances();
    let tiles_r = dims.l.div_ceil(tile.m) as u64;
    let tiles_c = dims.kv_len.div_ceil(tile.n) as u64;
    let grid = inst * tiles_r * tiles_c;

    let q_once = dims.q_bytes();
    let k_once = dims.kv_bytes();
    let tile_out_bytes = (tile.m * tile.n * FP16_BYTES) as f64;
    let per_tb_reads = (q_once + k_once) as f64 / grid as f64;

    let mn = (tile.m * tile.n) as f64;
    let (name_sfx, category, cuda_flops, extra_write, efficiency) = match epilogue {
        QkEpilogue::None => (
            "",
            KernelCategory::MatMulQk,
            0.0,
            0.0,
            MATMUL_ROOFLINE_EFFICIENCY,
        ),
        QkEpilogue::ScaleMask => (
            "+scale+mask",
            KernelCategory::MatMulQk,
            2.0 * mn,
            0.0,
            MATMUL_ROOFLINE_EFFICIENCY,
        ),
        QkEpilogue::ScaleMaskLocalSoftmax => (
            "+scale+mask+ls",
            KernelCategory::MatMulQk,
            // scale+mask (2) + exp (SFU) + max/sum reductions (~4) per element
            (2.0 + EXP_FLOP_EQUIV + 4.0) * mn,
            // m' and d': one value per row of the tile each
            (2 * tile.m * FP16_BYTES) as f64,
            FUSED_MATMUL_EFFICIENCY,
        ),
        QkEpilogue::ScaleMaskLocalSoftmaxF16Acc => (
            "+scale+mask+ls16",
            KernelCategory::MatMulQk,
            (2.0 + EXP_FLOP_EQUIV + 4.0) * mn,
            (2 * tile.m * FP16_BYTES) as f64,
            FUSED_MATMUL_F16ACC_EFFICIENCY,
        ),
    };

    let work = TbWork {
        cuda_flops,
        tensor_flops: 2.0 * mn * dims.d_head as f64,
        dram_read_bytes: per_tb_reads,
        dram_write_bytes: tile_out_bytes + extra_write,
        mem_active_fraction: 1.0,
        efficiency,
    };

    let mut b = KernelDesc::builder(
        format!("matmul_qk{name_sfx}(L={},T={})", dims.l, tile.n),
        category,
    );
    b.shape(TbShape::new(256, 16 * 1024, 128))
        .uniform(grid, work)
        .meta(KernelMeta {
            tile_m: Some(tile.m),
            tile_n: Some(tile.n),
            sub_vector: epilogue.fuses_ls().then_some(tile.n),
            fused_scale_mask: !matches!(epilogue, QkEpilogue::None),
            fused_ls: epilogue.fuses_ls(),
            split: Some(ParallelSplit::OutputTiles),
            accum: Some(match epilogue {
                QkEpilogue::ScaleMaskLocalSoftmaxF16Acc => AccumFormat::Fp16,
                _ => AccumFormat::Fp32,
            }),
            ..attn_meta(dims)
        })
        .reads(scope.id("q"), q_once)
        .reads(scope.id("k"), k_once);
    if epilogue.fuses_ls() {
        b.writes(scope.id("x_prime"), dims.attn_bytes())
            .writes(scope.id("m_prime"), dims.intermediate_bytes(tile.n))
            .writes(scope.id("d_prime"), dims.intermediate_bytes(tile.n));
    } else {
        b.writes(scope.id("scores"), dims.attn_bytes());
    }
    b.build()
}

/// Cost of the `P·V` context MatMul.
///
/// Per-TB traffic: the P (or `x'`) row strip is attention-matrix-sized and
/// streams per block; V is amortized (fits L2 within the kernel).
pub fn matmul_pv(
    dims: &AttnDims,
    tile: TileConfig,
    scope: Scope,
    prologue: PvPrologue,
) -> KernelDesc {
    let inst = dims.instances();
    // Output tiles widen to cover d_head (up to 128) so the P strip is
    // streamed once, as CUTLASS would configure for these shapes.
    let n = dims.d_head.min(128);
    let tiles_r = dims.l.div_ceil(tile.m) as u64;
    let tiles_c = dims.d_head.div_ceil(n) as u64;
    let grid = inst * tiles_r * tiles_c;

    let p_strip = (tile.m * dims.kv_len * FP16_BYTES) as f64;
    let v_once = dims.kv_bytes();
    let ml = (tile.m * dims.kv_len) as f64;

    let (name_sfx, cuda_flops, p_buf, extra_read, efficiency) = match prologue {
        PvPrologue::None => ("", 0.0, "probs", 0.0, MATMUL_ROOFLINE_EFFICIENCY),
        PvPrologue::GlobalScaling => (
            "gs+",
            // one multiply per x' element consumed
            ml,
            "x_prime",
            // r' fragment for the strip: one value per (row, sub-vector)
            (tile.m * (dims.kv_len / tile.n).max(1) * FP16_BYTES) as f64,
            GS_PROLOGUE_EFFICIENCY,
        ),
    };

    let work = TbWork {
        cuda_flops,
        tensor_flops: 2.0 * (tile.m * n) as f64 * dims.kv_len as f64,
        dram_read_bytes: p_strip + extra_read + v_once as f64 / grid as f64,
        dram_write_bytes: (tile.m * n * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency,
    };

    let mut b = KernelDesc::builder(
        format!("{name_sfx}matmul_pv(L={})", dims.l),
        KernelCategory::MatMulPv,
    );
    b.shape(TbShape::new(256, 16 * 1024, 128))
        .uniform(grid, work)
        .meta(KernelMeta {
            tile_m: Some(tile.m),
            tile_n: Some(n),
            sub_vector: matches!(prologue, PvPrologue::GlobalScaling).then_some(tile.n),
            fused_gs: matches!(prologue, PvPrologue::GlobalScaling),
            split: Some(ParallelSplit::OutputTiles),
            accum: Some(AccumFormat::Fp32),
            ..attn_meta(dims)
        })
        .reads(scope.id(p_buf), dims.attn_bytes())
        .reads(scope.id("v"), v_once)
        .writes(scope.id("attn_out"), dims.qkv_bytes());
    if matches!(prologue, PvPrologue::GlobalScaling) {
        b.reads(scope.id("r_prime"), dims.intermediate_bytes(tile.n));
    }
    b.build()
}

/// Cost of the monolithic (row-per-TB) softmax — the TensorRT-style dense
/// baseline: one sweep-resident row per thread block, three logical passes
/// over data held in shared memory, full attention matrix in and out of DRAM.
pub fn softmax_monolithic(dims: &AttnDims, scope: Scope, input: &'static str) -> KernelDesc {
    let rows = dims.l as u64 * dims.instances();
    let row_bytes = (dims.kv_len * FP16_BYTES) as f64;
    let threads = super::row_threads(dims.kv_len);
    let work = TbWork {
        // 5 ops per element (paper §3.1), with the exp weighted as SFU work:
        // max + subtract + exp + accumulate + scale.
        cuda_flops: (EXP_FLOP_EQUIV + 4.0) * dims.kv_len as f64,
        tensor_flops: 0.0,
        dram_read_bytes: row_bytes,
        dram_write_bytes: row_bytes,
        mem_active_fraction: 1.0,
        // The three strictly-ordered passes (max, normalizer, scale) are
        // separated by block-wide barriers, idling the memory pipe between
        // phases — row-softmax kernels reach ~60% of streaming bandwidth.
        efficiency: SOFTMAX_PHASE_EFFICIENCY,
    };
    KernelDesc::builder(format!("softmax(L={})", dims.l), KernelCategory::Softmax)
        .shape(TbShape::new(threads, (dims.kv_len * FP16_BYTES) as u32, 40))
        .uniform(rows, work)
        .meta(KernelMeta {
            split: Some(ParallelSplit::OutputRows),
            accum: Some(AccumFormat::Fp32),
            ..attn_meta(dims)
        })
        .reads(scope.id(input), dims.attn_bytes())
        .writes(scope.id("probs"), dims.attn_bytes())
        .build()
}

/// Cost of the standalone LS kernel (softmax decomposition without fusion,
/// the paper's intermediate "SD" configuration): square `t × t` tiles, one
/// per thread block. Partial sums accumulate in binary32.
pub fn local_softmax(dims: &AttnDims, t: usize, scope: Scope, input: &'static str) -> KernelDesc {
    local_softmax_accum(dims, t, scope, input, AccumFormat::Fp32)
}

/// [`local_softmax`] with an explicit partial-sum accumulator format; the
/// binary16 variant is only admissible where the analyzer certifies its
/// error bound.
pub fn local_softmax_accum(
    dims: &AttnDims,
    t: usize,
    scope: Scope,
    input: &'static str,
    accum: AccumFormat,
) -> KernelDesc {
    let tiles = dims.l.div_ceil(t) as u64 * dims.kv_len.div_ceil(t) as u64 * dims.instances();
    let tile_bytes = (t * t * FP16_BYTES) as f64;
    let work = TbWork {
        cuda_flops: (EXP_FLOP_EQUIV + 5.0) * (t * t) as f64,
        tensor_flops: 0.0,
        dram_read_bytes: tile_bytes,
        dram_write_bytes: tile_bytes + (2 * t * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    let name_sfx = match accum {
        AccumFormat::Fp32 => "",
        AccumFormat::Fp16 => "16",
    };
    KernelDesc::builder(
        format!("ls{name_sfx}(L={},T={t})", dims.l),
        KernelCategory::LocalSoftmax,
    )
    .shape(TbShape::new(256, (t * t * FP16_BYTES) as u32, 40))
    .uniform(tiles, work)
    .meta(KernelMeta {
        sub_vector: Some(t),
        split: Some(ParallelSplit::RowSegments),
        accum: Some(accum),
        ..attn_meta(dims)
    })
    .reads(scope.id(input), dims.attn_bytes())
    .writes(scope.id("x_prime"), dims.attn_bytes())
    .writes(scope.id("m_prime"), dims.intermediate_bytes(t))
    .writes(scope.id("d_prime"), dims.intermediate_bytes(t))
    .build()
}

/// Cost of the IR kernel: reduces `m'`,`d'` into `r'`. Tiny next to LS/GS:
/// its share of the decomposed softmax is banded by the Fig. 5 claims of
/// `resoftmax_core::claims`.
pub fn inter_reduction(dims: &AttnDims, t: usize, scope: Scope) -> KernelDesc {
    let n_sv = (dims.kv_len / t).max(1);
    let rows_per_tb = 64u64;
    let total_rows = dims.l as u64 * dims.instances();
    let grid = total_rows.div_ceil(rows_per_tb);
    let row_in = (2 * n_sv * FP16_BYTES) as f64; // m' + d'
    let row_out = (n_sv * FP16_BYTES) as f64; // r'
    let work = TbWork {
        cuda_flops: rows_per_tb as f64 * n_sv as f64 * (EXP_FLOP_EQUIV + 4.0),
        tensor_flops: 0.0,
        dram_read_bytes: rows_per_tb as f64 * row_in,
        dram_write_bytes: rows_per_tb as f64 * row_out,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("ir(L={},T={t})", dims.l),
        KernelCategory::InterReduction,
    )
    .shape(TbShape::new(
        128,
        (2 * rows_per_tb as usize * n_sv * FP16_BYTES) as u32,
        32,
    ))
    .uniform(grid, work)
    .meta(KernelMeta {
        sub_vector: Some(t),
        split: Some(ParallelSplit::OutputRows),
        accum: Some(AccumFormat::Fp32),
        ..attn_meta(dims)
    })
    .reads(scope.id("m_prime"), dims.intermediate_bytes(t))
    .reads(scope.id("d_prime"), dims.intermediate_bytes(t))
    .writes(scope.id("r_prime"), dims.intermediate_bytes(t))
    .build()
}

/// Cost of the standalone GS kernel: elementwise scaling of `x'` by `r'`.
pub fn global_scaling(dims: &AttnDims, t: usize, scope: Scope) -> KernelDesc {
    let elems_per_tb = 2048usize;
    let total = dims.l as u64 * dims.kv_len as u64 * dims.instances();
    let grid = total.div_ceil(elems_per_tb as u64);
    let work = TbWork {
        cuda_flops: elems_per_tb as f64,
        tensor_flops: 0.0,
        dram_read_bytes: (elems_per_tb * FP16_BYTES) as f64
            + (elems_per_tb / t.max(1) * FP16_BYTES) as f64,
        dram_write_bytes: (elems_per_tb * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("gs(L={},T={t})", dims.l),
        KernelCategory::GlobalScaling,
    )
    .shape(TbShape::new(256, 0, 24))
    .uniform(grid, work)
    .meta(KernelMeta {
        sub_vector: Some(t),
        split: Some(ParallelSplit::Elements),
        ..attn_meta(dims)
    })
    .reads(scope.id("x_prime"), dims.attn_bytes())
    .reads(scope.id("r_prime"), dims.intermediate_bytes(t))
    .writes(scope.id("probs"), dims.attn_bytes())
    .build()
}

/// Extension: cost of a fully fused online-softmax attention kernel
/// (FlashAttention-style — see `crate::online`): one thread block per
/// `tile.m`-row Q block streams all K/V tiles, so the attention matrix never
/// touches DRAM at all. The price: a large working set (K/V tiles plus an
/// f32 output accumulator in shared memory/registers) that caps occupancy,
/// and the same SFU-heavy inner loop as the LS epilogue.
pub fn fused_mha_online(dims: &AttnDims, tile: TileConfig, scope: Scope) -> KernelDesc {
    let inst = dims.instances();
    let grid = dims.l.div_ceil(tile.m) as u64 * inst;

    let q_once = dims.q_bytes();
    let k_once = dims.kv_bytes();
    let v_once = dims.kv_bytes();
    let ml = (tile.m * dims.kv_len) as f64;

    let work = TbWork {
        // exp + running-max/normalizer update + accumulator rescale
        cuda_flops: (EXP_FLOP_EQUIV + 8.0) * ml,
        // both MatMuls: 2·m·L·d each
        tensor_flops: 4.0 * ml * dims.d_head as f64,
        dram_read_bytes: (q_once + k_once + v_once) as f64 / grid as f64,
        dram_write_bytes: (tile.m * dims.d_head * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency: FUSED_MATMUL_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("fused_mha_online(L={},T={})", dims.l, tile.n),
        KernelCategory::FusedAttention,
    )
    // K/V tile double-buffers + f32 accumulator tile: a big footprint that
    // limits residency (FlashAttention v1-era occupancy) while still fitting
    // the smallest evaluation GPU's 48 KB of usable shared memory.
    .shape(TbShape::new(256, 32 * 1024, 120))
    .uniform(grid, work)
    .meta(KernelMeta {
        tile_m: Some(tile.m),
        tile_n: Some(tile.n),
        split: Some(ParallelSplit::OutputRows),
        accum: Some(AccumFormat::Fp32),
        ..attn_meta(dims)
    })
    .reads(scope.id("q"), q_once)
    .reads(scope.id("k"), k_once)
    .reads(scope.id("v"), v_once)
    .writes(scope.id("attn_out"), dims.qkv_bytes())
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    const L0: Scope = Scope::Layer(0);

    fn bert_dims() -> AttnDims {
        AttnDims::new(4096, 64, 16, 1)
    }

    #[test]
    fn qk_traffic_dominated_by_output() {
        let k = matmul_qk(
            &bert_dims(),
            TileConfig::default(),
            L0,
            QkEpilogue::ScaleMask,
        );
        let total = k.total_dram_bytes();
        let out = 512.0 * 1024.0 * 1024.0;
        assert!(total >= out, "writes the 512MB attention matrix");
        assert!(total < out * 1.1, "Q/K amortized: {total}");
        // 2·L²·d FLOPs per instance
        let flops = k.total_flops();
        let expected = 2.0 * 4096.0 * 4096.0 * 64.0 * 16.0;
        assert!(
            (flops - expected).abs() / expected < 0.05,
            "{flops} vs {expected}"
        );
    }

    #[test]
    fn ls_epilogue_adds_cuda_work_and_intermediates() {
        let plain = matmul_qk(
            &bert_dims(),
            TileConfig::default(),
            L0,
            QkEpilogue::ScaleMask,
        );
        let fused = matmul_qk(
            &bert_dims(),
            TileConfig::default(),
            L0,
            QkEpilogue::ScaleMaskLocalSoftmax,
        );
        assert!(fused.total_flops() > plain.total_flops());
        assert!(fused.total_dram_bytes() > plain.total_dram_bytes());
        // but the extra m'/d' bytes are ~1/32 of the attention matrix (2/T·64)
        let extra = fused.total_dram_bytes() - plain.total_dram_bytes();
        assert!(extra < 0.05 * plain.total_dram_bytes(), "extra {extra}");
        assert!(fused.writes.iter().any(|b| b.id == "l0.m_prime"));
    }

    #[test]
    fn f16_accum_epilogue_is_cheaper_and_declares_its_format() {
        let f32acc = matmul_qk(
            &bert_dims(),
            TileConfig::new(64, 16),
            L0,
            QkEpilogue::ScaleMaskLocalSoftmax,
        );
        let f16acc = matmul_qk(
            &bert_dims(),
            TileConfig::new(64, 16),
            L0,
            QkEpilogue::ScaleMaskLocalSoftmaxF16Acc,
        );
        // Identical bytes and FLOPs; only the efficiency (and thus time)
        // and the declared accumulator format differ.
        assert_eq!(f16acc.total_dram_bytes(), f32acc.total_dram_bytes());
        assert_eq!(f16acc.total_flops(), f32acc.total_flops());
        assert_eq!(f16acc.meta.accum, Some(AccumFormat::Fp16));
        assert_eq!(f32acc.meta.accum, Some(AccumFormat::Fp32));
        assert!(f16acc.meta.fused_ls && f16acc.meta.sub_vector == Some(16));
        assert!(f16acc.name.contains("ls16"));

        let ls16 = local_softmax_accum(&bert_dims(), 16, L0, "scores", AccumFormat::Fp16);
        assert_eq!(ls16.meta.accum, Some(AccumFormat::Fp16));
        assert!(ls16.name.starts_with("ls16"));
        let ls = local_softmax(&bert_dims(), 16, L0, "scores");
        assert_eq!(ls.meta.accum, Some(AccumFormat::Fp32));
        assert_eq!(ls.total_dram_bytes(), ls16.total_dram_bytes());
    }

    #[test]
    fn pv_streams_attention_matrix_once() {
        let k = matmul_pv(&bert_dims(), TileConfig::default(), L0, PvPrologue::None);
        let reads = k.tbs.total_read_bytes();
        let attn = 512.0 * 1024.0 * 1024.0;
        assert!(reads >= attn, "P streamed: {reads}");
        assert!(reads < attn * 1.1, "V amortized: {reads}");
    }

    #[test]
    fn gs_prologue_reads_x_prime_and_r_prime() {
        let k = matmul_pv(
            &bert_dims(),
            TileConfig::default(),
            L0,
            PvPrologue::GlobalScaling,
        );
        assert!(k.reads.iter().any(|b| b.id == "l0.x_prime"));
        assert!(k.reads.iter().any(|b| b.id == "l0.r_prime"));
        assert!(!k.reads.iter().any(|b| b.id == "l0.probs"));
    }

    #[test]
    fn softmax_sweeps_attention_matrix_twice() {
        let k = softmax_monolithic(&bert_dims(), L0, "scores");
        let attn = 512.0 * 1024.0 * 1024.0;
        assert_eq!(k.total_dram_bytes(), 2.0 * attn);
        assert_eq!(k.tbs.count(), 4096 * 16);
        // paper: operational intensity ≈ 2.5 Op/B with the plain 5-op count;
        // our SFU-weighted count is higher but still firmly memory-bound
        // (< 25 FLOP/B, the paper's machine-balance threshold).
        let intensity = k.total_flops() / k.total_dram_bytes();
        assert!(intensity < 25.0, "memory bound: {intensity}");
    }

    #[test]
    fn decomposition_doubles_softmax_traffic_before_fusion() {
        // Paper §5.1: "By decomposing the softmax layer, the off-chip memory
        // traffic to the attention matrix is doubled."
        let d = bert_dims();
        let mono = softmax_monolithic(&d, L0, "scores").total_dram_bytes();
        let sd: f64 = [
            local_softmax(&d, 64, L0, "scores").total_dram_bytes(),
            inter_reduction(&d, 64, L0).total_dram_bytes(),
            global_scaling(&d, 64, L0).total_dram_bytes(),
        ]
        .iter()
        .sum();
        assert!(sd > 1.9 * mono, "sd {sd} vs mono {mono}");
        assert!(sd < 2.3 * mono);
    }

    #[test]
    fn ir_is_tiny() {
        let d = bert_dims();
        let ir = inter_reduction(&d, 64, L0).total_dram_bytes();
        let mono = softmax_monolithic(&d, L0, "scores").total_dram_bytes();
        assert!(ir < 0.05 * mono, "IR {ir} vs softmax {mono}");
    }

    #[test]
    fn grids_cover_edge_cases() {
        // Non-divisible L still produces a covering grid.
        let d = AttnDims::new(100, 64, 2, 1);
        let k = matmul_qk(&d, TileConfig::default(), L0, QkEpilogue::None);
        assert_eq!(k.tbs.count(), 2 * 2 * 2);
        let s = softmax_monolithic(&d, L0, "scores");
        assert_eq!(s.tbs.count(), 200);
    }
}

#[cfg(test)]
mod online_tests {
    use super::*;

    const L0: Scope = Scope::Layer(0);

    #[test]
    fn fused_mha_moves_only_qkv_and_output() {
        let d = AttnDims::new(4096, 64, 16, 1);
        let k = fused_mha_online(&d, TileConfig::default(), L0);
        // 3 inputs + 1 output, each 8 MB: no attention-matrix traffic at all.
        let expected = 4.0 * d.qkv_bytes() as f64;
        let total = k.total_dram_bytes();
        assert!(
            (total - expected).abs() / expected < 0.01,
            "traffic {total} vs {expected}"
        );
        // both MatMuls' FLOPs in one kernel
        let flops = k.tbs.total_tensor_flops();
        let expected_flops = 4.0 * 4096.0 * 4096.0 * 64.0 * 16.0;
        assert!((flops - expected_flops).abs() / expected_flops < 0.05);
        assert_eq!(k.category, KernelCategory::FusedAttention);
    }

    #[test]
    fn fused_mha_cross_attention_streams_kv_side() {
        let d = AttnDims::cross(1024, 4096, 64, 16, 1);
        let k = fused_mha_online(&d, TileConfig::default(), L0);
        let expected = (d.q_bytes() + 2 * d.kv_bytes() + d.q_bytes()) as f64;
        assert!((k.total_dram_bytes() - expected).abs() / expected < 0.01);
    }
}
