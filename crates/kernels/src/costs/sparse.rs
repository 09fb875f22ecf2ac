//! Cost profiles for the block-sparse attention kernels (BigBird,
//! Longformer), built on a [`resoftmax_sparse::BlockLayout`].
//!
//! Two performance phenomena from the paper live here:
//!
//! * The **baseline sparse softmax** allocates every thread block for the
//!   worst-case row (full `L`) while only the row's support issues memory
//!   traffic — `mem_active_fraction = support / L`, which starves bandwidth
//!   utilization (§5.1). Decomposition (LS per retained block) restores
//!   `mem_active_fraction = 1`.
//! * The **`P·V` MatMul** assigns one thread block per output block-row,
//!   whose work scales with that row's retained-block count — the
//!   load-imbalance that batching alleviates (§5.2). These kernels emit
//!   [`TbGroup`]s so the simulator's fluid path sees the heterogeneity.

use super::{
    AttnDims, EXP_FLOP_EQUIV, FP16_BYTES, FUSED_MATMUL_EFFICIENCY, GS_PROLOGUE_EFFICIENCY,
    MATMUL_ROOFLINE_EFFICIENCY, SOFTMAX_PHASE_EFFICIENCY, SPARSE_GATHER_EFFICIENCY,
    STREAM_EFFICIENCY,
};
use resoftmax_gpusim::{
    KernelCategory, KernelDesc, KernelMeta, ParallelSplit, Scope, TbGroup, TbShape, TbWork,
};
use resoftmax_sparse::BlockLayout;

/// Base metadata shared by every block-sparse attention kernel.
fn bs_meta(layout: &BlockLayout, dims: &AttnDims) -> KernelMeta {
    KernelMeta {
        rows: Some(dims.l),
        kv_len: Some(dims.kv_len),
        d_head: Some(dims.d_head),
        instances: Some(dims.instances()),
        sparse_block: Some(layout.block()),
        ..KernelMeta::default()
    }
}

fn nnz_bytes(layout: &BlockLayout, dims: &AttnDims) -> u64 {
    (layout.nnz_elements() * FP16_BYTES) as u64 * dims.instances()
}

fn intermediate_nnz_bytes(layout: &BlockLayout, dims: &AttnDims) -> u64 {
    // one m'/d'/r' value per (row, retained block of its block-row)
    let per_plane: usize = layout
        .row_counts()
        .iter()
        .map(|&cnt| cnt * layout.block())
        .sum();
    (per_plane * FP16_BYTES) as u64 * dims.instances()
}

/// Whether the block-sparse `Q·Kᵀ` epilogue includes Local Softmax.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BsQkEpilogue {
    /// Scale + zero-block masking only (DeepSpeed baseline).
    ScaleMask,
    /// Scale + mask + LS (SDF).
    ScaleMaskLocalSoftmax,
}

/// Block-sparse `Q·Kᵀ` (SDDMM): one thread block per retained block —
/// uniform work, so a plain grid.
pub fn bs_matmul_qk(
    layout: &BlockLayout,
    dims: &AttnDims,
    scope: Scope,
    epilogue: BsQkEpilogue,
) -> KernelDesc {
    let b = layout.block();
    let grid = layout.nnz_blocks() as u64 * dims.instances();
    let bb = (b * b) as f64;
    let q_once = dims.qkv_bytes();
    let k_once = dims.qkv_bytes();

    let (sfx, cuda, extra_write, efficiency) = match epilogue {
        BsQkEpilogue::ScaleMask => ("", 2.0 * bb, 0.0, MATMUL_ROOFLINE_EFFICIENCY),
        BsQkEpilogue::ScaleMaskLocalSoftmax => (
            "+ls",
            (2.0 + EXP_FLOP_EQUIV + 4.0) * bb,
            (2 * b * FP16_BYTES) as f64,
            FUSED_MATMUL_EFFICIENCY,
        ),
    };

    let work = TbWork {
        cuda_flops: cuda,
        tensor_flops: 2.0 * bb * dims.d_head as f64,
        dram_read_bytes: (q_once + k_once) as f64 / grid as f64,
        dram_write_bytes: bb * FP16_BYTES as f64 + extra_write,
        mem_active_fraction: 1.0,
        efficiency,
    };
    let mut builder = KernelDesc::builder(
        format!("bs_matmul_qk{sfx}(L={},b={b})", dims.l),
        KernelCategory::MatMulQk,
    );
    builder
        .shape(TbShape::new(256, 16 * 1024, 128))
        .uniform(grid, work)
        .meta(KernelMeta {
            tile_m: Some(b),
            tile_n: Some(b),
            sub_vector: matches!(epilogue, BsQkEpilogue::ScaleMaskLocalSoftmax).then_some(b),
            fused_scale_mask: true,
            fused_ls: matches!(epilogue, BsQkEpilogue::ScaleMaskLocalSoftmax),
            split: Some(ParallelSplit::OutputTiles),
            ..bs_meta(layout, dims)
        })
        .reads(scope.id("q"), q_once)
        .reads(scope.id("k"), k_once);
    match epilogue {
        BsQkEpilogue::ScaleMaskLocalSoftmax => {
            builder
                .writes(scope.id("x_prime"), nnz_bytes(layout, dims))
                .writes(scope.id("m_prime"), intermediate_nnz_bytes(layout, dims))
                .writes(scope.id("d_prime"), intermediate_nnz_bytes(layout, dims));
        }
        BsQkEpilogue::ScaleMask => {
            builder.writes(scope.id("scores"), nnz_bytes(layout, dims));
        }
    }
    builder.build()
}

/// Baseline block-sparse softmax (DeepSpeed-style): one thread block per row,
/// *allocated for the worst-case full row* (§5.1: "each TB is allocated
/// memory space equal to the size of the row vector in the worst case"),
/// while only the row's support moves data.
pub fn bs_softmax_baseline(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let groups: Vec<TbGroup> = layout
        .row_counts()
        .iter()
        .map(|&cnt| {
            let support = cnt * b; // elements in each of this block-row's rows
            let bytes = (support * FP16_BYTES) as f64;
            TbGroup::new(
                TbWork {
                    cuda_flops: (EXP_FLOP_EQUIV + 4.0) * support as f64,
                    tensor_flops: 0.0,
                    dram_read_bytes: bytes,
                    dram_write_bytes: bytes,
                    // Worst-case thread allocation (§5.1): only the support
                    // issues memory instructions.
                    mem_active_fraction: support as f64 / dims.l as f64,
                    // Phase barriers plus block-index gather indirection.
                    efficiency: SOFTMAX_PHASE_EFFICIENCY * SPARSE_GATHER_EFFICIENCY,
                },
                b as u64 * dims.instances(),
            )
        })
        .collect();
    KernelDesc::builder(
        format!("bs_softmax(L={},b={b})", dims.l),
        KernelCategory::Softmax,
    )
    // worst-case allocation: threads and shared memory sized for L
    .shape(TbShape::new(
        super::row_threads(dims.l),
        (dims.l * FP16_BYTES) as u32,
        40,
    ))
    .grouped(groups)
    .meta(KernelMeta {
        split: Some(ParallelSplit::OutputRows),
        ..bs_meta(layout, dims)
    })
    .reads(scope.id("scores"), nnz_bytes(layout, dims))
    .writes(scope.id("probs"), nnz_bytes(layout, dims))
    .build()
}

/// Standalone block-sparse LS (the SD configuration): one thread block per
/// retained block — allocation matches the actual work, restoring bandwidth
/// utilization.
pub fn bs_local_softmax(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let grid = layout.nnz_blocks() as u64 * dims.instances();
    let bb = (b * b * FP16_BYTES) as f64;
    let work = TbWork {
        cuda_flops: (EXP_FLOP_EQUIV + 5.0) * (b * b) as f64,
        tensor_flops: 0.0,
        dram_read_bytes: bb,
        dram_write_bytes: bb + (2 * b * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("bs_ls(L={},b={b})", dims.l),
        KernelCategory::LocalSoftmax,
    )
    .shape(TbShape::new(256, (b * b * FP16_BYTES) as u32, 40))
    .uniform(grid, work)
    .meta(KernelMeta {
        sub_vector: Some(b),
        split: Some(ParallelSplit::RowSegments),
        ..bs_meta(layout, dims)
    })
    .reads(scope.id("scores"), nnz_bytes(layout, dims))
    .writes(scope.id("x_prime"), nnz_bytes(layout, dims))
    .writes(scope.id("m_prime"), intermediate_nnz_bytes(layout, dims))
    .writes(scope.id("d_prime"), intermediate_nnz_bytes(layout, dims))
    .build()
}

/// Block-sparse IR: per-row reduction over that row's retained blocks.
pub fn bs_inter_reduction(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let groups: Vec<TbGroup> = layout
        .row_counts()
        .iter()
        .map(|&cnt| {
            let n_sv = cnt.max(1);
            TbGroup::new(
                TbWork {
                    cuda_flops: n_sv as f64 * (EXP_FLOP_EQUIV + 4.0) * b as f64,
                    tensor_flops: 0.0,
                    dram_read_bytes: (2 * n_sv * b * FP16_BYTES) as f64,
                    dram_write_bytes: (n_sv * b * FP16_BYTES) as f64,
                    mem_active_fraction: 1.0,
                    efficiency: STREAM_EFFICIENCY,
                },
                dims.instances(),
            )
        })
        .collect();
    KernelDesc::builder(
        format!("bs_ir(L={},b={b})", dims.l),
        KernelCategory::InterReduction,
    )
    .shape(TbShape::new(128, 4096, 32))
    .grouped(groups)
    .meta(KernelMeta {
        sub_vector: Some(b),
        split: Some(ParallelSplit::OutputRows),
        ..bs_meta(layout, dims)
    })
    .reads(scope.id("m_prime"), intermediate_nnz_bytes(layout, dims))
    .reads(scope.id("d_prime"), intermediate_nnz_bytes(layout, dims))
    .writes(scope.id("r_prime"), intermediate_nnz_bytes(layout, dims))
    .build()
}

/// Standalone block-sparse GS: elementwise over retained blocks.
pub fn bs_global_scaling(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let grid = layout.nnz_blocks() as u64 * dims.instances();
    let bb = (b * b * FP16_BYTES) as f64;
    let work = TbWork {
        cuda_flops: (b * b) as f64,
        tensor_flops: 0.0,
        dram_read_bytes: bb + (b * FP16_BYTES) as f64,
        dram_write_bytes: bb,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("bs_gs(L={},b={b})", dims.l),
        KernelCategory::GlobalScaling,
    )
    .shape(TbShape::new(256, 0, 24))
    .uniform(grid, work)
    .meta(KernelMeta {
        sub_vector: Some(b),
        split: Some(ParallelSplit::Elements),
        ..bs_meta(layout, dims)
    })
    .reads(scope.id("x_prime"), nnz_bytes(layout, dims))
    .reads(scope.id("r_prime"), intermediate_nnz_bytes(layout, dims))
    .writes(scope.id("probs"), nnz_bytes(layout, dims))
    .build()
}

/// Whether the block-sparse `P·V` prologue applies Global Scaling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BsPvPrologue {
    /// Reads finished probabilities.
    None,
    /// Reads `x'` + `r'`, scaling on the fly (SDF).
    GlobalScaling,
}

/// Block-sparse `P·V`: one thread block per output block-row, with work
/// proportional to that row's retained blocks — the load-imbalanced kernel
/// of §5.2.
pub fn bs_matmul_pv(
    layout: &BlockLayout,
    dims: &AttnDims,
    scope: Scope,
    prologue: BsPvPrologue,
) -> KernelDesc {
    let b = layout.block();
    let v_once = dims.qkv_bytes();
    let grid: u64 = layout.n_blocks() as u64 * dims.instances();

    let (sfx, p_buf, gs, efficiency) = match prologue {
        BsPvPrologue::None => ("", "probs", false, MATMUL_ROOFLINE_EFFICIENCY),
        BsPvPrologue::GlobalScaling => ("gs+", "x_prime", true, GS_PROLOGUE_EFFICIENCY),
    };

    let groups: Vec<TbGroup> = layout
        .row_counts()
        .iter()
        .map(|&cnt| {
            let p_elems = cnt * b * b;
            let p_bytes = (p_elems * FP16_BYTES) as f64;
            let r_bytes = if gs {
                (cnt * b * FP16_BYTES) as f64
            } else {
                0.0
            };
            TbGroup::new(
                TbWork {
                    cuda_flops: if gs { p_elems as f64 } else { 0.0 },
                    tensor_flops: 2.0 * (b * dims.d_head) as f64 * (cnt * b) as f64,
                    dram_read_bytes: p_bytes + r_bytes + v_once as f64 / grid as f64,
                    dram_write_bytes: (b * dims.d_head * FP16_BYTES) as f64,
                    mem_active_fraction: 1.0,
                    efficiency,
                },
                dims.instances(),
            )
        })
        .collect();

    let mut builder = KernelDesc::builder(
        format!("{sfx}bs_matmul_pv(L={},b={b})", dims.l),
        KernelCategory::MatMulPv,
    );
    builder
        .shape(TbShape::new(256, 16 * 1024, 128))
        .grouped(groups)
        .meta(KernelMeta {
            tile_m: Some(b),
            tile_n: Some(dims.d_head),
            sub_vector: gs.then_some(b),
            fused_gs: gs,
            split: Some(ParallelSplit::OutputRows),
            ..bs_meta(layout, dims)
        })
        .reads(scope.id(p_buf), nnz_bytes(layout, dims))
        .reads(scope.id("v"), v_once)
        .writes(scope.id("attn_out"), dims.qkv_bytes());
    if gs {
        builder.reads(scope.id("r_prime"), intermediate_nnz_bytes(layout, dims));
    }
    builder.build()
}

/// Extension: block-sparse fully fused online-softmax attention — one thread
/// block per output block-row streaming only that row's retained K/V blocks.
pub fn bs_fused_mha_online(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let q_once = dims.qkv_bytes();
    let k_once = dims.qkv_bytes();
    let v_once = dims.qkv_bytes();
    let grid: u64 = layout.n_blocks() as u64 * dims.instances();

    let groups: Vec<TbGroup> = layout
        .row_counts()
        .iter()
        .map(|&cnt| {
            let elems = (cnt * b * b) as f64;
            TbGroup::new(
                TbWork {
                    cuda_flops: (EXP_FLOP_EQUIV + 8.0) * elems,
                    tensor_flops: 4.0 * elems * dims.d_head as f64,
                    dram_read_bytes: (q_once + k_once + v_once) as f64 / grid as f64,
                    dram_write_bytes: (b * dims.d_head * FP16_BYTES) as f64,
                    mem_active_fraction: 1.0,
                    efficiency: FUSED_MATMUL_EFFICIENCY,
                },
                dims.instances(),
            )
        })
        .collect();
    KernelDesc::builder(
        format!("bs_fused_mha_online(L={},b={b})", dims.l),
        KernelCategory::FusedAttention,
    )
    .shape(TbShape::new(256, 32 * 1024, 120))
    .grouped(groups)
    .meta(KernelMeta {
        split: Some(ParallelSplit::OutputRows),
        ..bs_meta(layout, dims)
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
    use resoftmax_sparse::{pattern, BigBirdConfig};

    fn fixture() -> (BlockLayout, AttnDims) {
        let layout = pattern::bigbird(4096, &BigBirdConfig::default());
        let dims = AttnDims::new(4096, 64, 16, 1);
        (layout, dims)
    }

    #[test]
    fn sparse_traffic_scales_with_density() {
        let (layout, dims) = fixture();
        let sm = bs_softmax_baseline(&layout, &dims, L0);
        let dense_equiv = 2.0 * dims.attn_bytes() as f64;
        let ratio = sm.total_dram_bytes() / dense_equiv;
        assert!(
            (ratio - layout.density()).abs() < 0.02,
            "traffic ratio {ratio} vs density {}",
            layout.density()
        );
    }

    #[test]
    fn baseline_softmax_underutilizes_memory() {
        let (layout, dims) = fixture();
        let sm = bs_softmax_baseline(&layout, &dims, L0);
        // interior rows' active fraction equals their support / L
        if let resoftmax_gpusim::TbSet::Grouped(groups) = &sm.tbs {
            let interior = &groups[layout.n_blocks() / 2];
            assert!(interior.work.mem_active_fraction < 0.2);
            // worst-case resource allocation:
            assert_eq!(sm.shape.shared_bytes, (dims.l * 2) as u32);
        } else {
            panic!("expected grouped TBs");
        }
    }

    #[test]
    fn ls_restores_full_activity() {
        let (layout, dims) = fixture();
        let ls = bs_local_softmax(&layout, &dims, L0);
        if let resoftmax_gpusim::TbSet::Uniform { work, .. } = &ls.tbs {
            assert_eq!(work.mem_active_fraction, 1.0);
        } else {
            panic!("expected uniform TBs");
        }
        // allocation matches the block, not L
        assert_eq!(ls.shape.shared_bytes, (64 * 64 * 2) as u32);
    }

    #[test]
    fn sd_total_traffic_doubles_baseline_sparse() {
        let (layout, dims) = fixture();
        let mono = bs_softmax_baseline(&layout, &dims, L0).total_dram_bytes();
        let sd: f64 = [
            bs_local_softmax(&layout, &dims, L0).total_dram_bytes(),
            bs_inter_reduction(&layout, &dims, L0).total_dram_bytes(),
            bs_global_scaling(&layout, &dims, L0).total_dram_bytes(),
        ]
        .iter()
        .sum();
        assert!(sd > 1.9 * mono && sd < 2.4 * mono, "sd {sd} vs mono {mono}");
    }

    #[test]
    fn pv_groups_expose_imbalance() {
        let (layout, dims) = fixture();
        let pv = bs_matmul_pv(&layout, &dims, L0, BsPvPrologue::None);
        if let resoftmax_gpusim::TbSet::Grouped(groups) = &pv.tbs {
            let works: Vec<f64> = groups.iter().map(|g| g.work.tensor_flops).collect();
            let max = works.iter().copied().fold(0.0, f64::max);
            let mean = works.iter().sum::<f64>() / works.len() as f64;
            assert!(
                max > 3.0 * mean,
                "global rows are stragglers: {max} vs {mean}"
            );
        } else {
            panic!("expected grouped TBs");
        }
    }

    #[test]
    fn fused_epilogue_and_prologue_swap_buffers() {
        let (layout, dims) = fixture();
        let qk = bs_matmul_qk(&layout, &dims, L0, BsQkEpilogue::ScaleMaskLocalSoftmax);
        assert!(qk.writes.iter().any(|b| b.id == "l0.x_prime"));
        assert!(!qk.writes.iter().any(|b| b.id == "l0.scores"));
        let pv = bs_matmul_pv(&layout, &dims, L0, BsPvPrologue::GlobalScaling);
        assert!(pv.reads.iter().any(|b| b.id == "l0.x_prime"));
        assert!(pv.reads.iter().any(|b| b.id == "l0.r_prime"));
    }

    #[test]
    fn ir_intermediates_much_smaller_than_attention() {
        let (layout, dims) = fixture();
        let ir = bs_inter_reduction(&layout, &dims, L0);
        let sm = bs_softmax_baseline(&layout, &dims, L0);
        assert!(ir.total_dram_bytes() < 0.1 * sm.total_dram_bytes());
    }
}
