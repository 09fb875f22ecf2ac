//! Backward-pass cost profiles for *block-sparse* attention — completing the
//! §6 training extension for BigBird/Longformer-class models.
//!
//! The backward chain mirrors the dense one (`dV`, `dP`, Eq. 3, `dQ`, `dK`)
//! restricted to the retained blocks. The baseline's standalone softmax
//! backward is a row kernel with the same §5.1 pathology as the forward
//! baseline: resources sized for the worst-case row, most threads idle.
//! The recomposed form decomposes the row dot per retained block and leaves
//! an elementwise `dS` over the support.

use super::{
    AttnDims, FP16_BYTES, GS_PROLOGUE_EFFICIENCY, MATMUL_ROOFLINE_EFFICIENCY,
    SOFTMAX_PHASE_EFFICIENCY, SPARSE_GATHER_EFFICIENCY, STREAM_EFFICIENCY,
};
use resoftmax_gpusim::{KernelCategory, KernelDesc, Scope, TbGroup, TbShape, TbWork};
use resoftmax_sparse::BlockLayout;

fn nnz_bytes(layout: &BlockLayout, dims: &AttnDims) -> u64 {
    (layout.nnz_elements() * FP16_BYTES) as u64 * dims.instances()
}

/// Block-sparse backward MatMul over one attention plane (`dV = Pᵀ·dOut` or
/// `dQ`/`dK` from `dS`): one thread block per block-row, work proportional
/// to the row's retained blocks.
fn bs_plane_matmul(
    layout: &BlockLayout,
    dims: &AttnDims,
    scope: Scope,
    name: &str,
    plane: &'static str,
    extra_small_reads: usize,
    output: &'static str,
    recomposed: bool,
) -> KernelDesc {
    let b = layout.block();
    let small_once = dims.qkv_bytes();
    let grid: u64 = layout.n_blocks() as u64 * dims.instances();
    let groups: Vec<TbGroup> = layout
        .row_counts()
        .iter()
        .map(|&cnt| {
            let p_bytes = (cnt * b * b * FP16_BYTES) as f64;
            TbGroup::new(
                TbWork {
                    cuda_flops: if recomposed {
                        (cnt * b * b) as f64
                    } else {
                        0.0
                    },
                    tensor_flops: 2.0 * (b * dims.d_head) as f64 * (cnt * b) as f64,
                    dram_read_bytes: p_bytes
                        + (1 + extra_small_reads) as f64 * small_once as f64 / grid as f64,
                    dram_write_bytes: (b * dims.d_head * FP16_BYTES) as f64,
                    mem_active_fraction: 1.0,
                    efficiency: if recomposed {
                        GS_PROLOGUE_EFFICIENCY
                    } else {
                        MATMUL_ROOFLINE_EFFICIENCY
                    },
                },
                dims.instances(),
            )
        })
        .collect();
    KernelDesc::builder(format!("{name}(L={})", dims.l), KernelCategory::MatMulPv)
        .shape(TbShape::new(256, 16 * 1024, 128))
        .grouped(groups)
        .reads(scope.id(plane), nnz_bytes(layout, dims))
        .writes(scope.id(output), dims.qkv_bytes())
        .build()
}

/// `dV` over the retained blocks. Recomposed reconstructs `P` from `x'`/`r'`.
pub fn bs_matmul_dv(
    layout: &BlockLayout,
    dims: &AttnDims,
    scope: Scope,
    recomposed: bool,
) -> KernelDesc {
    bs_plane_matmul(
        layout,
        dims,
        scope,
        if recomposed {
            "bs_bwd_dv+gs"
        } else {
            "bs_bwd_dv"
        },
        if recomposed { "x_prime" } else { "probs" },
        1,
        "d_v",
        recomposed,
    )
}

/// `dP` over the retained blocks, writing the sparse gradient plane
/// (plus per-block partial row-dots when recomposed).
pub fn bs_matmul_dp(
    layout: &BlockLayout,
    dims: &AttnDims,
    scope: Scope,
    recomposed: bool,
) -> KernelDesc {
    let b = layout.block();
    let grid = layout.nnz_blocks() as u64 * dims.instances();
    let bb = (b * b) as f64;
    let small_once = dims.qkv_bytes();
    let work = TbWork {
        cuda_flops: if recomposed { 3.0 * bb } else { 0.0 },
        tensor_flops: 2.0 * bb * dims.d_head as f64,
        dram_read_bytes: 2.0 * small_once as f64 / grid as f64,
        dram_write_bytes: bb * FP16_BYTES as f64
            + if recomposed {
                (b * FP16_BYTES) as f64
            } else {
                0.0
            },
        mem_active_fraction: 1.0,
        efficiency: if recomposed {
            GS_PROLOGUE_EFFICIENCY
        } else {
            MATMUL_ROOFLINE_EFFICIENCY
        },
    };
    let mut builder = KernelDesc::builder(
        format!(
            "bs_bwd_dp{}(L={})",
            if recomposed { "+localdot" } else { "" },
            dims.l
        ),
        KernelCategory::MatMulQk,
    );
    builder
        .shape(TbShape::new(256, 16 * 1024, 128))
        .uniform(grid, work)
        .reads(scope.id("d_attn_out"), small_once)
        .reads(scope.id("v"), small_once)
        .writes(scope.id("d_probs"), nnz_bytes(layout, dims));
    if recomposed {
        builder.writes(
            scope.id("dot_partial"),
            (layout.nnz_blocks() * b * FP16_BYTES) as u64 * dims.instances(),
        );
    }
    builder.build()
}

/// Baseline: standalone block-sparse softmax backward — one thread block per
/// row sized for the worst case, with only the support active (the §5.1
/// pathology, again).
pub fn bs_softmax_backward(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let groups: Vec<TbGroup> = layout
        .row_counts()
        .iter()
        .map(|&cnt| {
            let support = cnt * b;
            let bytes = (support * FP16_BYTES) as f64;
            TbGroup::new(
                TbWork {
                    cuda_flops: 4.0 * support as f64,
                    tensor_flops: 0.0,
                    dram_read_bytes: 2.0 * bytes,
                    dram_write_bytes: bytes,
                    mem_active_fraction: support as f64 / dims.l as f64,
                    efficiency: SOFTMAX_PHASE_EFFICIENCY * SPARSE_GATHER_EFFICIENCY,
                },
                b as u64 * dims.instances(),
            )
        })
        .collect();
    KernelDesc::builder(
        format!("bs_softmax_bwd(L={})", dims.l),
        KernelCategory::Softmax,
    )
    .shape(TbShape::new(
        super::row_threads(dims.l),
        (2 * dims.l * FP16_BYTES) as u32,
        40,
    ))
    .grouped(groups)
    .reads(scope.id("probs"), nnz_bytes(layout, dims))
    .reads(scope.id("d_probs"), nnz_bytes(layout, dims))
    .writes(scope.id("d_scores"), nnz_bytes(layout, dims))
    .build()
}

/// Recomposed: the elementwise `dS` over the retained blocks (after a tiny
/// row-dot reduction — reuse [`super::sparse::bs_inter_reduction`]-shaped
/// cost via [`bs_rowdot_reduction`]).
pub fn bs_ds_elementwise(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let grid = layout.nnz_blocks() as u64 * dims.instances();
    let bb = (b * b * FP16_BYTES) as f64;
    let work = TbWork {
        cuda_flops: 4.0 * (b * b) as f64,
        tensor_flops: 0.0,
        dram_read_bytes: 2.0 * bb + 2.0 * (b * FP16_BYTES) as f64,
        dram_write_bytes: bb,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("bs_bwd_ds(L={})", dims.l),
        KernelCategory::GlobalScaling,
    )
    .shape(TbShape::new(256, 0, 24))
    .uniform(grid, work)
    .reads(scope.id("d_probs"), nnz_bytes(layout, dims))
    .reads(scope.id("x_prime"), nnz_bytes(layout, dims))
    .reads(
        scope.id("rowdot"),
        (dims.l as u64 * dims.instances()) * FP16_BYTES as u64,
    )
    .writes(scope.id("d_scores"), nnz_bytes(layout, dims))
    .build()
}

/// Recomposed: reduces the per-block partial row-dots (tiny).
pub fn bs_rowdot_reduction(layout: &BlockLayout, dims: &AttnDims, scope: Scope) -> KernelDesc {
    let b = layout.block();
    let groups: Vec<TbGroup> = layout
        .row_counts()
        .iter()
        .map(|&cnt| {
            TbGroup::new(
                TbWork {
                    cuda_flops: 2.0 * (cnt.max(1) * b) as f64,
                    dram_read_bytes: (cnt.max(1) * b * FP16_BYTES) as f64,
                    dram_write_bytes: (b * FP16_BYTES) as f64,
                    ..Default::default()
                },
                dims.instances(),
            )
        })
        .collect();
    KernelDesc::builder(
        format!("bs_bwd_rowdot(L={})", dims.l),
        KernelCategory::InterReduction,
    )
    .shape(TbShape::new(128, 4096, 32))
    .grouped(groups)
    .reads(
        scope.id("dot_partial"),
        (layout.nnz_blocks() * b * FP16_BYTES) as u64 * dims.instances(),
    )
    .writes(
        scope.id("rowdot"),
        (dims.l as u64 * dims.instances()) * FP16_BYTES as u64,
    )
    .build()
}

/// `dQ = dS·K` or `dK = dSᵀ·Q` over the retained blocks, reading the sparse
/// `dS` plane (materialized by [`bs_softmax_backward`] in the baseline or by
/// [`bs_ds_elementwise`] when recomposed).
pub fn bs_matmul_dq_or_dk(
    layout: &BlockLayout,
    dims: &AttnDims,
    scope: Scope,
    output: &'static str,
) -> KernelDesc {
    bs_plane_matmul(
        layout,
        dims,
        scope,
        &format!("bs_bwd_{output}"),
        "d_scores",
        1,
        output,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const L0: Scope = Scope::Layer(0);
    use resoftmax_sparse::{pattern, BigBirdConfig};

    fn fixture() -> (BlockLayout, AttnDims) {
        (
            pattern::bigbird(4096, &BigBirdConfig::default()),
            AttnDims::new(4096, 64, 16, 1),
        )
    }

    #[test]
    fn baseline_backward_has_the_utilization_pathology() {
        let (layout, dims) = fixture();
        let k = bs_softmax_backward(&layout, &dims, L0);
        if let resoftmax_gpusim::TbSet::Grouped(groups) = &k.tbs {
            let interior = &groups[layout.n_blocks() / 2];
            assert!(interior.work.mem_active_fraction < 0.2);
        } else {
            panic!("expected grouped");
        }
    }

    #[test]
    fn recomposed_backward_moves_less_and_streams_well() {
        let (layout, dims) = fixture();
        let baseline: f64 = [
            bs_matmul_dv(&layout, &dims, L0, false).total_dram_bytes(),
            bs_matmul_dp(&layout, &dims, L0, false).total_dram_bytes(),
            bs_softmax_backward(&layout, &dims, L0).total_dram_bytes(),
            bs_plane_matmul(&layout, &dims, L0, "dq", "d_scores", 1, "d_q", false)
                .total_dram_bytes(),
        ]
        .iter()
        .sum();
        let recomposed: f64 = [
            bs_matmul_dv(&layout, &dims, L0, true).total_dram_bytes(),
            bs_matmul_dp(&layout, &dims, L0, true).total_dram_bytes(),
            bs_rowdot_reduction(&layout, &dims, L0).total_dram_bytes(),
            bs_ds_elementwise(&layout, &dims, L0).total_dram_bytes(),
            bs_plane_matmul(&layout, &dims, L0, "dq", "d_scores", 1, "d_q", false)
                .total_dram_bytes(),
        ]
        .iter()
        .sum();
        // Similar byte totals: the win is in rates (no pathological kernel).
        assert!(recomposed < baseline * 1.2, "{recomposed} vs {baseline}");
    }

    #[test]
    fn dq_variant_exists_for_schedules() {
        let (layout, dims) = fixture();
        let k = bs_plane_matmul(&layout, &dims, L0, "bs_bwd_dq", "d_scores", 1, "d_q", false);
        assert!(k.reads.iter().any(|b| b.id == "l0.d_scores"));
        assert!(k.writes.iter().any(|b| b.id == "l0.d_q"));
    }
}
