//! Cost profiles for the *backward* pass of the attention block — the §6
//! extension: the paper argues (Eq. 3) that recomposition stays legal in
//! training because softmax backward needs only the forward *output*; these
//! kernels let the simulator price a whole training iteration.
//!
//! Backward dataflow for one attention layer (dense):
//!
//! ```text
//!   dV = Pᵀ · dOut              (reads one attention plane)
//!   dP = dOut · Vᵀ              (writes one attention plane)
//!   dS = P ⊙ (dP − rowdot(P, dP))   (Eq. 3; reads two planes, writes one)
//!   dQ = dS · K,  dK = dSᵀ · Q  (each reads one plane)
//! ```
//!
//! Baseline: `dS` is a standalone monolithic row kernel (same barrier-bound
//! shape as forward softmax) and `P` was stored by the forward pass.
//!
//! Recomposed: this is the paper's thesis applied to the backward pass. The
//! only *row-wise* dependency in Eq. 3 is the row dot `Σ P·dP`; decompose it
//! exactly like the forward normalizer — per-sub-vector partial dots in the
//! `dP` MatMul's epilogue (the backward LS), a tiny IR-style reduction —
//! and the remaining `dS = x'·r' ⊙ (dP − dot)` becomes *elementwise*, i.e.
//! a streaming kernel with none of the monolithic row kernel's barrier
//! stalls. `P` itself is never stored; `dV` reconstructs it from `x'`/`r'`
//! in a GS prologue.

use super::{
    buf, AttnDims, TileConfig, FP16_BYTES, GS_PROLOGUE_EFFICIENCY, MATMUL_ROOFLINE_EFFICIENCY,
    SOFTMAX_PHASE_EFFICIENCY, STREAM_EFFICIENCY,
};
use resoftmax_gpusim::{KernelCategory, KernelDesc, TbShape, TbWork};

/// Common shape for backward MatMuls whose large operand is one attention
/// plane (read or written) and whose other operands are `L × D_head`.
fn attn_plane_matmul(
    dims: &AttnDims,
    tile: TileConfig,
    name: String,
    category: KernelCategory,
    plane_reads: &[(String, u64)],
    plane_writes: &[(String, u64)],
    small_reads: &[&str],
    small_write: &str,
    extra_cuda_per_plane_elem: f64,
    efficiency: f64,
    prefix: &str,
) -> KernelDesc {
    let inst = dims.instances();
    let grid = dims.l.div_ceil(tile.m) as u64 * inst;
    let plane_read_total: u64 = plane_reads.iter().map(|(_, b)| b).sum();
    let plane_write_total: u64 = plane_writes.iter().map(|(_, b)| b).sum();
    let small_once = dims.qkv_bytes();
    let ml = (tile.m * dims.l) as f64;

    let work = TbWork {
        cuda_flops: extra_cuda_per_plane_elem * ml,
        tensor_flops: 2.0 * (tile.m * dims.d_head) as f64 * dims.l as f64,
        dram_read_bytes: plane_read_total as f64 / grid as f64
            + small_reads.len() as f64 * small_once as f64 / grid as f64,
        dram_write_bytes: plane_write_total as f64 / grid as f64
            + (tile.m * dims.d_head * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency,
    };
    let mut b = KernelDesc::builder(name, category);
    b.shape(TbShape::new(256, 16 * 1024, 128))
        .uniform(grid, work);
    for (id, bytes) in plane_reads {
        b.reads(id.clone(), *bytes);
    }
    for r in small_reads {
        b.reads(buf(prefix, r), small_once);
    }
    for (id, bytes) in plane_writes {
        b.writes(id.clone(), *bytes);
    }
    b.writes(buf(prefix, small_write), dims.qkv_bytes());
    b.build()
}

/// `dV = Pᵀ·dOut`. Baseline reads the stored `probs` plane; recomposed
/// reconstructs `P` from `x'` and `r'` in the prologue (GS fusion, Fig. 6
/// mirrored).
pub fn matmul_dv(dims: &AttnDims, tile: TileConfig, prefix: &str, recomposed: bool) -> KernelDesc {
    let plane = if recomposed { "x_prime" } else { "probs" };
    let mut reads = vec![(buf(prefix, plane), dims.attn_bytes())];
    if recomposed {
        reads.push((buf(prefix, "r_prime"), dims.intermediate_bytes(tile.n)));
    }
    attn_plane_matmul(
        dims,
        tile,
        format!(
            "bwd_dv{}(L={})",
            if recomposed { "+gs" } else { "" },
            dims.l
        ),
        KernelCategory::MatMulPv,
        &reads,
        &[],
        &["d_attn_out"],
        "d_v",
        if recomposed { 1.0 } else { 0.0 },
        if recomposed {
            GS_PROLOGUE_EFFICIENCY
        } else {
            MATMUL_ROOFLINE_EFFICIENCY
        },
        prefix,
    )
}

/// `dP = dOut·Vᵀ`, writing one attention plane. The recomposed variant adds
/// a per-sub-vector partial row-dot epilogue (the backward analogue of LS).
pub fn matmul_dp(dims: &AttnDims, tile: TileConfig, prefix: &str, recomposed: bool) -> KernelDesc {
    let mut writes = vec![(buf(prefix, "d_probs"), dims.attn_bytes())];
    if recomposed {
        writes.push((buf(prefix, "dot_partial"), dims.intermediate_bytes(tile.n)));
    }
    attn_plane_matmul(
        dims,
        tile,
        format!(
            "bwd_dp{}(L={})",
            if recomposed { "+localdot" } else { "" },
            dims.l
        ),
        KernelCategory::MatMulQk,
        &[],
        &writes,
        &["d_attn_out", "v"],
        "d_p_unused",
        if recomposed { 3.0 } else { 0.0 },
        if recomposed {
            GS_PROLOGUE_EFFICIENCY
        } else {
            MATMUL_ROOFLINE_EFFICIENCY
        },
        prefix,
    )
}

/// Baseline standalone softmax backward (Eq. 3 as one row kernel): reads the
/// stored `P` and `dP` planes, writes `dS`. Same barrier-bound monolithic
/// shape as the forward softmax.
pub fn softmax_backward_monolithic(dims: &AttnDims, prefix: &str) -> KernelDesc {
    let rows = dims.l as u64 * dims.instances();
    let row_bytes = (dims.l * FP16_BYTES) as f64;
    let threads = super::row_threads(dims.l);
    let work = TbWork {
        // rowdot (2 ops) + subtract + multiply per element
        cuda_flops: 4.0 * dims.l as f64,
        tensor_flops: 0.0,
        dram_read_bytes: 2.0 * row_bytes,
        dram_write_bytes: row_bytes,
        mem_active_fraction: 1.0,
        efficiency: SOFTMAX_PHASE_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("softmax_bwd(L={})", dims.l),
        KernelCategory::Softmax,
    )
    .shape(TbShape::new(threads, (2 * dims.l * FP16_BYTES) as u32, 40))
    .uniform(rows, work)
    .reads(buf(prefix, "probs"), dims.attn_bytes())
    .reads(buf(prefix, "d_probs"), dims.attn_bytes())
    .writes(buf(prefix, "d_scores"), dims.attn_bytes())
    .build()
}

/// Recomposed: IR-style reduction of the per-sub-vector partial row-dots
/// into one dot per row (tiny, like the forward IR).
pub fn rowdot_reduction(dims: &AttnDims, t: usize, prefix: &str) -> KernelDesc {
    let n_sv = (dims.l / t).max(1);
    let rows_per_tb = 64u64;
    let total_rows = dims.l as u64 * dims.instances();
    let grid = total_rows.div_ceil(rows_per_tb);
    let work = TbWork {
        cuda_flops: rows_per_tb as f64 * n_sv as f64 * 2.0,
        tensor_flops: 0.0,
        dram_read_bytes: rows_per_tb as f64 * (n_sv * FP16_BYTES) as f64,
        dram_write_bytes: rows_per_tb as f64 * FP16_BYTES as f64,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("bwd_rowdot_ir(L={},T={t})", dims.l),
        KernelCategory::InterReduction,
    )
    .shape(TbShape::new(128, 4096, 32))
    .uniform(grid, work)
    .reads(buf(prefix, "dot_partial"), dims.intermediate_bytes(t))
    .writes(
        buf(prefix, "rowdot"),
        (dims.l as u64 * dims.instances()) * FP16_BYTES as u64,
    )
    .build()
}

/// Recomposed: the now-elementwise `dS = x'·r' ⊙ (dP − dot)` as a streaming
/// kernel — the payoff of decomposing the row dot: no barrier-bound row
/// kernel remains in the backward pass.
pub fn ds_elementwise(dims: &AttnDims, t: usize, prefix: &str) -> KernelDesc {
    let elems_per_tb = 2048usize;
    let total = dims.l as u64 * dims.l as u64 * dims.instances();
    let grid = total.div_ceil(elems_per_tb as u64);
    let work = TbWork {
        cuda_flops: 4.0 * elems_per_tb as f64,
        tensor_flops: 0.0,
        // dP + x' streams, plus the small r'/rowdot fragments
        dram_read_bytes: (2 * elems_per_tb * FP16_BYTES) as f64
            + (elems_per_tb / t.max(1) * FP16_BYTES) as f64,
        dram_write_bytes: (elems_per_tb * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(
        format!("bwd_ds_elementwise(L={})", dims.l),
        KernelCategory::GlobalScaling,
    )
    .shape(TbShape::new(256, 0, 24))
    .uniform(grid, work)
    .reads(buf(prefix, "d_probs"), dims.attn_bytes())
    .reads(buf(prefix, "x_prime"), dims.attn_bytes())
    .reads(buf(prefix, "r_prime"), dims.intermediate_bytes(t))
    .reads(
        buf(prefix, "rowdot"),
        (dims.l as u64 * dims.instances()) * FP16_BYTES as u64,
    )
    .writes(buf(prefix, "d_scores"), dims.attn_bytes())
    .build()
}

/// `dQ = dS·K` (or `dK = dSᵀ·Q`): reads the `dS` plane (materialized by the
/// monolithic backward in the baseline, by [`ds_elementwise`] when
/// recomposed) and one small operand.
pub fn matmul_dq_or_dk(
    dims: &AttnDims,
    tile: TileConfig,
    prefix: &str,
    output: &str,
    small_operand: &str,
) -> KernelDesc {
    attn_plane_matmul(
        dims,
        tile,
        format!("bwd_{output}(L={})", dims.l),
        KernelCategory::MatMulPv,
        &[(buf(prefix, "d_scores"), dims.attn_bytes())],
        &[],
        &[small_operand],
        output,
        0.0,
        MATMUL_ROOFLINE_EFFICIENCY,
        prefix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims() -> AttnDims {
        AttnDims::new(4096, 64, 16, 1)
    }

    #[test]
    fn baseline_backward_plane_crossings() {
        // dV reads 1 plane; dP writes 1; softmax bwd reads 2, writes 1;
        // dQ and dK read 1 each: 7 plane crossings total.
        let d = dims();
        let t = TileConfig::default();
        let plane = d.attn_bytes() as f64;
        let total: f64 = [
            matmul_dv(&d, t, "l0", false).total_dram_bytes(),
            matmul_dp(&d, t, "l0", false).total_dram_bytes(),
            softmax_backward_monolithic(&d, "l0").total_dram_bytes(),
            matmul_dq_or_dk(&d, t, "l0", "d_q", "k").total_dram_bytes(),
            matmul_dq_or_dk(&d, t, "l0", "d_k", "q").total_dram_bytes(),
        ]
        .iter()
        .sum();
        assert!(
            (total / plane - 7.0).abs() < 0.3,
            "crossings {}",
            total / plane
        );
    }

    #[test]
    fn recomposed_backward_removes_standalone_softmax_and_ds_plane() {
        let d = dims();
        let t = TileConfig::default();
        let plane = d.attn_bytes() as f64;
        let total: f64 = [
            matmul_dv(&d, t, "l0", true).total_dram_bytes(),
            matmul_dp(&d, t, "l0", true).total_dram_bytes(),
            rowdot_reduction(&d, 64, "l0").total_dram_bytes(),
            ds_elementwise(&d, 64, "l0").total_dram_bytes(),
            matmul_dq_or_dk(&d, t, "l0", "d_q", "k").total_dram_bytes(),
            matmul_dq_or_dk(&d, t, "l0", "d_k", "q").total_dram_bytes(),
        ]
        .iter()
        .sum();
        // dV(x') + dP(write) + dS(2r+1w) + dQ + dK = 7 planes, but the
        // monolithic row kernel is gone — the win is in *rates*, not bytes.
        assert!(
            total / plane < 7.5,
            "recomposed crossings {}",
            total / plane
        );
    }

    #[test]
    fn rowdot_is_tiny() {
        let d = dims();
        let ir = rowdot_reduction(&d, 64, "l0");
        assert!(ir.total_dram_bytes() < 0.02 * d.attn_bytes() as f64);
    }

    #[test]
    fn buffer_identities_link_forward_and_backward() {
        let d = dims();
        let t = TileConfig::default();
        // recomposed dV reads the same x'/r' the forward fused QK wrote
        let dv = matmul_dv(&d, t, "l0", true);
        assert!(dv.reads.iter().any(|b| b.id == "l0.x_prime"));
        assert!(dv.reads.iter().any(|b| b.id == "l0.r_prime"));
        // baseline softmax bwd reads the forward's probs
        let sb = softmax_backward_monolithic(&d, "l0");
        assert!(sb.reads.iter().any(|b| b.id == "l0.probs"));
    }
}
