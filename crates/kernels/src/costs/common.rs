//! Cost profiles for the non-attention kernels: FC / FeedForward MatMuls,
//! standalone elementwise layers (scale, mask, bias, activation, residual),
//! and LayerNorm.

use super::{EXP_FLOP_EQUIV, FP16_BYTES, MATMUL_ROOFLINE_EFFICIENCY, STREAM_EFFICIENCY};
use resoftmax_gpusim::{
    BufferId, KernelCategory, KernelDesc, KernelMeta, ParallelSplit, TbShape, TbWork,
};

/// Cost of a fully-connected MatMul: `[rows × d_in] · [d_in × d_out]`
/// (weights stationary), with optional fused bias+activation epilogue. It
/// reads `input` and `output`'s weights, and writes `output`.
///
/// `rows` is typically `L × batch` (heads are not split for FC layers).
// Flat scalar parameters mirror the kernel's launch signature; a params
// struct would only rename them.
pub fn fc(
    rows: usize,
    d_in: usize,
    d_out: usize,
    category: KernelCategory,
    input: BufferId,
    output: BufferId,
    fused_bias_activation: bool,
) -> KernelDesc {
    let (tm, tn) = (64usize, 64usize.min(d_out));
    let grid = (rows.div_ceil(tm) as u64) * (d_out.div_ceil(tn) as u64);

    let in_once = (rows * d_in * FP16_BYTES) as u64;
    let w_once = (d_in * d_out * FP16_BYTES) as u64;
    let out_bytes = (rows * d_out * FP16_BYTES) as u64;

    let mn = (tm * tn) as f64;
    let epilogue = if fused_bias_activation {
        // bias add + GeLU (tanh approximation ≈ 2 transcendental-ish + muls)
        (1.0 + EXP_FLOP_EQUIV) * mn
    } else {
        0.0
    };

    let work = TbWork {
        cuda_flops: epilogue,
        tensor_flops: 2.0 * mn * d_in as f64,
        dram_read_bytes: (in_once + w_once) as f64 / grid as f64,
        dram_write_bytes: (tm * tn * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency: MATMUL_ROOFLINE_EFFICIENCY,
    };
    KernelDesc::builder(format!("fc({rows}x{d_in}->{d_out})"), category)
        .shape(TbShape::new(256, 16 * 1024, 128))
        .uniform(grid, work)
        .meta(KernelMeta {
            tile_m: Some(tm),
            tile_n: Some(tn),
            rows: Some(rows),
            d_in: Some(d_in),
            d_out: Some(d_out),
            split: Some(ParallelSplit::OutputTiles),
            ..KernelMeta::default()
        })
        .reads(input, in_once)
        .reads(output.weights(), w_once)
        .writes(output, out_bytes)
        .build()
}

/// Cost of a standalone elementwise kernel over `elems` elements with
/// `flops_per_elem` arithmetic, reading `reads_per_elem` operand streams.
///
/// Used for the *unfused* library profiles (HuggingFace runs scale, mask,
/// bias and activation as separate kernels, Fig. 7).
pub fn elementwise(
    elems: u64,
    flops_per_elem: f64,
    reads_per_elem: usize,
    category: KernelCategory,
    name: &str,
    inputs: &[BufferId],
    output: BufferId,
) -> KernelDesc {
    let per_tb = 2048u64;
    let grid = elems.div_ceil(per_tb);
    let work = TbWork {
        cuda_flops: flops_per_elem * per_tb as f64,
        tensor_flops: 0.0,
        dram_read_bytes: (per_tb as usize * reads_per_elem * FP16_BYTES) as f64,
        dram_write_bytes: (per_tb as usize * FP16_BYTES) as f64,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    let mut b = KernelDesc::builder(name, category);
    b.shape(TbShape::new(256, 0, 24))
        .uniform(grid, work)
        .meta(KernelMeta {
            elems: Some(elems),
            input_streams: Some(reads_per_elem),
            split: Some(ParallelSplit::Elements),
            ..KernelMeta::default()
        });
    for &input in inputs {
        b.reads(input, elems * FP16_BYTES as u64);
    }
    b.writes(output, elems * FP16_BYTES as u64);
    b.build()
}

/// Cost of LayerNorm over `rows` rows of width `d` (two reduction passes +
/// normalize, row-resident in shared memory like softmax).
pub fn layernorm(rows: usize, d: usize, input: BufferId, output: BufferId) -> KernelDesc {
    let row_bytes = (d * FP16_BYTES) as f64;
    let work = TbWork {
        // mean + variance + normalize ≈ 8 ops/element, plus one rsqrt per row
        cuda_flops: 8.0 * d as f64 + EXP_FLOP_EQUIV,
        tensor_flops: 0.0,
        dram_read_bytes: row_bytes,
        dram_write_bytes: row_bytes,
        mem_active_fraction: 1.0,
        efficiency: STREAM_EFFICIENCY,
    };
    KernelDesc::builder(format!("layernorm({rows}x{d})"), KernelCategory::LayerNorm)
        .shape(TbShape::new(
            super::row_threads(d),
            (d * FP16_BYTES) as u32,
            32,
        ))
        .uniform(rows as u64, work)
        .meta(KernelMeta {
            rows: Some(rows),
            d_out: Some(d),
            split: Some(ParallelSplit::OutputRows),
            ..KernelMeta::default()
        })
        .reads(input, (rows * d * FP16_BYTES) as u64)
        .writes(output, (rows * d * FP16_BYTES) as u64)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fc_flops_and_traffic() {
        // BERT-large QKV projection: 4096 rows, 1024 -> 1024.
        let k = fc(
            4096,
            1024,
            1024,
            KernelCategory::Fc,
            "l0.hidden".into(),
            "l0.q".into(),
            false,
        );
        let expected_flops = 2.0 * 4096.0 * 1024.0 * 1024.0;
        assert!((k.total_flops() - expected_flops).abs() / expected_flops < 0.05);
        // activations 8MB + weights 2MB + output 8MB
        let t = k.total_dram_bytes();
        assert!(t > 17e6 && t < 20e6, "traffic {t}");
    }

    #[test]
    fn fc_epilogue_adds_flops_only() {
        let plain = fc(
            4096,
            1024,
            4096,
            KernelCategory::FeedForward,
            "l0.x".into(),
            "l0.ff1".into(),
            false,
        );
        let fused = fc(
            4096,
            1024,
            4096,
            KernelCategory::FeedForward,
            "l0.x".into(),
            "l0.ff1".into(),
            true,
        );
        assert!(fused.total_flops() > plain.total_flops());
        assert_eq!(fused.total_dram_bytes(), plain.total_dram_bytes());
    }

    #[test]
    fn elementwise_scale_kernel() {
        let elems = 4096u64 * 4096 * 16;
        let k = elementwise(
            elems,
            1.0,
            1,
            KernelCategory::Scale,
            "scale",
            &["l0.scores".into()],
            "l0.scores_scaled".into(),
        );
        // read + write the full attention matrix
        assert_eq!(k.total_dram_bytes(), (elems * 4) as f64);
        assert_eq!(k.total_flops(), elems as f64);
    }

    #[test]
    fn layernorm_is_memory_bound() {
        let k = layernorm(4096, 1024, "l0.x".into(), "l0.x_norm".into());
        let intensity = k.total_flops() / k.total_dram_bytes();
        assert!(intensity < 25.0);
        assert_eq!(k.tbs.count(), 4096);
    }
}
