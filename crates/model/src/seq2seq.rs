//! Extension: the encoder–decoder ("vanilla") transformer of §2.1 — the
//! third model class the paper's background defines but its evaluation
//! omits.
//!
//! A decoder layer contains *two* attention blocks: causal self-attention
//! over the target sequence and **cross-attention** whose queries come from
//! the decoder but whose K/V come from the encoder output — a rectangular
//! `L_tgt × L_src` attention matrix. Softmax recomposition applies to both
//! unchanged: the LS tiling only cares about the attention matrix's tile
//! structure, not its squareness.

use crate::engine::{simulate_schedule, RunReport};
use crate::schedule::{RunParams, SoftmaxStrategy};
use resoftmax_gpusim::{DeviceSpec, KernelCategory, KernelDesc, LaunchError};
use resoftmax_kernels::costs::{common, dense, AttnDims};
use serde::{Deserialize, Serialize};

/// An encoder–decoder transformer configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Seq2SeqConfig {
    /// Display name.
    pub name: String,
    /// Encoder layer count.
    pub encoder_layers: usize,
    /// Decoder layer count.
    pub decoder_layers: usize,
    /// Hidden size.
    pub d_model: usize,
    /// Attention heads.
    pub heads: usize,
    /// FeedForward inner size.
    pub d_ff: usize,
}

impl Seq2SeqConfig {
    /// The original "Attention is All You Need" big model: 6+6 layers,
    /// `D_m` 1024, 16 heads, `D_ff` 4096.
    pub fn vanilla_transformer_big() -> Self {
        Seq2SeqConfig {
            name: "Transformer-big".into(),
            encoder_layers: 6,
            decoder_layers: 6,
            d_model: 1024,
            heads: 16,
            d_ff: 4096,
        }
    }

    /// Per-head size.
    pub fn d_head(&self) -> usize {
        self.d_model / self.heads
    }
}

fn attention_block(
    dims: &AttnDims,
    params: &RunParams,
    prefix: &str,
    kernels: &mut Vec<KernelDesc>,
) {
    let tile = params.tile;
    match params.strategy {
        SoftmaxStrategy::OnlineFused => {
            kernels.push(dense::fused_mha_online(dims, tile, prefix));
        }
        SoftmaxStrategy::Baseline => {
            kernels.push(dense::matmul_qk(
                dims,
                tile,
                prefix,
                dense::QkEpilogue::ScaleMask,
            ));
            kernels.push(dense::softmax_monolithic(dims, prefix, "scores"));
            kernels.push(dense::matmul_pv(
                dims,
                tile,
                prefix,
                dense::PvPrologue::None,
            ));
        }
        SoftmaxStrategy::Decomposed => {
            kernels.push(dense::matmul_qk(
                dims,
                tile,
                prefix,
                dense::QkEpilogue::ScaleMask,
            ));
            kernels.push(dense::local_softmax(dims, tile.n, prefix, "scores"));
            kernels.push(dense::inter_reduction(dims, tile.n, prefix));
            kernels.push(dense::global_scaling(dims, tile.n, prefix));
            kernels.push(dense::matmul_pv(
                dims,
                tile,
                prefix,
                dense::PvPrologue::None,
            ));
        }
        SoftmaxStrategy::Recomposed | SoftmaxStrategy::RecomposedFp16 => {
            kernels.push(dense::matmul_qk(
                dims,
                tile,
                prefix,
                match params.strategy {
                    SoftmaxStrategy::RecomposedFp16 => {
                        dense::QkEpilogue::ScaleMaskLocalSoftmaxF16Acc
                    }
                    _ => dense::QkEpilogue::ScaleMaskLocalSoftmax,
                },
            ));
            kernels.push(dense::inter_reduction(dims, tile.n, prefix));
            kernels.push(dense::matmul_pv(
                dims,
                tile,
                prefix,
                dense::PvPrologue::GlobalScaling,
            ));
        }
    }
}

fn fc_block(
    rows: usize,
    d_model: usize,
    d_ff: usize,
    prefix: &str,
    input: &str,
    kernels: &mut Vec<KernelDesc>,
) {
    kernels.push(common::fc(
        rows,
        d_model,
        d_model,
        KernelCategory::Fc,
        prefix,
        "attn_out",
        "proj",
        true,
    ));
    kernels.push(common::layernorm(rows, d_model, prefix, "proj", input));
    kernels.push(common::fc(
        rows,
        d_model,
        d_ff,
        KernelCategory::FeedForward,
        prefix,
        input,
        "ff1",
        true,
    ));
    kernels.push(common::fc(
        rows,
        d_ff,
        d_model,
        KernelCategory::FeedForward,
        prefix,
        "ff1",
        "ff2",
        false,
    ));
    kernels.push(common::layernorm(rows, d_model, prefix, "ff2", "out"));
}

/// Builds the schedule of one full encoder–decoder inference: the encoder
/// over `src_len` tokens, then the decoder over `tgt_len` tokens with causal
/// self-attention and cross-attention into the encoder output.
pub fn build_seq2seq_schedule(
    cfg: &Seq2SeqConfig,
    src_len: usize,
    tgt_len: usize,
    params: &RunParams,
) -> Vec<KernelDesc> {
    let mut kernels = Vec::new();
    let heads = cfg.heads;
    let d_head = cfg.d_head();
    let batch = params.batch;

    // Encoder.
    for layer in 0..cfg.encoder_layers {
        let prefix = format!("enc{layer}");
        for out in ["q", "k", "v"] {
            kernels.push(common::fc(
                src_len * batch,
                cfg.d_model,
                cfg.d_model,
                KernelCategory::Fc,
                &prefix,
                "x",
                out,
                true,
            ));
        }
        let dims = AttnDims::new(src_len, d_head, heads, batch);
        attention_block(&dims, params, &prefix, &mut kernels);
        fc_block(
            src_len * batch,
            cfg.d_model,
            cfg.d_ff,
            &prefix,
            "ln1",
            &mut kernels,
        );
    }

    // Decoder.
    for layer in 0..cfg.decoder_layers {
        // Causal self-attention over the target.
        let prefix = format!("dec{layer}.self");
        for out in ["q", "k", "v"] {
            kernels.push(common::fc(
                tgt_len * batch,
                cfg.d_model,
                cfg.d_model,
                KernelCategory::Fc,
                &prefix,
                "x",
                out,
                true,
            ));
        }
        let self_dims = AttnDims::new(tgt_len, d_head, heads, batch);
        attention_block(&self_dims, params, &prefix, &mut kernels);
        kernels.push(common::fc(
            tgt_len * batch,
            cfg.d_model,
            cfg.d_model,
            KernelCategory::Fc,
            &prefix,
            "attn_out",
            "proj",
            true,
        ));
        kernels.push(common::layernorm(
            tgt_len * batch,
            cfg.d_model,
            &prefix,
            "proj",
            "ln1",
        ));

        // Cross-attention: queries from the decoder, K/V from the encoder
        // output (§2.1's "two other inputs receiving the matrix produced
        // from the encoder") — a rectangular tgt_len × src_len matrix.
        let prefix = format!("dec{layer}.cross");
        kernels.push(common::fc(
            tgt_len * batch,
            cfg.d_model,
            cfg.d_model,
            KernelCategory::Fc,
            &prefix,
            "ln1",
            "q",
            true,
        ));
        for out in ["k", "v"] {
            kernels.push(common::fc(
                src_len * batch,
                cfg.d_model,
                cfg.d_model,
                KernelCategory::Fc,
                &prefix,
                "enc_out",
                out,
                true,
            ));
        }
        let cross_dims = AttnDims::cross(tgt_len, src_len, d_head, heads, batch);
        attention_block(&cross_dims, params, &prefix, &mut kernels);
        fc_block(
            tgt_len * batch,
            cfg.d_model,
            cfg.d_ff,
            &prefix,
            "ln2",
            &mut kernels,
        );
    }
    kernels
}

/// Simulates one encoder–decoder inference.
///
/// # Errors
///
/// Returns [`LaunchError`] if a kernel cannot launch.
pub fn run_seq2seq(
    cfg: &Seq2SeqConfig,
    src_len: usize,
    tgt_len: usize,
    params: &RunParams,
    device: DeviceSpec,
) -> Result<RunReport, LaunchError> {
    let schedule = build_seq2seq_schedule(cfg, src_len, tgt_len, params);
    simulate_schedule("run_seq2seq", &cfg.name, params, device, &schedule)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq2seq_runs_and_recomposition_helps() {
        let cfg = Seq2SeqConfig::vanilla_transformer_big();
        let (src, tgt) = (4096, 4096);
        let base = run_seq2seq(&cfg, src, tgt, &RunParams::new(src), DeviceSpec::a100()).unwrap();
        let sdf = run_seq2seq(
            &cfg,
            src,
            tgt,
            &RunParams::new(src).strategy(SoftmaxStrategy::Recomposed),
            DeviceSpec::a100(),
        )
        .unwrap();
        let speedup = base.total_time_s() / sdf.total_time_s();
        assert!(
            speedup > 1.15,
            "seq2seq SDF speedup {speedup} (3 attention blocks per enc+dec pair)"
        );
    }

    #[test]
    fn rectangular_cross_attention_scales_with_src_len() {
        // Growing only the source length should grow cross-attention cost
        // but leave decoder self-attention unchanged.
        let cfg = Seq2SeqConfig::vanilla_transformer_big();
        let short = run_seq2seq(&cfg, 1024, 2048, &RunParams::new(1024), DeviceSpec::a100())
            .unwrap()
            .total_time_s();
        let long = run_seq2seq(&cfg, 4096, 2048, &RunParams::new(1024), DeviceSpec::a100())
            .unwrap()
            .total_time_s();
        assert!(long > short * 1.5, "src 1k->4k: {short} -> {long}");
    }

    #[test]
    fn schedule_contains_both_attention_kinds() {
        let cfg = Seq2SeqConfig::vanilla_transformer_big();
        let ks = build_seq2seq_schedule(&cfg, 2048, 1024, &RunParams::new(2048));
        // decoder self-attention softmax rows = tgt (1024 wide),
        // cross-attention softmax rows = src-wide (2048)
        assert!(ks.iter().any(|k| k.name.contains("softmax(L=1024)")));
        assert!(ks
            .iter()
            .any(|k| k.name.contains("matmul_qk") && k.name.contains("L=1024")));
        // cross QK produces a 1024 x 2048 matrix: check its traffic
        let cross_qk = ks
            .iter()
            .find(|k| {
                k.category == KernelCategory::MatMulQk
                    && k.writes.iter().any(|b| b.id.starts_with("dec0.cross"))
            })
            .expect("cross attention QK");
        let expected = (1024 * 2048 * 2) as f64 * 16.0; // fp16 × heads
        assert!(
            (cross_qk.tbs.total_write_bytes() - expected).abs() / expected < 0.05,
            "cross attn matrix bytes {}",
            cross_qk.tbs.total_write_bytes()
        );
    }
}
