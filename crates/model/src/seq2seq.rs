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
use crate::error::Error;
use crate::schedule::{build_layer, dense_attention, RunParams};
use crate::session::certify;
use resoftmax_gpusim::{DeviceSpec, KernelCategory, KernelDesc, Schedule, Scope};
use resoftmax_kernels::costs::{common, AttnDims};
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

/// Builds the schedule of one full encoder–decoder inference: the encoder
/// over `src_len` tokens, then the decoder over `tgt_len` tokens with causal
/// self-attention and cross-attention into the encoder output. Encoder
/// layer `l` reads `enc{l}.x` and writes `enc{l+1}.x`; decoder layer `l`
/// reads `dec{l}.self.x` and writes `dec{l+1}.self.x`.
pub fn build_seq2seq_schedule(
    cfg: &Seq2SeqConfig,
    src_len: usize,
    tgt_len: usize,
    params: &RunParams,
) -> Vec<KernelDesc> {
    let mut kernels = Vec::new();
    let d_model = cfg.d_model;
    let (src_rows, tgt_rows) = (src_len * params.batch, tgt_len * params.batch);
    let attention = |dims: AttnDims, scope: Scope, kernels: &mut Vec<KernelDesc>| {
        dense_attention(&dims, params.strategy, params.tile, false, scope, kernels);
    };
    let self_dims = |len| AttnDims::new(len, cfg.d_head(), cfg.heads, params.batch);

    for layer in 0..cfg.encoder_layers {
        let scope = Scope::encoder(layer);
        build_layer(
            d_model,
            cfg.d_ff,
            src_rows,
            false,
            scope,
            Scope::encoder(layer + 1).id("x"),
            &mut kernels,
            |kernels| attention(self_dims(src_len), scope, kernels),
        );
    }
    let enc_out = Scope::encoder(cfg.encoder_layers).id("x");

    for layer in 0..cfg.decoder_layers {
        // Causal self-attention over the target.
        let scope = Scope::decoder_self(layer);
        for out in ["q", "k", "v"] {
            kernels.push(common::fc(
                tgt_rows,
                d_model,
                d_model,
                KernelCategory::Fc,
                scope.id("x"),
                scope.id(out),
                true,
            ));
        }
        attention(self_dims(tgt_len), scope, &mut kernels);
        kernels.push(common::fc(
            tgt_rows,
            d_model,
            d_model,
            KernelCategory::Fc,
            scope.id("attn_out"),
            scope.id("proj"),
            true,
        ));
        let self_out = scope.id("ln1");
        kernels.push(common::layernorm(
            tgt_rows,
            d_model,
            scope.id("proj"),
            self_out,
        ));

        // Cross-attention: queries from the decoder, K/V from the encoder
        // output (§2.1's "two other inputs receiving the matrix produced
        // from the encoder") — a rectangular tgt_len × src_len matrix.
        let scope = Scope::decoder_cross(layer);
        kernels.push(common::fc(
            tgt_rows,
            d_model,
            d_model,
            KernelCategory::Fc,
            self_out,
            scope.id("q"),
            true,
        ));
        for out in ["k", "v"] {
            kernels.push(common::fc(
                src_rows,
                d_model,
                d_model,
                KernelCategory::Fc,
                enc_out,
                scope.id(out),
                true,
            ));
        }
        let cross_dims = AttnDims::cross(tgt_len, src_len, cfg.d_head(), cfg.heads, params.batch);
        attention(cross_dims, scope, &mut kernels);
        kernels.push(common::fc(
            tgt_rows,
            d_model,
            d_model,
            KernelCategory::Fc,
            scope.id("attn_out"),
            scope.id("proj"),
            true,
        ));
        kernels.push(common::layernorm(
            tgt_rows,
            d_model,
            scope.id("proj"),
            scope.id("ln2"),
        ));
        kernels.push(common::fc(
            tgt_rows,
            d_model,
            cfg.d_ff,
            KernelCategory::FeedForward,
            scope.id("ln2"),
            scope.id("ff1"),
            true,
        ));
        kernels.push(common::fc(
            tgt_rows,
            cfg.d_ff,
            d_model,
            KernelCategory::FeedForward,
            scope.id("ff1"),
            scope.id("ff2"),
            false,
        ));
        kernels.push(common::layernorm(
            tgt_rows,
            d_model,
            scope.id("ff2"),
            Scope::decoder_self(layer + 1).id("x"),
        ));
    }
    kernels
}

/// Simulates one encoder–decoder inference.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when the strategy's certified error bound over
/// the longer of the two sequences exceeds the budget (the numerics gate
/// [`Session::new`](crate::Session::new) applies); [`Error::Launch`] if a
/// kernel cannot launch.
pub fn run_seq2seq(
    cfg: &Seq2SeqConfig,
    src_len: usize,
    tgt_len: usize,
    params: &RunParams,
    device: DeviceSpec,
) -> Result<RunReport, Error> {
    let ctx = src_len.max(tgt_len);
    certify(
        Some(params.strategy.certified_bound(ctx, params.tile.n)),
        params,
        "L=",
    )?;
    let schedule = Schedule::from(build_seq2seq_schedule(cfg, src_len, tgt_len, params));
    Ok(simulate_schedule(
        "run_seq2seq",
        &cfg.name,
        params,
        device,
        &schedule,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::SoftmaxStrategy;
    use resoftmax_kernels::costs::TileConfig;

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

    /// The numerics gate `Session::new` applies holds here too, at the
    /// longer of the two sequences.
    #[test]
    fn fp16_recomposition_gated_by_certified_bound() {
        let cfg = Seq2SeqConfig::vanilla_transformer_big();
        let wide = RunParams::new(4096).strategy(SoftmaxStrategy::RecomposedFp16);
        let e = run_seq2seq(&cfg, 4096, 4096, &wide, DeviceSpec::a100()).unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }), "{e}");
        assert!(e.to_string().contains("certified"), "{e}");
        // The gate takes the longer sequence, whichever side it is on.
        assert!(run_seq2seq(&cfg, 512, 4096, &wide, DeviceSpec::a100()).is_err());

        let narrow = wide.tile(TileConfig::new(64, 16));
        let r = run_seq2seq(&cfg, 1024, 1024, &narrow, DeviceSpec::a100()).unwrap();
        assert!(r.total_time_s() > 0.0);
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
                    && k.writes
                        .iter()
                        .any(|b| b.id.scope() == Scope::decoder_cross(0))
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
