//! Extension (§6): cost model of a full *training* iteration —
//! forward pass + backward pass — under the baseline and recomposed
//! strategies.
//!
//! The paper shows (Eq. 3) that recomposition stays legal in training; this
//! module quantifies what it is worth there. The forward pass is the
//! inference schedule; the backward pass adds, per layer: FC/FF data- and
//! weight-gradient MatMuls, activation/LayerNorm backward, and the
//! attention backward chain (`dV`, `dP`, Eq. 3, `dQ`, `dK`) in either its
//! baseline form (standalone barrier-bound softmax-backward row kernel,
//! stored `P`) or its recomposed form (partial row-dots in the `dP`
//! epilogue + IR reduction + an *elementwise* `dS` kernel, stored
//! `x'`/`r'` — the paper's access-pattern argument applied to backward).
//!
//! Block-sparse models train through the mirrored block-sparse backward
//! kernels (`costs::sparse_training`); their baseline softmax-backward has
//! the same §5.1 utilization pathology as the forward one, so recomposition
//! gains even more in sparse training than dense.

use crate::config::ModelConfig;
use crate::schedule::{build_schedule_on, uses_sparse_kernels, RunParams, SoftmaxStrategy};
use resoftmax_gpusim::{KernelCategory, KernelDesc, Scope};
use resoftmax_kernels::costs::{common, sparse_training, training, AttnDims};

/// Builds the kernel schedule of one training iteration (forward + backward),
/// for dense and block-sparse models alike.
///
/// # Panics
///
/// Panics if the strategy is [`SoftmaxStrategy::OnlineFused`] (its backward
/// would be a recompute-based FlashAttention backward, out of scope for the
/// §6 extension); [`Session::train`](crate::Session::train) rejects it with
/// a typed error instead.
pub fn build_training_schedule(model: &ModelConfig, params: &RunParams) -> Vec<KernelDesc> {
    assert!(
        params.strategy != SoftmaxStrategy::OnlineFused,
        "online-fused backward is out of scope"
    );
    let recomposed = params.strategy.is_recomposed();
    let rows = params.seq_len * params.batch;
    let d_model = model.d_model;
    let dims = AttnDims::new(params.seq_len, model.d_head(), model.heads, params.batch);
    let tile = params.tile;

    // One sparse layout serves both passes. The backward chain is
    // block-sparse for every sparse model; the forward pass only where the
    // profile runs block-sparse kernels.
    let layout = model
        .attention
        .is_sparse()
        .then(|| model.attention.layout(params.seq_len));
    let forward_layout = layout
        .as_ref()
        .filter(|_| uses_sparse_kernels(model, &params.profile));

    // Forward pass (identical to inference; activations stay resident in the
    // cost model via the same buffer ids the backward kernels reference).
    let mut kernels = build_schedule_on(model, params, forward_layout).expand();

    // Backward pass, reverse layer order.
    for layer in (0..model.layers).rev() {
        let scope = Scope::layer(layer);

        // LayerNorm-2 backward (reads dY + stats, writes dX; ~LN cost).
        kernels.push(common::layernorm(
            rows,
            d_model,
            scope.id("d_out"),
            scope.id("d_ff2"),
        ));

        // FF backward: dgrad + wgrad for both FCs, activation backward.
        kernels.push(common::fc(
            rows,
            d_model,
            model.d_ff,
            KernelCategory::FeedForward,
            scope.id("d_ff2"),
            scope.id("d_ff1"),
            false,
        ));
        kernels.push(common::fc(
            model.d_ff,
            rows,
            d_model,
            KernelCategory::FeedForward,
            scope.id("ff1"),
            scope.id("w2_grad"),
            false,
        ));
        kernels.push(common::elementwise(
            (rows * model.d_ff) as u64,
            17.0,
            2,
            KernelCategory::Activation,
            "gelu_bwd",
            &[scope.id("d_ff1"), scope.id("ff1")],
            scope.id("d_ff1"),
        ));
        kernels.push(common::fc(
            rows,
            model.d_ff,
            d_model,
            KernelCategory::FeedForward,
            scope.id("d_ff1"),
            scope.id("d_ln1"),
            false,
        ));
        kernels.push(common::fc(
            d_model,
            rows,
            model.d_ff,
            KernelCategory::FeedForward,
            scope.id("ln1"),
            scope.id("w1_grad"),
            false,
        ));

        // LayerNorm-1 backward.
        kernels.push(common::layernorm(
            rows,
            d_model,
            scope.id("d_ln1"),
            scope.id("d_proj"),
        ));

        // Attention output projection backward: dgrad + wgrad.
        kernels.push(common::fc(
            rows,
            d_model,
            d_model,
            KernelCategory::Fc,
            scope.id("d_proj"),
            scope.id("d_attn_out"),
            false,
        ));
        kernels.push(common::fc(
            d_model,
            rows,
            d_model,
            KernelCategory::Fc,
            scope.id("attn_out"),
            scope.id("wo_grad"),
            false,
        ));

        // The attention backward chain (the §6 heart).
        if let Some(layout) = &layout {
            kernels.push(sparse_training::bs_matmul_dv(
                layout, &dims, scope, recomposed,
            ));
            kernels.push(sparse_training::bs_matmul_dp(
                layout, &dims, scope, recomposed,
            ));
            if recomposed {
                kernels.push(sparse_training::bs_rowdot_reduction(layout, &dims, scope));
                kernels.push(sparse_training::bs_ds_elementwise(layout, &dims, scope));
            } else {
                kernels.push(sparse_training::bs_softmax_backward(layout, &dims, scope));
            }
            kernels.push(sparse_training::bs_matmul_dq_or_dk(
                layout, &dims, scope, "d_q",
            ));
            kernels.push(sparse_training::bs_matmul_dq_or_dk(
                layout, &dims, scope, "d_k",
            ));
        } else {
            kernels.push(training::matmul_dv(&dims, tile, scope, recomposed));
            kernels.push(training::matmul_dp(&dims, tile, scope, recomposed));
            if recomposed {
                kernels.push(training::rowdot_reduction(&dims, tile.n, scope));
                kernels.push(training::ds_elementwise(&dims, tile.n, scope));
            } else {
                kernels.push(training::softmax_backward_monolithic(&dims, scope));
            }
            kernels.push(training::matmul_dq_or_dk(&dims, tile, scope, "d_q", "k"));
            kernels.push(training::matmul_dq_or_dk(&dims, tile, scope, "d_k", "q"));
        }

        // QKV projection backward: 3 × (dgrad + wgrad).
        for (g, w_grad) in [
            ("d_q", "w_d_q_grad"),
            ("d_k", "w_d_k_grad"),
            ("d_v", "w_d_v_grad"),
        ] {
            kernels.push(common::fc(
                rows,
                d_model,
                d_model,
                KernelCategory::Fc,
                scope.id(g),
                scope.id("d_x_partial"),
                false,
            ));
            kernels.push(common::fc(
                d_model,
                rows,
                d_model,
                KernelCategory::Fc,
                scope.id("x"),
                scope.id(w_grad),
                false,
            ));
        }
    }
    kernels
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::build_schedule;
    use crate::{RunReport, Session};
    use resoftmax_gpusim::DeviceSpec;

    fn session(m: &ModelConfig, params: &RunParams) -> Session {
        Session::new(m, params, &DeviceSpec::a100()).unwrap()
    }

    fn train(m: &ModelConfig, params: &RunParams) -> RunReport {
        session(m, params).train().unwrap()
    }

    #[test]
    fn training_schedule_is_superset_of_inference() {
        let m = ModelConfig::bert_large();
        let p = RunParams::new(4096);
        let fwd = build_schedule(&m, &p).expand();
        let train = build_training_schedule(&m, &p);
        assert!(train.len() > fwd.len() * 2 - m.layers * 5);
        // forward prefix is identical
        assert_eq!(&train[..fwd.len()], &fwd[..]);
    }

    #[test]
    fn recomposition_speeds_up_training() {
        let m = ModelConfig::bert_large();
        let base = train(&m, &RunParams::new(4096));
        let sdf = train(
            &m,
            &RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
        );
        let speedup = base.total_time_s() / sdf.total_time_s();
        assert!(
            speedup > 1.1,
            "training speedup {speedup} should be substantial"
        );
        assert!(sdf.total_dram_bytes() < base.total_dram_bytes());
    }

    #[test]
    fn backward_roughly_doubles_cost() {
        let m = ModelConfig::bert_large();
        let p = RunParams::new(4096);
        let fwd = session(&m, &p).run().unwrap();
        let training = train(&m, &p);
        let ratio = training.total_time_s() / fwd.total_time_s();
        assert!((1.8..3.5).contains(&ratio), "train/inference ratio {ratio}");
    }

    #[test]
    fn sparse_training_gains_exceed_dense() {
        let gain = |m: &ModelConfig| {
            let base = train(m, &RunParams::new(4096));
            let sdf = train(
                m,
                &RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
            );
            base.total_time_s() / sdf.total_time_s()
        };
        let dense = gain(&ModelConfig::bert_large());
        let sparse = gain(&ModelConfig::bigbird_large());
        assert!(sparse > 1.1, "sparse training speedup {sparse}");
        assert!(
            sparse > dense,
            "sparse training ({sparse}) should gain more than dense ({dense})"
        );
    }

    #[test]
    #[should_panic(expected = "out of scope")]
    fn online_fused_rejected() {
        let _ = build_training_schedule(
            &ModelConfig::bert_large(),
            &RunParams::new(4096).strategy(SoftmaxStrategy::OnlineFused),
        );
    }
}
