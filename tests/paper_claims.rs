//! End-to-end integration tests asserting the paper's headline claims on the
//! public API, crossing every crate boundary: fp16 → tensor → sparse →
//! kernels → gpusim → model → core.

use resoftmax::prelude::*;

const L: usize = 4096;

fn a100() -> DeviceSpec {
    DeviceSpec::a100()
}

/// Simulates one inference of `model` at `params` on `device`.
fn run(model: &ModelConfig, params: &RunParams, device: &DeviceSpec) -> RunReport {
    Session::new(model, params, device).unwrap().run().unwrap()
}

fn speedup(model: &ModelConfig, strategy: SoftmaxStrategy, device: &DeviceSpec) -> f64 {
    let base = run(model, &RunParams::new(L), device);
    let variant = run(model, &RunParams::new(L).strategy(strategy), device);
    base.total_time_s() / variant.total_time_s()
}

/// Abstract: "softmax recomposition achieves up to 1.25×, 1.12×, 1.57×, and
/// 1.65× speedups in inferring BERT, GPT-Neo, BigBird, and Longformer".
#[test]
fn headline_speedups_within_bands() {
    let paper = [
        (ModelConfig::bert_large(), 1.25),
        (ModelConfig::gpt_neo_1_3b(), 1.12),
        (ModelConfig::bigbird_large(), 1.57),
        (ModelConfig::longformer_large(), 1.65),
    ];
    for (model, expected) in paper {
        let got = speedup(&model, SoftmaxStrategy::Recomposed, &a100());
        assert!(
            (got - expected).abs() / expected < 0.12,
            "{}: measured {got:.2}x vs paper {expected}x",
            model.name
        );
    }
}

/// §2.3: at L = 4096 on A100, BERT's SDA block uses ~68% of total time and
/// the softmax layer ~36%; even sparse models keep softmax above 40%.
#[test]
fn breakdown_fractions_match_fig2() {
    let bert = run(&ModelConfig::bert_large(), &RunParams::new(L), &a100());
    assert!(
        (bert.sda_time_fraction() - 0.68).abs() < 0.08,
        "{}",
        bert.sda_time_fraction()
    );
    assert!((bert.softmax_time_fraction() - 0.36).abs() < 0.05);

    for sparse in [
        ModelConfig::bigbird_large(),
        ModelConfig::longformer_large(),
    ] {
        let r = run(&sparse, &RunParams::new(L), &a100());
        assert!(
            r.softmax_time_fraction() > 0.37,
            "{}: softmax frac {}",
            sparse.name,
            r.softmax_time_fraction()
        );
    }
}

/// §5.1: SD alone slows dense models (0.94×, 0.99×) and speeds sparse models
/// (1.44×, 1.49×).
#[test]
fn sd_splits_dense_and_sparse() {
    assert!(
        speedup(
            &ModelConfig::bert_large(),
            SoftmaxStrategy::Decomposed,
            &a100()
        ) < 1.0
    );
    assert!(
        speedup(
            &ModelConfig::gpt_neo_1_3b(),
            SoftmaxStrategy::Decomposed,
            &a100()
        ) < 1.0
    );
    let bb = speedup(
        &ModelConfig::bigbird_large(),
        SoftmaxStrategy::Decomposed,
        &a100(),
    );
    let lf = speedup(
        &ModelConfig::longformer_large(),
        SoftmaxStrategy::Decomposed,
        &a100(),
    );
    assert!((1.3..1.6).contains(&bb), "BigBird SD {bb}");
    assert!((1.3..1.6).contains(&lf), "Longformer SD {lf}");
}

/// §3.3 / Fig. 6: fusion halves the attention-matrix traffic around the
/// softmax layer (4 crossings → 2).
#[test]
fn fusion_halves_softmax_boundary_traffic() {
    let rows = experiments::fig8_sd_sdf(&a100(), L, 1).unwrap();
    for r in &rows {
        let cut = 1.0 / r.softmax_traffic_ratio;
        assert!(
            (1.58..2.51).contains(&cut),
            "{}: softmax boundary cut {cut:.2} outside the paper's 1.58–2.51×",
            r.model
        );
    }
}

/// Abstract: 28% average latency reduction and 29% average off-chip access
/// energy reduction.
#[test]
fn average_latency_and_energy_reductions() {
    let rows = experiments::fig8_sd_sdf(&a100(), L, 1).unwrap();
    let avg_latency: f64 =
        rows.iter().map(|r| 1.0 - 1.0 / r.sdf_speedup).sum::<f64>() / rows.len() as f64;
    let avg_energy: f64 = rows.iter().map(|r| 1.0 - r.sdf_energy).sum::<f64>() / rows.len() as f64;
    assert!(
        (0.20..0.34).contains(&avg_latency),
        "latency cut {avg_latency}"
    );
    assert!(
        (0.22..0.45).contains(&avg_energy),
        "energy cut {avg_energy}"
    );
}

/// Fig. 9(a): SDF speedup grows with sequence length for every model.
#[test]
fn speedup_grows_with_sequence_length() {
    for model in ModelConfig::all_eval_models() {
        let s2k = {
            let base = run(&model, &RunParams::new(2048), &a100());
            let sdf = run(
                &model,
                &RunParams::new(2048).strategy(SoftmaxStrategy::Recomposed),
                &a100(),
            );
            base.total_time_s() / sdf.total_time_s()
        };
        let s8k = {
            let base = run(&model, &RunParams::new(8192), &a100());
            let sdf = run(
                &model,
                &RunParams::new(8192).strategy(SoftmaxStrategy::Recomposed),
                &a100(),
            );
            base.total_time_s() / sdf.total_time_s()
        };
        assert!(s8k > s2k, "{}: {s2k} -> {s8k}", model.name);
    }
}

/// §5.1 cross-GPU: every model speeds up on every GPU, with the sparse
/// models gaining the most on T4 and the A100 ordering preserved.
#[test]
fn cross_gpu_speedups() {
    let rows = experiments::gpu_speedup_matrix(L).unwrap();
    assert_eq!(rows.len(), 12);
    for r in &rows {
        assert!(
            r.sdf_speedup > 1.0,
            "{} {} {}",
            r.device,
            r.model,
            r.sdf_speedup
        );
    }
    let get = |d: &str, m: &str| {
        rows.iter()
            .find(|r| r.device == d && r.model.starts_with(m))
            .unwrap()
            .sdf_speedup
    };
    // GPT-Neo gains least everywhere; sparse gain more than BERT everywhere.
    for dev in ["A100", "RTX 3090", "T4"] {
        assert!(get(dev, "GPT") < get(dev, "BERT"));
        assert!(get(dev, "BigBird") > get(dev, "BERT"));
    }
    // 3090 gains less than A100 on dense (paper: smaller softmax share).
    assert!(get("RTX 3090", "BERT") < get("A100", "BERT"));
}

/// The numerics behind it all, exercised through the umbrella prelude.
#[test]
fn recomposition_is_numerically_faithful() {
    let eq = verify::verify_decomposition(16, 512, 64, 99);
    assert!(eq.max_abs_f64 < 1e-13);
    assert!(eq.max_ulp_fp16 <= 8);
    let fr = verify::verify_fusion(256, 64, 64, 100);
    assert!(fr.max_abs_f64 < 1e-5);
    assert!(verify::verify_backward(2, 32, 101) < 1e-5);
}

/// Block-sparse attention through the full public path equals masked dense.
#[test]
fn sparse_attention_end_to_end() {
    let l = 128;
    let layout = pattern::longformer(
        l,
        &LongformerConfig {
            block: 16,
            window: 64,
            global_tokens: 16,
        },
    );
    let q = randn_matrix::<f64>(l, 8, 1.0, 1);
    let k = randn_matrix::<f64>(l, 8, 1.0, 2);
    let v = randn_matrix::<f64>(l, 8, 1.0, 3);
    let sparse_out = spmm(&block_sparse_softmax(&sddmm(&q, &k, &layout).unwrap()), &v).unwrap();
    let mask = layout.element_mask();
    let dense = matmul(
        &softmax_rows(&apply_mask(&matmul(&q, &transpose(&k)).unwrap(), &mask)),
        &v,
    )
    .unwrap();
    assert!(max_abs_diff(&sparse_out, &dense) < 1e-9);
}

/// Half precision end to end: recomposed attention in bit-exact binary16
/// stays finite and close to the f64 oracle even with large scores.
#[test]
fn fp16_pipeline_is_safe() {
    let l = 128;
    let q = randn_matrix::<F16>(l, 32, 2.0, 5);
    let k = randn_matrix::<F16>(l, 32, 2.0, 6);
    let v = randn_matrix::<F16>(l, 32, 1.0, 7);
    let scale = 1.0 / 32f64.sqrt();
    let (out, ir) = recomposed_attention(&q, &k, &v, 32, scale, None).unwrap();
    assert!(!out.has_nan());
    assert!(out.as_slice().iter().all(|x| x.is_finite()));
    for r in 0..l {
        let s: f64 = ir.r_prime.row(r).iter().map(|x| x.to_f64()).sum();
        assert!((s - 1.0).abs() < 0.05, "row {r}: Σr' = {s}");
    }
}
