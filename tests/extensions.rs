//! Integration tests of the extensions beyond the paper: the online-softmax
//! strategy, the training-iteration cost model, the Sparse Transformer
//! preset, trace export, and failure handling at the system boundary.

use resoftmax::gpusim::chrome_trace::to_chrome_trace;
use resoftmax::model::build_training_schedule;
use resoftmax::prelude::*;

const L: usize = 4096;

fn a100() -> DeviceSpec {
    DeviceSpec::a100()
}

/// A validated A100 session for `model` at `params`.
fn a100_session(model: &ModelConfig, params: &RunParams) -> Session {
    Session::new(model, params, &a100()).unwrap()
}

/// The online-softmax strategy dominates SDF at long sequences on dense
/// models (the FlashAttention headroom), and both beat the baseline.
#[test]
fn online_dominates_sdf_at_long_sequences() {
    let model = ModelConfig::bert_large();
    let base = a100_session(&model, &RunParams::new(L)).run().unwrap();
    let sdf = a100_session(
        &model,
        &RunParams::new(L).strategy(SoftmaxStrategy::Recomposed),
    )
    .run()
    .unwrap();
    let online = a100_session(
        &model,
        &RunParams::new(L).strategy(SoftmaxStrategy::OnlineFused),
    )
    .run()
    .unwrap();
    assert!(sdf.total_time_s() < base.total_time_s());
    assert!(online.total_time_s() < sdf.total_time_s());
    // online eliminates the attention matrix: traffic collapses
    assert!(online.total_dram_bytes() < 0.25 * base.total_dram_bytes());
}

/// The online numeric kernel agrees with the recomposed pipeline end to end
/// through the public prelude.
#[test]
fn online_numerics_through_prelude() {
    use resoftmax::kernels::online_attention;
    let (l, d) = (128, 32);
    let scale = 1.0 / (d as f64).sqrt();
    let q = randn_matrix::<f64>(l, d, 1.0, 1);
    let k = randn_matrix::<f64>(l, d, 1.0, 2);
    let v = randn_matrix::<f64>(l, d, 1.0, 3);
    let (sdf, _) = recomposed_attention(&q, &k, &v, 32, scale, None).unwrap();
    let online = online_attention(&q, &k, &v, 32, scale, None).unwrap();
    assert!(max_abs_diff(&sdf, &online) < 1e-5);
}

/// Training: recomposition speeds up a full fwd+bwd iteration and the
/// backward pass contains no monolithic softmax kernel.
#[test]
fn training_iteration_gains() {
    let model = ModelConfig::bert_large();
    let base = a100_session(&model, &RunParams::new(L)).train().unwrap();
    let sdf = a100_session(
        &model,
        &RunParams::new(L).strategy(SoftmaxStrategy::Recomposed),
    )
    .train()
    .unwrap();
    assert!(base.total_time_s() / sdf.total_time_s() > 1.05);
    // no Softmax-category kernel remains anywhere in the recomposed schedule
    let schedule = build_training_schedule(
        &model,
        &RunParams::new(L).strategy(SoftmaxStrategy::Recomposed),
    );
    assert!(!schedule
        .iter()
        .any(|k| k.category == KernelCategory::Softmax));
    // but the baseline has one per layer in each direction
    let baseline_schedule = build_training_schedule(&model, &RunParams::new(L));
    let n_softmax = baseline_schedule
        .iter()
        .filter(|k| k.category == KernelCategory::Softmax)
        .count();
    assert_eq!(n_softmax, 2 * model.layers);
}

/// The Sparse Transformer preset runs under all paper strategies and
/// benefits from recomposition like the other sparse models.
#[test]
fn sparse_transformer_model_works() {
    let model = ModelConfig::sparse_transformer();
    let base = a100_session(&model, &RunParams::new(L)).run().unwrap();
    let sd = a100_session(
        &model,
        &RunParams::new(L).strategy(SoftmaxStrategy::Decomposed),
    )
    .run()
    .unwrap();
    let sdf = a100_session(
        &model,
        &RunParams::new(L).strategy(SoftmaxStrategy::Recomposed),
    )
    .run()
    .unwrap();
    assert!(
        sd.total_time_s() < base.total_time_s(),
        "SD helps sparse models"
    );
    assert!(sdf.total_time_s() < sd.total_time_s());
}

/// Chrome-trace export round-trips through a JSON parser and covers the
/// whole schedule.
#[test]
fn trace_export_is_complete() {
    let report = a100_session(&ModelConfig::bert_large(), &RunParams::new(1024))
        .run()
        .unwrap();
    let json = to_chrome_trace(&report.timeline);
    let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
    let events = parsed.as_array().unwrap();
    assert_eq!(events.len(), report.timeline.len());
    let total_dur: f64 = events
        .iter()
        .map(|e| e["dur"].as_f64().unwrap())
        .sum::<f64>()
        / 1e6;
    // durations are serialized at nanosecond granularity: allow the
    // accumulated rounding across the schedule
    assert!((total_dur - report.total_time_s()).abs() < 1e-6);
}

/// A device too small for a kernel's thread block produces a typed launch
/// error, not a wrong simulation.
#[test]
fn undersized_device_errors_cleanly() {
    let mut tiny = DeviceSpec::t4();
    tiny.l1_kb_per_sm = 4; // monolithic softmax at L=4096 needs 8KB shared
    let e = Session::new(&ModelConfig::bert_large(), &RunParams::new(L), &tiny)
        .unwrap()
        .run()
        .unwrap_err();
    assert!(matches!(e, Error::Launch(_)), "{e}");
    assert!(e.to_string().contains("does not fit"), "{e}");
}

/// Workload statistics drive the documented motivation numbers.
#[test]
fn workload_motivates_long_sequences() {
    let w = Workload::generate(&WorkloadConfig::default());
    assert!(w.token_coverage(4096) > 2.0 * w.token_coverage(512));
    assert!(w.truncated_fraction(512) > 0.9);
}

/// Strategy labels are stable (used by reports and the CLI binaries).
#[test]
fn strategy_labels() {
    assert_eq!(SoftmaxStrategy::Baseline.label(), "Baseline");
    assert_eq!(SoftmaxStrategy::Decomposed.label(), "SD");
    assert_eq!(SoftmaxStrategy::Recomposed.label(), "SDF");
    assert_eq!(SoftmaxStrategy::OnlineFused.label(), "Online");
    assert_eq!(SoftmaxStrategy::all().len(), 3, "paper's own set");
}

/// The encoder–decoder extension gains from recomposition on both attention
/// kinds, and more at longer source lengths.
#[test]
fn seq2seq_gains_grow_with_source_length() {
    use resoftmax::model::run_seq2seq;
    let cfg = Seq2SeqConfig::vanilla_transformer_big();
    let speedup = |src: usize, tgt: usize| -> f64 {
        let base = run_seq2seq(&cfg, src, tgt, &RunParams::new(src), a100()).unwrap();
        let sdf = run_seq2seq(
            &cfg,
            src,
            tgt,
            &RunParams::new(src).strategy(SoftmaxStrategy::Recomposed),
            a100(),
        )
        .unwrap();
        base.total_time_s() / sdf.total_time_s()
    };
    let short = speedup(1024, 1024);
    let long = speedup(4096, 4096);
    assert!(long > short, "seq2seq: {short} -> {long}");
    assert!(long > 1.2);
}

/// Sparse training keeps near-inference gains (the backward softmax shares
/// the §5.1 pathology), and dense training gains are positive but smaller.
#[test]
fn sparse_training_gains() {
    let speedup = |model: &ModelConfig| -> f64 {
        let base = a100_session(model, &RunParams::new(L)).train().unwrap();
        let sdf = a100_session(
            model,
            &RunParams::new(L).strategy(SoftmaxStrategy::Recomposed),
        )
        .train()
        .unwrap();
        base.total_time_s() / sdf.total_time_s()
    };
    let bert = speedup(&ModelConfig::bert_large());
    let bigbird = speedup(&ModelConfig::bigbird_large());
    assert!(bert > 1.05, "dense training {bert}");
    assert!(bigbird > 1.3, "sparse training {bigbird}");
    assert!(bigbird > bert);
}

/// The block-sparse online kernel agrees with the block-sparse pipeline.
#[test]
fn block_sparse_online_numerics() {
    use resoftmax::kernels::bs_online_attention;
    let l = 128;
    let layout = pattern::bigbird(
        l,
        &BigBirdConfig {
            block: 16,
            ..Default::default()
        },
    );
    let q = randn_matrix::<f64>(l, 16, 1.0, 800);
    let k = randn_matrix::<f64>(l, 16, 1.0, 801);
    let v = randn_matrix::<f64>(l, 16, 1.0, 802);
    let online = bs_online_attention(&q, &k, &v, &layout, 0.25).unwrap();
    let mut scores = sddmm(&q, &k, &layout).unwrap();
    for block in scores.blocks_mut() {
        use resoftmax::tensor::scale;
        *block = scale(block, 0.25);
    }
    let reference = spmm(&block_sparse_softmax(&scores), &v).unwrap();
    assert!(max_abs_diff(&reference, &online) < 1e-5);
}
