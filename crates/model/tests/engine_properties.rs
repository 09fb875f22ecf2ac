//! Property-based tests of the engine: determinism, monotonicity, and
//! scaling laws that must hold for any model/strategy/device combination.

use proptest::prelude::*;
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{
    build_schedule, ModelConfig, RunParams, RunReport, Session, SoftmaxStrategy,
};

fn run(model: &ModelConfig, params: &RunParams, device: &DeviceSpec) -> RunReport {
    Session::new(model, params, device).unwrap().run().unwrap()
}

fn any_model() -> impl Strategy<Value = ModelConfig> {
    prop_oneof![
        Just(ModelConfig::bert_base()),
        Just(ModelConfig::bert_large()),
        Just(ModelConfig::gpt_neo_1_3b()),
        Just(ModelConfig::bigbird_large()),
        Just(ModelConfig::longformer_large()),
        Just(ModelConfig::sparse_transformer()),
    ]
}

fn any_strategy() -> impl Strategy<Value = SoftmaxStrategy> {
    prop_oneof![
        Just(SoftmaxStrategy::Baseline),
        Just(SoftmaxStrategy::Decomposed),
        Just(SoftmaxStrategy::Recomposed),
        Just(SoftmaxStrategy::OnlineFused),
    ]
}

fn any_device() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![
        Just(DeviceSpec::a100()),
        Just(DeviceSpec::rtx3090()),
        Just(DeviceSpec::t4()),
    ]
}

/// L values compatible with every pattern/tile in play (multiples of 512).
fn any_seq_len() -> impl Strategy<Value = usize> {
    (1usize..8).prop_map(|k| k * 512)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Same inputs produce bit-identical schedules and timings.
    #[test]
    fn engine_is_deterministic(model in any_model(), s in any_strategy(), l in any_seq_len()) {
        let params = RunParams::new(l).strategy(s);
        let a = build_schedule(&model, &params);
        let b = build_schedule(&model, &params);
        prop_assert_eq!(&a, &b);
        let ra = run(&model, &params, &DeviceSpec::a100());
        let rb = run(&model, &params, &DeviceSpec::a100());
        prop_assert_eq!(ra.total_time_s(), rb.total_time_s());
        prop_assert_eq!(ra.total_dram_bytes(), rb.total_dram_bytes());
    }

    /// Longer sequences never run faster.
    #[test]
    fn time_monotone_in_seq_len(
        model in any_model(),
        s in any_strategy(),
        device in any_device(),
        k in 1usize..4,
    ) {
        let l1 = k * 512;
        let l2 = (k + 1) * 512;
        let t1 = run(&model, &RunParams::new(l1).strategy(s), &device).total_time_s();
        let t2 = run(&model, &RunParams::new(l2).strategy(s), &device).total_time_s();
        prop_assert!(t2 > t1, "{}: L {l1}->{l2}: {t1} -> {t2}", model.name);
    }

    /// Batch b costs at least (b-eps)× batch 1 and at most b× plus overheads
    /// (batching can only amortize, never multiply, fixed costs).
    #[test]
    fn batch_scaling_bounded(model in any_model(), b in 2usize..8) {
        let t1 = run(&model, &RunParams::new(1024), &DeviceSpec::a100()).total_time_s();
        let tb = run(&model, &RunParams::new(1024).batch(b), &DeviceSpec::a100()).total_time_s();
        let ratio = tb / t1;
        prop_assert!(ratio <= b as f64 * 1.05, "{}: batch {b} ratio {ratio}", model.name);
        prop_assert!(ratio >= 0.5 * b as f64, "{}: batch {b} ratio {ratio}", model.name);
    }

    /// Faster GPU (A100) never loses to T4 on the same workload.
    #[test]
    fn a100_beats_t4(model in any_model(), s in any_strategy(), l in any_seq_len()) {
        let params = RunParams::new(l).strategy(s);
        let ta = run(&model, &params, &DeviceSpec::a100()).total_time_s();
        let tt = run(&model, &params, &DeviceSpec::t4()).total_time_s();
        prop_assert!(ta < tt, "{} {}: A100 {ta} vs T4 {tt}", model.name, s.label());
    }

    /// Traffic is strategy-dependent but device-independent (the same
    /// schedule moves the same bytes everywhere, modulo L2 size effects
    /// which only *reduce* traffic on bigger caches).
    #[test]
    fn traffic_weakly_decreases_with_l2(model in any_model(), s in any_strategy()) {
        let params = RunParams::new(1024).strategy(s);
        let big = run(&model, &params, &DeviceSpec::a100()).total_dram_bytes();
        let small = run(&model, &params, &DeviceSpec::t4()).total_dram_bytes();
        prop_assert!(big <= small * 1.001, "{}: 40MB L2 {big} vs 4MB L2 {small}", model.name);
    }
}
