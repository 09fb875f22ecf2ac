//! Property-based tuner contracts: for arbitrary model/workload
//! combinations, every tuner-returned schedule analyzes clean and never
//! simulates slower than the default parameters.

#![cfg(not(miri))] // end-to-end simulation is too slow under miri

use proptest::prelude::*;
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::ModelConfig;
use resoftmax_tune::{
    evaluate, precheck, precheck_decode, SearchMode, SearchSpace, TuneWorkload, Tuner,
};

fn any_dense_model() -> impl Strategy<Value = ModelConfig> {
    prop_oneof![
        Just(ModelConfig::bert_base()),
        Just(ModelConfig::bert_large()),
        Just(ModelConfig::gpt_neo_1_3b()),
    ]
}

fn any_workload() -> impl Strategy<Value = TuneWorkload> {
    prop_oneof![
        ((1usize..9), (1usize..5)).prop_map(|(k, b)| TuneWorkload::Prefill {
            seq_len: k * 128,
            batch: b,
        }),
        proptest::collection::vec(64usize..2048, 1..5)
            .prop_map(|ctxs| TuneWorkload::Decode { ctxs }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The tuner invariant: whatever the workload, the returned schedule
    /// passes static analysis for its bucket and its recorded cost is
    /// (a) reproducible and (b) ≤ the default's.
    #[test]
    fn tuned_schedules_analyze_clean_and_never_lose(
        model in any_dense_model(),
        workload in any_workload(),
    ) {
        let device = DeviceSpec::a100();
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let tuned = tuner.tune(&model, &device, &workload).unwrap();

        prop_assert!(tuned.cost_s <= tuned.default_cost_s,
            "{}: tuned {} > default {}", workload.label(), tuned.cost_s, tuned.default_cost_s);

        match &tuned.workload {
            TuneWorkload::Prefill { .. } => prop_assert!(precheck(&model, &tuned.params).is_ok()),
            TuneWorkload::Decode { ctxs } => {
                prop_assert!(precheck_decode(&model, ctxs, &tuned.params).is_ok());
            }
        }
        // Re-pricing the winner reproduces the recorded cost bit-exactly.
        let repriced = evaluate(&model, &device, &tuned.workload, &tuned.params).unwrap();
        prop_assert_eq!(repriced, tuned.cost_s);
    }
}
