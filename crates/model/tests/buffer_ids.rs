//! Every buffer id a builder emits renders to a name that parses back to
//! the same id, and two of them are equal exactly when their names are:
//! the typed ids the L2 model and the analyzer compare say what the
//! rendered names in reports and serde say.

#![cfg(not(miri))] // whole-model schedules are far too slow under miri

use resoftmax_gpusim::{BufferId, KernelDesc};
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{
    build_batched_decode_schedule, build_schedule, build_seq2seq_schedule, build_training_schedule,
    validate_prefill, LibraryProfile, ModelConfig, RunParams, Seq2SeqConfig, SoftmaxStrategy,
};
use std::collections::{HashMap, HashSet};

const STRATEGIES: [SoftmaxStrategy; 5] = [
    SoftmaxStrategy::Baseline,
    SoftmaxStrategy::Decomposed,
    SoftmaxStrategy::Recomposed,
    SoftmaxStrategy::RecomposedFp16,
    SoftmaxStrategy::OnlineFused,
];

/// `strategy` on a tile where SDF16 certifies (T = 16).
fn params(seq_len: usize, strategy: SoftmaxStrategy) -> RunParams {
    RunParams::new(seq_len)
        .strategy(strategy)
        .tile(TileConfig::new(64, 16))
}

/// Every distinct id of every builder's schedules: prefill over every model,
/// strategy and library profile, then training, batched decode and seq2seq.
fn builder_ids() -> HashSet<BufferId> {
    let mut schedules: Vec<Vec<KernelDesc>> = Vec::new();
    let mut models = ModelConfig::all_eval_models();
    models.push(ModelConfig::bert_base());
    models.push(ModelConfig::sparse_transformer());
    let mut profiles = LibraryProfile::fig7_lineup();
    profiles.push(LibraryProfile::autotvm());
    for model in &models {
        for strategy in STRATEGIES {
            for profile in &profiles {
                let params = params(512, strategy).profile(profile.clone());
                // SDF16 has no block-sparse implementation.
                if validate_prefill(model, &params).is_ok() {
                    schedules.push(build_schedule(model, &params).expand());
                }
            }
        }
    }
    for strategy in &STRATEGIES[..4] {
        let params = params(512, *strategy);
        for model in [ModelConfig::bert_large(), ModelConfig::bigbird_large()] {
            if validate_prefill(&model, &params).is_ok() {
                schedules.push(build_training_schedule(&model, &params));
            }
        }
        schedules.push(
            build_batched_decode_schedule(
                &ModelConfig::gpt_neo_1_3b(),
                &[260, 1000, 1000],
                &params,
            )
            .expand(),
        );
        schedules.push(build_seq2seq_schedule(
            &Seq2SeqConfig::vanilla_transformer_big(),
            512,
            256,
            &params,
        ));
    }
    schedules
        .iter()
        .flatten()
        .flat_map(|k| k.reads.iter().chain(&k.writes))
        .map(|b| b.id)
        .collect()
}

#[test]
fn builder_ids_round_trip_through_their_names() {
    let ids = builder_ids();
    assert!(ids.len() > 1_000, "{} ids", ids.len());
    let mut by_name: HashMap<String, BufferId> = HashMap::new();
    for &id in &ids {
        let name = id.to_string();
        assert!(id == name.as_str(), "{name}");
        // The name as a `'static` literal, as tests and serde hold it.
        let literal: &'static str = Box::leak(name.clone().into_boxed_str());
        assert_eq!(BufferId::from(literal), id, "{name}");
        // Distinct ids render distinct names; equal ids, being equal, render
        // the same one.
        assert!(by_name.insert(name, id).is_none(), "{id} renders twice");
    }
    assert_eq!(by_name.len(), ids.len());
}
