//! Pins every schedule the model crate builds (expanded to its flat
//! kernels), and both static error bounds, to FNV-1a fingerprints of their
//! serde_json, folded in a fixed order per builder. A refactor must leave every constant unchanged; a
//! change meant to move a schedule updates its builder's constant, which
//! the failure message prints.

#![cfg(not(miri))] // whole-model schedules are far too slow under miri

use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{
    build_batched_decode_schedule, build_schedule, build_seq2seq_schedule, build_training_schedule,
    decode_error_bound, static_error_bound, validate_prefill, LibraryProfile, ModelConfig,
    RunParams, Seq2SeqConfig, SoftmaxStrategy,
};
use serde::Serialize;

/// FNV-1a over the serde_json of every value folded in, in order.
struct Fingerprint(u64);

impl Fingerprint {
    fn new() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }

    fn fold(&mut self, value: &impl Serialize) {
        for b in serde_json::to_string(value).expect("serializes").bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn assert_pinned(&self, builder: &str, pinned: u64) {
        assert_eq!(
            self.0, pinned,
            "{builder}: fingerprint is now {:#018x}",
            self.0
        );
    }
}

const ALL_STRATEGIES: [SoftmaxStrategy; 5] = [
    SoftmaxStrategy::Baseline,
    SoftmaxStrategy::Decomposed,
    SoftmaxStrategy::Recomposed,
    SoftmaxStrategy::RecomposedFp16,
    SoftmaxStrategy::OnlineFused,
];

/// `strategy` at `seq_len`, on a tile where SDF16 certifies (T = 16) for
/// SDF16 and the paper's 64×64 tile otherwise.
fn params(seq_len: usize, strategy: SoftmaxStrategy) -> RunParams {
    let params = RunParams::new(seq_len).strategy(strategy);
    if strategy == SoftmaxStrategy::RecomposedFp16 {
        params.tile(TileConfig::new(64, 16))
    } else {
        params
    }
}

fn profiles() -> Vec<LibraryProfile> {
    let mut lineup = LibraryProfile::fig7_lineup();
    lineup.push(LibraryProfile::autotvm());
    lineup
}

#[test]
fn prefill_schedules_are_pinned() {
    let mut models = ModelConfig::all_eval_models();
    models.push(ModelConfig::bert_base());
    models.push(ModelConfig::sparse_transformer());
    let mut fp = Fingerprint::new();
    for model in &models {
        for strategy in ALL_STRATEGIES {
            for profile in profiles() {
                for (seq_len, batch) in [(1024, 1), (4096, 1), (512, 4)] {
                    let params = params(seq_len, strategy)
                        .profile(profile.clone())
                        .batch(batch);
                    // SDF16 has no block-sparse implementation.
                    if validate_prefill(model, &params).is_ok() {
                        fp.fold(&build_schedule(model, &params).expand());
                    }
                }
            }
        }
    }
    fp.assert_pinned("build_schedule", 0x63ce_17ac_86d4_20bb);
}

#[test]
fn training_schedules_are_pinned() {
    let mut fp = Fingerprint::new();
    for model in ModelConfig::all_eval_models() {
        for strategy in &ALL_STRATEGIES[..4] {
            let params = params(1024, *strategy);
            if validate_prefill(&model, &params).is_ok() {
                fp.fold(&build_training_schedule(&model, &params));
            }
        }
    }
    fp.assert_pinned("build_training_schedule", 0x3cf3_b742_59f4_38cf);
}

#[test]
fn batched_decode_schedules_are_pinned() {
    let mut fp = Fingerprint::new();
    for model in [
        ModelConfig::bert_large(),
        ModelConfig::gpt_neo_1_3b(),
        ModelConfig::bert_base(),
    ] {
        for strategy in &ALL_STRATEGIES[..4] {
            let params = params(4096, *strategy);
            for ctxs in [&[1024][..], &[512; 4], &[260, 1000, 1000, 4096]] {
                fp.fold(&build_batched_decode_schedule(&model, ctxs, &params).expand());
            }
        }
    }
    fp.assert_pinned("build_batched_decode_schedule", 0xc624_f7d0_8057_5d61);
}

#[test]
fn seq2seq_schedules_are_pinned() {
    let cfg = Seq2SeqConfig::vanilla_transformer_big();
    let mut fp = Fingerprint::new();
    for strategy in ALL_STRATEGIES {
        for profile in profiles() {
            let params = params(1024, strategy).profile(profile);
            fp.fold(&build_seq2seq_schedule(&cfg, 1024, 512, &params));
        }
    }
    fp.assert_pinned("build_seq2seq_schedule", 0xff7c_429a_d68a_120d);
}

/// Both static bounds for every strategy × T ∈ {16, 32, 64, 128} × context
/// ∈ {64, 1024, 4096, 16384}: the prefill bound on a dense model at that
/// sequence length, the decode bound over one row at that context.
#[test]
fn certified_bounds_are_pinned() {
    let model = ModelConfig::bert_large();
    let mut fp = Fingerprint::new();
    for strategy in ALL_STRATEGIES {
        for t in [16, 32, 64, 128] {
            for ctx in [64, 1024, 4096, 16384] {
                let params = RunParams::new(ctx)
                    .strategy(strategy)
                    .tile(TileConfig::new(64, t));
                fp.fold(&static_error_bound(&model, &params));
                fp.fold(&decode_error_bound(&[ctx], &params));
            }
        }
    }
    fp.assert_pinned("error bounds", 0x6a09_df5b_9643_7965);
}
