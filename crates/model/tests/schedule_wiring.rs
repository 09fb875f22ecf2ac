//! Structural invariants of every schedule the model crate can build:
//! buffer wiring (reads reference external inputs or earlier writes),
//! launchability on all three evaluation GPUs, and traffic sanity.
//!
//! The L2 model keys on buffer identity, so a misspelled id would silently
//! disable inter-kernel forwarding; this suite makes that a test failure.

use resoftmax_gpusim::{BufferId, DeviceSpec, Gpu, KernelDesc, Schedule};
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{
    build_batched_decode_schedule, build_schedule, build_seq2seq_schedule, build_training_schedule,
    LibraryProfile, ModelConfig, RunParams, Seq2SeqConfig, SoftmaxStrategy,
};
use std::collections::HashSet;

/// Buffers a schedule may read without anyone having written them.
fn is_external(id: BufferId) -> bool {
    id == "tokens"
        || id.is_weight()
        || matches!(
            id.role(),
            "k_cache" | "v_cache"       // decode KV caches
                | "x"                   // layer-boundary activations*
                | "d_out"               // training boundary gradient
                | "ff1"                 // training reuses fwd activations
                | "attn_out"
                | "q"
                | "k"
                | "v"
        )
}

fn check_wiring(kernels: &[KernelDesc], strict: bool) {
    let mut written: HashSet<BufferId> = HashSet::new();
    for k in kernels {
        for r in &k.reads {
            let ok = written.contains(&r.id) || is_external(r.id);
            if strict {
                assert!(
                    ok,
                    "kernel {} reads {} which nothing wrote and is not external",
                    k.name, r.id
                );
            }
        }
        written.extend(k.writes.iter().map(|w| w.id));
    }
}

fn all_inference_schedules() -> Vec<(String, Schedule)> {
    let mut out = Vec::new();
    let strategies = [
        SoftmaxStrategy::Baseline,
        SoftmaxStrategy::Decomposed,
        SoftmaxStrategy::Recomposed,
        SoftmaxStrategy::OnlineFused,
    ];
    let mut models = ModelConfig::all_eval_models();
    models.push(ModelConfig::sparse_transformer());
    models.push(ModelConfig::bert_base());
    for model in &models {
        for s in strategies {
            let params = RunParams::new(1024).strategy(s);
            out.push((
                format!("{} / {}", model.name, s.label()),
                build_schedule(model, &params),
            ));
        }
    }
    out
}

#[test]
fn inference_schedules_are_fully_wired() {
    for (label, ks) in all_inference_schedules() {
        assert!(!ks.is_empty(), "{label}: empty schedule");
        check_wiring(&ks.expand(), true);
    }
}

/// Every strategy `Session::train` accepts, at a tile width where SDF16
/// certifies (T = 16).
#[test]
fn training_and_decode_and_seq2seq_wiring() {
    for s in [
        SoftmaxStrategy::Baseline,
        SoftmaxStrategy::Decomposed,
        SoftmaxStrategy::Recomposed,
        SoftmaxStrategy::RecomposedFp16,
    ] {
        let params = RunParams::new(1024)
            .strategy(s)
            .tile(TileConfig::new(64, 16));
        let ks = build_training_schedule(&ModelConfig::bert_large(), &params);
        check_wiring(&ks, true);

        let ks = build_batched_decode_schedule(&ModelConfig::gpt_neo_1_3b(), &[1024], &params);
        check_wiring(&ks.expand(), true);

        let ks = build_seq2seq_schedule(
            &Seq2SeqConfig::vanilla_transformer_big(),
            1024,
            512,
            &params,
        );
        check_wiring(&ks, true);
    }
}

/// Each seq2seq layer hands its output to the next, and cross-attention
/// reads the last encoder layer's output: every buffer the schedule reads
/// was written before, except weights and the two embeddings, and every
/// buffer it writes is read, except the decoder's output.
#[test]
fn seq2seq_layers_are_chained() {
    let cfg = Seq2SeqConfig {
        encoder_layers: 2,
        decoder_layers: 2,
        ..Seq2SeqConfig::vanilla_transformer_big()
    };
    for s in [
        SoftmaxStrategy::Baseline,
        SoftmaxStrategy::Decomposed,
        SoftmaxStrategy::Recomposed,
        SoftmaxStrategy::OnlineFused,
    ] {
        let ks = build_seq2seq_schedule(&cfg, 1024, 512, &RunParams::new(1024).strategy(s));
        let mut written: HashSet<BufferId> = HashSet::new();
        let mut read: HashSet<BufferId> = HashSet::new();
        for k in &ks {
            for r in &k.reads {
                let id = r.id;
                assert!(
                    written.contains(&id)
                        || id.is_weight()
                        || id == "enc0.x"
                        || id == "dec0.self.x",
                    "{}: kernel {} reads {id}, which nothing wrote",
                    s.label(),
                    k.name
                );
                read.insert(id);
            }
            written.extend(k.writes.iter().map(|w| w.id));
        }
        let unread: Vec<String> = written.difference(&read).map(ToString::to_string).collect();
        assert_eq!(
            unread,
            ["dec2.self.x"],
            "{}: written but never read",
            s.label()
        );
    }
}

#[test]
fn every_schedule_launches_on_every_gpu() {
    for device in DeviceSpec::all_presets() {
        for (label, ks) in all_inference_schedules() {
            let mut gpu = Gpu::new(device.clone());
            gpu.run(&ks)
                .unwrap_or_else(|e| panic!("{label} on {}: {e}", device.name));
            assert!(gpu.timeline().total_time_s() > 0.0);
        }
        // ...and the extension schedules.
        for s in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            let extension_schedules = [
                (
                    "training",
                    Schedule::from(build_training_schedule(
                        &ModelConfig::bert_large(),
                        &RunParams::new(1024).strategy(s),
                    )),
                ),
                (
                    "decode",
                    build_batched_decode_schedule(
                        &ModelConfig::gpt_neo_1_3b(),
                        &[1024],
                        &RunParams::new(1024).strategy(s),
                    ),
                ),
                (
                    "seq2seq",
                    Schedule::from(build_seq2seq_schedule(
                        &Seq2SeqConfig::vanilla_transformer_big(),
                        1024,
                        512,
                        &RunParams::new(1024).strategy(s),
                    )),
                ),
            ];
            for (label, ks) in extension_schedules {
                let mut gpu = Gpu::new(device.clone());
                gpu.run(&ks)
                    .unwrap_or_else(|e| panic!("{label}/{} on {}: {e}", s.label(), device.name));
            }
        }
    }
}

#[test]
fn library_profiles_all_launch() {
    let mut lineup = LibraryProfile::fig7_lineup();
    lineup.push(LibraryProfile::autotvm());
    for profile in lineup {
        for model in [ModelConfig::bert_large(), ModelConfig::bigbird_large()] {
            let ks = build_schedule(&model, &RunParams::new(1024).profile(profile.clone()));
            check_wiring(&ks.expand(), true);
            let mut gpu = Gpu::new(DeviceSpec::a100());
            gpu.run(&ks).unwrap();
        }
    }
}

#[test]
fn traffic_is_positive_and_finite_everywhere() {
    for (label, ks) in all_inference_schedules() {
        let ks = ks.expand();
        let total: f64 = ks.iter().map(KernelDesc::total_dram_bytes).sum();
        assert!(total.is_finite() && total > 0.0, "{label}: traffic {total}");
        for k in &ks {
            assert!(
                k.total_dram_bytes().is_finite() && k.total_dram_bytes() >= 0.0,
                "{label}/{}: bad traffic",
                k.name
            );
            assert!(k.tbs.count() > 0, "{label}/{}: empty grid", k.name);
        }
    }
}
