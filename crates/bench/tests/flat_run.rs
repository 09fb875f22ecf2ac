//! `Gpu::run` on a schedule against launching every kernel of its
//! expansion.
//!
//! `Gpu::run` prices a schedule from its first layers: it runs the layer at
//! offsets 0, 1, 2, … until the L2 residency repeats under the layer
//! renaming and records the remaining layers as a repeat count. Whatever
//! it is given, the result must equal a kernel-by-kernel run of
//! `Schedule::expand` on `Gpu::reference`: every `KernelStats` field to the
//! bit, the total's bits, and the L2 end state (ids, bytes and LRU order),
//! which one more kernel launched on both GPUs then reads. The cases:
//! every schedule of the `analyze` sweep on three devices, batched-decode
//! mixes (no prologue), a schedule whose residency never repeats, seq2seq
//! and training schedules (no layers: every kernel is prologue), and a
//! schedule whose layer indices reach `u32::MAX`, where the renaming stops
//! advancing.

#![cfg(not(miri))] // whole-model simulation is far too slow under miri

use resoftmax_bench::analysis_grid;
use resoftmax_gpusim::{DeviceSpec, Gpu, KernelCategory, KernelDesc, Schedule, Scope, TbWork};
use resoftmax_model::{
    build_batched_decode_schedule, build_schedule, build_seq2seq_schedule, build_training_schedule,
    ModelConfig, RunParams, Seq2SeqConfig, SoftmaxStrategy,
};

fn devices() -> [DeviceSpec; 3] {
    [DeviceSpec::a100(), DeviceSpec::t4(), DeviceSpec::rtx3090()]
}

/// `Gpu::run(schedule)` on a GPU that first launched `warm` equals
/// launching every kernel on `Gpu::reference`, and so does launching the
/// schedule's last kernel once more on both. Returns the run's timeline
/// repeat count.
fn assert_runs_alike(
    device: &DeviceSpec,
    warm: &[KernelDesc],
    schedule: &Schedule,
    what: &str,
) -> usize {
    let kernels = schedule.expand();
    let mut run = Gpu::new(device.clone());
    let mut every = Gpu::reference(device.clone());
    for k in warm.iter().chain(&kernels) {
        every.launch(k).expect("launches");
    }
    for k in warm {
        run.launch(k).expect("launches");
    }
    run.run(schedule).expect("launches");
    assert_same(&run, &every, what);
    let repeats = run.timeline().repeats();
    let last = kernels.last().expect("a schedule");
    run.launch(last).expect("launches");
    every.launch(last).expect("launches");
    assert_same(&run, &every, &format!("{what}, then its last kernel again"));
    repeats
}

/// Every stat of both timelines, to the bit (`Debug` prints each `f64` in
/// its shortest round-trip form), their totals' bits, and the residency.
fn assert_same(got: &Gpu, want: &Gpu, what: &str) {
    assert_eq!(
        format!("{:?}", got.timeline()),
        format!("{:?}", want.timeline()),
        "{what}: timelines differ"
    );
    assert_eq!(
        got.timeline().total_time_s().to_bits(),
        want.timeline().total_time_s().to_bits(),
        "{what}: totals differ"
    );
    assert!(
        got.l2().resident().eq(want.l2().resident()),
        "{what}: L2 end states differ: {:?} vs {:?}",
        got.l2().resident().collect::<Vec<_>>(),
        want.l2().resident().collect::<Vec<_>>()
    );
}

/// Every schedule of the `analyze` sweep, on the A100, T4 and RTX 3090
/// (every 16th in a debug build, whose builds analyze themselves and whose
/// `Gpu::run` also launches every kernel on a clone).
#[test]
fn the_analyze_sweep_runs_alike() {
    let step = if cfg!(debug_assertions) { 16 } else { 1 };
    for (model, params) in analysis_grid().iter().step_by(step) {
        let schedule = build_schedule(model, params);
        for device in devices() {
            let what = format!(
                "{} {} L={} b={} {} on {}",
                model.name,
                params.strategy.label(),
                params.seq_len,
                params.batch,
                params.profile.name,
                device.name
            );
            assert_runs_alike(&device, &[], &schedule, &what);
        }
    }
}

/// Batched-decode iterations have no prologue: decode rows alone, a long
/// uniform batch, and a prefill chunk with decode rows beside it, run back
/// to back on one GPU so each starts from the previous one's L2 state.
#[test]
fn decode_mixes_run_alike() {
    let model = ModelConfig::gpt_neo_1_3b();
    let chunk: Vec<usize> = (1..=64).chain([300, 2_048]).collect();
    let mixes = [vec![1], vec![512, 768, 1024, 2048], vec![4096; 8], chunk];
    for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
        let params = RunParams::new(4096).strategy(strategy);
        let schedules: Vec<_> = mixes
            .iter()
            .map(|ctxs| build_batched_decode_schedule(&model, ctxs, &params))
            .collect();
        for device in devices() {
            let mut warm = Vec::new();
            for (i, schedule) in schedules.iter().enumerate() {
                let what = format!("decode mix {i} {} on {}", strategy.label(), device.name);
                assert_runs_alike(&device, &warm, schedule, &what);
                warm.extend(schedule.expand());
            }
        }
    }
}

/// With an L2 that holds every buffer, each layer adds its buffers to the
/// residency, so it never repeats and every layer is simulated; on an A100
/// the residency repeats after two layers.
#[test]
fn a_residency_that_never_repeats_runs_every_layer() {
    let model = ModelConfig::bert_large();
    let schedule = build_schedule(&model, &RunParams::new(512));
    let huge = DeviceSpec {
        l2_mb: 1e6,
        ..DeviceSpec::a100()
    };
    for (device, repeats) in [(huge, 0), (DeviceSpec::a100(), model.layers - 2)] {
        let got = assert_runs_alike(&device, &[], &schedule, &device.name);
        assert_eq!(got, repeats, "{}", device.name);
    }
}

/// Encoder–decoder ids (`enc{k}`, `dec{k}`) do not advance with the layer
/// renaming, and a training schedule's backward pass follows its forward
/// layers, so both are built flat: all prologue, every kernel launched.
#[test]
fn seq2seq_and_training_schedules_run_alike() {
    let params = RunParams::new(1024).strategy(SoftmaxStrategy::Recomposed);
    let seq2seq = build_seq2seq_schedule(
        &Seq2SeqConfig::vanilla_transformer_big(),
        1024,
        512,
        &params,
    );
    let training = build_training_schedule(&ModelConfig::bert_large(), &params);
    for (what, kernels) in [("seq2seq", seq2seq), ("training", training)] {
        for device in devices() {
            let repeats = assert_runs_alike(
                &device,
                &[],
                &Schedule::from(kernels.clone()),
                &format!("{what} on {}", device.name),
            );
            assert_eq!(repeats, 0, "{what}");
        }
    }
}

/// `BufferId::next_layer` leaves layer `u32::MAX` where it is, so on ids
/// that reach it the renaming is not one to one. Layer 0 reads `l{MAX−1}.b`
/// (a miss), then streams past the L2 and writes `l{MAX}.b`, which was
/// resident before: the residency after it equals the renamed residency
/// before it, yet layer 1 reads `l{MAX}.b` and hits. Every layer must be
/// simulated.
#[test]
fn layer_indices_at_the_last_index_run_every_layer() {
    let id = |k: u32| Scope::Layer(k).id("b");
    let write_last = KernelDesc::builder("write", KernelCategory::Other)
        .uniform(1, TbWork::memory(0.0, 10.0))
        .writes(id(u32::MAX), 10)
        .build();
    let layer = vec![
        KernelDesc::builder("read", KernelCategory::Other)
            .uniform(1, TbWork::memory(10.0, 0.0))
            .reads(id(u32::MAX - 1), 10)
            .build(),
        KernelDesc::builder("stream", KernelCategory::Other)
            .uniform(1, TbWork::memory(1e12, 10.0))
            .writes(id(u32::MAX), 10)
            .build(),
    ];
    let schedule = Schedule::new(Vec::new(), layer, 3);
    let repeats = assert_runs_alike(&DeviceSpec::a100(), &[write_last], &schedule, "l{MAX}");
    assert_eq!(repeats, 0);
}
