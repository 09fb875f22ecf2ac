//! `Gpu::run` on a flat schedule against launching every kernel.
//!
//! `Gpu::run` prices a schedule of layer-periodic form (at most one
//! prologue kernel, then at least three layers, each the one before with
//! every buffer id advanced a layer) from its first layers. Whatever it is
//! given, the result must equal a kernel-by-kernel run on `Gpu::reference`:
//! every `KernelStats` field to the bit, the total's bits, and the L2 end
//! state (ids, bytes and LRU order), which one more kernel launched on both
//! GPUs then reads. The cases: every schedule of the `analyze` sweep on
//! three devices, batched-decode mixes (no prologue), a schedule whose
//! residency never repeats, seq2seq and training schedules and schedules
//! changed in one late layer (none of them periodic), and a schedule whose
//! layer indices reach `u32::MAX`, where the renaming stops advancing.

#![cfg(not(miri))] // whole-model simulation is far too slow under miri

use resoftmax_bench::analysis_grid;
use resoftmax_gpusim::{
    periodic_layer, DeviceSpec, Gpu, KernelCategory, KernelDesc, Scope, TbSet, TbWork,
};
use resoftmax_model::{
    build_and_check_periodic, build_batched_decode_schedule, build_schedule,
    build_seq2seq_schedule, build_training_schedule, ModelConfig, RunParams, Seq2SeqConfig,
    SoftmaxStrategy,
};

fn devices() -> [DeviceSpec; 3] {
    [DeviceSpec::a100(), DeviceSpec::t4(), DeviceSpec::rtx3090()]
}

/// `Gpu::run(kernels)` on a GPU that first ran `warm` equals launching
/// every kernel on `Gpu::reference`, and so does launching the schedule's
/// last kernel once more on both.
fn assert_runs_alike(device: &DeviceSpec, warm: &[KernelDesc], kernels: &[KernelDesc], what: &str) {
    let mut run = Gpu::new(device.clone());
    let mut every = Gpu::reference(device.clone());
    for k in warm.iter().chain(kernels) {
        every.launch(k).expect("launches");
    }
    for k in warm {
        run.launch(k).expect("launches");
    }
    run.run(kernels).expect("launches");
    assert_same(&run, &every, what);
    let last = kernels.last().expect("a schedule");
    run.launch(last).expect("launches");
    every.launch(last).expect("launches");
    assert_same(&run, &every, &format!("{what}, then its last kernel again"));
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
        let kernels = build_schedule(model, params);
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
            assert_runs_alike(&device, &[], &kernels, &what);
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
            for (i, kernels) in schedules.iter().enumerate() {
                let what = format!("decode mix {i} {} on {}", strategy.label(), device.name);
                assert_runs_alike(&device, &schedules[..i].concat(), kernels, &what);
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
    let params = RunParams::new(512);
    let (periodic, _) = build_and_check_periodic(&model, &params);
    let huge = DeviceSpec {
        l2_mb: 1e6,
        ..DeviceSpec::a100()
    };
    for (device, remaining) in [(huge, 0), (DeviceSpec::a100(), model.layers - 2)] {
        let mut gpu = Gpu::new(device.clone());
        gpu.run(periodic.prologue()).expect("launches");
        let mut layer = periodic.layer().to_vec();
        let skipped = gpu.run_layers(&mut layer, model.layers).expect("launches");
        assert_eq!(skipped, remaining, "{}", device.name);
        assert_runs_alike(&device, &[], &build_schedule(&model, &params), &device.name);
    }
}

/// Encoder–decoder ids (`enc{k}`, `dec{k}`) do not advance with the layer
/// renaming, and a training schedule's backward pass follows its forward
/// layers, so neither is layer-periodic.
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
            assert_runs_alike(
                &device,
                &[],
                &kernels,
                &format!("{what} on {}", device.name),
            );
        }
    }
}

/// One change to a kernel of a late layer.
type Change = fn(&mut KernelDesc) -> bool;

/// Moves the first read in a layer scope two layers on (`l{k}` to
/// `l{k+2}`).
fn read_two_layers_on(k: &mut KernelDesc) -> bool {
    let Some(read) = k
        .reads
        .iter_mut()
        .find(|r| matches!(r.id.scope(), Scope::Layer(_)))
    else {
        return false;
    };
    read.id = read.id.next_layer().next_layer();
    true
}

fn read_bytes(k: &mut KernelDesc) -> bool {
    k.reads.first_mut().map(|r| r.bytes += 64).is_some()
}

fn write_bytes(k: &mut KernelDesc) -> bool {
    k.writes.first_mut().map(|w| w.bytes += 64).is_some()
}

/// One more flop in every block of the grid's first group.
fn group_work(k: &mut KernelDesc) -> bool {
    let work = match &mut k.tbs {
        TbSet::Uniform { work, .. } => work,
        TbSet::PerTb(tbs) => &mut tbs[0],
        TbSet::Grouped(groups) => &mut groups[0].work,
    };
    work.cuda_flops += 1.0;
    true
}

fn name(k: &mut KernelDesc) -> bool {
    k.name.push('\'');
    true
}

/// A schedule changed in one kernel of layer 20 of 24 is not a stack of
/// renamed copies: the rule `Gpu::run` recognizes the form by rejects it,
/// and the run launches every kernel. Each change is tried on every kernel
/// of the layer, on a dense and a block-sparse model.
#[test]
fn a_late_layer_change_runs_every_kernel() {
    let changes: [(&str, Change); 5] = [
        ("a read moved to l{k+2}", read_two_layers_on),
        ("a read's bytes", read_bytes),
        ("a write's bytes", write_bytes),
        ("one group's work", group_work),
        ("a kernel name", name),
    ];
    let device = DeviceSpec::a100();
    for model in [ModelConfig::bert_large(), ModelConfig::bigbird_large()] {
        let params = RunParams::new(1024).strategy(SoftmaxStrategy::Recomposed);
        let built = build_schedule(&model, &params);
        let per_layer = (built.len() - 1) / model.layers;
        assert!(periodic_layer(&built, 1, model.layers).is_some());
        let late = 1 + 20 * per_layer;
        let mut changed = 0;
        for (what, change) in changes {
            for i in late..late + per_layer {
                let mut kernels = built.clone();
                if !change(&mut kernels[i]) {
                    continue;
                }
                let what = format!(
                    "{} kernel {} ({}): {what}",
                    model.name,
                    i - late,
                    built[i].name
                );
                assert!(
                    periodic_layer(&kernels, 1, model.layers).is_none(),
                    "{what}: still a stack of copies"
                );
                assert_runs_alike(&device, &[], &kernels, &what);
                changed += 1;
            }
        }
        assert!(changed > 4 * per_layer, "{changed} changes");
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
    let mut layer = vec![
        KernelDesc::builder("read", KernelCategory::Other)
            .uniform(1, TbWork::memory(10.0, 0.0))
            .reads(id(u32::MAX - 1), 10)
            .build(),
        KernelDesc::builder("stream", KernelCategory::Other)
            .uniform(1, TbWork::memory(1e12, 10.0))
            .writes(id(u32::MAX), 10)
            .build(),
    ];
    let mut kernels = layer.clone();
    for _ in 1..3 {
        resoftmax_gpusim::next_layer(&mut layer);
        kernels.extend_from_slice(&layer);
    }
    assert!(periodic_layer(&kernels, 0, 3).is_some());
    assert_runs_alike(&DeviceSpec::a100(), &[write_last], &kernels, "l{MAX}");
}
