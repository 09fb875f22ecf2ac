//! Layered pricing against the reference it shortcuts: launching every
//! kernel of the expanded schedule and draining the timeline.
//! `price_batched_decode` (what a serving replica runs) and `Gpu::run` on
//! a built schedule (what the tuner and `Session` run) must agree with it
//! bit for bit, in every stat of the compact timeline and in the total
//! serving reads, on every row mix, prefill grid point, strategy and
//! device.

#![cfg(not(miri))] // whole-model simulation is far too slow under miri

use proptest::prelude::*;
use resoftmax_gpusim::{DeviceSpec, Gpu, ParallelSplit, Schedule, Timeline};
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{
    build_batched_decode_schedule, build_schedule, price_batched_decode, validate_prefill,
    LibraryProfile, ModelConfig, RunParams, SoftmaxStrategy,
};

/// One engine iteration's rows: 0–16 decode rows at contexts 1–4,096, then
/// an optional prefill chunk of up to 2,048 consecutive positions ending at
/// or below 4,096 (at least one row overall).
fn any_ctxs() -> impl Strategy<Value = Vec<usize>> {
    (
        proptest::collection::vec(1usize..=4096, 0..=16),
        0usize..=2048,
        0usize..=4096,
    )
        .prop_map(|(mut ctxs, chunk, cached)| {
            let cached = cached.min(4096 - chunk);
            ctxs.extend((1..=chunk).map(|t| cached + t));
            if ctxs.is_empty() {
                ctxs.push(1);
            }
            ctxs
        })
}

fn any_params() -> impl Strategy<Value = RunParams> {
    let params = |s| RunParams::new(4096).strategy(s);
    prop_oneof![
        Just(params(SoftmaxStrategy::Baseline)),
        Just(params(SoftmaxStrategy::Decomposed)),
        Just(params(SoftmaxStrategy::Recomposed)),
        Just(
            params(SoftmaxStrategy::RecomposedFp16)
                .tile(TileConfig::new(64, 16))
                .ls_split(Some(ParallelSplit::OutputRows))
        ),
    ]
}

fn any_device() -> impl Strategy<Value = DeviceSpec> {
    prop_oneof![
        Just(DeviceSpec::a100()),
        Just(DeviceSpec::t4()),
        Just(DeviceSpec::rtx3090()),
    ]
}

/// Bitwise equality: `Debug` prints every `f64` in its shortest round-trip
/// form, so equal strings mean equal bits (and `-0.0` differs from `0.0`).
fn same_bits(a: &Timeline, b: &Timeline) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// Launches every kernel of `schedule`'s expansion on `gpu` and drains the
/// timeline: the full run, kernel by kernel (`Gpu::run` would price the
/// schedule from its first layers, as the pricers under test do).
fn full_run(gpu: &mut Gpu, schedule: &Schedule) -> Timeline {
    for k in &schedule.expand() {
        gpu.launch(k).unwrap();
    }
    gpu.take_timeline()
}

/// `Gpu::run` on `schedule`, drained.
fn layered_run(gpu: &mut Gpu, schedule: &Schedule) -> Timeline {
    gpu.run(schedule).unwrap();
    gpu.take_timeline()
}

/// `priced` equals the full run's `reference`: the total to the bit, and
/// every stat in every field.
fn assert_equals_full_run(priced: &Timeline, reference: &Timeline) -> Result<(), String> {
    prop_assert_eq!(
        priced.total_time_s().to_bits(),
        reference.total_time_s().to_bits()
    );
    prop_assert!(same_bits(priced, reference));
    Ok(())
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

/// A full-sequence grid point: any strategy (SDF16 on a tile it certifies
/// at), L from 256 to 2,048, batch 1–4, any Fig. 7 library profile.
fn any_prefill_params() -> impl Strategy<Value = RunParams> {
    (
        prop_oneof![
            Just(SoftmaxStrategy::Baseline),
            Just(SoftmaxStrategy::Decomposed),
            Just(SoftmaxStrategy::Recomposed),
            Just(SoftmaxStrategy::RecomposedFp16),
            Just(SoftmaxStrategy::OnlineFused),
        ],
        prop_oneof![Just(256usize), Just(512), Just(1024), Just(2048)],
        1usize..=4,
        0usize..5,
    )
        .prop_map(|(strategy, seq_len, batch, profile)| {
            RunParams::new(seq_len)
                .strategy(strategy)
                .tile(TileConfig::new(64, 16))
                .batch(batch)
                .profile(LibraryProfile::fig7_lineup().swap_remove(profile))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two iterations priced back to back on one `Gpu`, by the serving
    /// pricer and by `Gpu::run` on the built schedule, equal two full runs
    /// back to back on another.
    #[test]
    fn layer_periodic_pricing_equals_the_full_run(
        first in any_ctxs(),
        second in any_ctxs(),
        params in any_params(),
        device in any_device(),
    ) {
        let model = ModelConfig::gpt_neo_1_3b();
        let mut fast = Gpu::new(device.clone());
        let mut full = Gpu::new(device);
        for ctxs in [&first, &second] {
            let schedule = build_batched_decode_schedule(&model, ctxs, &params);
            let reference = full_run(&mut full, &schedule);
            let priced = price_batched_decode(&mut fast, &model, ctxs, &params).unwrap();
            assert_equals_full_run(&priced, &reference)?;
            assert_equals_full_run(&layered_run(&mut fast, &schedule), &reference)?;
        }
    }

    /// The tuner's and `Session::run`'s prefill path: a full-sequence
    /// schedule, dense or block-sparse, priced by `Gpu::run` equals its
    /// full run.
    #[test]
    fn prefill_schedules_price_like_the_full_run(
        model in any_model(),
        params in any_prefill_params(),
        device in any_device(),
    ) {
        // SDF16 has no block-sparse implementation.
        prop_assume!(validate_prefill(&model, &params).is_ok());
        let schedule = build_schedule(&model, &params);
        let reference = full_run(&mut Gpu::new(device.clone()), &schedule);
        let priced = layered_run(&mut Gpu::new(device), &schedule);
        assert_equals_full_run(&priced, &reference)?;
    }
}
