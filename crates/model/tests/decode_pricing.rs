//! `price_batched_decode` against the reference it shortcuts: running the
//! full batched-decode schedule and draining the timeline. The two must
//! agree bit for bit on every row mix, strategy and device a serving
//! replica can produce.

#![cfg(not(miri))] // whole-model simulation is far too slow under miri

use proptest::prelude::*;
use resoftmax_gpusim::{DeviceSpec, Gpu, ParallelSplit, Timeline};
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{
    build_batched_decode_schedule, price_batched_decode, ModelConfig, RunParams, SoftmaxStrategy,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two iterations priced back to back on one `Gpu` equal two full runs
    /// back to back on another.
    #[test]
    fn layer_periodic_pricing_equals_the_full_run(
        first in any_ctxs(),
        second in any_ctxs(),
        params in any_params(),
        device in any_device(),
    ) {
        let model = ModelConfig::gpt_neo_1_3b();
        let (mut fast, mut full) = (Gpu::new(device.clone()), Gpu::new(device));
        for ctxs in [&first, &second] {
            let priced = price_batched_decode(&mut fast, &model, ctxs, &params).unwrap();
            full.run(&build_batched_decode_schedule(&model, ctxs, &params)).unwrap();
            let reference = full.take_timeline();
            prop_assert_eq!(priced.len(), reference.len());
            prop_assert!(
                same_bits(&priced, &reference),
                "{} rows ({:?}) diverged", ctxs.len(), params.strategy
            );
        }
    }
}
