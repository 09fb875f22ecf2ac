//! The two-layer analysis against the every-kernel pass it shortcuts.
//!
//! `analyze_periodic` reads a schedule's prologue and two layers where its
//! premises hold, and `check_schedule` hands the schedule to it; both must
//! report exactly what `analyze_certified` reports on the expanded
//! schedule. A layer template with one generated corruption (a use's
//! bytes, a dropped write, an id moved to `l2` or to a global, a tile
//! width, a thread count, two kernels swapped) is built into a layered
//! `Schedule`, and the three reports must agree by `Debug`, serde and
//! `render()`.

#![cfg(not(miri))] // whole-model analysis is far too slow under miri

use proptest::prelude::*;
use resoftmax_analyzer::{analyze_certified, analyze_periodic, Report};
use resoftmax_gpusim::{BufferUse, KernelDesc, Schedule, Scope};
use resoftmax_model::{
    analysis_spec, build_schedule, check_schedule, LibraryProfile, ModelConfig, RunParams,
    SoftmaxStrategy,
};

/// `got` and `want` agree by `Debug` (every `f64` to the bit), by serde and
/// by their rendering.
fn assert_same(got: &Report, want: &Report) -> Result<(), String> {
    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    prop_assert_eq!(
        serde_json::to_string(got).expect("report serializes"),
        serde_json::to_string(want).expect("report serializes")
    );
    prop_assert_eq!(got.render(), want.render());
    Ok(())
}

fn any_model() -> impl Strategy<Value = ModelConfig> {
    prop_oneof![
        Just(ModelConfig::bert_base()),
        Just(ModelConfig::bert_large()),
        Just(ModelConfig::gpt_neo_1_3b()),
        Just(ModelConfig::bigbird_large()),
        Just(ModelConfig::longformer_large()),
    ]
}

fn any_params() -> impl Strategy<Value = RunParams> {
    (
        prop_oneof![
            Just(SoftmaxStrategy::Baseline),
            Just(SoftmaxStrategy::Decomposed),
            Just(SoftmaxStrategy::Recomposed),
            Just(SoftmaxStrategy::OnlineFused),
        ],
        (1usize..=4).prop_map(|k| k * 512),
        1usize..=2,
        0usize..LibraryProfile::fig7_lineup().len(),
    )
        .prop_map(|(strategy, seq_len, batch, profile)| {
            RunParams::new(seq_len)
                .strategy(strategy)
                .batch(batch)
                .profile(LibraryProfile::fig7_lineup().swap_remove(profile))
        })
}

/// One corruption of a layer template. Indices are taken modulo what the
/// template has, so every generated value applies.
#[derive(Debug, Clone)]
enum Corruption {
    /// One buffer use (reads, then writes) declares more bytes.
    Bytes { kernel: usize, us: usize },
    /// One write is dropped.
    DropWrite { kernel: usize, write: usize },
    /// One buffer use moves to layer 2's scope.
    ToLayer2 { kernel: usize, us: usize },
    /// One buffer use moves to the unscoped namespace.
    ToGlobal { kernel: usize, us: usize },
    /// One kernel declares another MatMul tile width.
    TileWidth { kernel: usize },
    /// One kernel launches 16 more threads per block.
    Threads { kernel: usize },
    /// Two kernels trade places.
    Swap { a: usize, b: usize },
}

fn any_corruption() -> impl Strategy<Value = Corruption> {
    let ix = || 0usize..1000;
    prop_oneof![
        (ix(), ix()).prop_map(|(kernel, us)| Corruption::Bytes { kernel, us }),
        (ix(), ix()).prop_map(|(kernel, write)| Corruption::DropWrite { kernel, write }),
        (ix(), ix()).prop_map(|(kernel, us)| Corruption::ToLayer2 { kernel, us }),
        (ix(), ix()).prop_map(|(kernel, us)| Corruption::ToGlobal { kernel, us }),
        ix().prop_map(|kernel| Corruption::TileWidth { kernel }),
        ix().prop_map(|kernel| Corruption::Threads { kernel }),
        (ix(), ix()).prop_map(|(a, b)| Corruption::Swap { a, b }),
    ]
}

/// Buffer use `us` of `k`, counting its reads first.
fn buffer_use(k: &mut KernelDesc, us: usize) -> Option<&mut BufferUse> {
    let n = k.reads.len() + k.writes.len();
    if n == 0 {
        return None;
    }
    k.reads.iter_mut().chain(k.writes.iter_mut()).nth(us % n)
}

/// Moves `b` to `scope`, keeping its role and (outside the unscoped
/// namespace, which has no weights) its weight flag.
fn move_to(b: &mut BufferUse, scope: Scope) {
    let id = scope.id(b.id.role());
    b.id = if b.id.is_weight() && scope != Scope::Global {
        id.weights()
    } else {
        id
    };
}

impl Corruption {
    fn apply(&self, layer: &mut [KernelDesc]) {
        let n = layer.len();
        match *self {
            Corruption::Bytes { kernel, us } => {
                if let Some(b) = buffer_use(&mut layer[kernel % n], us) {
                    b.bytes += 64;
                }
            }
            Corruption::DropWrite { kernel, write } => {
                let writes = &mut layer[kernel % n].writes;
                if !writes.is_empty() {
                    writes.remove(write % writes.len());
                }
            }
            Corruption::ToLayer2 { kernel, us } => {
                if let Some(b) = buffer_use(&mut layer[kernel % n], us) {
                    move_to(b, Scope::layer(2));
                }
            }
            Corruption::ToGlobal { kernel, us } => {
                if let Some(b) = buffer_use(&mut layer[kernel % n], us) {
                    move_to(b, Scope::Global);
                }
            }
            Corruption::TileWidth { kernel } => {
                let meta = &mut layer[kernel % n].meta;
                meta.tile_n = Some(meta.tile_n.map_or(32, |t| t * 2));
            }
            Corruption::Threads { kernel } => layer[kernel % n].shape.threads += 16,
            Corruption::Swap { a, b } => layer.swap(a % n, b % n),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A corrupted layer template, run `model.layers` times: the two-layer
    /// entry, the schedule check and the every-kernel pass report the same.
    #[test]
    fn corrupted_templates_report_alike(
        model in any_model(),
        params in any_params(),
        corruption in any_corruption(),
    ) {
        let built = build_schedule(&model, &params);
        let mut layer = built.layer().to_vec();
        corruption.apply(&mut layer);
        let schedule = Schedule::new(built.prologue().to_vec(), layer, model.layers);

        let spec = analysis_spec(&model, &params);
        let reference = analyze_certified(&spec, &schedule.expand());
        assert_same(&analyze_periodic(&spec, &schedule), &reference)?;
        assert_same(&check_schedule(&model, &params, &schedule), &reference)?;
    }
}
