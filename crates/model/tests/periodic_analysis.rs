//! The layer-periodic analysis against the every-kernel pass it shortcuts.
//!
//! `analyze_periodic` reads a schedule's prologue and two layers where its
//! premises hold, and `check_schedule` recognizes a flat schedule of that
//! form; both must report exactly what `analyze_certified` reports on the
//! expanded schedule. A layer template with one generated corruption
//! (a use's bytes, a dropped write, an id moved to `l2` or to a global, a
//! tile width, a thread count, two kernels swapped) is stacked into a flat
//! schedule, and the three reports must agree by `Debug`, serde and
//! `render()`. A flat schedule changed in one late layer is no longer a
//! stack of copies and must go to the every-kernel pass.

#![cfg(not(miri))] // whole-model analysis is far too slow under miri

use proptest::prelude::*;
use resoftmax_analyzer::periodic::append_layers;
use resoftmax_analyzer::{analyze_certified, analyze_periodic, Report};
use resoftmax_gpusim::{BufferUse, KernelCategory, KernelDesc, Scope, TbSet};
use resoftmax_model::{
    analysis_spec, build_and_check_periodic, build_schedule, check_schedule, LibraryProfile,
    ModelConfig, RunParams, SoftmaxStrategy,
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

    /// A corrupted layer template, stacked: the periodic entry, the flat
    /// check and the every-kernel pass report the same.
    #[test]
    fn corrupted_templates_report_alike(
        model in any_model(),
        params in any_params(),
        corruption in any_corruption(),
    ) {
        let (periodic, _) = build_and_check_periodic(&model, &params);
        let prologue = periodic.prologue();
        let mut layer = periodic.layer().to_vec();
        corruption.apply(&mut layer);
        let mut flat = prologue.to_vec();
        flat.extend_from_slice(&layer);
        append_layers(&mut flat, layer.len(), model.layers);

        let spec = analysis_spec(&model, &params);
        let reference = analyze_certified(&spec, &flat);
        assert_same(&analyze_periodic(&spec, prologue, &layer), &reference)?;
        assert_same(&check_schedule(&model, &params, &flat), &reference)?;
    }
}

/// Scales every declared DRAM byte figure of `k` by `factor`.
fn scale_traffic(k: &mut KernelDesc, factor: f64) {
    let scale = |w: &mut resoftmax_gpusim::TbWork| {
        w.dram_read_bytes *= factor;
        w.dram_write_bytes *= factor;
    };
    match &mut k.tbs {
        TbSet::Uniform { work, .. } => scale(work),
        TbSet::PerTb(v) => v.iter_mut().for_each(scale),
        TbSet::Grouped(v) => v.iter_mut().for_each(|g| scale(&mut g.work)),
    }
}

/// A change to a late layer's `Q·Kᵀ` and `P·V` kernels.
type Change = fn(&mut KernelDesc, &mut KernelDesc);

/// A flat schedule changed in one kernel of layer 20 of 24 is not a stack
/// of renamed copies: `check_schedule` must give the every-kernel report,
/// which flags the change, where two layers would read clean. Each field
/// the copy comparison reads is changed in turn.
#[test]
fn a_late_layer_change_falls_back_to_every_kernel() {
    let model = ModelConfig::bert_large();
    let params = RunParams::new(1024).strategy(SoftmaxStrategy::Recomposed);
    let spec = analysis_spec(&model, &params);
    let built = build_schedule(&model, &params);
    let per_layer = (built.len() - 1) / model.layers;
    let late = 1 + 20 * per_layer;
    let find = |category| {
        late + built[late..][..per_layer]
            .iter()
            .position(|k| k.category == category)
            .expect("every layer has the category")
    };
    let (qk, pv) = (
        find(KernelCategory::MatMulQk),
        find(KernelCategory::MatMulPv),
    );
    // Each change gets the late QK and PV kernels.
    let changes: [(&str, Change); 7] = [
        ("a read's bytes", |qk, _| qk.reads[0].bytes *= 2),
        ("a write's bytes", |qk, _| qk.writes[0].bytes *= 2),
        ("a read's id", |_, pv| {
            move_to(&mut pv.reads[0], Scope::layer(3));
        }),
        ("a write's id", |qk, _| {
            move_to(&mut qk.writes[0], Scope::layer(3));
        }),
        ("the grid", |qk, _| scale_traffic(qk, 2.0)),
        ("the metadata", |qk, _| qk.meta.sub_vector = Some(32)),
        ("the thread count", |_, pv| pv.shape.threads = 100),
    ];
    for (what, change) in changes {
        let mut flat = built.clone();
        let (head, tail) = flat.split_at_mut(pv);
        change(&mut head[qk], &mut tail[0]);
        let reference = analyze_certified(&spec, &flat);
        assert!(
            !reference.diagnostics.is_empty(),
            "{what}: the every-kernel pass flags nothing"
        );
        if let Err(e) = assert_same(&check_schedule(&model, &params, &flat), &reference) {
            panic!("{what}: {e}");
        }
    }
}
