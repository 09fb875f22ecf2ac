//! Property-based robustness tests: [`resoftmax_analyzer::analyze`] is a
//! diagnostic tool, so whatever schedule it is handed — including garbage no
//! generator would ever emit — it must return diagnostics, not panic.
//!
//! Kernel shapes are drawn from an adversarial strategy that mixes plausible
//! metadata (real categories, dotted buffer ids, power-of-two tiles) with
//! degenerate values (zero tiles, zero-length buffers, metadata on the wrong
//! category, mismatched buffer sizes), under every strategy/sparsity spec.

use proptest::collection::vec;
use proptest::prelude::*;
use resoftmax_analyzer::{analyze, ScheduleSpec, SparseSpec, StrategyKind};
use resoftmax_gpusim::{
    AccumFormat, BufferUse, KernelCategory, KernelDesc, KernelMeta, ParallelSplit, TbSet, TbShape,
    TbWork,
};

const CATEGORIES: [KernelCategory; 14] = [
    KernelCategory::MatMulQk,
    KernelCategory::MatMulPv,
    KernelCategory::Softmax,
    KernelCategory::LocalSoftmax,
    KernelCategory::InterReduction,
    KernelCategory::GlobalScaling,
    KernelCategory::Fc,
    KernelCategory::FeedForward,
    KernelCategory::Scale,
    KernelCategory::Mask,
    KernelCategory::LayerNorm,
    KernelCategory::Activation,
    KernelCategory::FusedAttention,
    KernelCategory::Other,
];

/// Buffer ids the dataflow rules know about, plus junk they do not.
const BUFFER_IDS: [&str; 12] = [
    "l0.scores",
    "l0.probs",
    "l0.x_prime",
    "l0.m_prime",
    "l0.d_prime",
    "l0.r_prime",
    "l0.q",
    "l0.attn_out",
    "l0.x",
    "l1.x",
    "tokens",
    "junk_without_dots",
];

/// Dimension values including the degenerate 0 that exercises the
/// divide-guards; bounded so shape products stay far from usize overflow.
fn any_dim() -> impl Strategy<Value = Option<usize>> {
    prop_oneof![
        Just(None),
        (0usize..=3).prop_map(|k| Some(k * 64)),
        Just(Some(1)),
        Just(Some(8192)),
    ]
}

fn any_split() -> impl Strategy<Value = Option<ParallelSplit>> {
    prop_oneof![
        Just(None),
        Just(Some(ParallelSplit::OutputRows)),
        Just(Some(ParallelSplit::OutputTiles)),
        Just(Some(ParallelSplit::Elements)),
        Just(Some(ParallelSplit::RowSegments)),
        Just(Some(ParallelSplit::ReductionAxis)),
    ]
}

fn any_accum() -> impl Strategy<Value = Option<AccumFormat>> {
    prop_oneof![
        Just(None),
        Just(Some(AccumFormat::Fp32)),
        Just(Some(AccumFormat::Fp16)),
    ]
}

fn any_meta() -> impl Strategy<Value = KernelMeta> {
    (
        (any_dim(), any_dim(), any_dim(), any_dim(), any_dim()),
        (any_dim(), any_dim(), any_dim()),
        (0u64..=64, 0u64..=1_000_000, 0usize..=4),
        (any::<bool>(), any::<bool>(), any::<bool>(), any_dim()),
        (any_split(), any_accum()),
    )
        .prop_map(
            |(
                (tile_m, tile_n, sub_vector, rows, kv_len),
                (d_head, d_in, d_out),
                (instances, elems, input_streams),
                (fused_scale_mask, fused_ls, fused_gs, sparse_block),
                (split, accum),
            )| KernelMeta {
                tile_m,
                tile_n,
                sub_vector,
                rows,
                kv_len,
                d_head,
                d_in,
                d_out,
                instances: Some(instances),
                elems: Some(elems),
                input_streams: Some(input_streams),
                fused_scale_mask,
                fused_ls,
                fused_gs,
                sparse_block,
                split,
                accum,
            },
        )
}

fn any_buffer() -> impl Strategy<Value = BufferUse> {
    (0usize..BUFFER_IDS.len(), 0u64..=1_000_000_000).prop_map(|(i, bytes)| BufferUse {
        id: BUFFER_IDS[i].into(),
        bytes,
    })
}

fn any_kernel() -> impl Strategy<Value = KernelDesc> {
    (
        0usize..CATEGORIES.len(),
        (0.0f64..1e12, 0.0f64..1e12, 0.0f64..1e12, 0.0f64..1e12),
        1u64..=100_000,
        any_meta(),
        vec(any_buffer(), 0..4),
        vec(any_buffer(), 0..4),
    )
        .prop_map(
            |(c, (cuda, tensor, read, write), count, meta, reads, writes)| KernelDesc {
                name: format!("arb_{}", CATEGORIES[c].label()),
                category: CATEGORIES[c],
                shape: TbShape::new(128, 0, 32),
                tbs: TbSet::Uniform {
                    count,
                    work: TbWork {
                        cuda_flops: cuda,
                        tensor_flops: tensor,
                        dram_read_bytes: read,
                        dram_write_bytes: write,
                        mem_active_fraction: 1.0,
                        efficiency: 1.0,
                    },
                },
                reads,
                writes,
                meta,
            },
        )
}

fn any_spec() -> impl Strategy<Value = ScheduleSpec> {
    (
        prop_oneof![
            Just(StrategyKind::Baseline),
            Just(StrategyKind::Decomposed),
            Just(StrategyKind::Recomposed),
            Just(StrategyKind::OnlineFused),
        ],
        any::<bool>(),
        1usize..=4,
    )
        .prop_map(|(strategy, sparse, layers)| {
            let mut spec = ScheduleSpec::dense_test(512, layers);
            spec.strategy = strategy;
            if sparse {
                spec.sparse = Some(SparseSpec {
                    block: 64,
                    n_blocks: 8,
                    nnz_blocks: 20,
                    row_counts: vec![3, 2, 2, 3, 2, 2, 3, 3],
                });
            }
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The analyzer must survive any kernel stream without panicking, and
    /// its report must come out sorted most-severe-first.
    #[test]
    fn analyze_never_panics(spec in any_spec(), kernels in vec(any_kernel(), 0..12)) {
        let diags = analyze(&spec, &kernels);
        for w in diags.windows(2) {
            prop_assert!(w[0].severity >= w[1].severity);
        }
        for d in &diags {
            // Kernel references must point into the schedule.
            if let Some(k) = d.kernel {
                prop_assert!(k < kernels.len());
            }
            // Rendering must not panic either.
            let _ = d.render();
        }
    }

    /// Same spec + kernels in, same diagnostics out.
    #[test]
    fn analyze_is_deterministic(spec in any_spec(), kernels in vec(any_kernel(), 0..8)) {
        prop_assert_eq!(analyze(&spec, &kernels), analyze(&spec, &kernels));
    }
}
