//! Property tests for the numerics pass and its error model.
//!
//! The certified bound is a *certificate*: it must exist (or be declined)
//! without panicking for any kernel stream, and it must be monotone in the
//! directions the abstract interpretation claims — error never shrinks when
//! the context grows, and an evenly divided context is the floor of its
//! tile bucket.

use proptest::collection::vec;
use proptest::prelude::*;
use resoftmax_analyzer::{analyze_certified, error_model, ScheduleSpec, StrategyKind};
use resoftmax_gpusim::{
    AccumFormat, BufferUse, KernelCategory, KernelDesc, KernelMeta, TbSet, TbShape, TbWork,
};

const CATEGORIES: [KernelCategory; 8] = [
    KernelCategory::MatMulQk,
    KernelCategory::MatMulPv,
    KernelCategory::Softmax,
    KernelCategory::LocalSoftmax,
    KernelCategory::InterReduction,
    KernelCategory::GlobalScaling,
    KernelCategory::FusedAttention,
    KernelCategory::Other,
];

fn any_accum() -> impl Strategy<Value = Option<AccumFormat>> {
    prop_oneof![
        Just(None),
        Just(Some(AccumFormat::Fp32)),
        Just(Some(AccumFormat::Fp16)),
    ]
}

/// Kernels with arbitrary category/fusion/accumulation metadata — the only
/// fields the numerics pass reads — plus degenerate dimensions.
fn any_kernel() -> impl Strategy<Value = KernelDesc> {
    (
        0usize..CATEGORIES.len(),
        any_accum(),
        any::<bool>(),
        prop_oneof![
            Just(None),
            Just(Some(0usize)),
            (1usize..=512).prop_map(Some)
        ],
    )
        .prop_map(|(c, accum, fused_ls, sub_vector)| KernelDesc {
            name: format!("arb_{}", CATEGORIES[c].label()),
            category: CATEGORIES[c],
            shape: TbShape::new(128, 0, 32),
            tbs: TbSet::Uniform {
                count: 1,
                work: TbWork::default(),
            },
            reads: vec![BufferUse {
                id: "l0.x".into(),
                bytes: 64,
            }],
            writes: vec![],
            meta: KernelMeta {
                accum,
                fused_ls,
                sub_vector,
                ..KernelMeta::default()
            },
        })
}

fn any_spec() -> impl Strategy<Value = ScheduleSpec> {
    (
        prop_oneof![
            Just(StrategyKind::Baseline),
            Just(StrategyKind::Decomposed),
            Just(StrategyKind::Recomposed),
            Just(StrategyKind::OnlineFused),
        ],
        0usize..=8192,
        0usize..=512,
    )
        .prop_map(|(strategy, seq_len, tile_n)| {
            let mut spec = ScheduleSpec::dense_test(seq_len.max(1), 1);
            spec.strategy = strategy;
            spec.seq_len = seq_len; // allow the degenerate 0 too
            spec.tile_n = tile_n;
            spec
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The numerics pass must produce (or decline) a certificate for any
    /// kernel stream without panicking, and a produced bound must be
    /// well-formed: finite non-negative error terms, at least one ULP.
    #[test]
    fn certified_bound_never_panics(spec in any_spec(), kernels in vec(any_kernel(), 0..10)) {
        let report = analyze_certified(&spec, &kernels);
        if let Some(b) = report.error_bound {
            prop_assert!(b.rel.is_finite() && b.rel >= 0.0, "{b:?}");
            prop_assert!(b.row_sum.is_finite() && b.row_sum >= 0.0, "{b:?}");
            prop_assert!(b.ulps >= 1, "{b:?}");
            prop_assert!(b.n_sv >= 1, "{b:?}");
        }
        // The bound and the tolerance diagnostic must agree: an error-level
        // "numerics/tolerance" finding exists iff the bound fails the budget.
        let tolerance_error = report
            .diagnostics
            .iter()
            .any(|d| d.rule.code() == "numerics/tolerance");
        match report.error_bound {
            Some(b) => prop_assert_eq!(
                tolerance_error,
                !b.certifies(resoftmax_analyzer::CERT_BUDGET_REL)
            ),
            None => prop_assert!(!tolerance_error),
        }
    }

    /// Growing the context can never shrink the certified error, for every
    /// pipeline shape and accumulation format.
    #[test]
    fn bounds_monotone_in_ctx(
        ctx in 1usize..=16384,
        extra in 0usize..=4096,
        t in 1usize..=512,
        acc in prop_oneof![Just(AccumFormat::Fp32), Just(AccumFormat::Fp16)],
    ) {
        let long = ctx + extra;
        prop_assert!(
            error_model::monolithic(ctx, acc).rel <= error_model::monolithic(long, acc).rel
        );
        prop_assert!(
            error_model::decomposed(ctx, t, acc, AccumFormat::Fp32).rel
                <= error_model::decomposed(long, t, acc, AccumFormat::Fp32).rel
        );
        prop_assert!(
            error_model::online(ctx, t, acc).rel <= error_model::online(long, t, acc).rel
        );
    }

    /// An evenly divided context is the floor of its tile bucket: padding a
    /// multiple of `t` by any partial sub-vector never improves the bound.
    #[test]
    fn even_division_is_bucket_floor(
        n in 1usize..=64,
        t in 1usize..=256,
        j in 1usize..=255,
        acc in prop_oneof![Just(AccumFormat::Fp32), Just(AccumFormat::Fp16)],
    ) {
        prop_assume!(j < t);
        let even = error_model::decomposed(n * t, t, acc, AccumFormat::Fp32);
        let ragged = error_model::decomposed(n * t + j, t, acc, AccumFormat::Fp32);
        prop_assert_eq!(even.n_sv, n);
        prop_assert_eq!(ragged.n_sv, n + 1);
        prop_assert!(even.rel <= ragged.rel, "{even:?} vs {ragged:?}");
        prop_assert!(even.row_sum <= ragged.row_sum);
        prop_assert!(even.ulps <= ragged.ulps);
    }
}
