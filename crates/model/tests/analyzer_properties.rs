//! End-to-end properties of the static analyzer against the real engine.
//!
//! Soundness: every schedule `build_schedule` emits — any model, strategy,
//! sequence length, batch, or library profile — must analyze clean (zero
//! errors). Completeness: corrupting one kernel of a clean schedule must be
//! caught by the rule family that owns the broken invariant (fusion
//! legality, buffer dataflow, traffic conservation, SDA sequencing).

use proptest::prelude::*;
use resoftmax_analyzer::{Rule, Severity};
use resoftmax_gpusim::{KernelCategory, KernelDesc, Schedule, TbSet};
use resoftmax_model::{
    build_schedule, check_schedule, LibraryProfile, ModelConfig, RunParams, SoftmaxStrategy,
};

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

fn any_strategy() -> impl Strategy<Value = SoftmaxStrategy> {
    prop_oneof![
        Just(SoftmaxStrategy::Baseline),
        Just(SoftmaxStrategy::Decomposed),
        Just(SoftmaxStrategy::Recomposed),
        Just(SoftmaxStrategy::OnlineFused),
    ]
}

fn any_profile() -> impl Strategy<Value = LibraryProfile> {
    (0usize..LibraryProfile::fig7_lineup().len())
        .prop_map(|i| LibraryProfile::fig7_lineup().swap_remove(i))
}

/// L values compatible with every sparse pattern/tile in play.
fn any_seq_len() -> impl Strategy<Value = usize> {
    (1usize..8).prop_map(|k| k * 512)
}

fn params(l: usize, batch: usize, s: SoftmaxStrategy, p: LibraryProfile) -> RunParams {
    RunParams::new(l).batch(batch).strategy(s).profile(p)
}

/// Rules a diagnostic list hits at `Error` severity.
fn error_rules(report: &resoftmax_analyzer::Report) -> Vec<Rule> {
    report
        .diagnostics
        .iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.rule)
        .collect()
}

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: generated schedules carry zero analyzer errors under any
    /// model/strategy/seq-len/batch/profile combination.
    #[test]
    fn generated_schedules_analyze_clean(
        model in any_model(),
        s in any_strategy(),
        l in any_seq_len(),
        batch in 1usize..=4,
        profile in any_profile(),
    ) {
        let p = params(l, batch, s, profile);
        let kernels = build_schedule(&model, &p);
        let report = check_schedule(&model, &p, &kernels);
        prop_assert!(
            !report.has_errors(),
            "clean schedule reported errors:\n{}",
            report.render()
        );
    }

    /// Completeness, fusion family: disagreeing on the sub-vector length T
    /// anywhere in the SDA block is an error attributed to the tile-width
    /// rule.
    #[test]
    fn tile_width_corruption_is_caught(
        model in any_model(),
        l in any_seq_len(),
        s in prop_oneof![
            Just(SoftmaxStrategy::Decomposed),
            Just(SoftmaxStrategy::Recomposed),
        ],
    ) {
        let p = params(l, 1, s, LibraryProfile::ours_baseline());
        let mut kernels = build_schedule(&model, &p).expand();
        let Some(k) = kernels.iter_mut().find(|k| k.meta.sub_vector.is_some()) else {
            return Err("schedule carries no sub-vector metadata".into());
        };
        k.meta.sub_vector = k.meta.sub_vector.map(|t| t * 2);
        let report = check_schedule(&model, &p, &Schedule::from(kernels));
        prop_assert!(
            error_rules(&report).contains(&Rule::FusionTileWidth),
            "doubled sub-vector not caught:\n{}",
            report.render()
        );
    }

    /// Completeness, dataflow family: renaming a producer's output buffer
    /// leaves its consumers reading a never-written intermediate.
    #[test]
    fn renamed_producer_is_caught(
        model in any_model(),
        l in any_seq_len(),
        s in any_strategy(),
    ) {
        let p = params(l, 1, s, LibraryProfile::ours_baseline());
        let mut kernels = build_schedule(&model, &p).expand();
        let Some(w) = kernels
            .iter_mut()
            .flat_map(|k| k.writes.iter_mut())
            .find(|w| w.id.is("attn_out"))
        else {
            return Err("no attn_out writer in schedule".into());
        };
        w.id = w.id.scope().id("attn_out_detached");
        let report = check_schedule(&model, &p, &Schedule::from(kernels));
        prop_assert!(
            error_rules(&report).contains(&Rule::DataflowUseBeforeDef),
            "renamed producer not caught:\n{}",
            report.render()
        );
    }

    /// Completeness, traffic family: inflating a kernel's declared DRAM
    /// totals away from its analytic formula is an error attributed to the
    /// traffic rule.
    #[test]
    fn inflated_traffic_is_caught(
        model in any_model(),
        l in any_seq_len(),
        s in any_strategy(),
        idx in 0usize..1_000,
    ) {
        let p = params(l, 1, s, LibraryProfile::ours_baseline());
        let mut kernels = build_schedule(&model, &p).expand();
        // Pick a kernel the formula engine actually models (SDA or FC/FF).
        let candidates: Vec<usize> = kernels
            .iter()
            .enumerate()
            .filter(|(_, k)| {
                k.category.in_sda()
                    || matches!(
                        k.category,
                        KernelCategory::Fc | KernelCategory::FeedForward
                    )
            })
            .map(|(i, _)| i)
            .collect();
        prop_assert!(!candidates.is_empty());
        let victim = candidates[idx % candidates.len()];
        scale_traffic(&mut kernels[victim], 1.5);
        let report = check_schedule(&model, &p, &Schedule::from(kernels));
        prop_assert!(
            error_rules(&report).contains(&Rule::TrafficFormula),
            "inflated traffic on kernel #{victim} not caught:\n{}",
            report.render()
        );
    }

    /// Completeness, sequence family: deleting the inter-reduction step
    /// from a decomposed/recomposed schedule breaks the SDA grammar.
    #[test]
    fn missing_ir_is_caught(
        model in any_model(),
        l in any_seq_len(),
        s in prop_oneof![
            Just(SoftmaxStrategy::Decomposed),
            Just(SoftmaxStrategy::Recomposed),
        ],
    ) {
        let p = params(l, 1, s, LibraryProfile::ours_baseline());
        let mut kernels = build_schedule(&model, &p).expand();
        let before = kernels.len();
        let Some(pos) = kernels
            .iter()
            .position(|k| k.category == KernelCategory::InterReduction)
        else {
            return Err("no IR kernel in decomposed schedule".into());
        };
        kernels.remove(pos);
        prop_assert_eq!(kernels.len(), before - 1);
        let report = check_schedule(&model, &p, &Schedule::from(kernels));
        prop_assert!(
            error_rules(&report).contains(&Rule::FusionSequence),
            "missing IR not caught:\n{}",
            report.render()
        );
    }
}
