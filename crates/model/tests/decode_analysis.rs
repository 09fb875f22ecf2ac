//! Static analysis of every decode schedule the model crate can build:
//! dense models × {Baseline, Recomposed} × context lengths that exercise
//! the awkward remainders (non-multiples of 64 and of the sub-vector tile),
//! plus heterogeneous continuous-batching mixes. Each schedule must pass the
//! analyzer with zero errors AND zero dataflow warnings — the r'-dead-store
//! bug this pins down surfaced only as a dataflow warning plus a fusion
//! error, so both channels are asserted.

use resoftmax_analyzer::{analyze_certified, Report, Rule, Severity};
use resoftmax_gpusim::Schedule;
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{
    build_and_check_decode_schedule, build_batched_decode_schedule, check_decode_schedule,
    decode_analysis_spec, ModelConfig, RunParams, SoftmaxStrategy,
};

fn dense_models() -> Vec<ModelConfig> {
    [
        ModelConfig::bert_base(),
        ModelConfig::bert_large(),
        ModelConfig::gpt_neo_1_3b(),
    ]
    .into_iter()
    .collect()
}

#[test]
fn every_decode_schedule_passes_analysis() {
    // 260 is neither a multiple of 64 (IR remainder TB) nor of the default
    // sub-vector tile; 1000 isn't warp-divisible by the old threads formula;
    // 4096 is the paper's sequence length.
    let batches: &[&[usize]] = &[
        &[260],
        &[1000],
        &[4096],
        &[260, 1000, 1000, 4096],
        &[1, 64, 65, 2048],
    ];
    for model in dense_models() {
        for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            for &ctxs in batches {
                let params = RunParams::new(4096).strategy(strategy);
                let kernels = build_batched_decode_schedule(&model, ctxs, &params);
                let report = check_decode_schedule(&model, ctxs, &params, &kernels);
                assert!(
                    !report.has_errors(),
                    "{} {strategy:?} {ctxs:?}:\n{}",
                    model.name,
                    report.render()
                );
                let dataflow_warnings: Vec<_> = report
                    .diagnostics
                    .iter()
                    .filter(|d| {
                        d.severity == Severity::Warning
                            && matches!(
                                d.rule,
                                Rule::DataflowDeadStore
                                    | Rule::DataflowUseBeforeDef
                                    | Rule::DataflowShape
                            )
                    })
                    .collect();
                assert!(
                    dataflow_warnings.is_empty(),
                    "{} {strategy:?} {ctxs:?}: {dataflow_warnings:?}",
                    model.name
                );
            }
        }
    }
}

/// The bug this PR fixes, reconstructed: a recomposed decode PV that never
/// reads `r_prime` (the inter-reduction output is a dead store and the GS
/// prologue is unaccounted). The analyzer must refuse such a schedule — the
/// fusion/FSM rules flag the missing GS fusion as an error and dataflow
/// flags the dead store — so the regression cannot silently return.
#[test]
fn analyzer_catches_r_prime_dead_store() {
    let model = ModelConfig::gpt_neo_1_3b();
    let params = RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed);
    let ctxs = [4096usize];
    let mut kernels = build_batched_decode_schedule(&model, &ctxs, &params).expand();
    for k in &mut kernels {
        if k.category == resoftmax_gpusim::KernelCategory::MatMulPv {
            k.reads.retain(|b| !b.id.is("r_prime"));
            k.meta.fused_gs = false;
            k.meta.sub_vector = None;
        }
    }
    let report = check_decode_schedule(&model, &ctxs, &params, &Schedule::from(kernels));
    assert!(
        report.has_errors(),
        "a PV that ignores r_prime must fail analysis:\n{}",
        report.render()
    );
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::DataflowDeadStore && d.message.contains("r_prime")),
        "dead store on r_prime must be reported:\n{}",
        report.render()
    );
}

/// Traffic conservation on the batched schedules: per-TB byte totals and
/// buffer declarations must agree with the analyzer's closed-form decode
/// expectations (the IR padded-remainder overcount tripped exactly this).
#[test]
fn decode_traffic_matches_expectations_exactly() {
    let model = ModelConfig::gpt_neo_1_3b();
    for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
        let params = RunParams::new(4096).strategy(strategy);
        let ctxs = [260usize, 1000, 4096];
        let kernels = build_batched_decode_schedule(&model, &ctxs, &params);
        let report = check_decode_schedule(&model, &ctxs, &params, &kernels);
        let traffic: Vec<_> = report
            .diagnostics
            .iter()
            .filter(|d| matches!(d.rule, Rule::TrafficFormula | Rule::TrafficAttribution))
            .collect();
        assert!(traffic.is_empty(), "{strategy:?}: {traffic:?}");
    }
}

/// The analyzer's warp-alignment lint rejects non-warp-multiple blocks —
/// the old decode softmax launched e.g. 65-thread blocks at ctx 260.
#[test]
fn warp_alignment_lint_fires_on_ragged_blocks() {
    let model = ModelConfig::gpt_neo_1_3b();
    let params = RunParams::new(4096);
    let ctxs = [260usize];
    let mut kernels = build_batched_decode_schedule(&model, &ctxs, &params).expand();
    for k in &mut kernels {
        if k.category == resoftmax_gpusim::KernelCategory::Softmax {
            k.shape.threads = 65; // the pre-fix (ctx/4).clamp(32, 1024) value
        }
    }
    let report = check_decode_schedule(&model, &ctxs, &params, &Schedule::from(kernels));
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::ShapeWarpAlignment && d.severity == Severity::Error),
        "65-thread block must trip the warp lint:\n{}",
        report.render()
    );
}

/// `got` and `want` agree by `Debug` (every `f64` to the bit), by serde and
/// by their rendering.
fn assert_same(got: &Report, want: &Report, what: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{what}");
    assert_eq!(
        serde_json::to_string(got).expect("report serializes"),
        serde_json::to_string(want).expect("report serializes"),
        "{what}"
    );
    assert_eq!(got.render(), want.render(), "{what}");
}

/// The two-layer decode checks against the every-kernel pass on GPT-Neo
/// iterations with mixed contexts (decode rows, a prefill chunk's
/// consecutive positions, both) under every decode strategy, including
/// SDF16 at a tile width its certificate rejects: the report of
/// `build_and_check_decode_schedule` and `check_decode_schedule`'s on the
/// built schedule and on its flat expansion equal `analyze_certified`'s.
#[test]
fn periodic_decode_checks_match_every_kernel() {
    let model = ModelConfig::gpt_neo_1_3b();
    let chunk: Vec<usize> = (1..=256).chain([300, 4096]).collect();
    let mixes: [&[usize]; 5] = [
        &[1],
        &[4096],
        &[260, 1000, 1000, 4096],
        &[512, 768, 1024, 2048],
        &chunk,
    ];
    let fp16 = RunParams::new(4096).strategy(SoftmaxStrategy::RecomposedFp16);
    let all_params = [
        RunParams::new(4096),
        RunParams::new(4096).strategy(SoftmaxStrategy::Decomposed),
        RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
        fp16.clone().tile(TileConfig::new(64, 16)),
        fp16,
    ];
    let mut rejected = 0;
    for params in &all_params {
        for &ctxs in &mixes {
            let what = format!(
                "{:?} T={} {} rows",
                params.strategy,
                params.tile.n,
                ctxs.len()
            );
            let (schedule, report) = build_and_check_decode_schedule(&model, ctxs, params);
            let flat = schedule.expand();
            let reference = analyze_certified(&decode_analysis_spec(&model, ctxs, params), &flat);
            assert_same(&report, &reference, &what);
            for schedule in [&schedule, &Schedule::from(flat)] {
                assert_same(
                    &check_decode_schedule(&model, ctxs, params, schedule),
                    &reference,
                    &what,
                );
            }
            if reference.has_errors() {
                rejected += 1;
            } else {
                assert_eq!(
                    schedule,
                    build_batched_decode_schedule(&model, ctxs, params),
                    "{what}"
                );
            }
        }
    }
    // SDF16 at T = 64 certifies over a one-token context only.
    assert_eq!(rejected, mixes.len() - 1);
}
