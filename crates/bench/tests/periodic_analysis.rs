//! The layer-periodic analysis against the every-kernel pass, on the
//! schedules that matter most: every schedule of the `analyze` sweep, and
//! every `SearchSpace::paper_default` candidate of the tuning buckets the
//! `paper_pipeline` benchmark workload tunes, including the candidates the
//! analyzer rejects (an LS split across the reduction axis, SDF16 over its
//! certificate). `build_and_check_schedule` (and its decode counterpart)
//! and `check_schedule` on the built schedule and on its flat expansion
//! must report exactly what `analyze_certified` reports on the expansion.

#![cfg(not(miri))] // whole-model analysis is far too slow under miri

use resoftmax_analyzer::{analyze_certified, Report};
use resoftmax_bench::analysis_grid;
use resoftmax_gpusim::Schedule;
use resoftmax_model::{
    analysis_spec, build_and_check_decode_schedule, build_and_check_schedule,
    check_decode_schedule, check_schedule, decode_analysis_spec, ModelConfig, RunParams,
};
use resoftmax_tune::{default_params, precheck, precheck_decode, SearchSpace, Skip, TuneWorkload};

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

/// Checks one prefill point and returns whether the analyzer rejects it.
fn prefill_agrees(model: &ModelConfig, params: &RunParams, what: &str) -> bool {
    let (schedule, report) = build_and_check_schedule(model, params);
    let flat = schedule.expand();
    let reference = analyze_certified(&analysis_spec(model, params), &flat);
    assert_same(&report, &reference, what);
    assert_same(&check_schedule(model, params, &schedule), &reference, what);
    let flat = Schedule::from(flat);
    assert_same(&check_schedule(model, params, &flat), &reference, what);
    reference.has_errors()
}

#[test]
fn the_analyze_sweep_reports_alike() {
    let grid = analysis_grid();
    assert_eq!(grid.len(), 336);
    for (model, params) in &grid {
        let what = format!(
            "{} {} L={} b={} {}",
            model.name,
            params.strategy.label(),
            params.seq_len,
            params.batch,
            params.profile.name
        );
        assert!(!prefill_agrees(model, params, &what), "{what}: rejected");
    }
}

/// The `paper_pipeline` benchmark's tuning workloads. It tunes each on an
/// A100 and a T4; the schedules do not depend on the device.
fn tuned_workloads() -> Vec<(ModelConfig, TuneWorkload)> {
    let prefill = |seq_len, batch| TuneWorkload::Prefill { seq_len, batch };
    let decode = |ctxs| TuneWorkload::Decode { ctxs };
    vec![
        (ModelConfig::bert_base(), prefill(512, 1)),
        (ModelConfig::bert_large(), prefill(1024, 2)),
        (
            ModelConfig::gpt_neo_1_3b(),
            decode(vec![512, 768, 1024, 2048]),
        ),
        (ModelConfig::bert_large(), prefill(4096, 1)),
        (ModelConfig::bigbird_large(), prefill(4096, 1)),
        (ModelConfig::gpt_neo_1_3b(), prefill(2048, 4)),
        (ModelConfig::gpt_neo_1_3b(), decode(vec![4096; 8])),
    ]
}

#[test]
fn tuner_candidates_report_alike() {
    let (mut checked, mut rejected) = (0, 0);
    for (model, workload) in tuned_workloads() {
        let bucket = workload.bucket();
        for params in SearchSpace::paper_default().candidates(&default_params(&bucket)) {
            let what = format!(
                "{} {} {} T={}x{} {:?}",
                model.name,
                bucket.label(),
                params.strategy.label(),
                params.tile.m,
                params.tile.n,
                params.ls_split
            );
            // Only the candidates no schedule can be built for are left out;
            // the ones the split, numerics or analyzer gates prune are kept.
            let gate = match &bucket {
                TuneWorkload::Prefill { .. } => precheck(&model, &params).err(),
                TuneWorkload::Decode { ctxs } => precheck_decode(&model, ctxs, &params).err(),
            };
            if matches!(gate, Some(Skip::InvalidConfig(_))) {
                continue;
            }
            let rejects = match &bucket {
                TuneWorkload::Prefill { .. } => prefill_agrees(&model, &params, &what),
                TuneWorkload::Decode { ctxs } => {
                    let (schedule, report) = build_and_check_decode_schedule(&model, ctxs, &params);
                    let flat = schedule.expand();
                    let spec = decode_analysis_spec(&model, ctxs, &params);
                    let reference = analyze_certified(&spec, &flat);
                    assert_same(&report, &reference, &what);
                    let report = check_decode_schedule(&model, ctxs, &params, &schedule);
                    assert_same(&report, &reference, &what);
                    let flat = Schedule::from(flat);
                    let flat_report = check_decode_schedule(&model, ctxs, &params, &flat);
                    assert_same(&flat_report, &reference, &what);
                    reference.has_errors()
                }
            };
            checked += 1;
            rejected += usize::from(rejects);
        }
    }
    // Seven workloads' candidates, less the ones no schedule exists for.
    assert_eq!((checked, rejected), (795, 129));
}
