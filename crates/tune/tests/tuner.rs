//! End-to-end tuner contracts: analyzer-clean winners, never-slower
//! guarantee, cache round trips with hit/miss counters, and the serve hook.

#![cfg(not(miri))] // end-to-end simulation is too slow under miri

use resoftmax_gpusim::DeviceSpec;
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{ModelConfig, RunParams, Session, SoftmaxStrategy};
use resoftmax_serve::{BaselinePlanner, FleetBuilder, FleetReport, IterationPlanner, ServeConfig};
use resoftmax_tune::{
    evaluate, precheck, precheck_decode, SearchMode, SearchSpace, SessionTuneExt, Skip,
    TuneWorkload, TunedPlanner, Tuner,
};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("resoftmax-tune-it-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// Every schedule the tuner returns passes the static analyzer and prices
/// no slower than the default configuration — over prefill and decode
/// workloads on dense and (prefill-only) sparse models.
#[test]
fn winners_are_analyzer_clean_and_never_slower() {
    let device = DeviceSpec::a100();
    let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
    let cases: Vec<(ModelConfig, TuneWorkload)> = vec![
        (
            ModelConfig::bert_base(),
            TuneWorkload::Prefill {
                seq_len: 512,
                batch: 1,
            },
        ),
        (
            ModelConfig::bigbird_large(),
            TuneWorkload::Prefill {
                seq_len: 1024,
                batch: 2,
            },
        ),
        (
            ModelConfig::gpt_neo_1_3b(),
            TuneWorkload::Decode {
                ctxs: vec![512, 900, 2000],
            },
        ),
    ];
    for (model, workload) in cases {
        let tuned = tuner.tune(&model, &device, &workload).unwrap();
        assert!(
            tuned.cost_s <= tuned.default_cost_s,
            "{}: tuned {} > default {}",
            workload.label(),
            tuned.cost_s,
            tuned.default_cost_s
        );
        assert!(tuned.speedup() >= 1.0);
        // The winner re-analyzes clean for its bucket.
        match &tuned.workload {
            TuneWorkload::Prefill { .. } => precheck(&model, &tuned.params).unwrap(),
            TuneWorkload::Decode { ctxs } => precheck_decode(&model, ctxs, &tuned.params).unwrap(),
        };
        // And re-pricing it reproduces the recorded cost exactly.
        assert_eq!(
            evaluate(&model, &device, &tuned.workload, &tuned.params).unwrap(),
            tuned.cost_s
        );
    }
}

/// The persisted cache round-trips: a second tuner constructed over the
/// saved file answers from the database (cache-hit counter moves, no
/// re-search) with the identical result.
#[test]
fn persisted_cache_round_trips_with_counters() {
    let path = temp_path("roundtrip.json");
    let _ = std::fs::remove_file(&path);
    let model = ModelConfig::bert_base();
    let device = DeviceSpec::a100();
    let w = TuneWorkload::Prefill {
        seq_len: 512,
        batch: 1,
    };

    let first = {
        let tuner = Tuner::with_cache(SearchSpace::smoke(), SearchMode::Exhaustive, &path).unwrap();
        assert_eq!(tuner.loaded_entries(), 0);
        let misses = resoftmax_obs::counter("tune.cache_misses").get();
        let t = tuner.tune(&model, &device, &w).unwrap();
        assert!(!t.cache_hit);
        assert!(resoftmax_obs::counter("tune.cache_misses").get() > misses);
        tuner.save().unwrap();
        t
    };

    let tuner = Tuner::with_cache(SearchSpace::smoke(), SearchMode::Exhaustive, &path).unwrap();
    assert_eq!(tuner.loaded_entries(), 1);
    let hits = resoftmax_obs::counter("tune.cache_hits").get();
    let evals = resoftmax_obs::counter("tune.candidates_evaluated").get();
    let second = tuner.tune(&model, &device, &w).unwrap();
    assert!(second.cache_hit);
    assert!(resoftmax_obs::counter("tune.cache_hits").get() > hits);
    // A cache hit runs no search at all.
    assert_eq!(
        resoftmax_obs::counter("tune.candidates_evaluated").get(),
        evals
    );
    assert_eq!(second.params, first.params);
    assert_eq!(second.cost_s, first.cost_s);
    assert_eq!(second.default_cost_s, first.default_cost_s);
    let _ = std::fs::remove_file(&path);
}

/// A differently-bounded space or mode must not reuse the entry.
#[test]
fn cache_does_not_cross_spaces_or_modes() {
    let path = temp_path("crossspace.json");
    let _ = std::fs::remove_file(&path);
    let model = ModelConfig::bert_base();
    let device = DeviceSpec::a100();
    let w = TuneWorkload::Prefill {
        seq_len: 256,
        batch: 1,
    };
    let tuner = Tuner::with_cache(SearchSpace::smoke(), SearchMode::Exhaustive, &path).unwrap();
    tuner.tune(&model, &device, &w).unwrap();
    tuner.save().unwrap();

    let other = Tuner::with_cache(SearchSpace::smoke(), SearchMode::annealed(1), &path).unwrap();
    assert_eq!(other.loaded_entries(), 1);
    let t = other.tune(&model, &device, &w).unwrap();
    assert!(!t.cache_hit, "a different search mode must re-search");
    let _ = std::fs::remove_file(&path);
}

/// Session integration: `.tuned()` returns a session that runs no slower,
/// and the tuned knobs survive the round trip through `Session::new`.
#[test]
fn tuned_session_runs_no_slower() {
    let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
    let session = Session::new(
        &ModelConfig::bert_large(),
        &RunParams::new(1024),
        &DeviceSpec::a100(),
    )
    .unwrap();
    let base_t = session.run().unwrap().total_time_s();
    let tuned = session.tuned(&tuner).unwrap();
    let tuned_t = tuned.run().unwrap().total_time_s();
    assert!(tuned_t <= base_t, "tuned {tuned_t} > baseline {base_t}");
}

/// One decode gate, one answer: each illegal decode configuration is
/// rejected by `Session::decode_batch`, by `FleetBuilder::build` (at the
/// workload's worst context) and by `precheck_decode`; the session and the
/// fleet give the same reason, and the tuner classes it.
#[test]
fn decode_gate_gives_one_answer_on_every_path() {
    let dense = ModelConfig::gpt_neo_1_3b();
    let sdf16 = RunParams::new(1024)
        .tile(TileConfig::new(64, 32))
        .strategy(SoftmaxStrategy::RecomposedFp16);
    let cases = [
        (ModelConfig::bigbird_large(), RunParams::new(1024), 1024),
        (
            dense.clone(),
            RunParams::new(1024).strategy(SoftmaxStrategy::OnlineFused),
            1024,
        ),
        // Certifies at the session's own length, not over this context.
        (dense, sdf16, 1 << 24),
    ];
    let mut classes = Vec::new();
    for (model, params, ctx) in cases {
        let label = format!("{} / {} / ctx {ctx}", model.name, params.strategy.label());
        let session = Session::new(&model, &params, &DeviceSpec::a100()).unwrap();
        let session_reason = match session.decode_batch(&[ctx]) {
            Err(resoftmax_model::Error::InvalidConfig { reason }) => reason,
            other => panic!("{label}: session gave {other:?}"),
        };

        let workload = ServeConfig {
            requests: 2,
            prompt_tokens: (64, ctx - 16),
            decode_tokens: (4, 16),
            ..ServeConfig::default()
        };
        let fleet = FleetBuilder::new()
            .model(model.clone())
            .params(params.clone())
            .replica(DeviceSpec::a100())
            .workload(workload)
            .build();
        let fleet_reason = match fleet {
            Err(resoftmax_serve::Error::Model(resoftmax_model::Error::InvalidConfig {
                reason,
            })) => reason,
            Err(other) => panic!("{label}: fleet gave {other}"),
            Ok(_) => panic!("{label}: fleet built"),
        };
        assert_eq!(session_reason, fleet_reason, "{label}");

        match precheck_decode(&model, &[ctx], &params) {
            Err(Skip::InvalidConfig(_)) => classes.push("InvalidConfig"),
            Err(Skip::Numerics(_)) => classes.push("Numerics"),
            Err(other) => panic!("{label}: precheck_decode gave {other}"),
            Ok(_) => panic!("{label}: precheck_decode accepted"),
        }
    }
    assert_eq!(classes, ["InvalidConfig", "InvalidConfig", "Numerics"]);
}

/// Serve integration: the tuned planner completes the same workload in no
/// more simulated time than the baseline planner, deterministically.
#[test]
fn tuned_serving_is_deterministic_and_no_slower() {
    let model = ModelConfig::gpt_neo_1_3b();
    let device = DeviceSpec::a100();
    let params = RunParams::new(4096);
    let cfg = ServeConfig {
        requests: 5,
        arrival_rate_hz: 64.0,
        prompt_tokens: (64, 160),
        decode_tokens: (4, 10),
        max_batch: 4,
        prefill_chunk: 64,
        ..ServeConfig::default()
    };
    let serve = |planner: &dyn IterationPlanner| -> FleetReport {
        FleetBuilder::new()
            .model(model.clone())
            .params(params.clone())
            .replica(device.clone())
            .planner(planner)
            .workload(cfg.clone())
            .build()
            .unwrap()
            .run()
            .unwrap()
    };
    let baseline = serve(&BaselinePlanner);

    let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
    let planner = TunedPlanner::new(&tuner, &model, &device);
    let a = serve(&planner);
    let b = serve(&planner);
    assert_eq!(a, b, "tuned serving must be deterministic");
    assert_eq!(a.completed, cfg.requests);
    assert!(a.sim_time_s <= baseline.sim_time_s);
}
