//! End-to-end observability: the engine, the simulator, and the parallel
//! runtime all feed the one process-wide recorder, and the merged
//! chrome-trace carries both wall-clock spans and simulated kernel streams.
//!
//! The trace switch and the recorder are process-wide, so every test takes
//! the file-local lock first and leaves the switch off.

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{
    run_seq2seq, ModelConfig, RunParams, RunReport, Seq2SeqConfig, Session, SoftmaxStrategy,
};
use std::sync::{Mutex, PoisonError};

fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Enables tracing and clears all recorded state.
fn fresh_enabled() {
    resoftmax_obs::set_trace_enabled(Some(true));
    resoftmax_obs::recorder().clear();
}

fn disable() {
    resoftmax_obs::set_trace_enabled(Some(false));
}

#[test]
fn merged_trace_has_spans_from_three_crates_and_sim_streams() {
    let _g = lock();
    fresh_enabled();

    // Sweep two strategies through the parallel runtime so the trace picks
    // up a `parallel` span alongside the `model` and `gpusim` ones.
    let strategies = [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed];
    let reports = resoftmax_parallel::parallel_map(&strategies, |_, s| {
        let params = RunParams::new(1024).strategy(*s);
        Session::new(&ModelConfig::bert_large(), &params, &DeviceSpec::a100())
            .unwrap()
            .run()
            .unwrap()
    });
    assert_eq!(reports.len(), 2);

    let spans = resoftmax_obs::recorder().spans();
    for cat in ["model", "gpusim", "parallel"] {
        assert!(
            spans.iter().any(|s| s.category == cat),
            "no span from crate category {cat:?}; got {:?}",
            spans
                .iter()
                .map(|s| (s.name.clone(), s.category))
                .collect::<Vec<_>>()
        );
    }

    // One simulated stream per run, anchored inside the wall-clock session.
    let streams = resoftmax_obs::recorder().sim_streams();
    assert_eq!(streams.len(), 2, "one sim stream per simulated run");
    assert!(streams.iter().any(|s| s.name.contains("SDF")));
    assert!(streams.iter().all(|s| !s.events.is_empty()));

    // The merged export is one JSON document containing both worlds.
    let trace = resoftmax_obs::recorder().chrome_trace();
    let doc: serde_json::Value = serde_json::from_str(&trace).expect("chrome trace parses");
    let events = doc.as_array().expect("trace is a JSON array");
    let has_wall = events.iter().any(|e| {
        e.get("pid").and_then(serde_json::Value::as_u64) == Some(1)
            && e.get("ph").and_then(serde_json::Value::as_str) == Some("X")
    });
    let has_sim = events.iter().any(|e| {
        e.get("pid")
            .and_then(serde_json::Value::as_u64)
            .unwrap_or(0)
            >= 100
            && e.get("ph").and_then(serde_json::Value::as_str) == Some("X")
    });
    assert!(has_wall, "wall-clock complete events present");
    assert!(has_sim, "simulated kernel events present");

    disable();
}

#[test]
fn each_run_records_one_sim_stream_of_its_kernels() {
    let _g = lock();
    let params = RunParams::new(2048).strategy(SoftmaxStrategy::Recomposed);
    let session = Session::new(&ModelConfig::bert_large(), &params, &DeviceSpec::a100()).unwrap();
    let seq2seq = || {
        let cfg = Seq2SeqConfig::vanilla_transformer_big();
        run_seq2seq(&cfg, 1024, 512, &params, DeviceSpec::a100()).unwrap()
    };
    let runs: [(&str, &dyn Fn() -> RunReport); 3] = [
        ("inference", &|| session.run().unwrap()),
        ("training", &|| session.train().unwrap()),
        ("seq2seq", &seq2seq),
    ];
    for (label, run) in runs {
        fresh_enabled();
        let report = run();
        let streams = resoftmax_obs::recorder().sim_streams();
        assert_eq!(streams.len(), 1, "{label}: one sim stream per run");
        assert_eq!(
            streams[0].events.len(),
            report.timeline.len(),
            "{label}: one event per simulated kernel"
        );
    }
    disable();
}

#[test]
fn disabled_trace_records_nothing() {
    let _g = lock();
    disable();
    resoftmax_obs::recorder().clear();

    Session::new(
        &ModelConfig::bert_large(),
        &RunParams::new(512),
        &DeviceSpec::a100(),
    )
    .unwrap()
    .run()
    .unwrap();

    assert!(resoftmax_obs::recorder().spans().is_empty());
    assert!(resoftmax_obs::recorder().sim_streams().is_empty());
}
