//! Round-trip tests: the dependency-free emitter must produce JSON that a
//! real parser accepts, and the recorder must survive record → render →
//! clear cycles.

use resoftmax_obs as obs;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Serializes the tests in this binary: they all mutate the process-global
/// recorder.
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn chrome_trace_is_valid_json_with_both_stream_kinds() {
    let _g = lock();
    obs::set_trace_enabled(Some(true));
    obs::recorder().clear();
    {
        let _outer = obs::span!("outer \"quoted\"", "itest");
        let _inner = obs::span!("inner", "itest");
    }
    obs::recorder().add_sim_stream(
        "sim:unit",
        obs::recorder().now_us(),
        vec![obs::SimEvent {
            name: "qk_matmul".to_owned(),
            category: "MatMul".to_owned(),
            track: 0,
            start_us: 0.0,
            dur_us: 12.5,
            args: vec![("dram_read_mb", 1.5), ("bad", f64::NAN)],
        }],
    );
    let trace = obs::recorder().chrome_trace();
    let v: serde_json::Value = serde_json::from_str(&trace).expect("chrome trace parses");
    let events = v.as_array().expect("top level is an array");

    // Wall-clock spans live on pid 1, sim events on pid >= 100.
    let has_wall = events
        .iter()
        .any(|e| e["pid"] == 1 && e["ph"] == "X" && e["name"] == "inner");
    let has_sim = events
        .iter()
        .any(|e| e["pid"].as_u64().unwrap_or(0) >= 100 && e["name"] == "qk_matmul");
    assert!(has_wall, "wall-clock span missing: {trace}");
    assert!(has_sim, "sim stream event missing: {trace}");

    // Process-name metadata for both process kinds.
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e["name"] == "process_name")
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    assert!(names.contains(&"wall-clock"));
    assert!(names.iter().any(|n| n.contains("sim:unit")));

    // Non-finite args were sanitized, not emitted as bare NaN.
    assert!(!trace.contains("NaN"));
}

#[test]
fn summary_renders_spans_and_clear_empties_the_recorder() {
    let _g = lock();
    obs::set_trace_enabled(Some(true));
    obs::recorder().clear();
    {
        let _s = obs::span!("roundtrip", "itest");
    }
    obs::recorder().add_sim_stream("sim:summary", 0.0, Vec::new());
    let summary = obs::recorder().summary();
    assert!(summary.contains("roundtrip"), "{summary}");
    assert!(summary.contains("sim:summary"), "{summary}");

    obs::recorder().clear();
    assert!(obs::recorder().spans().is_empty());
    assert!(obs::recorder().sim_streams().is_empty());
    assert!(obs::recorder().summary().contains("(no spans recorded)"));
}
