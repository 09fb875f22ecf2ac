//! The controlled fleet's report — decision log included — must be
//! bit-identical across host thread counts, reruns, and sim-cache states,
//! and a replay of the decision log must reproduce it exactly.

use resoftmax_ctrl::{Controller, PolicyTable, Replay};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams};
use resoftmax_serve::{phased_arrivals, ControlPlane, FleetBuilder, FleetReport, ServeConfig};

fn cfg() -> ServeConfig {
    ServeConfig {
        requests: 64,
        prompt_tokens: (128, 512),
        decode_tokens: (8, 32),
        max_batch: 4,
        ..ServeConfig::default()
    }
}

fn run_with(control: &dyn ControlPlane) -> FleetReport {
    let cfg = cfg();
    let trace = phased_arrivals(&cfg, &[(1.0, 4.0), (1.5, 32.0), (60.0, 2.0)]).unwrap();
    FleetBuilder::new()
        .model(ModelConfig::gpt_neo_1_3b())
        .params(RunParams::new(4096))
        .replicas(1, &DeviceSpec::a100())
        .standby_replicas(1, &DeviceSpec::a100())
        .arrivals(trace)
        .control_plane(control)
        .workload(cfg)
        .build()
        .unwrap()
        .run()
        .unwrap()
}

fn json(report: &FleetReport) -> String {
    serde_json::to_string(report).unwrap()
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end fleet simulation is too slow under miri")]
fn report_is_bit_identical_across_threads_reruns_and_cache_states() {
    let controller = Controller::new(PolicyTable::static_default(&cfg()));

    // First leg runs with a cold sim cache (within this process).
    resoftmax_parallel::set_thread_override(Some(1));
    let one = json(&run_with(&controller));
    // Second leg: different worker count, warm cache.
    resoftmax_parallel::set_thread_override(Some(4));
    let four = json(&run_with(&controller));
    // Third leg: ambient threads, warm cache, rerun of the same fleet.
    resoftmax_parallel::set_thread_override(None);
    let rerun = json(&run_with(&controller));

    assert_eq!(one, four, "1-thread and 4-thread reports diverge");
    assert_eq!(four, rerun, "rerun (warm sim cache) diverges");
    let stats = resoftmax_gpusim::sim_cache_stats();
    assert!(
        stats.hits > 0,
        "the warm legs must have exercised the sim cache"
    );
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end fleet simulation is too slow under miri")]
fn replaying_the_decision_log_reproduces_the_report() {
    let controller = Controller::new(PolicyTable::static_default(&cfg()));
    let original = run_with(&controller);
    assert!(
        !original.decisions.is_empty(),
        "nothing to replay — the controller never decided"
    );
    assert!(original.scale_ups >= 1, "want a run with real actuation");

    let replay = Replay::from_report(&original, controller.config().window_s);
    let replayed = run_with(&replay);
    assert_eq!(
        json(&original),
        json(&replayed),
        "replay must reproduce the controlled report bit-for-bit"
    );

    // Replay resets its cursor in begin(): a second replay works too.
    let again = run_with(&replay);
    assert_eq!(json(&replayed), json(&again));
}
