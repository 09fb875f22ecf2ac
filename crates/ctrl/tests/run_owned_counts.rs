//! With metrics off, a controlled fleet run, and the tuning behind its
//! policy table, register nothing in the process-global metrics registry:
//! every count they keep lives in the report or the tuner that made it.
//!
//! A test binary of its own, so no other test registers names while this
//! one counts them.

use resoftmax_ctrl::{Controller, PolicyTable};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams};
use resoftmax_serve::{phased_arrivals, ControlAction, FleetBuilder, ServeConfig};
use resoftmax_tune::{SearchMode, SearchSpace, Tuner};

/// How many integer and float counters the registry holds.
fn registered() -> (usize, usize) {
    let snap = resoftmax_obs::metrics_snapshot();
    (snap.counts.len(), snap.values.len())
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end fleet simulation is too slow under miri")]
fn a_controlled_fleet_registers_no_global_counter() {
    resoftmax_obs::set_metrics_enabled(Some(false));
    let before = registered();

    let cfg = ServeConfig {
        requests: 48,
        prompt_tokens: (128, 512),
        decode_tokens: (8, 32),
        max_batch: 4,
        ..ServeConfig::default()
    };
    let model = ModelConfig::gpt_neo_1_3b();
    let device = DeviceSpec::a100();
    let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
    let table = PolicyTable::tuned(&tuner, &model, &device, &cfg).unwrap();
    let controller = Controller::new(table);
    let report = FleetBuilder::new()
        .model(model)
        .params(RunParams::new(4096))
        .replicas(1, &device)
        .standby_replicas(1, &device)
        .arrivals(phased_arrivals(&cfg, &[(1.0, 4.0), (1.5, 32.0), (60.0, 2.0)]).unwrap())
        .control_plane(&controller)
        .workload(cfg.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();

    // The run took the paths that used to bump global counters: tuning,
    // engine steps, preemption, regime changes and scaling.
    assert_eq!(report.completed, cfg.requests);
    assert!(tuner.stats().misses > 0);
    assert!(report.iterations > 0 && report.preemptions > 0);
    assert!(report.scale_ups >= 1);
    // A regime change is one decision whose first action is `SetPolicy`.
    let regime_changes = report
        .decisions
        .iter()
        .filter(|d| matches!(d.actions.first(), Some(ControlAction::SetPolicy(_))))
        .count();
    assert!(regime_changes >= 2, "{regime_changes} regime changes");

    assert_eq!(registered(), before, "the run registered global counters");
    resoftmax_obs::set_metrics_enabled(None);
}
