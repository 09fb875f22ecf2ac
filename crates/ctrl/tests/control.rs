//! Behavioral tests: the controller scales against queue pressure, holds
//! still in steady state, and switches regimes with hysteresis.

use resoftmax_ctrl::{Controller, PolicyTable};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams};
use resoftmax_serve::{phased_arrivals, FleetBuilder, FleetReport, ServeConfig};

fn model() -> ModelConfig {
    ModelConfig::gpt_neo_1_3b()
}

fn burst_cfg() -> ServeConfig {
    ServeConfig {
        requests: 110,
        prompt_tokens: (128, 768),
        decode_tokens: (16, 128),
        max_batch: 4,
        ..ServeConfig::default()
    }
}

/// Calm → 2 s square-wave burst → long calm tail. The tail keeps arrivals
/// trickling while the backlog drains, so the controller sees low-load
/// decisions before the run ends.
fn burst_trace(cfg: &ServeConfig) -> Vec<resoftmax_serve::Arrival> {
    phased_arrivals(cfg, &[(1.0, 4.0), (2.0, 40.0), (60.0, 2.0)]).unwrap()
}

fn run_controlled(cfg: &ServeConfig, controller: &Controller) -> FleetReport {
    FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replicas(1, &DeviceSpec::a100())
        .standby_replicas(2, &DeviceSpec::a100())
        .arrivals(burst_trace(cfg))
        .control_plane(controller)
        .workload(cfg.clone())
        .build()
        .unwrap()
        .run()
        .unwrap()
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end fleet simulation is too slow under miri")]
fn controller_scales_up_under_burst_and_back_down() {
    let cfg = burst_cfg();
    let controller = Controller::new(PolicyTable::static_default(&cfg));
    let report = run_controlled(&cfg, &controller);

    assert_eq!(report.completed, cfg.requests);
    assert!(
        report.scale_ups >= 1,
        "the burst must scale a standby replica up: {report:?}"
    );
    assert!(
        report.scale_downs >= 1,
        "the drained tail must scale back down (scale_ups={}, decisions={})",
        report.scale_ups,
        report.decisions.len()
    );
    assert!(
        report.scale_downs <= report.scale_ups,
        "cannot scale down more than was scaled up"
    );
    // The burst actually registered as pressure.
    assert!(
        report
            .decisions
            .iter()
            .any(|d| d.regime == "burst" || d.regime == "overload"),
        "no burst/overload regime in the decision log"
    );
    // Every issued scaling action was valid against the fleet state.
    for d in &report.decisions {
        for (a, &ok) in d.actions.iter().zip(&d.applied) {
            assert!(
                ok,
                "controller issued an invalid action {a:?} at {}",
                d.at_s
            );
        }
    }
    // The standby replicas did real work after activation.
    let activated_iterations: usize = report.replicas.iter().skip(1).map(|r| r.iterations).sum();
    assert!(activated_iterations > 0, "activated replicas never stepped");
}

#[test]
#[cfg_attr(miri, ignore = "end-to-end fleet simulation is too slow under miri")]
fn steady_fleet_never_scales_or_flaps() {
    let cfg = ServeConfig {
        requests: 24,
        arrival_rate_hz: 2.0,
        prompt_tokens: (128, 256),
        decode_tokens: (8, 16),
        max_batch: 4,
        ..ServeConfig::default()
    };
    let controller = Controller::new(PolicyTable::static_default(&cfg));
    let report = FleetBuilder::new()
        .model(model())
        .params(RunParams::new(4096))
        .replicas(2, &DeviceSpec::a100())
        .standby_replicas(1, &DeviceSpec::a100())
        .control_plane(&controller)
        .workload(cfg.clone())
        .build()
        .unwrap()
        .run()
        .unwrap();

    assert_eq!(report.completed, cfg.requests);
    assert_eq!(report.scale_ups, 0, "steady state must not scale up");
    assert_eq!(report.scale_downs, 0, "steady state must not scale down");
    for d in &report.decisions {
        assert!(
            d.regime == "steady" || d.regime == "idle",
            "unexpected regime {} at {}s in a steady workload",
            d.regime,
            d.at_s
        );
    }
    // The standby replica stayed parked and untouched.
    let parked = &report.replicas[2];
    assert!(parked.standby);
    assert_eq!(parked.iterations, 0);
}
