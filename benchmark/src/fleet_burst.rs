//! `fleet_burst`: the same layers as `fleet_steady`, driven through the
//! paths a steady fleet never takes.
//!
//! One prefill, two decode and two standby-decode A100s serve a square
//! wave (4 s at 5 requests/s, then 2 s at 36) under a `ctrl::Controller`
//! whose regime table is tuned during set-up by an in-memory smoke tuner,
//! with `max_batch` 4. Every request hands its KV off from prefill to
//! decode; the controller scales standbys up in each burst and back down
//! after it. Handoff, control, scaling and preemption events carry the
//! load here, so a change to `Fleet::run` that helps plain engine steps
//! but costs these paths shows up on this workload.

use resoftmax_ctrl::{Controller, PolicyTable};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::ModelConfig;
use resoftmax_serve::{FleetReport, ServeConfig};
use resoftmax_tune::{SearchMode, SearchSpace, Tuner};

use crate::fleet::{smoke_tokens, stratified_trace, FleetBench, FleetSpec, Shape, Spec};

/// `(duration_s, rate_hz)` phases, repeating.
const PHASES: [(f64, f64); 2] = [(4.0, 5.0), (2.0, 36.0)];

pub struct BurstSpec;

impl Spec for BurstSpec {
    fn spec(seed: u64, smoke: bool) -> FleetSpec {
        let mut cfg = ServeConfig {
            requests: 112,
            max_batch: 4,
            max_iterations: 100_000_000,
            ..ServeConfig::default()
        };
        let (mut decode, mut standby_decode, mut phases) = (2, 2, PHASES);
        if smoke {
            // A shorter calm phase, so a short trace still reaches the burst.
            cfg = ServeConfig {
                requests: 24,
                max_batch: 1,
                ..smoke_tokens(cfg)
            };
            (decode, standby_decode, phases) = (1, 1, [(1.0, 5.0), PHASES[1]]);
        }
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let table = PolicyTable::tuned(
            &tuner,
            &ModelConfig::gpt_neo_1_3b(),
            &DeviceSpec::a100(),
            &cfg,
        )
        .expect("the smoke space tunes every regime bucket");
        FleetSpec {
            trace: stratified_trace(seed, &cfg, &phases),
            cfg,
            shape: Shape::Disaggregated {
                prefill: 1,
                decode,
                standby_decode,
            },
            controller: Some(Controller::new(table)),
        }
    }

    fn check(report: &FleetReport) -> Vec<String> {
        let mut failures = Vec::new();
        if report.handoffs != report.submitted {
            failures.push(format!(
                "{} handoffs for {} requests: every request must hand off",
                report.handoffs, report.submitted
            ));
        }
        if report.scale_ups == 0 {
            failures.push("the burst recruited no standby replica".to_owned());
        }
        failures
    }
}

pub type Burst = FleetBench<BurstSpec>;
