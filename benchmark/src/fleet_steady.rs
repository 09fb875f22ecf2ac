//! `fleet_steady`: the steady engine-step loop just under the SLO knee.
//!
//! Eight A100 replicas serve GPT-Neo-1.3B with the recomposed softmax,
//! least-loaded routing over NVLink and the default `ServeConfig`, under an
//! open loop at 48 requests per simulated second (`BENCH_fleet.json` puts
//! the TTFT-p99 knee at 72). A unit is one `Fleet::run` over the seeded
//! trace. Decode-schedule builds in `model` and kernel pricing in `gpusim`
//! dominate; no controller runs.

use resoftmax_serve::ServeConfig;

use crate::fleet::{smoke_tokens, stratified_trace, FleetBench, FleetSpec, Shape, Spec};

/// Requests per simulated second.
const RATE_HZ: f64 = 48.0;

pub struct SteadySpec;

impl Spec for SteadySpec {
    fn spec(seed: u64, smoke: bool) -> FleetSpec {
        let mut cfg = ServeConfig {
            requests: 120,
            arrival_rate_hz: RATE_HZ,
            max_iterations: 100_000_000,
            ..ServeConfig::default()
        };
        let mut replicas = 8;
        if smoke {
            cfg = ServeConfig {
                requests: 12,
                ..smoke_tokens(cfg)
            };
            replicas = 2;
        }
        FleetSpec {
            trace: stratified_trace(seed, &cfg, &[(f64::INFINITY, RATE_HZ)]),
            cfg,
            shape: Shape::Unified { replicas },
            controller: None,
        }
    }
}

pub type Steady = FleetBench<SteadySpec>;
