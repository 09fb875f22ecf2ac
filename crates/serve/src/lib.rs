//! Continuous-batching serving simulator on top of the decode cost model —
//! an extension beyond the paper's full-sequence scope.
//!
//! The paper prices one inference iteration at a time. Production LLM
//! serving instead runs an *engine loop*: requests arrive over time, a
//! KV-cache pool admits as many as fit in device memory, and every engine
//! iteration fuses chunked prefill with single-token decode across whatever
//! mix of context lengths is currently resident (iteration-level a.k.a.
//! continuous batching). This crate simulates that loop against the
//! [`resoftmax_gpusim`] timing model so the recomposition question can be
//! asked where it is usually asked in practice — under serving load — with
//! the same measured-not-asserted discipline as the rest of the repo.
//!
//! Beyond one device, [`FleetBuilder`] models a *cluster*: N replicas (any
//! mix of device presets), each with its own GPU and KV-pool shard, behind a
//! pluggable [`Router`] (round-robin, least-loaded, cache-affinity), with an
//! interconnect cost model ([`LinkSpec`]) charging KV migration whenever a
//! request is rebalanced, and scripted replica faults (fail/drain). Replicas
//! carry a serving [`Role`]: the default `Unified` colocates both phases,
//! while `FleetBuilder::prefill_replicas` / `decode_replicas` build a
//! *disaggregated* fleet whose finished prefills stream their KV across the
//! link to dedicated decode replicas (prefill is DRAM-traffic-bound, decode
//! latency-bound — the paper's recomposition pressure differs per phase).
//!
//! Everything runs on a *simulated* clock (the GPU timeline advances it), so
//! reports are bit-identical regardless of the host's worker-thread count.
//!
//! ```
//! use resoftmax_serve::prelude::*;
//! use resoftmax_gpusim::DeviceSpec;
//! use resoftmax_model::{ModelConfig, RunParams};
//!
//! let report = FleetBuilder::new()
//!     .model(ModelConfig::gpt_neo_1_3b())
//!     .params(RunParams::new(4096))
//!     .replicas(2, &DeviceSpec::a100())
//!     .replica(DeviceSpec::t4())
//!     .router(RouterPolicy::CacheAffinity)
//!     .link(LinkSpec::nvlink())
//!     .workload(ServeConfig {
//!         requests: 6,
//!         ..ServeConfig::default()
//!     })
//!     .build()?
//!     .run()?;
//! assert_eq!(report.completed, 6);
//! assert_eq!(report.replicas.len(), 3);
//! # Ok::<(), resoftmax_serve::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod control;
mod engine;
mod error;
mod kv;
mod link;
mod metrics;
mod replica;
mod request;
mod router;

pub use cluster::{Fleet, FleetBuilder, FleetEvent};
pub use control::{
    ControlAction, ControlDecision, ControlInit, ControlPlane, ControlRecord, FleetSignals,
    ReplicaSignal,
};
pub use engine::{BaselinePlanner, IterationPlanner};
pub use error::Error;
pub use kv::{kv_bytes_per_token, weight_bytes, KvPool};
pub use link::LinkSpec;
pub use metrics::{
    nearest_rank_index, FleetReport, Percentiles, ReplicaStats, ServeReport, SlidingWindow,
};
pub use replica::Role;
pub use request::{phased_arrivals, poisson_arrivals, Arrival, Policy, ServeConfig};
pub use router::{CacheAffinity, LeastLoaded, ReplicaView, RoundRobin, Router, RouterPolicy};

/// One-line import of the serving API:
/// `use resoftmax_serve::prelude::*;`.
pub mod prelude {
    pub use crate::cluster::{Fleet, FleetBuilder, FleetEvent};
    pub use crate::control::{
        ControlAction, ControlDecision, ControlInit, ControlPlane, ControlRecord, FleetSignals,
        ReplicaSignal,
    };
    pub use crate::engine::{BaselinePlanner, IterationPlanner};
    pub use crate::error::Error;
    pub use crate::link::LinkSpec;
    pub use crate::metrics::{FleetReport, Percentiles, ReplicaStats, ServeReport, SlidingWindow};
    pub use crate::replica::Role;
    pub use crate::request::{phased_arrivals, Arrival, Policy, ServeConfig};
    pub use crate::router::{ReplicaView, Router, RouterPolicy};
}
