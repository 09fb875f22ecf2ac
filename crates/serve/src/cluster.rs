//! The fleet: N modeled replicas behind a router, on one simulated clock.
//!
//! [`FleetBuilder`] is the serving crate's public entry point. It validates
//! the whole configuration at build time — replica devices, KV capacity
//! against the model's weight footprint, and the model layer's prefill and
//! decode legality rules, certified numerics budget included (the
//! [`validate_prefill`](resoftmax_model::validate_prefill) and
//! [`validate_decode`](resoftmax_model::validate_decode) that `Session`
//! applies) — so a [`Fleet`] that builds always runs to completion or
//! returns a typed [`Error`].
//!
//! The run itself is a discrete-event loop. One `EventQueue` — a min-heap
//! on (time, `Source`, enqueue seq) — holds fault injections (fail/drain),
//! workload arrivals, prefill→decode KV-handoff landings, scale-up
//! activations and [`ControlPlane`] decisions; the variant order of
//! `Source` is the tie order for equal times. Replica engine steps are not
//! queued: each replica owns its simulated clock (busy-until time), and the
//! loop scans for the earliest step, which fires only when the queue head
//! is strictly later (ties go to the lowest replica id). All time is
//! simulated GPU/interconnect time, so a fleet report — decision log
//! included — is bit-identical across host thread counts and reruns.
//!
//! Disaggregation: replicas carry a [`Role`]. Fresh arrivals (and displaced
//! requests that owe prefill work) route over the *prefill-capable* subset;
//! when a request finishes its prefill on a `Prefill` replica, its KV pages
//! are priced across the [`LinkSpec`] — accounted as `kv_handoff_bytes` /
//! `kv_handoff_time_s`, distinct from rebalancing migrations — and on
//! transfer completion the request is routed over the *decode-capable*
//! subset, decoding without re-prefill.

use crate::control::{
    ControlAction, ControlPlane, ControlRecord, FleetSignals, ReplicaSignal, TokenBucket,
};
use crate::engine::{BaselinePlanner, IterationPlanner};
use crate::error::Error;
use crate::kv::{kv_bytes_per_token, weight_bytes, KvPool};
use crate::link::LinkSpec;
use crate::metrics::{FleetReport, Percentiles, ReplicaStats, SlidingWindow};
use crate::replica::{Replica, ReqState, Role, StepAcc};
use crate::request::{poisson_arrivals, Arrival, ServeConfig};
use crate::router::{ReplicaView, RouterPolicy};
use resoftmax_gpusim::{DeviceSpec, Timeline};
use resoftmax_model::{ModelConfig, RunParams};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

static BASELINE: BaselinePlanner = BaselinePlanner;

/// Samples each control-plane signal window retains at most (a memory
/// bound, not a semantic one: the window width does the real filtering).
const SIGNAL_WINDOW_CAP: usize = 8192;

/// A scripted replica fault, injected at a simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FleetEvent {
    /// The replica dies abruptly: its KV pool is lost, every resident
    /// request loses its cache and is re-routed (re-prefilling elsewhere).
    Fail {
        /// Replica index.
        replica: usize,
        /// Simulated time of the fault, seconds.
        at_s: f64,
    },
    /// The replica is taken out of rotation gracefully: it stops accepting
    /// work and its resident requests migrate their KV pages to siblings
    /// over the interconnect.
    Drain {
        /// Replica index.
        replica: usize,
        /// Simulated time the drain starts, seconds.
        at_s: f64,
    },
}

impl FleetEvent {
    fn at_s(&self) -> f64 {
        match *self {
            FleetEvent::Fail { at_s, .. } | FleetEvent::Drain { at_s, .. } => at_s,
        }
    }

    fn replica(&self) -> usize {
        match *self {
            FleetEvent::Fail { replica, .. } | FleetEvent::Drain { replica, .. } => replica,
        }
    }
}

/// Builder for a [`Fleet`]; the serving crate's recommended entry point.
///
/// ```
/// use resoftmax_serve::{FleetBuilder, LinkSpec, RouterPolicy, ServeConfig};
/// use resoftmax_gpusim::DeviceSpec;
/// use resoftmax_model::{ModelConfig, RunParams};
///
/// let report = FleetBuilder::new()
///     .model(ModelConfig::gpt_neo_1_3b())
///     .params(RunParams::new(4096))
///     .replicas(2, &DeviceSpec::a100())
///     .router(RouterPolicy::LeastLoaded)
///     .link(LinkSpec::nvlink())
///     .workload(ServeConfig {
///         requests: 8,
///         ..ServeConfig::default()
///     })
///     .build()?
///     .run()?;
/// assert_eq!(report.completed, 8);
/// # Ok::<(), resoftmax_serve::Error>(())
/// ```
#[derive(Default)]
pub struct FleetBuilder<'a> {
    model: Option<ModelConfig>,
    params: Option<RunParams>,
    replicas: Vec<DeviceSpec>,
    roles: Vec<Role>,
    standby: Vec<bool>,
    router: Option<RouterPolicy>,
    link: Option<LinkSpec>,
    workload: Option<ServeConfig>,
    arrivals: Option<Vec<Arrival>>,
    events: Vec<FleetEvent>,
    planners: Vec<&'a dyn IterationPlanner>,
    control: Option<&'a dyn ControlPlane>,
}

impl<'a> FleetBuilder<'a> {
    /// Starts an empty builder. [`model`](Self::model),
    /// [`params`](Self::params), and at least one
    /// [`replica`](Self::replica) are required.
    pub fn new() -> Self {
        FleetBuilder::default()
    }

    /// Sets the model every replica serves (required).
    #[must_use]
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = Some(model);
        self
    }

    /// Sets the base run parameters — strategy, tile, hardware profile —
    /// every iteration is priced with (required). An
    /// [`IterationPlanner`] may re-plan them per iteration.
    #[must_use]
    pub fn params(mut self, params: RunParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Adds one [`Role::Unified`] replica on `device`. Call repeatedly for a
    /// heterogeneous fleet.
    #[must_use]
    pub fn replica(self, device: DeviceSpec) -> Self {
        self.add(1, device, Role::Unified, false)
    }

    /// Adds `n` [`Role::Unified`] replicas of the same `device`.
    #[must_use]
    pub fn replicas(self, n: usize, device: &DeviceSpec) -> Self {
        self.add(n, device.clone(), Role::Unified, false)
    }

    /// Adds `n` replicas of `device` with `role`, parked when `standby`.
    /// Replica ids follow declaration order regardless of role, so faults,
    /// planners, and report rows keep addressing replicas by the order they
    /// were added.
    fn add(mut self, n: usize, device: DeviceSpec, role: Role, standby: bool) -> Self {
        self.replicas.extend(std::iter::repeat_n(device, n));
        self.roles.extend(std::iter::repeat_n(role, n));
        self.standby.extend(std::iter::repeat_n(standby, n));
        self
    }

    /// Adds `n` *standby* [`Role::Unified`] replicas of the same `device`:
    /// provisioned (their KV capacity is validated like any other
    /// replica's) but parked out of rotation until a control plane scales
    /// them up with [`ControlAction::ScaleUp`](crate::ControlAction::ScaleUp)
    /// — the warm-up streams the model weights over the
    /// [`link`](Self::link) before a replica starts accepting. Standby
    /// replicas do not count toward the capability checks (a fleet whose
    /// only decode-capable replica is standby is still rejected).
    #[must_use]
    pub fn standby_replicas(self, n: usize, device: &DeviceSpec) -> Self {
        self.add(n, device.clone(), Role::Unified, true)
    }

    /// Adds `n` standby [`Role::Decode`] replicas of the same `device` —
    /// the auto-scaling pool of a disaggregated fleet.
    #[must_use]
    pub fn standby_decode_replicas(self, n: usize, device: &DeviceSpec) -> Self {
        self.add(n, device.clone(), Role::Decode, true)
    }

    /// Adds `n` dedicated prefill replicas of the same `device`. A fleet
    /// with any [`Role::Prefill`] replica is *disaggregated*: finished
    /// prefills stream their KV over the [`link`](Self::link) to the
    /// decode-capable subset, so the builder requires at least one
    /// [`Role::Decode`] or [`Role::Unified`] replica.
    ///
    /// ```
    /// use resoftmax_serve::{FleetBuilder, LinkSpec, ServeConfig};
    /// use resoftmax_gpusim::DeviceSpec;
    /// use resoftmax_model::{ModelConfig, RunParams};
    ///
    /// let report = FleetBuilder::new()
    ///     .model(ModelConfig::gpt_neo_1_3b())
    ///     .params(RunParams::new(4096))
    ///     .prefill_replicas(1, &DeviceSpec::a100())
    ///     .decode_replicas(2, &DeviceSpec::a100())
    ///     .link(LinkSpec::nvlink())
    ///     .workload(ServeConfig {
    ///         requests: 6,
    ///         ..ServeConfig::default()
    ///     })
    ///     .build()?
    ///     .run()?;
    /// assert_eq!(report.completed, 6);
    /// assert_eq!(report.handoffs, 6);
    /// assert!(report.kv_handoff_bytes > 0);
    /// # Ok::<(), resoftmax_serve::Error>(())
    /// ```
    #[must_use]
    pub fn prefill_replicas(self, n: usize, device: &DeviceSpec) -> Self {
        self.add(n, device.clone(), Role::Prefill, false)
    }

    /// Adds `n` dedicated decode replicas of the same `device`: they take no
    /// fresh arrivals and receive handed-off KV from the prefill side.
    #[must_use]
    pub fn decode_replicas(self, n: usize, device: &DeviceSpec) -> Self {
        self.add(n, device.clone(), Role::Decode, false)
    }

    /// Sets the routing policy (default: [`RouterPolicy::RoundRobin`]).
    #[must_use]
    pub fn router(mut self, policy: RouterPolicy) -> Self {
        self.router = Some(policy);
        self
    }

    /// Sets the interconnect KV migrations travel over (default:
    /// [`LinkSpec::pcie_gen4`]).
    #[must_use]
    pub fn link(mut self, link: LinkSpec) -> Self {
        self.link = Some(link);
        self
    }

    /// Sets the workload: arrival process, request shape distribution,
    /// per-replica batch/KV limits, and admission policy (required).
    #[must_use]
    pub fn workload(mut self, cfg: ServeConfig) -> Self {
        self.workload = Some(cfg);
        self
    }

    /// Overrides the workload's Poisson arrival process with an explicit
    /// trace — e.g. [`phased_arrivals`](crate::phased_arrivals) for the
    /// square-wave / diurnal / overload shapes the control plane is
    /// exercised under. The trace must match the workload: exactly
    /// `cfg.requests` entries, sorted by arrival time, with prompt/decode
    /// lengths inside `cfg`'s ranges (the build-time KV capacity and
    /// numerics checks are derived from those ranges).
    #[must_use]
    pub fn arrivals(mut self, trace: Vec<Arrival>) -> Self {
        self.arrivals = Some(trace);
        self
    }

    /// Attaches a feedback control plane
    /// ([`ControlPlane`](crate::ControlPlane)): the run gains a fifth event
    /// source that samples fleet signals on the simulated clock and applies
    /// the controller's actions (policy/chunk switches, admission control,
    /// standby scaling). Decisions land in the report's
    /// [`decisions`](crate::FleetReport::decisions) log.
    #[must_use]
    pub fn control_plane(mut self, control: &'a dyn ControlPlane) -> Self {
        self.control = Some(control);
        self
    }

    /// Attaches a per-iteration [`IterationPlanner`] to the next replica in
    /// declaration order. Either attach none (every replica prices with the
    /// base parameters, as [`BaselinePlanner`](crate::BaselinePlanner)
    /// does) or exactly one per replica.
    #[must_use]
    pub fn planner(mut self, planner: &'a dyn IterationPlanner) -> Self {
        self.planners.push(planner);
        self
    }

    /// Schedules an abrupt replica failure at `at_s` (simulated seconds):
    /// its KV is lost and residents re-route.
    #[must_use]
    pub fn fail_at(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(FleetEvent::Fail { replica, at_s });
        self
    }

    /// Schedules a graceful drain at `at_s`: the replica leaves rotation
    /// and its residents migrate over the link.
    #[must_use]
    pub fn drain_at(mut self, replica: usize, at_s: f64) -> Self {
        self.events.push(FleetEvent::Drain { replica, at_s });
        self
    }

    /// Validates the whole configuration and builds the [`Fleet`].
    ///
    /// # Errors
    ///
    /// [`Error::Config`] for structural problems (no replicas, invalid
    /// device/link/workload parameters, a disaggregated fleet with zero
    /// decode-capable or zero prefill-capable replicas, fault events leaving
    /// either capability without a survivor, planner count mismatched
    /// against the declared roles), [`Error::Admission`] when a replica's
    /// KV pool cannot hold one worst-case request end-to-end, and
    /// [`Error::Model`] when the model layer's rules reject the
    /// `(model, params)` pair: the prefill rules, or the decode rules
    /// (decode legality, certified numerics budget) at the workload's worst
    /// context — with the reason `Session` would give.
    pub fn build(self) -> Result<Fleet<'a>, Error> {
        let config = |reason: String| Err(Error::Config { reason });
        let Some(model) = self.model else {
            return config("a model is required: FleetBuilder::new().model(..)".to_owned());
        };
        let Some(params) = self.params else {
            return config(
                "run parameters are required: FleetBuilder::new().params(..)".to_owned(),
            );
        };
        let Some(cfg) = self.workload else {
            return config("a workload is required: FleetBuilder::new().workload(..)".to_owned());
        };
        if self.replicas.is_empty() {
            return config(
                "a fleet needs at least one replica: .replica(DeviceSpec::a100())".to_owned(),
            );
        }
        debug_assert_eq!(self.roles.len(), self.replicas.len());
        debug_assert_eq!(self.standby.len(), self.replicas.len());
        let n_prefill = self.roles.iter().filter(|r| **r == Role::Prefill).count();
        let n_decode = self.roles.iter().filter(|r| **r == Role::Decode).count();
        let n_unified = self.replicas.len() - n_prefill - n_decode;
        // Capability checks count only replicas that start in rotation: a
        // standby replica cannot take work until a control plane scales it
        // up, which the run cannot rely on happening.
        let starting = |capable: fn(Role) -> bool| {
            self.roles
                .iter()
                .zip(&self.standby)
                .any(|(&r, &sb)| !sb && capable(r))
        };
        if !starting(Role::prefill_capable) {
            return config(format!(
                "every replica is decode-only or standby ({n_decode} decode replicas): \
                 arrivals need at least one active prefill-capable (Prefill or \
                 Unified) replica"
            ));
        }
        if n_prefill > 0 && !starting(Role::decode_capable) {
            return config(format!(
                "disaggregated fleet has {n_prefill} prefill replicas but zero decode \
                 replicas in rotation: finished prefills would have nowhere to hand \
                 their KV off to — add .decode_replicas(..) or a Unified replica"
            ));
        }
        if !self.planners.is_empty() && self.planners.len() != self.replicas.len() {
            return config(format!(
                "attach either no planners or exactly one per replica, in declaration \
                 order across every role ({} planners for {} replicas: {n_prefill} \
                 prefill + {n_decode} decode + {n_unified} unified)",
                self.planners.len(),
                self.replicas.len()
            ));
        }
        for (i, d) in self.replicas.iter().enumerate() {
            if let Err(e) = d.validate() {
                return config(format!("replica {i} device invalid: {e}"));
            }
        }
        let link = self.link.unwrap_or_default();
        if let Err(e) = link.validate() {
            return config(format!("interconnect invalid: {e}"));
        }

        // Workload sanity — everything `poisson_arrivals` would reject,
        // plus the metric-shape requirements.
        if let Err(reason) = cfg.validate() {
            return config(reason);
        }

        // An explicit arrival trace must match the workload config: the
        // build-time KV-capacity and certified-numerics checks below are
        // derived from `cfg`'s token ranges, so a trace outside them would
        // dodge the very guarantees this builder exists to give.
        if let Some(trace) = &self.arrivals {
            if trace.len() != cfg.requests {
                return config(format!(
                    "explicit arrival trace has {} entries but the workload declares \
                     {} requests",
                    trace.len(),
                    cfg.requests
                ));
            }
            for (k, a) in trace.iter().enumerate() {
                if !(a.at_s.is_finite() && a.at_s >= 0.0) {
                    return config(format!(
                        "arrival {k} has invalid time {}: must be non-negative and \
                         finite",
                        a.at_s
                    ));
                }
                if !(cfg.prompt_tokens.0..=cfg.prompt_tokens.1).contains(&a.prompt) {
                    return config(format!(
                        "arrival {k} prompt length {} is outside the workload range \
                         {:?}",
                        a.prompt, cfg.prompt_tokens
                    ));
                }
                if !(cfg.decode_tokens.0..=cfg.decode_tokens.1).contains(&a.decode) {
                    return config(format!(
                        "arrival {k} decode length {} is outside the workload range \
                         {:?}",
                        a.decode, cfg.decode_tokens
                    ));
                }
            }
            if !trace.windows(2).all(|w| w[0].at_s <= w[1].at_s) {
                return config("explicit arrival trace must be sorted by arrival time".to_owned());
            }
        }

        // Fault events must point at real replicas and leave at least one
        // replica with no scripted fault (otherwise the run provably cannot
        // finish and the failure should surface now, typed).
        for ev in &self.events {
            if ev.replica() >= self.replicas.len() {
                return config(format!(
                    "fault event targets replica {} but the fleet has {}",
                    ev.replica(),
                    self.replicas.len()
                ));
            }
            if !(ev.at_s().is_finite() && ev.at_s() >= 0.0) {
                return config(format!(
                    "fault event time {} must be non-negative",
                    ev.at_s()
                ));
            }
        }
        let faulted: std::collections::BTreeSet<usize> =
            self.events.iter().map(FleetEvent::replica).collect();
        if faulted.len() == self.replicas.len() {
            return config(
                "every replica has a scripted fault; at least one must survive to \
                 finish the workload"
                    .to_owned(),
            );
        }
        // In a disaggregated fleet the survivors must cover both phases:
        // a fleet whose every prefill-capable (or decode-capable) replica is
        // scripted to fault provably strands work mid-pipeline. Standby
        // replicas do not count as survivors — nothing guarantees they ever
        // enter rotation.
        let survives = |capable: fn(Role) -> bool| {
            self.roles
                .iter()
                .enumerate()
                .any(|(i, &r)| capable(r) && !faulted.contains(&i) && !self.standby[i])
        };
        if !survives(Role::prefill_capable) {
            return config(
                "every prefill-capable replica has a scripted fault; at least one \
                 must survive to admit arrivals"
                    .to_owned(),
            );
        }
        if !survives(Role::decode_capable) {
            return config(
                "every decode-capable replica has a scripted fault; at least one \
                 must survive to decode handed-off requests"
                    .to_owned(),
            );
        }

        // The model layer's legality rules, the ones `Session` applies: the
        // prefill rules for the (model, params) pair, then the decode rules
        // (dense attention, no online fusion, the certified-numerics budget)
        // at the worst decode context the workload can reach.
        resoftmax_model::validate_prefill(&model, &params)?;
        let worst_ctx = cfg.prompt_tokens.1 + cfg.decode_tokens.1;
        resoftmax_model::validate_decode(&model, &[worst_ctx], &params)?;

        // Per-replica KV capacity: the weights must fit, and the remainder
        // must hold one worst-case request end-to-end (otherwise the oldest
        // request could stall forever — the old engine's panic, now typed).
        let bytes_per_token = kv_bytes_per_token(&model);
        let weights = weight_bytes(&model);
        let mut pool_caps = Vec::with_capacity(self.replicas.len());
        for (i, d) in self.replicas.iter().enumerate() {
            let capacity = if let Some(b) = cfg.kv_capacity_bytes {
                b
            } else {
                if weights >= d.hbm_bytes() {
                    return Err(Error::Admission {
                        reason: format!(
                            "replica {i} ({}): model '{}' weights ({weights} B) \
                             exceed device HBM ({} B)",
                            d.name,
                            model.name,
                            d.hbm_bytes()
                        ),
                    });
                }
                d.hbm_bytes() - weights
            };
            let block_bytes = cfg.kv_block_tokens as u64 * bytes_per_token;
            let total_blocks = capacity / block_bytes;
            let need = (worst_ctx as u64).div_ceil(cfg.kv_block_tokens as u64);
            if total_blocks < need {
                return Err(Error::Admission {
                    reason: format!(
                        "replica {i} ({}): KV pool ({total_blocks} blocks) cannot hold \
                         one worst-case request ({worst_ctx} tokens = {need} blocks); \
                         the oldest request could stall forever — raise \
                         kv_capacity_bytes or shrink the workload",
                        d.name
                    ),
                });
            }
            pool_caps.push(capacity);
        }

        Ok(Fleet {
            model,
            params,
            cfg,
            devices: self.replicas,
            roles: self.roles,
            standby: self.standby,
            pool_caps,
            router: self.router.unwrap_or(RouterPolicy::RoundRobin),
            link,
            arrivals: self.arrivals,
            events: {
                let mut evs = self.events;
                // Stable by construction: sort_by is stable, so same-time
                // events keep declaration order.
                evs.sort_by(|a, b| a.at_s().total_cmp(&b.at_s()));
                evs
            },
            planners: self.planners,
            control: self.control,
        })
    }
}

impl std::fmt::Debug for Fleet<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("model", &self.model.name)
            .field("replicas", &self.devices.len())
            .field("router", &self.router.name())
            .field("link", &self.link.name)
            .field("events", &self.events)
            .field("planners", &self.planners.len())
            .field("standby", &self.standby.iter().filter(|&&s| s).count())
            .field("control", &self.control.is_some())
            .finish_non_exhaustive()
    }
}

/// A validated, ready-to-run fleet. Construct through [`FleetBuilder`];
/// every [`run`](Fleet::run) starts from identical state, so reruns are
/// bit-identical.
pub struct Fleet<'a> {
    model: ModelConfig,
    params: RunParams,
    cfg: ServeConfig,
    devices: Vec<DeviceSpec>,
    roles: Vec<Role>,
    standby: Vec<bool>,
    pool_caps: Vec<u64>,
    router: RouterPolicy,
    link: LinkSpec,
    arrivals: Option<Vec<Arrival>>,
    events: Vec<FleetEvent>,
    planners: Vec<&'a dyn IterationPlanner>,
    control: Option<&'a dyn ControlPlane>,
}

/// Where a queued event comes from. The variant order *is* the fleet's tie
/// order: at equal times a fault fires before an arrival, an arrival before
/// a handoff landing, a handoff before a scale-up activation, and an
/// activation before a control decision (so a decision at the same instant
/// sees the fresh replica). Replica steps are not queued; they fire after
/// every queued event of the same time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    /// A scripted fault; the payload indexes the fleet's time-sorted faults.
    Fault,
    /// A workload arrival; the payload is the request id.
    Arrival,
    /// A prefill→decode KV transfer lands; the payload is the request id.
    Handoff,
    /// A scale-up warm-up completes; the payload is the replica id.
    Activate,
    /// A control-plane decision fires (no payload).
    Decide,
}

/// One queued event, ordered by (time, [`Source`], enqueue seq). `id` is the
/// payload and never decides the order: seq is unique.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Event {
    at_s: f64,
    source: Source,
    seq: u64,
    id: usize,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // `+ 0.0` folds -0.0 into +0.0: `total_cmp` alone would order them
        // apart, while the step comparison treats them as one instant.
        (self.at_s + 0.0)
            .total_cmp(&(other.at_s + 0.0))
            .then(self.source.cmp(&other.source))
            .then(self.seq.cmp(&other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Eq for Event {}

/// Every pending event except replica steps, as one min-heap. The global
/// enqueue counter keeps same-time, same-source events in enqueue order:
/// faults in declaration order, arrivals in trace order, handoffs and
/// activations in the order they were issued.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, at_s: f64, source: Source, id: usize) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event {
            at_s,
            source,
            seq,
            id,
        }));
    }

    /// Pops the earliest event if it fires no later than `t`.
    fn pop_until(&mut self, t: f64) -> Option<Event> {
        if self.heap.peek()?.0.at_s > t {
            return None;
        }
        self.heap.pop().map(|Reverse(ev)| ev)
    }

    /// Queued events of `source`.
    fn pending(&self, source: Source) -> usize {
        self.heap.iter().filter(|e| e.0.source == source).count()
    }
}

/// Which subset of the fleet a piece of work routes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Fresh arrivals and displaced requests that still owe prefill work:
    /// the prefill-capable subset.
    Prefill,
    /// Handed-off or displaced requests whose cache is decode-ready: the
    /// decode-capable subset.
    Decode,
}

/// The routing phase of a displaced request: decode-ready caches go to the
/// decode side, everything owing prefill work goes to the prefill side.
fn phase_of(st: &ReqState) -> Phase {
    if st.generated > 0 && st.cached == st.prefill_target() {
        Phase::Decode
    } else {
        Phase::Prefill
    }
}

impl Fleet<'_> {
    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// `true` for a zero-replica fleet (never: the builder rejects it).
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// The validated workload.
    pub fn workload(&self) -> &ServeConfig {
        &self.cfg
    }

    fn planner(&self, replica: usize) -> &dyn IterationPlanner {
        if self.planners.is_empty() {
            &BASELINE
        } else {
            self.planners[replica]
        }
    }

    /// Runs the fleet simulation to completion and aggregates the report.
    ///
    /// Deterministic in the builder inputs: the clock is simulated GPU and
    /// interconnect time, so the report is bit-identical regardless of host
    /// threading, and identical across reruns of the same `Fleet`.
    ///
    /// # Errors
    ///
    /// [`Error::Config`] when fault events leave work outstanding with no
    /// accepting replica, [`Error::Stalled`] when work is outstanding but
    /// nothing can run or `cfg.max_iterations` is exceeded, and
    /// [`Error::Model`] / [`Error::Analysis`] when an iteration's schedule
    /// fails to launch or analyze.
    pub fn run(&self) -> Result<FleetReport, Error> {
        let anchor_us = resoftmax_obs::recorder().now_us();
        let mut st = FleetState::new(self)?;
        // Engine steps and control decisions count against the backstop,
        // so a controller that stalls the fleet still trips it.
        let mut iterations = 0usize;
        while st.acc.completed < self.cfg.requests {
            if iterations >= self.cfg.max_iterations {
                let why = format!("exceeded {} iterations", self.cfg.max_iterations);
                return Err(st.stalled(&why));
            }
            // Replica steps stay a scan (a replica's next time derives from
            // queues every other event mutates): the queue head fires when
            // it is no later than the earliest step, else the step does.
            let step = st.earliest_step();
            if let Some(ev) = st.queue.pop_until(step.map_or(f64::INFINITY, |(_, t)| t)) {
                iterations += usize::from(ev.source == Source::Decide);
                st.fire(ev)?;
            } else if let Some((i, when)) = step {
                st.step(i, when)?;
                iterations += 1;
            } else {
                return Err(st.stalled("no queued event and no runnable replica"));
            }
        }
        Ok(st.into_report(anchor_us))
    }
}

/// Everything one [`Fleet::run`] mutates.
struct FleetState<'f> {
    fleet: &'f Fleet<'f>,
    bytes_per_token: u64,
    queue: EventQueue,
    replicas: Vec<Replica>,
    states: Vec<ReqState>,
    /// One round-robin cursor per [`Phase`] (see [`RouterPolicy::route`]).
    /// The state is per-phase on purpose: the cursor cycling the prefill
    /// subset must not perturb the decode subset's rotation — with a shared
    /// cursor, alternating arrival/handoff traffic in a disaggregated fleet
    /// would pin each subset to one replica.
    cursors: [Option<usize>; 2],
    acc: StepAcc,
    /// Working copy of the workload config: the knobs a control plane may
    /// actuate.
    live_cfg: ServeConfig,
    /// Token-bucket admission control, once a control plane arms it.
    admission: Option<TokenBucket>,
    /// TTFT and TBT signal windows (only with a control plane attached).
    signal_windows: Option<(SlidingWindow, SlidingWindow)>,
    decisions: Vec<ControlRecord>,
    migrations: usize,
    migration_drops: usize,
    kv_migrated_bytes: u64,
    migration_time_s: f64,
    kv_handoff_bytes: u64,
    kv_handoff_time_s: f64,
    scale_ups: usize,
    scale_downs: usize,
}

impl<'f> FleetState<'f> {
    /// Fresh run state: every replica idle, and the queue holding every
    /// fault, every arrival, and the first control decision. `begin` resets
    /// the controller so reruns of the same `Fleet` stay bit-identical.
    fn new(fleet: &'f Fleet<'f>) -> Result<Self, Error> {
        let cfg = &fleet.cfg;
        let arrivals = match &fleet.arrivals {
            Some(trace) => trace.clone(),
            None => poisson_arrivals(cfg)?,
        };
        let bytes_per_token = kv_bytes_per_token(&fleet.model);
        let sessions = if cfg.sessions == 0 {
            arrivals.len() as u64
        } else {
            cfg.sessions as u64
        };
        let mut queue = EventQueue::default();
        for (k, ev) in fleet.events.iter().enumerate() {
            queue.push(ev.at_s(), Source::Fault, k);
        }
        let mut states = Vec::with_capacity(arrivals.len());
        for (id, a) in arrivals.iter().enumerate() {
            queue.push(a.at_s, Source::Arrival, id);
            states.push(ReqState {
                arrival_s: a.at_s,
                session: id as u64 % sessions,
                prompt: a.prompt,
                decode: a.decode,
                generated: 0,
                cached: 0,
                blocks: 0,
                ready_s: a.at_s,
                first_token_s: None,
                last_token_s: a.at_s,
            });
        }

        let trace = resoftmax_obs::trace_enabled();
        let replicas = fleet
            .devices
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let pool = KvPool::new(fleet.pool_caps[i], cfg.kv_block_tokens, bytes_per_token)?;
                let mut r = Replica::new(i, d.clone(), fleet.roles[i], pool);
                if fleet.standby[i] {
                    r.standby = true;
                    r.accepting = false;
                }
                if trace {
                    r.timeline = Some(Timeline::new());
                }
                Ok(r)
            })
            .collect::<Result<_, Error>>()?;

        let mut signal_windows = None;
        if let Some(control) = fleet.control {
            let init = control.begin(cfg);
            if !(init.window_s > 0.0 && init.window_s.is_finite()) {
                return Err(Error::Config {
                    reason: format!(
                        "control plane requested signal window {}: must be positive \
                         and finite",
                        init.window_s
                    ),
                });
            }
            if init.first_decision_s.is_finite() {
                queue.push(init.first_decision_s, Source::Decide, 0);
            }
            signal_windows = Some((
                SlidingWindow::new(init.window_s, SIGNAL_WINDOW_CAP),
                SlidingWindow::new(init.window_s, SIGNAL_WINDOW_CAP),
            ));
        }

        Ok(FleetState {
            fleet,
            bytes_per_token,
            queue,
            replicas,
            states,
            cursors: [None; 2],
            acc: StepAcc::default(),
            live_cfg: cfg.clone(),
            admission: None,
            signal_windows,
            decisions: Vec::new(),
            migrations: 0,
            migration_drops: 0,
            kv_migrated_bytes: 0,
            migration_time_s: 0.0,
            kv_handoff_bytes: 0,
            kv_handoff_time_s: 0.0,
            scale_ups: 0,
            scale_downs: 0,
        })
    }

    /// The typed stall error, with the run's progress.
    fn stalled(&self, why: &str) -> Error {
        Error::Stalled {
            reason: format!(
                "{why} with {}/{} requests done",
                self.acc.completed,
                self.states.len()
            ),
        }
    }

    /// The replica whose next step is earliest (lowest id on a tie), and
    /// that step's time.
    fn earliest_step(&self) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        for (i, r) in self.replicas.iter().enumerate() {
            if let Some(t) = r.next_time(&self.states) {
                if best.is_none_or(|(_, b)| t < b) {
                    best = Some((i, t));
                }
            }
        }
        best
    }

    /// Routes request `id` over the accepting `phase`-capable replicas other
    /// than `exclude`; `None` when there are none.
    fn route(&mut self, id: usize, exclude: usize, phase: Phase) -> Option<usize> {
        let views = accepting_views(&self.replicas, &self.states, exclude, phase);
        if views.is_empty() {
            return None;
        }
        let cursor = &mut self.cursors[phase as usize];
        let session = self.states[id].session;
        Some(self.fleet.router.route(cursor, session, &views))
    }

    /// Applies one queued event at its simulated time.
    fn fire(&mut self, ev: Event) -> Result<(), Error> {
        let (id, when) = (ev.id, ev.at_s);
        match ev.source {
            Source::Fault => self.apply_fault(self.fleet.events[id]),
            Source::Arrival => self.arrive(id, when),
            Source::Handoff => self.land_handoff(id, when),
            Source::Activate => {
                self.activate(id, when);
                Ok(())
            }
            Source::Decide => self.decide(when),
        }
    }

    /// Routes a fresh arrival over the prefill-capable subset.
    fn arrive(&mut self, id: usize, when: f64) -> Result<(), Error> {
        let Some(dest) = self.route(id, usize::MAX, Phase::Prefill) else {
            return Err(Error::Config {
                reason: format!(
                    "request {id} arrived at {when:.3}s with every prefill-capable \
                     replica drained or failed"
                ),
            });
        };
        self.replicas[dest].waiting.push(id);
        // Token-bucket admission control (when armed): the arrival pays its
        // prompt tokens; past the burst its ready time is pushed to when the
        // refill covers it.
        if let Some(bucket) = &mut self.admission {
            let admit_at = bucket.admit(when, self.states[id].prompt as f64);
            if admit_at > when {
                self.states[id].ready_s = self.states[id].ready_s.max(admit_at);
            }
        }
        Ok(())
    }

    /// A finished prefill's KV has landed: route the request over the
    /// decode-capable subset.
    fn land_handoff(&mut self, id: usize, when: f64) -> Result<(), Error> {
        let Some(dest) = self.route(id, usize::MAX, Phase::Decode) else {
            return Err(Error::Config {
                reason: format!(
                    "request {id} finished its KV handoff at {when:.3}s with every \
                     decode-capable replica drained or failed"
                ),
            });
        };
        // Reserve the landed pages up front when the pool has room;
        // otherwise the request queues with no reservation and admission
        // allocates (possibly reclaiming parked reservations) later — the
        // cache itself is preserved either way, so decode proceeds without
        // re-prefill.
        let need = self.replicas[dest].pool.blocks_for(self.states[id].cached);
        if self.replicas[dest].pool.try_alloc(need) {
            self.states[id].blocks = need;
        }
        self.states[id].ready_s = when;
        self.replicas[dest].waiting.push(id);
        self.replicas[dest].handoffs_in += 1;
        Ok(())
    }

    /// A scale-up warm-up has landed: the replica enters rotation — unless a
    /// fault landed mid-warm-up, which wins (the weight transfer is
    /// discarded and the replica stays out).
    fn activate(&mut self, r: usize, when: f64) {
        let rep = &mut self.replicas[r];
        rep.warming = false;
        if !rep.failed && !rep.drained {
            rep.standby = false;
            rep.accepting = true;
            rep.clock_s = rep.clock_s.max(when);
            self.scale_ups += 1;
        }
    }

    /// Runs replica `i`'s next engine iteration at `when`, then re-homes its
    /// evictions and puts its finished prefills on the link.
    fn step(&mut self, i: usize, when: f64) -> Result<(), Error> {
        let fleet = self.fleet;
        self.replicas[i].clock_s = when;
        let (nt, nb) = (self.acc.ttft.len(), self.acc.tbt.len());
        let outcome = self.replicas[i].step(
            &mut self.states,
            &self.live_cfg,
            &fleet.model,
            &fleet.params,
            fleet.planner(i),
            &mut self.acc,
        )?;
        let now_s = self.replicas[i].clock_s;
        // Feed the step's fresh latency samples into the control-plane
        // signal windows, stamped at the replica's post-step clock.
        if let Some((tw, bw)) = &mut self.signal_windows {
            for &v in &self.acc.ttft[nt..] {
                tw.push(now_s, v);
            }
            for &v in &self.acc.tbt[nb..] {
                bw.push(now_s, v);
            }
        }
        for victim in outcome.evicted {
            self.place_displaced(victim, i, now_s);
        }
        for id in outcome.handoffs {
            // Price the finished prefill's KV pages across the link; the
            // request re-enters the fleet when the transfer lands.
            let bytes = self.states[id].cached as u64 * self.bytes_per_token;
            let transfer = fleet.link.transfer_time_s(bytes);
            self.kv_handoff_bytes += bytes;
            self.kv_handoff_time_s += transfer;
            self.queue.push(now_s + transfer, Source::Handoff, id);
        }
        Ok(())
    }

    /// Samples the fleet's signals, asks the control plane to decide,
    /// applies the actions it can, logs the decision, and queues the next.
    fn decide(&mut self, when: f64) -> Result<(), Error> {
        let Some(control) = self.fleet.control else {
            return Ok(());
        };
        let active = self.replicas.iter().filter(|r| r.accepting).count();
        let kv_occupancy = if active > 0 {
            self.replicas
                .iter()
                .filter(|r| r.accepting)
                .map(|r| r.pool.occupancy())
                .sum::<f64>()
                / active as f64
        } else {
            0.0
        };
        let (ttft, tbt) = match &self.signal_windows {
            Some((tw, bw)) => (tw.stats(when), bw.stats(when)),
            None => (None, None),
        };
        let signals = FleetSignals {
            now_s: when,
            arrived: self.states.len() - self.queue.pending(Source::Arrival),
            completed: self.acc.completed,
            queue_depth: self.replicas.iter().map(|r| r.waiting.len()).sum(),
            handoff_backlog: self.queue.pending(Source::Handoff),
            max_batch: self.live_cfg.max_batch,
            ttft,
            tbt,
            replicas: self
                .replicas
                .iter()
                .map(|r| ReplicaSignal {
                    id: r.id,
                    role: r.role,
                    accepting: r.accepting,
                    standby: r.standby,
                    warming: r.warming,
                    queue_len: r.waiting.len(),
                    running: r.running.len(),
                    kv_occupancy: r.pool.occupancy(),
                })
                .collect(),
        };
        let decision = control.decide(&signals);
        let applied = decision
            .actions
            .iter()
            .map(|a| self.apply_action(a, when))
            .collect::<Result<Vec<bool>, Error>>()?;
        self.decisions.push(ControlRecord {
            seq: self.decisions.len(),
            at_s: when,
            regime: decision.regime,
            actions: decision.actions,
            applied,
            queue_depth: signals.queue_depth,
            active_replicas: active,
            kv_occupancy,
            handoff_backlog: signals.handoff_backlog,
            ttft: signals.ttft,
            tbt: signals.tbt,
        });
        if !decision.next_s.is_finite() {
            return Ok(());
        }
        if decision.next_s <= when {
            return Err(Error::Config {
                reason: format!(
                    "control plane scheduled its next decision at {} from {when}: \
                     must be strictly later",
                    decision.next_s
                ),
            });
        }
        self.queue.push(decision.next_s, Source::Decide, 0);
        Ok(())
    }

    /// Applies one control action at `when`; `Ok(false)` when the fleet's
    /// state makes it invalid.
    fn apply_action(&mut self, action: &ControlAction, when: f64) -> Result<bool, Error> {
        Ok(match *action {
            ControlAction::SetPolicy(p) => {
                self.live_cfg.policy = p;
                true
            }
            ControlAction::SetPrefillChunk(c) => {
                if c > 0 {
                    self.live_cfg.prefill_chunk = c;
                }
                c > 0
            }
            ControlAction::SetAdmission {
                tokens_per_s,
                burst_tokens,
            } => {
                let valid = tokens_per_s > 0.0
                    && tokens_per_s.is_finite()
                    && burst_tokens > 0.0
                    && burst_tokens.is_finite();
                if valid {
                    self.admission = Some(TokenBucket::new(tokens_per_s, burst_tokens, when));
                }
                valid
            }
            ControlAction::ClearAdmission => self.admission.take().is_some(),
            ControlAction::ScaleUp { replica: r } => {
                let valid = self
                    .replicas
                    .get(r)
                    .is_some_and(|rep| rep.standby && !rep.warming && !rep.failed && !rep.drained);
                if valid {
                    // Warm-up is the model weights streaming over the link;
                    // the replica activates when the transfer lands.
                    self.replicas[r].warming = true;
                    let warm = self
                        .fleet
                        .link
                        .transfer_time_s(weight_bytes(&self.fleet.model));
                    self.queue.push(when + warm, Source::Activate, r);
                }
                valid
            }
            ControlAction::ScaleDown { replica: r } => {
                let survives = |capable: fn(Role) -> bool| {
                    self.replicas
                        .iter()
                        .any(|o| o.accepting && o.id != r && capable(o.role))
                };
                let valid = self.replicas.get(r).is_some_and(|rep| rep.accepting)
                    && survives(Role::prefill_capable)
                    && survives(Role::decode_capable);
                if valid {
                    self.replicas[r].accepting = false;
                    self.replicas[r].standby = true;
                    self.displace_all(r, when, "scaled down")?;
                    self.scale_downs += 1;
                }
                valid
            }
        })
    }

    /// Re-homes a request displaced from `source` (eviction overflow, drain,
    /// failure). Attempts a KV migration over the link when the request has
    /// resident cache and a sibling has pool room; otherwise the cache is
    /// dropped and the request re-prefills at its destination.
    fn place_displaced(&mut self, id: usize, source: usize, now_s: f64) {
        debug_assert_eq!(self.states[id].blocks, 0, "displaced with blocks held");
        let had_cache = self.states[id].cached > 0;
        if had_cache {
            // Migrate toward the subset that can run the request's next
            // phase: a decode-ready cache goes to the decode side, a partial
            // prefill back to the prefill side.
            if let Some(dest) = self.route(id, source, phase_of(&self.states[id])) {
                let need = self.replicas[dest].pool.blocks_for(self.states[id].cached);
                if self.replicas[dest].pool.try_alloc(need) {
                    let bytes = self.states[id].cached as u64 * self.bytes_per_token;
                    let transfer = self.fleet.link.transfer_time_s(bytes);
                    let st = &mut self.states[id];
                    st.blocks = need;
                    st.ready_s = st.ready_s.max(now_s) + transfer;
                    self.replicas[dest].waiting.push(id);
                    self.migrations += 1;
                    self.kv_migrated_bytes += bytes;
                    self.migration_time_s += transfer;
                    return;
                }
            }
        }
        // No migration path: the cache is dropped and the request re-queues
        // wherever the router sends it (the source included, if accepting).
        // With no cache left it owes prefill work, so it routes over the
        // prefill-capable subset.
        let st = &mut self.states[id];
        st.cached = 0;
        st.ready_s = st.ready_s.max(now_s);
        if had_cache {
            self.migration_drops += 1;
        }
        // With every replica out of rotation the request parks back on the
        // source, so the stall surfaces as a typed error, not a lost request.
        let dest = self.route(id, usize::MAX, Phase::Prefill).unwrap_or(source);
        self.replicas[dest].waiting.push(id);
    }

    /// Applies one scripted fault at its simulated time.
    fn apply_fault(&mut self, ev: FleetEvent) -> Result<(), Error> {
        let i = ev.replica();
        let rep = &mut self.replicas[i];
        rep.accepting = false;
        match ev {
            FleetEvent::Drain { .. } => rep.drained = true,
            FleetEvent::Fail { .. } => rep.failed = true,
        }
        let what = if rep.failed { "failed" } else { "drained" };
        self.displace_all(i, ev.at_s(), what)
    }

    /// Displaces every request resident on replica `i` after it left
    /// rotation (fault, drain, or control-plane scale-down). Running
    /// requests go first, then the waiting queue, so seniority is preserved
    /// at the destinations; `what` labels the no-survivor error.
    fn displace_all(&mut self, i: usize, at_s: f64, what: &str) -> Result<(), Error> {
        // The replica finishes its in-flight iteration first (clock_s is its
        // busy-until time): displacement happens at the later of the two.
        let now_s = at_s.max(self.replicas[i].clock_s);
        let displaced: Vec<usize> = std::mem::take(&mut self.replicas[i].running)
            .into_iter()
            .chain(std::mem::take(&mut self.replicas[i].waiting))
            .collect();
        if displaced.is_empty() {
            return Ok(());
        }
        if !self.replicas.iter().any(|r| r.accepting) {
            return Err(Error::Config {
                reason: format!(
                    "replica {i} {what} at {at_s:.3}s with {} requests resident and no \
                     accepting replica left",
                    displaced.len()
                ),
            });
        }
        for id in displaced {
            self.replicas[i].release(&mut self.states, id);
            if self.replicas[i].failed {
                // The pool died with the replica: the cache is gone before
                // any migration question arises.
                self.states[id].cached = 0;
            }
            self.place_displaced(id, i, now_s);
        }
        Ok(())
    }

    /// Aggregates the finished run into its report, exporting each
    /// replica's kernel timeline as a trace stream when tracing is on.
    fn into_report(self, anchor_us: f64) -> FleetReport {
        let (fleet, replicas, acc) = (self.fleet, &self.replicas, &self.acc);
        let sim_time_s = acc.last_completion_s;
        let decode_tokens: u64 = replicas.iter().map(|r| r.decode_tokens).sum();
        // Prefill rows run on a dedicated decode replica only when a
        // handed-off request later loses its cache to memory pressure: the
        // disaggregation contract's "no re-prefill" is this staying zero.
        let decode_side_prefill_tokens: u64 = replicas
            .iter()
            .filter(|r| r.role == Role::Decode)
            .map(|r| r.prefill_tokens)
            .sum();
        let replica_stats: Vec<ReplicaStats> = replicas
            .iter()
            .map(|r| ReplicaStats {
                id: r.id,
                device: r.device.name.clone(),
                role: r.role.name().to_owned(),
                iterations: r.iterations,
                evictions: r.evictions,
                completed: r.completed,
                prefill_tokens: r.prefill_tokens,
                decode_tokens: r.decode_tokens,
                handoffs_in: r.handoffs_in,
                handoffs_out: r.handoffs_out,
                preemptions: r.preemptions,
                standby: r.standby,
                kv_used_blocks_end: r.pool.used_blocks(),
                busy_s: r.busy_s,
                utilization: if sim_time_s > 0.0 {
                    r.busy_s / sim_time_s
                } else {
                    0.0
                },
                kv_peak_occupancy: r.pool.peak_occupancy(),
                kv_mean_occupancy: if r.occ_n > 0 {
                    r.occ_sum / r.occ_n as f64
                } else {
                    0.0
                },
                drained: r.drained,
                failed: r.failed,
            })
            .collect();

        for r in replicas {
            if let Some(tl) = r.timeline.as_ref().filter(|tl| !tl.is_empty()) {
                resoftmax_obs::recorder().add_sim_stream(
                    format!("serve.replica.{}/{}", r.id, r.device.name),
                    anchor_us,
                    resoftmax_gpusim::chrome_trace::to_obs_events(tl),
                );
            }
        }

        FleetReport {
            strategy: format!("{:?}", fleet.params.strategy).to_lowercase(),
            policy: fleet.cfg.policy.name().to_owned(),
            router: fleet.router.name().to_owned(),
            link: fleet.link.name.clone(),
            submitted: self.states.len(),
            completed: acc.completed,
            iterations: replicas.iter().map(|r| r.iterations).sum(),
            evictions: replicas.iter().map(|r| r.evictions).sum(),
            migrations: self.migrations,
            migration_drops: self.migration_drops,
            kv_migrated_bytes: self.kv_migrated_bytes,
            migration_time_s: self.migration_time_s,
            handoffs: replicas.iter().map(|r| r.handoffs_out).sum(),
            kv_handoff_bytes: self.kv_handoff_bytes,
            kv_handoff_time_s: self.kv_handoff_time_s,
            decode_side_prefill_tokens,
            sim_time_s,
            prefill_tokens: replicas.iter().map(|r| r.prefill_tokens).sum(),
            decode_tokens,
            decode_tokens_per_s: decode_tokens as f64 / sim_time_s,
            ttft: Percentiles::from_samples(&acc.ttft),
            tbt: Percentiles::from_samples(&acc.tbt),
            preemptions: replicas.iter().map(|r| r.preemptions).sum(),
            scale_ups: self.scale_ups,
            scale_downs: self.scale_downs,
            decisions: self.decisions,
            replicas: replica_stats,
        }
    }
}

/// Deterministic router snapshot of every accepting replica that can run
/// `phase` work, except `exclude`, ascending id.
fn accepting_views(
    replicas: &[Replica],
    states: &[ReqState],
    exclude: usize,
    phase: Phase,
) -> Vec<ReplicaView> {
    replicas
        .iter()
        .filter(|r| r.accepting && r.id != exclude)
        .filter(|r| match phase {
            Phase::Prefill => r.role.prefill_capable(),
            Phase::Decode => r.role.decode_capable(),
        })
        .map(|r| ReplicaView {
            id: r.id,
            resident_blocks: r.pool.used_blocks(),
            queued_blocks: r
                .waiting
                .iter()
                .map(|&id| {
                    r.pool
                        .blocks_for(states[id].prefill_target())
                        .max(states[id].blocks)
                })
                .sum(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_queue_pops_ties_in_source_order_then_enqueue_order() {
        let mut q = EventQueue::default();
        // One instant, pushed in reverse source order (ids mark enqueue
        // order), plus a fault after the horizon.
        for (source, id) in [
            (Source::Decide, 0),
            (Source::Activate, 1),
            (Source::Activate, 2),
            (Source::Handoff, 3),
            (Source::Handoff, 4),
            (Source::Arrival, 5),
            (Source::Fault, 6),
        ] {
            q.push(1.0, source, id);
        }
        q.push(2.0, Source::Fault, 7);
        let ids: Vec<usize> = std::iter::from_fn(|| q.pop_until(1.0))
            .map(|e| e.id)
            .collect();
        assert_eq!(ids, [6, 5, 3, 4, 1, 2, 0]);
        assert_eq!(q.pending(Source::Fault), 1);
        assert_eq!(q.pop_until(f64::INFINITY).map(|e| e.id), Some(7));

        // -0.0 and +0.0 are one instant: source order decides.
        q.push(-0.0, Source::Arrival, 8);
        q.push(0.0, Source::Fault, 9);
        assert_eq!(q.pop_until(0.0).map(|e| e.id), Some(9));
    }
}
