//! What `fleet_steady` and `fleet_burst` share: the seeded arrival trace,
//! the fleet they build, the correctness gates, and the traced-run
//! attribution of a fleet's host time.
//!
//! `Fleet::run` cannot be split from outside, so a traced unit attaches a
//! recording `IterationPlanner` to every replica (delegating to
//! `BaselinePlanner`, so the run is unchanged) and wraps the controller in a
//! timing `ControlPlane`. After the unit, the captured iterations are
//! replayed through `build_batched_decode_schedule` and `Gpu::run` with
//! the pricing cache emptied again, which times the `model` and `gpusim`
//! share of the run. The replay must reproduce every replica's busy time
//! bit for bit, or the attribution is reported as failed.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::time::Instant;

use resoftmax_ctrl::Controller;
use resoftmax_gpusim::{
    clear_sim_cache, sim_cache_stats, DeviceSpec, Gpu, KernelCategory, Timeline,
};
use resoftmax_model::{build_batched_decode_schedule, ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{
    Arrival, BaselinePlanner, ControlDecision, ControlInit, ControlPlane, FleetBuilder,
    FleetReport, FleetSignals, IterationPlanner, LinkSpec, RouterPolicy, ServeConfig,
};

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{median, tail_percentile};
use crate::trace::Tracer;
use crate::{Counts, Workload};

/// Context length the served model is configured for.
const PAPER_CTX: usize = 4096;

/// Simulated-time share categories, as the paper groups kernels.
const SHARES: [&str; 9] = [
    "matmul_qk",
    "matmul_pv",
    "softmax",
    "local_softmax",
    "inter_reduction",
    "global_scaling",
    "fc",
    "feed_forward",
    "other",
];

fn share_of(c: KernelCategory) -> &'static str {
    match c {
        KernelCategory::MatMulQk => "matmul_qk",
        KernelCategory::MatMulPv => "matmul_pv",
        KernelCategory::Softmax => "softmax",
        KernelCategory::LocalSoftmax => "local_softmax",
        KernelCategory::InterReduction => "inter_reduction",
        KernelCategory::GlobalScaling => "global_scaling",
        KernelCategory::Fc => "fc",
        KernelCategory::FeedForward => "feed_forward",
        _ => "other",
    }
}

/// Replica layout of a fleet; every replica is an A100.
pub enum Shape {
    Unified {
        replicas: usize,
    },
    Disaggregated {
        prefill: usize,
        decode: usize,
        standby_decode: usize,
    },
}

impl Shape {
    fn replicas(&self) -> usize {
        match *self {
            Shape::Unified { replicas } => replicas,
            Shape::Disaggregated {
                prefill,
                decode,
                standby_decode,
            } => prefill + decode + standby_decode,
        }
    }
}

/// Everything one fleet workload is made of.
pub struct FleetSpec {
    pub cfg: ServeConfig,
    pub trace: Vec<Arrival>,
    pub shape: Shape,
    pub controller: Option<Controller>,
}

/// A fleet workload's configuration and its own gates.
pub trait Spec {
    /// The seeded workload.
    fn spec(seed: u64, smoke: bool) -> FleetSpec;

    /// Gates particular to this workload, one line per failure.
    fn check(_report: &FleetReport) -> Vec<String> {
        Vec::new()
    }
}

/// The served model and its per-iteration parameters.
fn model() -> (ModelConfig, RunParams) {
    (
        ModelConfig::gpt_neo_1_3b(),
        RunParams::new(PAPER_CTX).strategy(SoftmaxStrategy::Recomposed),
    )
}

/// `cfg` with the short outputs of the smoke size.
pub fn smoke_tokens(cfg: ServeConfig) -> ServeConfig {
    ServeConfig {
        decode_tokens: (4, 16),
        ..cfg
    }
}

/// An open-loop trace of `cfg.requests` requests: the inter-arrival gaps
/// are the evenly spaced quantiles of the unit exponential and the prompt
/// and decode lengths those of uniform draws over `cfg`'s ranges, each list
/// shuffled by the seed. The unit-rate gaps are spent across `phases`
/// (`(duration_s, rate_hz)`, repeating) as a Poisson process's would be.
/// Every seed offers the same total work at the same mean rate and differs
/// only in order, so host time moves little from seed to seed while
/// simulated latencies still see different traffic. Arrivals are fixed
/// before the run, so the generator can never fall behind the fleet.
pub fn stratified_trace(seed: u64, cfg: &ServeConfig, phases: &[(f64, f64)]) -> Vec<Arrival> {
    let n = cfg.requests;
    let quantile = |i: usize| (i as f64 + 0.5) / n as f64;
    let shuffled = |stream: u64, f: &dyn Fn(f64) -> f64| {
        let mut xs: Vec<f64> = (0..n).map(|i| f(quantile(i))).collect();
        Rng::new(seed, stream).shuffle(&mut xs);
        xs
    };
    let lengths =
        |(lo, hi): (usize, usize)| move |q: f64| (lo + (q * (hi - lo + 1) as f64) as usize) as f64;
    let gaps = shuffled(1, &|q| -(1.0 - q).ln());
    let prompts = shuffled(2, &lengths(cfg.prompt_tokens));
    let decodes = shuffled(3, &lengths(cfg.decode_tokens));

    let (mut now, mut phase, mut into_phase) = (0.0f64, 0usize, 0.0f64);
    (0..n)
        .map(|i| {
            let mut e = gaps[i];
            loop {
                let (dur_s, rate_hz) = phases[phase];
                let need_s = e / rate_hz;
                if need_s <= dur_s - into_phase {
                    now += need_s;
                    into_phase += need_s;
                    break;
                }
                e -= (dur_s - into_phase) * rate_hz;
                now += dur_s - into_phase;
                into_phase = 0.0;
                phase = (phase + 1) % phases.len();
            }
            Arrival {
                at_s: now,
                prompt: prompts[i] as usize,
                decode: decodes[i] as usize,
            }
        })
        .collect()
}

/// One iteration a replica priced, as its planner saw it.
struct Captured {
    replica: usize,
    ctxs: Vec<usize>,
    start: Instant,
    end: Instant,
}

/// A replica's recording planner: prices exactly as `BaselinePlanner`
/// does and keeps the iteration's context lengths.
struct RecordingPlanner<'a> {
    replica: usize,
    log: &'a RefCell<Vec<Captured>>,
}

impl IterationPlanner for RecordingPlanner<'_> {
    fn plan(&self, ctxs: &[usize], base: &RunParams) -> RunParams {
        let start = Instant::now();
        let params = BaselinePlanner.plan(ctxs, base);
        let ctxs = ctxs.to_vec();
        self.log.borrow_mut().push(Captured {
            replica: self.replica,
            ctxs,
            start,
            end: Instant::now(),
        });
        params
    }
}

/// The controller, timed.
struct TimedControl<'a> {
    inner: &'a Controller,
    calls: RefCell<Vec<(Instant, Instant)>>,
}

impl ControlPlane for TimedControl<'_> {
    fn begin(&self, cfg: &ServeConfig) -> ControlInit {
        self.inner.begin(cfg)
    }

    fn decide(&self, signals: &FleetSignals) -> ControlDecision {
        let start = Instant::now();
        let decision = self.inner.decide(signals);
        self.calls.borrow_mut().push((start, Instant::now()));
        decision
    }
}

/// What the replay of one traced unit measured.
#[derive(Debug, Clone, Copy, Default)]
struct Replay {
    build_s: f64,
    gpusim_s: f64,
    plan_s: f64,
    ctrl_s: f64,
    run_s: f64,
    fleet_build_s: f64,
    unit_s: f64,
    rows: f64,
    kernels: f64,
}

/// A fleet workload of spec `S`.
pub struct FleetBench<S> {
    spec: FleetSpec,
    /// The first unit's report, as JSON; every unit must reproduce it.
    reference: Option<String>,
    report: Option<FleetReport>,
    captured: Vec<Captured>,
    replays: Vec<Replay>,
    counts: Counts,
    /// Pricing-cache `(hits, lookups)` of the last unit.
    cache: (u64, u64),
    /// Simulated time per share category: recomposed (as served) and the
    /// same iterations priced with the baseline softmax.
    shares: Option<[BTreeMap<&'static str, f64>; 2]>,
    _spec: PhantomData<S>,
}

fn add_breakdown(into: &mut BTreeMap<&'static str, f64>, timeline: &Timeline) {
    for c in timeline.breakdown().categories {
        *into.entry(share_of(c.category)).or_insert(0.0) += c.time_s;
    }
}

impl<S: Spec> FleetBench<S> {
    fn builder<'a>(
        &'a self,
        control: Option<&'a dyn ControlPlane>,
        planners: &'a [RecordingPlanner<'a>],
    ) -> FleetBuilder<'a> {
        let (model, params) = model();
        let a100 = DeviceSpec::a100();
        let mut b = FleetBuilder::new()
            .model(model)
            .params(params)
            .router(RouterPolicy::LeastLoaded)
            .link(LinkSpec::nvlink())
            .workload(self.spec.cfg.clone())
            .arrivals(self.spec.trace.clone());
        b = match self.spec.shape {
            Shape::Unified { replicas } => b.replicas(replicas, &a100),
            Shape::Disaggregated {
                prefill,
                decode,
                standby_decode,
            } => b
                .prefill_replicas(prefill, &a100)
                .decode_replicas(decode, &a100)
                .standby_decode_replicas(standby_decode, &a100),
        };
        if let Some(c) = control {
            b = b.control_plane(c);
        }
        for p in planners {
            b = b.planner(p);
        }
        b
    }

    /// Prices the captured iterations again, one `Gpu` per replica as the
    /// fleet does, timing the schedule builds and the pricing.
    fn replay(&mut self, tr: &mut Tracer) -> Vec<String> {
        let (model, params) = model();
        let report = self.report.as_ref().expect("a traced unit ran");
        let id = tr.begin("replay", "bench");
        clear_sim_cache();
        let mut gpus: Vec<Gpu> = (0..report.replicas.len())
            .map(|_| Gpu::new(DeviceSpec::a100()))
            .collect();
        let mut busy = vec![0.0f64; gpus.len()];
        let mut served = BTreeMap::new();
        let (mut rows, mut kernels) = (0usize, 0usize);
        let mut failures = Vec::new();
        for c in &self.captured {
            let schedule = tr.span("build_batched_decode_schedule", "model", || {
                build_batched_decode_schedule(&model, &c.ctxs, &params)
            });
            let gpu = &mut gpus[c.replica];
            if let Err(e) = tr.span("Gpu::run", "gpusim", || gpu.run(&schedule)) {
                failures.push(format!("replay: launch failed: {e}"));
                break;
            }
            let timeline = gpu.take_timeline();
            busy[c.replica] += timeline.total_time_s();
            add_breakdown(&mut served, &timeline);
            rows += c.ctxs.len();
            kernels += schedule.len();
        }
        tr.end(id);
        for (r, (replayed, stats)) in busy.iter().zip(&report.replicas).enumerate() {
            if replayed.to_bits() != stats.busy_s.to_bits() {
                failures.push(format!(
                    "replay: replica {r} busy {replayed} s, the run reported {} s",
                    stats.busy_s
                ));
            }
        }

        if self.shares.is_none() {
            // The same iterations priced with the baseline softmax; the
            // simulated clock is deterministic, so once per run suffices.
            let base_params = params.clone().strategy(SoftmaxStrategy::Baseline);
            let mut gpu = Gpu::new(DeviceSpec::a100());
            let mut baseline = BTreeMap::new();
            for c in &self.captured {
                let schedule = build_batched_decode_schedule(&model, &c.ctxs, &base_params);
                if let Err(e) = gpu.run(&schedule) {
                    failures.push(format!("baseline replay: launch failed: {e}"));
                    break;
                }
                add_breakdown(&mut baseline, &gpu.take_timeline());
            }
            self.shares = Some([served, baseline]);
        }

        let unit = self.replays.len();
        let sum = |name: &str| tr.total_s(unit, name);
        self.replays.push(Replay {
            build_s: sum("build_batched_decode_schedule"),
            gpusim_s: sum("Gpu::run"),
            plan_s: sum("IterationPlanner::plan"),
            ctrl_s: sum("ControlPlane::decide"),
            run_s: sum("Fleet::run"),
            fleet_build_s: sum("FleetBuilder::build"),
            unit_s: sum("unit"),
            rows: rows as f64 / self.captured.len().max(1) as f64,
            kernels: kernels as f64,
        });
        self.counts.kernels_built = kernels as f64;
        self.counts.gpusim_kernels = kernels as f64;
        failures
    }
}

impl<S: Spec> Workload for FleetBench<S> {
    fn setup(seed: u64, smoke: bool) -> Self {
        FleetBench {
            spec: S::spec(seed, smoke),
            reference: None,
            report: None,
            captured: Vec::new(),
            replays: Vec::new(),
            counts: Counts::default(),
            cache: (0, 0),
            shares: None,
            _spec: PhantomData,
        }
    }

    fn unit(&mut self, tr: &mut Tracer) -> Vec<String> {
        // Traced units attach the recording planners and the timed
        // controller; untraced units run the fleet exactly as a user would.
        let traced = tr.is_on();
        let log = RefCell::new(Vec::new());
        let replicas = if traced {
            self.spec.shape.replicas()
        } else {
            0
        };
        let planners: Vec<RecordingPlanner> = (0..replicas)
            .map(|replica| RecordingPlanner { replica, log: &log })
            .collect();
        let timed = (self.spec.controller.as_ref())
            .filter(|_| traced)
            .map(|inner| TimedControl {
                inner,
                calls: RefCell::new(Vec::new()),
            });
        let control: Option<&dyn ControlPlane> = match &timed {
            Some(t) => Some(t),
            None => self
                .spec
                .controller
                .as_ref()
                .map(|c| c as &dyn ControlPlane),
        };

        let fleet = tr.span("FleetBuilder::build", "serve", || {
            self.builder(control, &planners).build()
        });
        let fleet = match fleet {
            Ok(f) => f,
            Err(e) => return vec![format!("fleet does not build: {e}")],
        };
        let run = tr.begin("Fleet::run", "serve");
        let result = fleet.run();
        tr.end(run);
        drop(fleet);
        for c in log.borrow().iter() {
            tr.record("IterationPlanner::plan", "bench", c.start, c.end, run);
        }
        if let Some(t) = &timed {
            for &(start, end) in t.calls.borrow().iter() {
                tr.record("ControlPlane::decide", "ctrl", start, end, run);
            }
        }
        let report = match result {
            Ok(r) => r,
            Err(e) => return vec![format!("fleet run failed: {e}")],
        };
        let stats = sim_cache_stats();
        self.cache = (stats.hits, stats.hits + stats.misses);
        self.counts.gpusim_misses = stats.misses as f64;
        self.counts.gpusim_class_misses = stats.class_misses as f64;
        self.counts.serve_iterations = report.iterations as f64;
        self.counts.ctrl_decisions = report.decisions.len() as f64;

        let mut failures = S::check(&report);
        if report.completed != report.submitted {
            failures.push(format!(
                "completed {} of {} submitted requests",
                report.completed, report.submitted
            ));
        }
        for r in &report.replicas {
            if r.kv_used_blocks_end != 0 {
                failures.push(format!(
                    "replica {} ended holding {} KV blocks",
                    r.id, r.kv_used_blocks_end
                ));
            }
        }
        match serde_json::to_string(&report) {
            Ok(json) => match &self.reference {
                None => self.reference = Some(json),
                Some(first) if *first != json => failures.push(format!(
                    "{} report differs from the first unit's",
                    if traced { "traced" } else { "untraced" }
                )),
                Some(_) => {}
            },
            Err(e) => failures.push(format!("report does not serialize: {e}")),
        }
        self.captured = log.into_inner();
        self.report = Some(report);
        failures
    }

    fn attribute(&mut self, tr: &mut Tracer) -> Vec<String> {
        self.replay(tr)
    }

    fn host_by_layer(&self, _tr: &Tracer, unit: usize) -> BTreeMap<&'static str, f64> {
        let Some(r) = self.replays.get(unit) else {
            return BTreeMap::new();
        };
        let loop_self = r.run_s - r.build_s - r.gpusim_s - r.plan_s - r.ctrl_s;
        BTreeMap::from([
            ("serve", r.fleet_build_s + loop_self),
            ("model", r.build_s),
            ("gpusim", r.gpusim_s),
            ("ctrl", r.ctrl_s),
            ("bench", r.unit_s - r.fleet_build_s - r.run_s + r.plan_s),
        ])
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn report(&self, tr: &Tracer, r: &mut Report) {
        let Some(report) = &self.report else { return };
        let unit_ms = r
            .get("unit_p50_ms")
            .expect("runner reports unit time")
            .value;
        r.host(
            "sim_req_per_host_s",
            report.completed as f64 / (unit_ms / 1e3),
            "1/s",
            "higher",
        );
        r.info("fleet.requests", report.submitted as f64, "count");
        for (name, p) in [("ttft", report.ttft), ("tbt", report.tbt)] {
            r.info(&format!("{name}_n"), p.n as f64, "count");
            r.exact(&format!("{name}_p50_s"), p.p50_s, "s", "lower");
            if let Some(pct) = tail_percentile(p.n, &[50, 90, 99]) {
                let tail = match pct {
                    99 => p.p99_s,
                    90 => p.p90_s,
                    _ => p.p50_s,
                };
                r.info(&format!("{name}_tail_pct"), pct as f64, "%");
                r.exact(&format!("{name}_tail_s"), tail, "s", "lower");
            }
        }
        r.exact(
            "decode_tok_per_sim_s",
            report.decode_tokens_per_s,
            "1/s",
            "higher",
        );
        if !tr.is_on() || self.replays.is_empty() {
            return;
        }

        let med = |f: fn(&Replay) -> f64| median(&self.replays.iter().map(f).collect::<Vec<_>>());
        r.info("serve.build_s", med(|x| x.fleet_build_s), "s");
        r.info("serve.run_s", med(|x| x.run_s), "s");
        r.info("model.batched_decode_build_s", med(|x| x.build_s), "s");
        r.info("gpusim.run_s", med(|x| x.gpusim_s), "s");
        r.info(
            "serve.loop_self_s",
            med(|x| x.run_s - x.build_s - x.gpusim_s - x.plan_s - x.ctrl_s),
            "s",
        );
        r.info("bench.planner_hook_s", med(|x| x.plan_s), "s");
        r.info("ctrl.decide_s", med(|x| x.ctrl_s), "s");
        r.info("ctrl.decisions", report.decisions.len() as f64, "count");
        r.info("serve.iterations", report.iterations as f64, "count");
        r.info("serve.rows_per_iter", med(|x| x.rows), "count");
        r.info(
            "model.kernels_per_iter",
            med(|x| x.kernels) / report.iterations as f64,
            "count",
        );
        let (hits, lookups) = self.cache;
        r.info("gpusim.cache_lookups", lookups as f64, "count");
        if lookups > 0 {
            r.info(
                "gpusim.cache_hit_ratio",
                hits as f64 / lookups as f64,
                "ratio",
            );
        }

        let n = report.replicas.len() as f64;
        r.info(
            "serve.utilization_mean",
            report.replicas.iter().map(|x| x.utilization).sum::<f64>() / n,
            "ratio",
        );
        r.info(
            "serve.kv_peak_occupancy",
            report
                .replicas
                .iter()
                .map(|x| x.kv_peak_occupancy)
                .fold(0.0, f64::max),
            "ratio",
        );
        for (name, v) in [
            ("evictions", report.evictions),
            ("migrations", report.migrations),
            ("preemptions", report.preemptions),
            ("handoffs", report.handoffs),
            ("scale_ups", report.scale_ups),
            ("scale_downs", report.scale_downs),
        ] {
            r.info(&format!("serve.{name}"), v as f64, "count");
        }
        r.info("serve.kv_handoff_time_s", report.kv_handoff_time_s, "s");

        if let Some([served, baseline]) = &self.shares {
            let total = |m: &BTreeMap<&str, f64>| m.values().sum::<f64>();
            let (ts, tb) = (total(served), total(baseline));
            for s in SHARES {
                r.info(
                    &format!("sim.share.{s}"),
                    served.get(s).copied().unwrap_or(0.0) / ts,
                    "ratio",
                );
                r.info(
                    &format!("sim.baseline_share.{s}"),
                    baseline.get(s).copied().unwrap_or(0.0) / tb,
                    "ratio",
                );
            }
            r.info("model.recomposed_iter_gain", tb / ts, "x");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_seeded_sorted_and_conserves_work() {
        let cfg = ServeConfig {
            requests: 200,
            ..ServeConfig::default()
        };
        let a = stratified_trace(5, &cfg, &[(f64::INFINITY, 48.0)]);
        assert_eq!(a, stratified_trace(5, &cfg, &[(f64::INFINITY, 48.0)]));
        let b = stratified_trace(6, &cfg, &[(f64::INFINITY, 48.0)]);
        assert_ne!(a, b);
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        let work = |t: &[Arrival]| {
            t.iter()
                .map(|x| (x.prompt, x.decode))
                .fold((0, 0), |s, x| (s.0 + x.0, s.1 + x.1))
        };
        assert_eq!(work(&a), work(&b));
        let (lo, hi) = cfg.prompt_tokens;
        assert!(a.iter().all(|x| (lo..=hi).contains(&x.prompt)));
        let (lo, hi) = cfg.decode_tokens;
        assert!(a.iter().all(|x| (lo..=hi).contains(&x.decode)));
        // The quantile gaps sum to ~n, so the run lasts ~n / rate.
        let end = a.last().expect("nonempty").at_s;
        assert!((end - 200.0 / 48.0).abs() < 0.2, "{end}");
    }

    #[test]
    fn phased_trace_follows_the_phase_rates() {
        let cfg = ServeConfig {
            requests: 184,
            ..ServeConfig::default()
        };
        // Two 6 s cycles of 4 s at 5/s then 2 s at 36/s: 92 per cycle.
        let t = stratified_trace(1, &cfg, &[(4.0, 5.0), (2.0, 36.0)]);
        let end = t.last().expect("nonempty").at_s;
        assert!((11.0..13.0).contains(&end), "{end}");
        let in_burst = t.iter().filter(|a| a.at_s % 6.0 >= 4.0).count();
        assert!(in_burst > 120, "{in_burst}");
    }
}
