//! The serving results: one continuous-batching replica
//! (`BENCH_serve.json`), a fleet (`BENCH_fleet.json`) and the adaptive
//! control plane (`BENCH_ctrl.json`). All their metrics live on the
//! simulated clock, so under `--smoke` each passes the determinism gate.

use resoftmax_bench::{determinism_gate, write_report, BenchArgs, Error, PAPER_SEQ_LEN};
use resoftmax_ctrl::{Controller, ControllerConfig, PolicyTable};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{
    kv_bytes_per_token, phased_arrivals, Arrival, ControlAction, FleetBuilder, FleetReport,
    LinkSpec, Policy, RouterPolicy, ServeConfig, ServeReport,
};
use resoftmax_tune::{SearchMode, SearchSpace, Tuner};
use serde::Serialize;

/// Collects the results of independent cells run under `parallel_map`,
/// failing on the first error in cell order.
fn all_ok<T>(cells: Vec<Result<T, resoftmax_serve::Error>>) -> Result<Vec<T>, Error> {
    Ok(cells.into_iter().collect::<Result<_, _>>()?)
}

/// Continuous-batching serving simulation: a 64-request Poisson trace on
/// the A100 against GPT-Neo 1.3B, swept over {baseline, recomposed} ×
/// {fifo, shortest-remaining}, reporting throughput, TTFT/TBT percentiles,
/// KV-pool occupancy and eviction counts to `BENCH_serve.json`.
///
/// The KV pool is deliberately capped below the trace's aggregate demand so
/// admission control and eviction are exercised, not just counted. The
/// grid cells run under `parallel_map`; the engine itself is sequential.
pub fn serve_sim(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let reports = if args.smoke {
        determinism_gate("serve", serve_grid)?
    } else {
        serve_grid()?
    };

    for r in &reports {
        assert_eq!(r.completed, 64, "all requests must complete: {r:?}");
        assert!(r.evictions > 0, "pool cap must force evictions: {r:?}");
        assert!(
            r.ttft.p99_s > r.ttft.p50_s && r.tbt.max_s > 0.0,
            "latency percentiles must be non-degenerate: {r:?}"
        );
        println!(
            "{:>10} / {:<18} {:7.1} tok/s  ttft p50/p99 {:6.3}/{:6.3}s  \
             tbt p50/p99 {:6.1}/{:6.1}ms  kv peak {:4.1}%  evictions {:3}  iters {}",
            r.strategy,
            r.policy,
            r.decode_tokens_per_s,
            r.ttft.p50_s,
            r.ttft.p99_s,
            r.tbt.p50_s * 1e3,
            r.tbt.p99_s * 1e3,
            r.kv_peak_occupancy * 100.0,
            r.evictions,
            r.iterations,
        );
    }
    write_report(&args.out_path("BENCH_serve.json"), &reports)
}

fn serve_grid() -> Result<Vec<ServeReport>, Error> {
    let model = ModelConfig::gpt_neo_1_3b();
    let device = DeviceSpec::a100();
    let cells: Vec<(SoftmaxStrategy, Policy)> =
        [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed]
            .into_iter()
            .flat_map(|s| {
                [Policy::Fifo, Policy::ShortestRemaining]
                    .into_iter()
                    .map(move |p| (s, p))
            })
            .collect();
    all_ok(resoftmax_parallel::parallel_map(
        &cells,
        |_, &(strategy, policy)| {
            let workload = ServeConfig {
                policy,
                // ~25 worst-case requests' worth of aggregate demand
                // against a 4096-token pool: several requests co-reside,
                // decode growth collides, and the eviction path runs on
                // every cell.
                kv_capacity_bytes: Some(kv_bytes_per_token(&model) * 4096),
                ..ServeConfig::default()
            };
            FleetBuilder::new()
                .model(model.clone())
                .params(RunParams::new(PAPER_SEQ_LEN).strategy(strategy))
                .replica(device.clone())
                .workload(workload)
                .build()
                .and_then(|fleet| fleet.run())
                .map(|report| report.serve_report())
        },
    ))
}

/// TTFT service-level objective of the fleet sweep, simulated seconds.
const SLO_TTFT_P99_S: f64 = 1.0;

#[derive(Debug, Clone, Serialize)]
struct FleetRow {
    label: String,
    arrival_rate_hz: f64,
    meets_slo: bool,
    report: FleetReport,
}

#[derive(Debug, Serialize)]
struct FleetBench {
    slo_ttft_p99_s: f64,
    /// First swept arrival rate whose TTFT p99 exceeds the SLO (requests per
    /// simulated second), or the top of the sweep when none does.
    knee_rate_hz: f64,
    rows: Vec<FleetRow>,
}

struct FleetScale {
    replicas: usize,
    sweep_requests: usize,
    headline_requests: usize,
    sweep_rates: Vec<f64>,
}

impl FleetScale {
    fn full() -> Self {
        FleetScale {
            replicas: 8,
            sweep_requests: 2000,
            headline_requests: 10_000,
            // Geometric-ish ladder bracketing the 8-replica capacity:
            // ~516 decode tok/s per replica at max_batch 8 and a mean
            // decode of 72 tokens puts saturation near 50 req/s, and the
            // 1 s TTFT p99 budget is spent on queueing well before that.
            sweep_rates: vec![16.0, 24.0, 36.0, 48.0, 72.0],
        }
    }

    fn smoke() -> Self {
        FleetScale {
            replicas: 3,
            sweep_requests: 48,
            headline_requests: 96,
            sweep_rates: vec![32.0, 128.0],
        }
    }
}

fn fleet_workload(requests: usize, rate_hz: f64) -> ServeConfig {
    ServeConfig {
        requests,
        arrival_rate_hz: rate_hz,
        // The fleet headline runs hundreds of thousands of engine
        // iterations; the termination backstop must sit far above them.
        max_iterations: 100_000_000,
        ..ServeConfig::default()
    }
}

fn run_fleet(
    label: &str,
    rate_hz: f64,
    build: impl FnOnce() -> FleetBuilder<'static>,
) -> Result<FleetRow, resoftmax_serve::Error> {
    let report = build().build()?.run()?;
    assert_eq!(
        report.completed, report.submitted,
        "{label}: every submitted request must complete"
    );
    Ok(FleetRow {
        label: label.to_owned(),
        arrival_rate_hz: rate_hz,
        meets_slo: report.ttft.p99_s <= SLO_TTFT_P99_S,
        report,
    })
}

fn homogeneous(replicas: usize, requests: usize, rate_hz: f64) -> FleetBuilder<'static> {
    FleetBuilder::new()
        .model(ModelConfig::gpt_neo_1_3b())
        .params(RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Recomposed))
        .replicas(replicas, &DeviceSpec::a100())
        .router(RouterPolicy::LeastLoaded)
        .link(LinkSpec::nvlink())
        .workload(fleet_workload(requests, rate_hz))
}

/// The same hardware budget as [`homogeneous`], split into dedicated
/// prefill and decode replicas (a quarter prefill, rounded up to one) with
/// finished-prefill KV handed off over `link`.
fn disaggregated(
    replicas: usize,
    requests: usize,
    rate_hz: f64,
    link: LinkSpec,
) -> FleetBuilder<'static> {
    let prefill = (replicas / 4).max(1);
    FleetBuilder::new()
        .model(ModelConfig::gpt_neo_1_3b())
        .params(RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Recomposed))
        .prefill_replicas(prefill, &DeviceSpec::a100())
        .decode_replicas(replicas - prefill, &DeviceSpec::a100())
        .router(RouterPolicy::LeastLoaded)
        .link(link)
        .workload(fleet_workload(requests, rate_hz))
}

type FleetCell<'a> = Box<dyn Fn() -> Result<FleetRow, resoftmax_serve::Error> + Sync + 'a>;

fn fleet_bench(scale: &FleetScale) -> Result<FleetBench, Error> {
    let n = scale.replicas;

    // Stage 1: arrival-rate sweep to the SLO knee (cells are independent;
    // the simulated clock keeps them bit-identical under any threading).
    let sweep = all_ok(resoftmax_parallel::parallel_map(
        &scale.sweep_rates,
        |_, &rate| {
            run_fleet(&format!("sweep/{rate}hz"), rate, || {
                homogeneous(n, scale.sweep_requests, rate)
            })
        },
    ))?;
    let knee_rate_hz = sweep
        .iter()
        .find(|r| !r.meets_slo)
        .or_else(|| sweep.last())
        .ok_or_else(|| Error::failed("fleet sweep has no rates"))?
        .arrival_rate_hz;

    // Stage 2: scenario rows at fixed rates (again independent).
    let mid_rate = scale.sweep_rates[scale.sweep_rates.len() / 2];
    let scenarios: Vec<FleetCell<'_>> = vec![
        // Headline: 10k+ requests across the full fleet at the knee.
        Box::new(|| {
            run_fleet("headline/knee", knee_rate_hz, || {
                homogeneous(n, scale.headline_requests, knee_rate_hz)
            })
        }),
        // Router-policy comparison at the mid sweep rate.
        Box::new(|| {
            run_fleet("router/round-robin", mid_rate, || {
                homogeneous(n, scale.sweep_requests, mid_rate).router(RouterPolicy::RoundRobin)
            })
        }),
        Box::new(|| {
            run_fleet("router/cache-affinity", mid_rate, || {
                homogeneous(n, scale.sweep_requests, mid_rate)
                    .router(RouterPolicy::CacheAffinity)
                    .workload(ServeConfig {
                        sessions: 64,
                        ..fleet_workload(scale.sweep_requests, mid_rate)
                    })
            })
        }),
        // Heterogeneous fleet: a quarter of the replicas are T4s behind the
        // same router (least-loaded absorbs the speed difference).
        Box::new(|| {
            run_fleet("hetero/a100+t4", mid_rate, || {
                FleetBuilder::new()
                    .model(ModelConfig::gpt_neo_1_3b())
                    .params(RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Recomposed))
                    .replicas(n - n.div_ceil(4), &DeviceSpec::a100())
                    .replicas(n.div_ceil(4), &DeviceSpec::t4())
                    .router(RouterPolicy::LeastLoaded)
                    .link(LinkSpec::pcie_gen4())
                    .workload(fleet_workload(scale.sweep_requests, mid_rate))
            })
        }),
        // Tight KV memory: per-replica pools capped so decode growth
        // collides and eviction spill-over migrates KV between replicas.
        Box::new(|| {
            run_fleet("tight-kv/evict-migrate", mid_rate, || {
                let model = ModelConfig::gpt_neo_1_3b();
                homogeneous(n, scale.sweep_requests, mid_rate).workload(ServeConfig {
                    kv_capacity_bytes: Some(kv_bytes_per_token(&model) * 2048),
                    ..fleet_workload(scale.sweep_requests, mid_rate)
                })
            })
        }),
        // Fault scenario: one replica drains gracefully (KV migrates), one
        // fails abruptly (KV lost) while traffic keeps arriving.
        Box::new(|| {
            run_fleet("faults/drain+fail", mid_rate, || {
                homogeneous(n, scale.sweep_requests, mid_rate)
                    .drain_at(0, 1.0)
                    .fail_at(1, 2.0)
            })
        }),
        // Disaggregation: the same hardware split into dedicated prefill
        // and decode replicas, against a colocated reference at the same
        // arrival rate, swept over the handoff interconnect — the link is
        // the knob that decides whether the phase split pays.
        Box::new(|| {
            run_fleet("disagg/unified-ref", mid_rate, || {
                homogeneous(n, scale.sweep_requests, mid_rate)
            })
        }),
        Box::new(|| {
            run_fleet("disagg/nvlink", mid_rate, || {
                disaggregated(n, scale.sweep_requests, mid_rate, LinkSpec::nvlink())
            })
        }),
        Box::new(|| {
            run_fleet("disagg/pcie-gen4", mid_rate, || {
                disaggregated(n, scale.sweep_requests, mid_rate, LinkSpec::pcie_gen4())
            })
        }),
        Box::new(|| {
            run_fleet("disagg/100gbe", mid_rate, || {
                disaggregated(n, scale.sweep_requests, mid_rate, LinkSpec::ethernet_100g())
            })
        }),
    ];
    let mut rows = sweep;
    rows.extend(all_ok(resoftmax_parallel::parallel_map(
        &scenarios,
        |_, f| f(),
    ))?);

    Ok(FleetBench {
        slo_ttft_p99_s: SLO_TTFT_P99_S,
        knee_rate_hz,
        rows,
    })
}

/// Fleet serving simulation: Poisson traffic over a modeled multi-GPU
/// cluster (8 replicas), swept over arrival rate to locate the TTFT SLO
/// knee, plus router-policy, heterogeneous-fleet, tight-memory,
/// fault-scenario, and prefill/decode-disaggregation rows (unified vs
/// disaggregated at the same arrival rate, swept over NVLink / PCIe /
/// 100GbE handoff links). Writes `BENCH_fleet.json`.
///
/// The *knee* is the first swept arrival rate whose TTFT p99 exceeds the
/// SLO (1 simulated second): below it admission keeps up, above it queues
/// grow without bound and tail latency explodes.
pub fn fleet_sim(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let scale = if args.smoke {
        FleetScale::smoke()
    } else {
        FleetScale::full()
    };
    let bench = if args.smoke {
        determinism_gate("fleet", || fleet_bench(&scale))?
    } else {
        fleet_bench(&scale)?
    };

    for r in &bench.rows {
        let rep = &r.report;
        println!(
            "{:<22} {:6.1} req/s  {:>6} reqs  {:8.1} tok/s  ttft p50/p99 \
             {:6.3}/{:6.3}s  tbt p50 {:5.1}ms  evict {:4}  migr {:4} \
             ({:5.1} MB)  hoff {:5} ({:7.1} MB)  slo {}",
            r.label,
            r.arrival_rate_hz,
            rep.completed,
            rep.decode_tokens_per_s,
            rep.ttft.p50_s,
            rep.ttft.p99_s,
            rep.tbt.p50_s * 1e3,
            rep.evictions,
            rep.migrations,
            rep.kv_migrated_bytes as f64 / 1e6,
            rep.handoffs,
            rep.kv_handoff_bytes as f64 / 1e6,
            if r.meets_slo { "ok" } else { "MISS" },
        );
    }
    println!(
        "SLO knee: {:.1} req/s at TTFT p99 <= {:.1}s",
        bench.knee_rate_hz, bench.slo_ttft_p99_s
    );
    // Unified-vs-disaggregated comparison at the shared arrival rate: TTFT
    // moves with the dedicated prefill pool, TBT absorbs the per-request
    // handoff, and the link preset decides how much.
    if let Some(unified) = bench.rows.iter().find(|r| r.label == "disagg/unified-ref") {
        let pct = |new: f64, old: f64| (new / old - 1.0) * 100.0;
        println!(
            "\nunified vs disaggregated at {:.1} req/s:\n  {:<22} ttft p50/p99 \
             {:.3}/{:.3}s  tbt p50 {:.1}ms  (colocated reference)",
            unified.arrival_rate_hz,
            unified.label,
            unified.report.ttft.p50_s,
            unified.report.ttft.p99_s,
            unified.report.tbt.p50_s * 1e3,
        );
        for r in bench
            .rows
            .iter()
            .filter(|r| r.label.starts_with("disagg/") && r.label != "disagg/unified-ref")
        {
            println!(
                "  {:<22} ttft p50/p99 {:.3}/{:.3}s ({:+.1}% / {:+.1}%)  tbt p50 \
                 {:.1}ms ({:+.1}%)  handoff {:.3}s wire time",
                r.label,
                r.report.ttft.p50_s,
                r.report.ttft.p99_s,
                pct(r.report.ttft.p50_s, unified.report.ttft.p50_s),
                pct(r.report.ttft.p99_s, unified.report.ttft.p99_s),
                r.report.tbt.p50_s * 1e3,
                pct(r.report.tbt.p50_s, unified.report.tbt.p50_s),
                r.report.kv_handoff_time_s,
            );
        }
    }
    write_report(&args.out_path("BENCH_fleet.json"), &bench)
}

#[derive(Debug, Clone, Serialize)]
struct CtrlRow {
    scenario: String,
    label: String,
    adaptive: bool,
    report: FleetReport,
}

#[derive(Debug, Serialize)]
struct Headline {
    burst_adaptive_ttft_p99_s: f64,
    burst_best_static_ttft_p99_s: f64,
    burst_best_static_label: String,
    /// TTFT p99 improvement of adaptive over the best static burst fleet.
    burst_ttft_p99_speedup: f64,
    /// Adaptive-vs-static TTFT p99 ratio in steady state (≈ 1.0: the
    /// controller must cost nothing when there is nothing to adapt to).
    steady_parity_ratio: f64,
}

#[derive(Debug, Serialize)]
struct CtrlBench {
    headline: Headline,
    rows: Vec<CtrlRow>,
}

struct CtrlScale {
    burst: usize,
    steady: usize,
    diurnal: usize,
    overload: usize,
}

impl CtrlScale {
    fn full() -> Self {
        CtrlScale {
            burst: 1200,
            steady: 400,
            diurnal: 800,
            overload: 600,
        }
    }

    fn smoke() -> Self {
        CtrlScale {
            burst: 96,
            steady: 48,
            diurnal: 96,
            overload: 96,
        }
    }
}

/// Two A100s' worth of base capacity at `max_batch` 4 sits near 9 req/s for
/// the default prompt/decode mix — the phase rates below are chosen around
/// that: steady under it, bursts far over it.
fn ctrl_workload(requests: usize) -> ServeConfig {
    ServeConfig {
        requests,
        max_batch: 4,
        max_iterations: 100_000_000,
        ..ServeConfig::default()
    }
}

fn ctrl_base_builder() -> FleetBuilder<'static> {
    FleetBuilder::new()
        .model(ModelConfig::gpt_neo_1_3b())
        .params(RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Recomposed))
        .router(RouterPolicy::LeastLoaded)
        .link(LinkSpec::nvlink())
}

fn run_static(
    scenario: &str,
    policy: Policy,
    cfg: &ServeConfig,
    trace: &[Arrival],
) -> Result<CtrlRow, Error> {
    let cfg = ServeConfig {
        policy,
        ..cfg.clone()
    };
    let report = ctrl_base_builder()
        .replicas(2, &DeviceSpec::a100())
        .arrivals(trace.to_vec())
        .workload(cfg)
        .build()?
        .run()?;
    assert_eq!(report.completed, report.submitted);
    Ok(CtrlRow {
        scenario: scenario.to_owned(),
        label: format!("static/{}", policy.name()),
        adaptive: false,
        report,
    })
}

fn run_adaptive(
    scenario: &str,
    controller: &Controller,
    cfg: &ServeConfig,
    trace: &[Arrival],
    disaggregated: bool,
) -> Result<CtrlRow, Error> {
    let mut builder = ctrl_base_builder();
    builder = if disaggregated {
        builder
            .prefill_replicas(1, &DeviceSpec::a100())
            .decode_replicas(2, &DeviceSpec::a100())
            .standby_decode_replicas(2, &DeviceSpec::a100())
    } else {
        builder
            .replicas(2, &DeviceSpec::a100())
            .standby_replicas(2, &DeviceSpec::a100())
    };
    let report = builder
        .arrivals(trace.to_vec())
        .control_plane(controller)
        .workload(cfg.clone())
        .build()?
        .run()?;
    assert_eq!(report.completed, report.submitted);
    Ok(CtrlRow {
        scenario: scenario.to_owned(),
        label: "adaptive/controller".to_owned(),
        adaptive: true,
        report,
    })
}

/// The static row of `scenario` with the lowest TTFT p99, and the
/// scenario's adaptive row.
fn best_static_and_adaptive<'a>(
    rows: &'a [CtrlRow],
    scenario: &str,
) -> Result<(&'a CtrlRow, &'a CtrlRow), Error> {
    let missing = || Error::failed(format!("ctrl scenario `{scenario}` lacks a row"));
    let best = rows
        .iter()
        .filter(|r| r.scenario == scenario && !r.adaptive)
        .min_by(|a, b| a.report.ttft.p99_s.total_cmp(&b.report.ttft.p99_s))
        .ok_or_else(missing)?;
    let adaptive = rows
        .iter()
        .find(|r| r.scenario == scenario && r.adaptive)
        .ok_or_else(missing)?;
    Ok((best, adaptive))
}

fn ctrl_bench(scale: &CtrlScale) -> Result<CtrlBench, Error> {
    let statics = [
        Policy::Fifo,
        Policy::ShortestRemaining,
        Policy::PreemptivePriority,
    ];
    // The regime→knob table is priced through the tuner (TuneDb-backed):
    // the same persisted-cacheable search that tunes kernels also seeds the
    // controller's chunk budgets and overload admission rate.
    let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
    let model = ModelConfig::gpt_neo_1_3b();
    let tuned_table = PolicyTable::tuned(&tuner, &model, &DeviceSpec::a100(), &ctrl_workload(0))?;
    let mut rows: Vec<CtrlRow> = Vec::new();

    // Scenario 1 — steady parity guard: comfortable constant rate; the
    // controller must not scale, and must match the static fleet.
    let steady_cfg = ctrl_workload(scale.steady);
    let steady_trace = phased_arrivals(&steady_cfg, &[(1.0, 5.0)])?;
    for p in statics {
        rows.push(run_static("steady", p, &steady_cfg, &steady_trace)?);
    }
    let steady_ctrl = Controller::new(tuned_table.clone());
    let steady_adaptive = run_adaptive("steady", &steady_ctrl, &steady_cfg, &steady_trace, false)?;
    assert_eq!(
        steady_adaptive.report.scale_ups, 0,
        "steady state must not scale up"
    );
    assert_eq!(
        steady_adaptive.report.scale_downs, 0,
        "steady state must not scale down"
    );
    rows.push(steady_adaptive);

    // Scenario 2 — square-wave burst (HEADLINE): 2 s bursts at 4× the base
    // capacity against 4 s calm valleys. Statics are stuck with their two
    // replicas; the controller recruits the standbys each burst and
    // releases them each valley.
    let burst_cfg = ctrl_workload(scale.burst);
    let burst_trace = phased_arrivals(&burst_cfg, &[(4.0, 5.0), (2.0, 36.0)])?;
    for p in statics {
        rows.push(run_static("burst", p, &burst_cfg, &burst_trace)?);
    }
    let burst_ctrl = Controller::new(tuned_table.clone());
    let burst_adaptive = run_adaptive("burst", &burst_ctrl, &burst_cfg, &burst_trace, false)?;
    assert!(
        burst_adaptive.report.scale_ups >= 1,
        "the burst must recruit standby capacity"
    );
    rows.push(burst_adaptive);

    // Scenario 3 — diurnal ramp on a disaggregated fleet: arrival rate
    // climbs over and back under the two dedicated decode replicas'
    // capacity; standby decode replicas absorb the peak and drain off it.
    let diurnal_cfg = ctrl_workload(scale.diurnal);
    let diurnal_trace = phased_arrivals(
        &diurnal_cfg,
        &[
            (2.0, 2.0),
            (2.0, 5.0),
            (2.0, 10.0),
            (2.0, 16.0),
            (2.0, 10.0),
            (2.0, 5.0),
        ],
    )?;
    for p in statics {
        rows.push(run_static("diurnal", p, &diurnal_cfg, &diurnal_trace)?);
    }
    // The ramp crests gently compared to the square-wave burst, so this
    // controller scales at lower pressure (and cools down longer, keeping
    // the churn bound tight).
    let diurnal_ctrl = Controller::with_config(
        PolicyTable::static_default(&diurnal_cfg),
        ControllerConfig {
            scale_up_load: 1.0,
            scale_down_load: 0.3,
            cooldown_s: 1.5,
            ..ControllerConfig::default()
        },
    );
    let diurnal_adaptive =
        run_adaptive("diurnal", &diurnal_ctrl, &diurnal_cfg, &diurnal_trace, true)?;
    assert!(
        diurnal_adaptive.report.scale_ups >= 1,
        "the ramp peak must scale decode capacity up"
    );
    assert!(
        diurnal_adaptive.report.scale_downs >= 1,
        "the ramp trough must scale decode capacity back down"
    );
    // The ramp phases average 8 req/s over a 12 s cycle; hysteresis must
    // bound churn to at most two scale-up/down pairs per cycle — tracking
    // the diurnal wave is adaptation, re-deciding within one is flap.
    let diurnal_cycles = (scale.diurnal as f64 / (8.0 * 12.0)).ceil();
    let churn_cap = (4.0 * diurnal_cycles) as usize;
    assert!(
        diurnal_adaptive.report.scale_ups + diurnal_adaptive.report.scale_downs <= churn_cap,
        "hysteresis must bound scaling churn, got {} ups / {} downs over ~{} cycles",
        diurnal_adaptive.report.scale_ups,
        diurnal_adaptive.report.scale_downs,
        diurnal_cycles
    );
    rows.push(diurnal_adaptive);

    // Scenario 4 — overload recovery: a hard overshoot, then a long calm
    // tail. The tuned table meters admission under overload and the
    // decision log must show the regime entering *and* leaving overload.
    let overload_cfg = ctrl_workload(scale.overload);
    // The spike has to outrun the controller's scale-up (one replica per
    // cooldown) for the classifier to reach overload before capacity
    // catches up — hence 64 req/s, an order of magnitude over base.
    let overload_trace = phased_arrivals(&overload_cfg, &[(1.0, 5.0), (1.5, 64.0), (60.0, 3.0)])?;
    for p in statics {
        rows.push(run_static("overload", p, &overload_cfg, &overload_trace)?);
    }
    let overload_ctrl = Controller::new(tuned_table);
    let overload_adaptive = run_adaptive(
        "overload",
        &overload_ctrl,
        &overload_cfg,
        &overload_trace,
        false,
    )?;
    let regimes: Vec<&str> = overload_adaptive
        .report
        .decisions
        .iter()
        .map(|d| d.regime.as_str())
        .collect();
    let Some(entered) = regimes.iter().position(|&r| r == "overload") else {
        panic!("the overshoot must classify as overload");
    };
    assert!(
        regimes[entered..].iter().any(|&r| r != "overload"),
        "the calm tail must recover out of overload"
    );
    assert!(
        overload_adaptive.report.decisions.iter().any(|d| {
            d.actions
                .iter()
                .zip(&d.applied)
                .any(|(a, &ok)| ok && matches!(a, ControlAction::SetAdmission { .. }))
        }),
        "overload must arm tuned admission control"
    );
    rows.push(overload_adaptive);

    // Headline numbers + acceptance gates.
    let (burst_best, burst_adaptive) = best_static_and_adaptive(&rows, "burst")?;
    assert!(
        burst_adaptive.report.completed >= burst_best.report.completed,
        "adaptive must complete no fewer requests than the best static"
    );
    assert!(
        burst_adaptive.report.ttft.p99_s <= burst_best.report.ttft.p99_s,
        "HEADLINE: adaptive TTFT p99 {:.3}s must beat best static ({}) {:.3}s",
        burst_adaptive.report.ttft.p99_s,
        burst_best.label,
        burst_best.report.ttft.p99_s
    );
    let (steady_best, steady_adaptive) = best_static_and_adaptive(&rows, "steady")?;
    let steady_parity_ratio = steady_adaptive.report.ttft.p99_s / steady_best.report.ttft.p99_s;
    assert!(
        steady_parity_ratio <= 1.05,
        "adaptive must match the best static in steady state, ratio {steady_parity_ratio:.3}"
    );

    let headline = Headline {
        burst_adaptive_ttft_p99_s: burst_adaptive.report.ttft.p99_s,
        burst_best_static_ttft_p99_s: burst_best.report.ttft.p99_s,
        burst_best_static_label: burst_best.label.clone(),
        burst_ttft_p99_speedup: burst_best.report.ttft.p99_s / burst_adaptive.report.ttft.p99_s,
        steady_parity_ratio,
    };
    Ok(CtrlBench { headline, rows })
}

/// Adaptive control-plane benchmark: static fleets vs a `resoftmax-ctrl`
/// controller under phase-shifting workloads (square-wave burst, diurnal
/// ramp, overload recovery, plus a steady-state parity guard). Writes
/// `BENCH_ctrl.json`.
///
/// Every scenario pins one arrival trace (via `phased_arrivals`) and runs
/// it through static fleets — one per scheduling policy on the base
/// replica set — and through an adaptive fleet: the same base replicas
/// plus standby capacity only the controller can recruit. The headline is
/// the square-wave burst: the adaptive fleet must beat the best static
/// configuration on TTFT p99 while the steady scenario shows it matches the
/// static fleet when there is nothing to adapt to.
pub fn ctrl_sim(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let scale = if args.smoke {
        CtrlScale::smoke()
    } else {
        CtrlScale::full()
    };
    let bench = if args.smoke {
        determinism_gate("ctrl", || ctrl_bench(&scale))?
    } else {
        ctrl_bench(&scale)?
    };

    for r in &bench.rows {
        let rep = &r.report;
        println!(
            "{:<10} {:<22} {:>6} reqs  ttft p50/p99 {:7.3}/{:7.3}s  tbt p50 \
             {:5.1}ms  preempt {:4}  scale +{}/-{}  decisions {:4}",
            r.scenario,
            r.label,
            rep.completed,
            rep.ttft.p50_s,
            rep.ttft.p99_s,
            rep.tbt.p50_s * 1e3,
            rep.preemptions,
            rep.scale_ups,
            rep.scale_downs,
            rep.decisions.len(),
        );
    }
    let h = &bench.headline;
    println!(
        "\nheadline: burst TTFT p99 adaptive {:.3}s vs best static {:.3}s ({}) — \
         {:.2}x better; steady parity ratio {:.3}",
        h.burst_adaptive_ttft_p99_s,
        h.burst_best_static_ttft_p99_s,
        h.burst_best_static_label,
        h.burst_ttft_p99_speedup,
        h.steady_parity_ratio,
    );
    write_report(&args.out_path("BENCH_ctrl.json"), &bench)
}
