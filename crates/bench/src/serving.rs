//! The serving results: one continuous-batching replica
//! (`BENCH_serve.json`), a fleet (`BENCH_fleet.json`) and the adaptive
//! control plane (`BENCH_ctrl.json`). All their metrics live on the
//! simulated clock, so under `--smoke` each passes the determinism gate,
//! which compares the full reports, decision logs included. Each file then
//! holds [`BenchRow`]s: every cell's report flattened by [`report_rows`].

use resoftmax_bench::{determinism_gate, write_report, BenchArgs, Error};
use resoftmax_core::experiments::{BenchRow, PAPER_SEQ_LEN};
use resoftmax_ctrl::{Controller, ControllerConfig, PolicyTable};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{
    kv_bytes_per_token, phased_arrivals, Arrival, ControlAction, FleetBuilder, FleetReport,
    LinkSpec, Policy, RouterPolicy, ServeConfig,
};
use resoftmax_tune::{SearchMode, SearchSpace, Tuner};
use serde::{Serialize, Value};

/// A grid cell's label (`baseline/fifo`, `burst/adaptive/controller`) and
/// its report.
type Cell = (String, FleetReport);

/// The rows of one cell's report: one per numeric or boolean field outside
/// the decision log, named by its field path (`ttft.p99_s`,
/// `replicas.3.busy_s`; a boolean as 0 or 1), and a `decisions` row
/// holding the log's length. String fields name the cell's configuration
/// (strategy, policy, router, link, device, role) and have no row.
fn report_rows(bin: &str, config: &str, report: &FleetReport) -> Vec<BenchRow> {
    let mut leaves = Vec::new();
    let value = report.to_value();
    for (name, field) in value.as_object().expect("a struct serializes as an object") {
        if name == "decisions" {
            leaves.push((name.clone(), report.decisions.len() as f64));
        } else {
            numeric_leaves(name, field, &mut leaves);
        }
    }
    leaves
        .into_iter()
        .map(|(metric, x)| BenchRow::new(bin, config, metric, x))
        .collect()
}

/// Appends `(path, value)` for every number or boolean in `value`, which
/// sits at `path`; an object's fields and an array's items extend the path
/// with `.name` and `.index`.
fn numeric_leaves(path: &str, value: &Value, out: &mut Vec<(String, f64)>) {
    match value {
        Value::Bool(b) => out.push((path.to_owned(), flag(*b))),
        Value::I64(_) | Value::U64(_) | Value::F64(_) => {
            out.push((path.to_owned(), value.as_f64().expect("a number")));
        }
        Value::Array(items) => {
            for (i, item) in items.iter().enumerate() {
                numeric_leaves(&format!("{path}.{i}"), item, out);
            }
        }
        Value::Object(fields) => {
            for (name, field) in fields {
                numeric_leaves(&format!("{path}.{name}"), field, out);
            }
        }
        Value::Str(_) | Value::Null => {}
    }
}

/// A boolean as a row value.
fn flag(b: bool) -> f64 {
    f64::from(u8::from(b))
}

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
    let cells = if args.smoke {
        determinism_gate("serve", serve_grid)?
    } else {
        serve_grid()?
    };

    for (label, r) in &cells {
        assert_eq!(r.completed, 64, "{label}: all requests must complete");
        assert!(r.evictions > 0, "{label}: pool cap must force evictions");
        assert!(
            r.ttft.p99_s > r.ttft.p50_s && r.tbt.max_s > 0.0,
            "{label}: latency percentiles must be non-degenerate"
        );
        println!(
            "{label:<29} {:7.1} tok/s  ttft p50/p99 {:6.3}/{:6.3}s  \
             tbt p50/p99 {:6.1}/{:6.1}ms  kv peak {:4.1}%  evictions {:3}  iters {}",
            r.decode_tokens_per_s,
            r.ttft.p50_s,
            r.ttft.p99_s,
            r.tbt.p50_s * 1e3,
            r.tbt.p99_s * 1e3,
            r.replicas[0].kv_peak_occupancy * 100.0,
            r.evictions,
            r.iterations,
        );
    }
    let rows: Vec<BenchRow> = cells
        .iter()
        .flat_map(|(label, r)| report_rows("serve_sim", label, r))
        .collect();
    write_report(&args.out_path("BENCH_serve.json"), &rows)
}

fn serve_grid() -> Result<Vec<Cell>, Error> {
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
            let report = FleetBuilder::new()
                .model(model.clone())
                .params(RunParams::new(PAPER_SEQ_LEN).strategy(strategy))
                .replica(device.clone())
                .workload(workload)
                .build()?
                .run()?;
            Ok((format!("{}/{}", report.strategy, report.policy), report))
        },
    ))
}

/// TTFT service-level objective of the fleet sweep, simulated seconds.
const SLO_TTFT_P99_S: f64 = 1.0;

/// A fleet cell: its label (`sweep/16hz`) and arrival rate, and its report.
type FleetCell = ((String, f64), FleetReport);

fn meets_slo(report: &FleetReport) -> bool {
    report.ttft.p99_s <= SLO_TTFT_P99_S
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
) -> Result<FleetCell, resoftmax_serve::Error> {
    let report = build().build()?.run()?;
    assert_eq!(
        report.completed, report.submitted,
        "{label}: every submitted request must complete"
    );
    Ok(((label.to_owned(), rate_hz), report))
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

type FleetRun<'a> = Box<dyn Fn() -> Result<FleetCell, resoftmax_serve::Error> + Sync + 'a>;

/// The fleet cells at `scale`, after the SLO knee the sweep found.
fn fleet_bench(scale: &FleetScale) -> Result<(f64, Vec<FleetCell>), Error> {
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
        .find(|(_, report)| !meets_slo(report))
        .or_else(|| sweep.last())
        .map(|((_, rate), _)| *rate)
        .ok_or_else(|| Error::failed("fleet sweep has no rates"))?;

    // Stage 2: scenario rows at fixed rates (again independent).
    let mid_rate = scale.sweep_rates[scale.sweep_rates.len() / 2];
    let scenarios: Vec<FleetRun<'_>> = vec![
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
    let mut cells = sweep;
    cells.extend(all_ok(resoftmax_parallel::parallel_map(
        &scenarios,
        |_, f| f(),
    ))?);
    Ok((knee_rate_hz, cells))
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
    let (knee_rate_hz, cells) = if args.smoke {
        determinism_gate("fleet", || fleet_bench(&scale))?
    } else {
        fleet_bench(&scale)?
    };

    for ((label, rate), rep) in &cells {
        println!(
            "{:<22} {:6.1} req/s  {:>6} reqs  {:8.1} tok/s  ttft p50/p99 \
             {:6.3}/{:6.3}s  tbt p50 {:5.1}ms  evict {:4}  migr {:4} \
             ({:5.1} MB)  hoff {:5} ({:7.1} MB)  slo {}",
            label,
            rate,
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
            if meets_slo(rep) { "ok" } else { "MISS" },
        );
    }
    println!("SLO knee: {knee_rate_hz:.1} req/s at TTFT p99 <= {SLO_TTFT_P99_S:.1}s");
    // Unified-vs-disaggregated comparison at the shared arrival rate: TTFT
    // moves with the dedicated prefill pool, TBT absorbs the per-request
    // handoff, and the link preset decides how much.
    if let Some(((_, rate), unified)) = cells.iter().find(|((l, _), _)| l == "disagg/unified-ref") {
        let pct = |new: f64, old: f64| (new / old - 1.0) * 100.0;
        println!(
            "\nunified vs disaggregated at {rate:.1} req/s:\n  {:<22} ttft p50/p99 \
             {:.3}/{:.3}s  tbt p50 {:.1}ms  (colocated reference)",
            "disagg/unified-ref",
            unified.ttft.p50_s,
            unified.ttft.p99_s,
            unified.tbt.p50_s * 1e3,
        );
        for ((label, _), r) in cells
            .iter()
            .filter(|((l, _), _)| l.starts_with("disagg/") && l != "disagg/unified-ref")
        {
            println!(
                "  {:<22} ttft p50/p99 {:.3}/{:.3}s ({:+.1}% / {:+.1}%)  tbt p50 \
                 {:.1}ms ({:+.1}%)  handoff {:.3}s wire time",
                label,
                r.ttft.p50_s,
                r.ttft.p99_s,
                pct(r.ttft.p50_s, unified.ttft.p50_s),
                pct(r.ttft.p99_s, unified.ttft.p99_s),
                r.tbt.p50_s * 1e3,
                pct(r.tbt.p50_s, unified.tbt.p50_s),
                r.kv_handoff_time_s,
            );
        }
    }

    let mut rows = vec![
        BenchRow::new("fleet_sim", "knee", "slo_ttft_p99_s", SLO_TTFT_P99_S),
        BenchRow::new("fleet_sim", "knee", "knee_rate_hz", knee_rate_hz),
    ];
    for ((label, rate), report) in &cells {
        rows.push(BenchRow::new("fleet_sim", label, "arrival_rate_hz", *rate));
        rows.push(BenchRow::new(
            "fleet_sim",
            label,
            "meets_slo",
            flag(meets_slo(report)),
        ));
        rows.extend(report_rows("fleet_sim", label, report));
    }
    write_report(&args.out_path("BENCH_fleet.json"), &rows)
}

/// The label suffix of a ctrl scenario's adaptive cell; its static cells
/// are `<scenario>/static/<policy>`.
const ADAPTIVE: &str = "adaptive/controller";

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
) -> Result<Cell, Error> {
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
    Ok((format!("{scenario}/static/{}", policy.name()), report))
}

fn run_adaptive(
    scenario: &str,
    controller: &Controller,
    cfg: &ServeConfig,
    trace: &[Arrival],
    disaggregated: bool,
) -> Result<Cell, Error> {
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
    Ok((format!("{scenario}/{ADAPTIVE}"), report))
}

/// The static cell of `scenario` with the lowest TTFT p99, and the
/// scenario's adaptive cell.
fn best_static_and_adaptive<'a>(
    cells: &'a [Cell],
    scenario: &str,
) -> Result<(&'a Cell, &'a Cell), Error> {
    let missing = || Error::failed(format!("ctrl scenario `{scenario}` lacks a cell"));
    let statics = format!("{scenario}/static/");
    let best = cells
        .iter()
        .filter(|(label, _)| label.starts_with(&statics))
        .min_by(|(_, a), (_, b)| a.ttft.p99_s.total_cmp(&b.ttft.p99_s))
        .ok_or_else(missing)?;
    let adaptive = format!("{scenario}/{ADAPTIVE}");
    let adaptive = cells
        .iter()
        .find(|(label, _)| *label == adaptive)
        .ok_or_else(missing)?;
    Ok((best, adaptive))
}

/// The headline rows, after their acceptance gates: the adaptive fleet's
/// TTFT p99 under the square-wave burst against the best static fleet's,
/// and its steady-state parity ratio (≈ 1.0: the controller must cost
/// nothing when there is nothing to adapt to).
fn headline_rows(cells: &[Cell]) -> Result<Vec<BenchRow>, Error> {
    let ((best_label, burst_best), (_, burst_adaptive)) = best_static_and_adaptive(cells, "burst")?;
    assert!(
        burst_adaptive.completed >= burst_best.completed,
        "adaptive must complete no fewer requests than the best static"
    );
    assert!(
        burst_adaptive.ttft.p99_s <= burst_best.ttft.p99_s,
        "HEADLINE: adaptive TTFT p99 {:.3}s must beat best static ({best_label}) {:.3}s",
        burst_adaptive.ttft.p99_s,
        burst_best.ttft.p99_s
    );
    let ((_, steady_best), (_, steady_adaptive)) = best_static_and_adaptive(cells, "steady")?;
    let steady_parity_ratio = steady_adaptive.ttft.p99_s / steady_best.ttft.p99_s;
    assert!(
        steady_parity_ratio <= 1.05,
        "adaptive must match the best static in steady state, ratio {steady_parity_ratio:.3}"
    );
    let speedup = burst_best.ttft.p99_s / burst_adaptive.ttft.p99_s;
    println!(
        "\nheadline: burst TTFT p99 adaptive {:.3}s vs best static {:.3}s ({best_label}) — \
         {speedup:.2}x better; steady parity ratio {steady_parity_ratio:.3}",
        burst_adaptive.ttft.p99_s, burst_best.ttft.p99_s,
    );
    Ok([
        ("burst_adaptive_ttft_p99_s", burst_adaptive.ttft.p99_s),
        ("burst_best_static_ttft_p99_s", burst_best.ttft.p99_s),
        ("burst_ttft_p99_speedup", speedup),
        ("steady_parity_ratio", steady_parity_ratio),
    ]
    .into_iter()
    .map(|(metric, value)| BenchRow::new("ctrl_sim", "headline", metric, value))
    .collect())
}

fn ctrl_bench(scale: &CtrlScale) -> Result<Vec<Cell>, Error> {
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
    let mut cells: Vec<Cell> = Vec::new();

    // Scenario 1 — steady parity guard: comfortable constant rate; the
    // controller must not scale, and must match the static fleet.
    let steady_cfg = ctrl_workload(scale.steady);
    let steady_trace = phased_arrivals(&steady_cfg, &[(1.0, 5.0)])?;
    for p in statics {
        cells.push(run_static("steady", p, &steady_cfg, &steady_trace)?);
    }
    let steady_ctrl = Controller::new(tuned_table.clone());
    let steady_adaptive = run_adaptive("steady", &steady_ctrl, &steady_cfg, &steady_trace, false)?;
    assert_eq!(
        steady_adaptive.1.scale_ups, 0,
        "steady state must not scale up"
    );
    assert_eq!(
        steady_adaptive.1.scale_downs, 0,
        "steady state must not scale down"
    );
    cells.push(steady_adaptive);

    // Scenario 2 — square-wave burst (HEADLINE): 2 s bursts at 4× the base
    // capacity against 4 s calm valleys. Statics are stuck with their two
    // replicas; the controller recruits the standbys each burst and
    // releases them each valley.
    let burst_cfg = ctrl_workload(scale.burst);
    let burst_trace = phased_arrivals(&burst_cfg, &[(4.0, 5.0), (2.0, 36.0)])?;
    for p in statics {
        cells.push(run_static("burst", p, &burst_cfg, &burst_trace)?);
    }
    let burst_ctrl = Controller::new(tuned_table.clone());
    let burst_adaptive = run_adaptive("burst", &burst_ctrl, &burst_cfg, &burst_trace, false)?;
    assert!(
        burst_adaptive.1.scale_ups >= 1,
        "the burst must recruit standby capacity"
    );
    cells.push(burst_adaptive);

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
        cells.push(run_static("diurnal", p, &diurnal_cfg, &diurnal_trace)?);
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
        diurnal_adaptive.1.scale_ups >= 1,
        "the ramp peak must scale decode capacity up"
    );
    assert!(
        diurnal_adaptive.1.scale_downs >= 1,
        "the ramp trough must scale decode capacity back down"
    );
    // The ramp phases average 8 req/s over a 12 s cycle; hysteresis must
    // bound churn to at most two scale-up/down pairs per cycle — tracking
    // the diurnal wave is adaptation, re-deciding within one is flap.
    let diurnal_cycles = (scale.diurnal as f64 / (8.0 * 12.0)).ceil();
    let churn_cap = (4.0 * diurnal_cycles) as usize;
    assert!(
        diurnal_adaptive.1.scale_ups + diurnal_adaptive.1.scale_downs <= churn_cap,
        "hysteresis must bound scaling churn, got {} ups / {} downs over ~{} cycles",
        diurnal_adaptive.1.scale_ups,
        diurnal_adaptive.1.scale_downs,
        diurnal_cycles
    );
    cells.push(diurnal_adaptive);

    // Scenario 4 — overload recovery: a hard overshoot, then a long calm
    // tail. The tuned table meters admission under overload and the
    // decision log must show the regime entering *and* leaving overload.
    let overload_cfg = ctrl_workload(scale.overload);
    // The spike has to outrun the controller's scale-up (one replica per
    // cooldown) for the classifier to reach overload before capacity
    // catches up — hence 64 req/s, an order of magnitude over base.
    let overload_trace = phased_arrivals(&overload_cfg, &[(1.0, 5.0), (1.5, 64.0), (60.0, 3.0)])?;
    for p in statics {
        cells.push(run_static("overload", p, &overload_cfg, &overload_trace)?);
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
        .1
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
        overload_adaptive.1.decisions.iter().any(|d| {
            d.actions
                .iter()
                .zip(&d.applied)
                .any(|(a, &ok)| ok && matches!(a, ControlAction::SetAdmission { .. }))
        }),
        "overload must arm tuned admission control"
    );
    cells.push(overload_adaptive);
    Ok(cells)
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
    let cells = if args.smoke {
        determinism_gate("ctrl", || ctrl_bench(&scale))?
    } else {
        ctrl_bench(&scale)?
    };

    for (label, rep) in &cells {
        println!(
            "{label:<33} {:>6} reqs  ttft p50/p99 {:7.3}/{:7.3}s  tbt p50 \
             {:5.1}ms  preempt {:4}  scale +{}/-{}  decisions {:4}",
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
    let mut rows = headline_rows(&cells)?;
    for (label, report) in &cells {
        rows.push(BenchRow::new(
            "ctrl_sim",
            label,
            "adaptive",
            flag(label.ends_with(ADAPTIVE)),
        ));
        rows.extend(report_rows("ctrl_sim", label, report));
    }
    write_report(&args.out_path("BENCH_ctrl.json"), &rows)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;

    /// A small controlled fleet with a standby replica, so its report has a
    /// decision log and a replica list to flatten.
    fn controlled_report() -> FleetReport {
        let cfg = ServeConfig {
            requests: 24,
            prompt_tokens: (64, 128),
            decode_tokens: (4, 8),
            max_batch: 4,
            prefill_chunk: 64,
            ..ServeConfig::default()
        };
        let controller = Controller::new(PolicyTable::static_default(&cfg));
        let trace = phased_arrivals(&cfg, &[(0.5, 4.0), (0.5, 48.0)]).expect("valid phases");
        FleetBuilder::new()
            .model(ModelConfig::gpt_neo_1_3b())
            .params(RunParams::new(PAPER_SEQ_LEN))
            .replicas(1, &DeviceSpec::a100())
            .standby_replicas(1, &DeviceSpec::a100())
            .arrivals(trace)
            .control_plane(&controller)
            .workload(cfg)
            .build()
            .expect("a valid fleet")
            .run()
            .expect("the fleet completes")
    }

    /// The value at the field path `path` of `value`.
    fn at<'a>(value: &'a Value, path: &str) -> &'a Value {
        path.split('.')
            .fold(value, |v, key| match key.parse::<usize>() {
                Ok(i) => &v[i],
                Err(_) => &v[key],
            })
    }

    /// Numbers and booleans under `value`.
    fn leaf_count(value: &Value) -> usize {
        match value {
            Value::Array(items) => items.iter().map(leaf_count).sum(),
            Value::Object(fields) => fields.iter().map(|(_, v)| leaf_count(v)).sum(),
            Value::Str(_) | Value::Null => 0,
            _ => 1,
        }
    }

    #[test]
    fn a_report_flattens_to_one_row_per_numeric_leaf() {
        let report = controlled_report();
        assert!(!report.decisions.is_empty(), "the controller must decide");
        assert_eq!(report.replicas.len(), 2);
        let rows = report_rows("ctrl_sim", "burst/adaptive/controller", &report);
        let value = report.to_value();

        // One row per number or boolean outside the decision log, plus the
        // log's length, each under its own metric.
        let outside: usize = value
            .as_object()
            .expect("an object")
            .iter()
            .filter(|(name, _)| name != "decisions")
            .map(|(_, field)| leaf_count(field))
            .sum();
        assert_eq!(rows.len(), outside + 1);
        let metrics: BTreeSet<&str> = rows.iter().map(|r| r.metric.as_str()).collect();
        assert_eq!(metrics.len(), rows.len(), "metrics repeat");

        // Every metric is the field path of the leaf whose value it holds.
        for row in &rows {
            assert_eq!(
                (row.bin.as_str(), row.config.as_str()),
                ("ctrl_sim", "burst/adaptive/controller")
            );
            let expected = if row.metric == "decisions" {
                report.decisions.len() as f64
            } else {
                let leaf = at(&value, &row.metric);
                leaf.as_bool()
                    .map(flag)
                    .or_else(|| leaf.as_f64())
                    .unwrap_or_else(|| panic!("`{}` is not a leaf's path", row.metric))
            };
            assert_eq!(row.value, expected, "{}", row.metric);
        }
        let value_of = |metric: &str| rows.iter().find(|r| r.metric == metric).map(|r| r.value);
        assert_eq!(value_of("ttft.p99_s"), Some(report.ttft.p99_s));
        assert_eq!(
            value_of("replicas.1.busy_s"),
            Some(report.replicas[1].busy_s)
        );
        assert_eq!(value_of("strategy"), None, "strings have no row");
    }
}
