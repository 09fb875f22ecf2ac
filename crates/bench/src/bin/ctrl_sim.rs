//! Adaptive control-plane benchmark: static fleets vs a `resoftmax-ctrl`
//! controller under phase-shifting workloads (square-wave burst, diurnal
//! ramp, overload recovery, plus a steady-state parity guard). Writes
//! `BENCH_ctrl.json`.
//!
//! ```text
//! cargo run --release -p resoftmax-bench --bin ctrl_sim [-- out.json] [--smoke]
//! ```
//!
//! Without an explicit path, `--smoke` writes
//! `target/bench-smoke/BENCH_ctrl.json` instead of the checked-in file.
//!
//! Every scenario pins one arrival trace (via `phased_arrivals`) and runs
//! it through static fleets — one per scheduling policy on the base replica
//! set — and through an adaptive fleet: the same base replicas plus standby
//! capacity only the controller can recruit. The headline is the
//! square-wave burst: the adaptive fleet must beat the best static
//! configuration on TTFT p99 while the steady scenario shows it matches the
//! static fleet when there is nothing to adapt to. All metrics live on the
//! simulated clock, so `--smoke` asserts the rows are bit-identical at 1
//! and 4 host worker threads and across cold/warm kernel-pricing caches.

use resoftmax_ctrl::{Controller, PolicyTable};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{
    phased_arrivals, Arrival, ControlAction, FleetBuilder, FleetReport, LinkSpec, Policy,
    RouterPolicy, ServeConfig,
};
use resoftmax_tune::{SearchMode, SearchSpace, Tuner};
use serde::Serialize;

const PAPER_CTX: usize = 4096;

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

struct Scale {
    burst: usize,
    steady: usize,
    diurnal: usize,
    overload: usize,
}

impl Scale {
    fn full() -> Self {
        Scale {
            burst: 1200,
            steady: 400,
            diurnal: 800,
            overload: 600,
        }
    }

    fn smoke() -> Self {
        Scale {
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
fn workload(requests: usize) -> ServeConfig {
    ServeConfig {
        requests,
        max_batch: 4,
        max_iterations: 100_000_000,
        ..ServeConfig::default()
    }
}

fn base_builder() -> FleetBuilder<'static> {
    FleetBuilder::new()
        .model(ModelConfig::gpt_neo_1_3b())
        .params(RunParams::new(PAPER_CTX).strategy(SoftmaxStrategy::Recomposed))
        .router(RouterPolicy::LeastLoaded)
        .link(LinkSpec::nvlink())
}

fn run_static(scenario: &str, policy: Policy, cfg: &ServeConfig, trace: &[Arrival]) -> CtrlRow {
    let cfg = ServeConfig {
        policy,
        ..cfg.clone()
    };
    let report = base_builder()
        .replicas(2, &DeviceSpec::a100())
        .arrivals(trace.to_vec())
        .workload(cfg)
        .build()
        .expect("static fleet validates")
        .run()
        .expect("static fleet completes");
    assert_eq!(report.completed, report.submitted);
    CtrlRow {
        scenario: scenario.to_owned(),
        label: format!("static/{}", policy.name()),
        adaptive: false,
        report,
    }
}

fn run_adaptive(
    scenario: &str,
    controller: &Controller,
    cfg: &ServeConfig,
    trace: &[Arrival],
    disaggregated: bool,
) -> CtrlRow {
    let mut builder = base_builder();
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
        .build()
        .expect("adaptive fleet validates")
        .run()
        .expect("adaptive fleet completes");
    assert_eq!(report.completed, report.submitted);
    CtrlRow {
        scenario: scenario.to_owned(),
        label: "adaptive/controller".to_owned(),
        adaptive: true,
        report,
    }
}

fn best_static(rows: &[CtrlRow], scenario: &str) -> CtrlRow {
    rows.iter()
        .filter(|r| r.scenario == scenario && !r.adaptive)
        .min_by(|a, b| a.report.ttft.p99_s.total_cmp(&b.report.ttft.p99_s))
        .expect("scenario has static rows")
        .clone()
}

fn run_bench(scale: &Scale) -> CtrlBench {
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
    let tuned_table = PolicyTable::tuned(&tuner, &model, &DeviceSpec::a100(), &workload(0))
        .expect("policy table tunes");
    let mut rows: Vec<CtrlRow> = Vec::new();

    // Scenario 1 — steady parity guard: comfortable constant rate; the
    // controller must not scale, and must match the static fleet.
    let steady_cfg = workload(scale.steady);
    let steady_trace = phased_arrivals(&steady_cfg, &[(1.0, 5.0)]);
    for p in statics {
        rows.push(run_static("steady", p, &steady_cfg, &steady_trace));
    }
    let steady_ctrl = Controller::new(tuned_table.clone());
    let steady_adaptive = run_adaptive("steady", &steady_ctrl, &steady_cfg, &steady_trace, false);
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
    let burst_cfg = workload(scale.burst);
    let burst_trace = phased_arrivals(&burst_cfg, &[(4.0, 5.0), (2.0, 36.0)]);
    for p in statics {
        rows.push(run_static("burst", p, &burst_cfg, &burst_trace));
    }
    let burst_ctrl = Controller::new(tuned_table.clone());
    let burst_adaptive = run_adaptive("burst", &burst_ctrl, &burst_cfg, &burst_trace, false);
    assert!(
        burst_adaptive.report.scale_ups >= 1,
        "the burst must recruit standby capacity"
    );
    rows.push(burst_adaptive);

    // Scenario 3 — diurnal ramp on a disaggregated fleet: arrival rate
    // climbs over and back under the two dedicated decode replicas'
    // capacity; standby decode replicas absorb the peak and drain off it.
    let diurnal_cfg = workload(scale.diurnal);
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
    );
    for p in statics {
        rows.push(run_static("diurnal", p, &diurnal_cfg, &diurnal_trace));
    }
    // The ramp crests gently compared to the square-wave burst, so this
    // controller scales at lower pressure (and cools down longer, keeping
    // the churn bound tight).
    let diurnal_ctrl = Controller::with_config(
        PolicyTable::static_default(&diurnal_cfg),
        resoftmax_ctrl::ControllerConfig {
            scale_up_load: 1.0,
            scale_down_load: 0.3,
            cooldown_s: 1.5,
            ..resoftmax_ctrl::ControllerConfig::default()
        },
    );
    let diurnal_adaptive =
        run_adaptive("diurnal", &diurnal_ctrl, &diurnal_cfg, &diurnal_trace, true);
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
    let overload_cfg = workload(scale.overload);
    // The spike has to outrun the controller's scale-up (one replica per
    // cooldown) for the classifier to reach overload before capacity
    // catches up — hence 64 req/s, an order of magnitude over base.
    let overload_trace = phased_arrivals(&overload_cfg, &[(1.0, 5.0), (1.5, 64.0), (60.0, 3.0)]);
    for p in statics {
        rows.push(run_static("overload", p, &overload_cfg, &overload_trace));
    }
    let overload_ctrl = Controller::new(tuned_table);
    let overload_adaptive = run_adaptive(
        "overload",
        &overload_ctrl,
        &overload_cfg,
        &overload_trace,
        false,
    );
    let regimes: Vec<&str> = overload_adaptive
        .report
        .decisions
        .iter()
        .map(|d| d.regime.as_str())
        .collect();
    let entered = regimes.iter().position(|&r| r == "overload");
    assert!(entered.is_some(), "the overshoot must classify as overload");
    assert!(
        regimes[entered.unwrap()..].iter().any(|&r| r != "overload"),
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
    let burst_best = best_static(&rows, "burst");
    let burst_adaptive = rows
        .iter()
        .find(|r| r.scenario == "burst" && r.adaptive)
        .expect("burst has an adaptive row");
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
    let steady_best = best_static(&rows, "steady");
    let steady_adaptive = rows
        .iter()
        .find(|r| r.scenario == "steady" && r.adaptive)
        .expect("steady has an adaptive row");
    let steady_parity_ratio = steady_adaptive.report.ttft.p99_s / steady_best.report.ttft.p99_s;
    assert!(
        steady_parity_ratio <= 1.05,
        "adaptive must match the best static in steady state, ratio {steady_parity_ratio:.3}"
    );

    CtrlBench {
        headline: Headline {
            burst_adaptive_ttft_p99_s: burst_adaptive.report.ttft.p99_s,
            burst_best_static_ttft_p99_s: burst_best.report.ttft.p99_s,
            burst_best_static_label: burst_best.label.clone(),
            burst_ttft_p99_speedup: burst_best.report.ttft.p99_s / burst_adaptive.report.ttft.p99_s,
            steady_parity_ratio,
        },
        rows,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| {
            if !smoke {
                return "BENCH_ctrl.json".to_owned();
            }
            // Smoke-scale rows never overwrite the checked-in results.
            std::fs::create_dir_all("target/bench-smoke").expect("create target/bench-smoke");
            "target/bench-smoke/BENCH_ctrl.json".to_owned()
        });

    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let bench = if smoke {
        // Determinism gate: decision logs and reports must be bit-identical
        // regardless of host worker threads...
        resoftmax_parallel::set_thread_override(Some(1));
        let serial = run_bench(&scale);
        resoftmax_parallel::set_thread_override(Some(4));
        let parallel = run_bench(&scale);
        resoftmax_parallel::set_thread_override(None);
        let ser = serde_json::to_string(&serial).expect("rows serialize");
        let par = serde_json::to_string(&parallel).expect("rows serialize");
        assert_eq!(ser, par, "ctrl rows must be identical at 1 vs 4 threads");
        println!("smoke: rows bit-identical at 1 and 4 worker threads");
        // ...and across cold/warm kernel-pricing caches.
        let warm = run_bench(&scale);
        let wrm = serde_json::to_string(&warm).expect("rows serialize");
        assert_eq!(ser, wrm, "ctrl rows must be identical with a warm cache");
        let stats = resoftmax_gpusim::sim_cache_stats();
        println!(
            "smoke: warm-cache leg bit-identical (pricing cache: {} entries, \
             {} hits, {} misses)",
            stats.kernel_entries, stats.hits, stats.misses
        );
        serial
    } else {
        run_bench(&scale)
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
    let json = serde_json::to_string_pretty(&bench).expect("report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write benchmark report");
    println!("report written to {out_path}");
}
