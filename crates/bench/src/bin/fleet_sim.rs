//! Fleet serving simulation: Poisson traffic over a modeled multi-GPU
//! cluster (8 replicas by default), swept over arrival rate to locate the
//! TTFT SLO knee, plus router-policy, heterogeneous-fleet, tight-memory,
//! fault-scenario, and prefill/decode-disaggregation rows (unified vs
//! disaggregated at the same arrival rate, swept over NVLink / PCIe /
//! 100GbE handoff links). Writes `BENCH_fleet.json`.
//!
//! ```text
//! cargo run --release -p resoftmax-bench --bin fleet_sim [-- out.json] [--smoke]
//! ```
//!
//! Without an explicit path, `--smoke` writes
//! `target/bench-smoke/BENCH_fleet.json` instead of the checked-in file.
//!
//! The *knee* is the first swept arrival rate whose TTFT p99 exceeds the SLO
//! (1 simulated second): below it admission keeps up, above it queues grow
//! without bound and tail latency explodes. All metrics live on the
//! simulated clock, so `--smoke` asserts the rows are bit-identical at 1 and
//! 4 host worker threads and across cold/warm kernel-pricing cache runs.

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{
    kv_bytes_per_token, FleetBuilder, FleetReport, LinkSpec, RouterPolicy, ServeConfig,
};
use serde::Serialize;

const PAPER_CTX: usize = 4096;
/// TTFT service-level objective, simulated seconds.
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

struct Scale {
    replicas: usize,
    sweep_requests: usize,
    headline_requests: usize,
    sweep_rates: Vec<f64>,
}

impl Scale {
    fn full() -> Self {
        Scale {
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
        Scale {
            replicas: 3,
            sweep_requests: 48,
            headline_requests: 96,
            sweep_rates: vec![32.0, 128.0],
        }
    }
}

fn workload(requests: usize, rate_hz: f64) -> ServeConfig {
    ServeConfig {
        requests,
        arrival_rate_hz: rate_hz,
        // The fleet headline runs hundreds of thousands of engine
        // iterations; the termination backstop must sit far above them.
        max_iterations: 100_000_000,
        ..ServeConfig::default()
    }
}

fn run_fleet(label: &str, rate_hz: f64, build: impl FnOnce() -> FleetBuilder<'static>) -> FleetRow {
    let report = build()
        .build()
        .expect("fleet configuration validates")
        .run()
        .expect("fleet simulation completes");
    assert_eq!(
        report.completed, report.submitted,
        "{label}: every submitted request must complete"
    );
    FleetRow {
        label: label.to_owned(),
        arrival_rate_hz: rate_hz,
        meets_slo: report.ttft.p99_s <= SLO_TTFT_P99_S,
        report,
    }
}

fn homogeneous(replicas: usize, requests: usize, rate_hz: f64) -> FleetBuilder<'static> {
    FleetBuilder::new()
        .model(ModelConfig::gpt_neo_1_3b())
        .params(RunParams::new(PAPER_CTX).strategy(SoftmaxStrategy::Recomposed))
        .replicas(replicas, &DeviceSpec::a100())
        .router(RouterPolicy::LeastLoaded)
        .link(LinkSpec::nvlink())
        .workload(workload(requests, rate_hz))
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
        .params(RunParams::new(PAPER_CTX).strategy(SoftmaxStrategy::Recomposed))
        .prefill_replicas(prefill, &DeviceSpec::a100())
        .decode_replicas(replicas - prefill, &DeviceSpec::a100())
        .router(RouterPolicy::LeastLoaded)
        .link(link)
        .workload(workload(requests, rate_hz))
}

fn run_bench(scale: &Scale) -> FleetBench {
    let n = scale.replicas;

    // Stage 1: arrival-rate sweep to the SLO knee (cells are independent;
    // the simulated clock keeps them bit-identical under any threading).
    let sweep: Vec<FleetRow> = resoftmax_parallel::parallel_map(&scale.sweep_rates, |_, &rate| {
        run_fleet(&format!("sweep/{rate}hz"), rate, || {
            homogeneous(n, scale.sweep_requests, rate)
        })
    });
    let knee_rate_hz = sweep
        .iter()
        .find(|r| !r.meets_slo)
        .or_else(|| sweep.last())
        .expect("sweep is nonempty")
        .arrival_rate_hz;

    // Stage 2: scenario rows at fixed rates (again independent).
    let mid_rate = scale.sweep_rates[scale.sweep_rates.len() / 2];
    let scenarios: Vec<Box<dyn Fn() -> FleetRow + Sync + '_>> = vec![
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
                        ..workload(scale.sweep_requests, mid_rate)
                    })
            })
        }),
        // Heterogeneous fleet: a quarter of the replicas are T4s behind the
        // same router (least-loaded absorbs the speed difference).
        Box::new(|| {
            run_fleet("hetero/a100+t4", mid_rate, || {
                FleetBuilder::new()
                    .model(ModelConfig::gpt_neo_1_3b())
                    .params(RunParams::new(PAPER_CTX).strategy(SoftmaxStrategy::Recomposed))
                    .replicas(n - n.div_ceil(4), &DeviceSpec::a100())
                    .replicas(n.div_ceil(4), &DeviceSpec::t4())
                    .router(RouterPolicy::LeastLoaded)
                    .link(LinkSpec::pcie_gen4())
                    .workload(workload(scale.sweep_requests, mid_rate))
            })
        }),
        // Tight KV memory: per-replica pools capped so decode growth
        // collides and eviction spill-over migrates KV between replicas.
        Box::new(|| {
            run_fleet("tight-kv/evict-migrate", mid_rate, || {
                let model = ModelConfig::gpt_neo_1_3b();
                homogeneous(n, scale.sweep_requests, mid_rate).workload(ServeConfig {
                    kv_capacity_bytes: Some(kv_bytes_per_token(&model) * 2048),
                    ..workload(scale.sweep_requests, mid_rate)
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
    rows.extend(resoftmax_parallel::parallel_map(&scenarios, |_, f| f()));

    FleetBench {
        slo_ttft_p99_s: SLO_TTFT_P99_S,
        knee_rate_hz,
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
                return "BENCH_fleet.json".to_owned();
            }
            // Smoke-scale rows never overwrite the checked-in results.
            std::fs::create_dir_all("target/bench-smoke").expect("create target/bench-smoke");
            "target/bench-smoke/BENCH_fleet.json".to_owned()
        });

    let scale = if smoke { Scale::smoke() } else { Scale::full() };
    let bench = if smoke {
        // Determinism gate: the simulated clock must make every row
        // bit-identical regardless of host worker threads...
        resoftmax_parallel::set_thread_override(Some(1));
        let serial = run_bench(&scale);
        resoftmax_parallel::set_thread_override(Some(4));
        let parallel = run_bench(&scale);
        resoftmax_parallel::set_thread_override(None);
        let ser = serde_json::to_string(&serial).expect("rows serialize");
        let par = serde_json::to_string(&parallel).expect("rows serialize");
        assert_eq!(ser, par, "fleet rows must be identical at 1 vs 4 threads");
        println!("smoke: rows bit-identical at 1 and 4 worker threads");
        // ...and the kernel-pricing cache (cold for the first leg, warm by
        // now) must not perturb a single bit either.
        let warm = run_bench(&scale);
        let wrm = serde_json::to_string(&warm).expect("rows serialize");
        assert_eq!(ser, wrm, "fleet rows must be identical with a warm cache");
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
    let json = serde_json::to_string_pretty(&bench).expect("report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write benchmark report");
    println!("report written to {out_path}");
}
