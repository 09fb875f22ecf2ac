//! Continuous-batching serving simulation: a 64-request Poisson trace on the
//! A100 against GPT-Neo 1.3B, swept over {baseline, recomposed} × {fifo,
//! shortest-remaining}, reporting throughput, TTFT/TBT percentiles, KV-pool
//! occupancy and eviction counts to `BENCH_serve.json`.
//!
//! ```text
//! cargo run --release -p resoftmax-bench --bin serve_sim [-- out.json] [--smoke]
//! ```
//!
//! The KV pool is deliberately capped below the trace's aggregate demand so
//! admission control and eviction are exercised, not just counted. Metrics
//! live entirely on the simulated clock, so `--smoke` can assert the rows
//! are bit-identical at 1 and at 4 worker threads (the grid cells run under
//! `parallel_map`, the engine itself is sequential).

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams, SoftmaxStrategy};
use resoftmax_serve::{kv_bytes_per_token, FleetBuilder, Policy, ServeConfig, ServeReport};

const PAPER_CTX: usize = 4096;

fn grid() -> Vec<(SoftmaxStrategy, Policy)> {
    [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed]
        .into_iter()
        .flat_map(|s| {
            [Policy::Fifo, Policy::ShortestRemaining]
                .into_iter()
                .map(move |p| (s, p))
        })
        .collect()
}

fn config(model: &ModelConfig, policy: Policy) -> ServeConfig {
    ServeConfig {
        policy,
        // ~25 worst-case requests' worth of aggregate demand against a
        // 4096-token pool: several requests co-reside, decode growth
        // collides, and the eviction path runs on every cell.
        kv_capacity_bytes: Some(kv_bytes_per_token(model) * 4096),
        ..ServeConfig::default()
    }
}

fn run_grid() -> Vec<ServeReport> {
    let model = ModelConfig::gpt_neo_1_3b();
    let device = DeviceSpec::a100();
    let cells = grid();
    resoftmax_parallel::parallel_map(&cells, |_, &(strategy, policy)| {
        FleetBuilder::new()
            .model(model.clone())
            .params(RunParams::new(PAPER_CTX).strategy(strategy))
            .replica(device.clone())
            .workload(config(&model, policy))
            .build()
            .and_then(|fleet| fleet.run())
            .expect("serve simulation launches")
            .serve_report()
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "BENCH_serve.json".to_owned());

    let reports = if smoke {
        // Determinism gate: the simulated clock must make the rows
        // bit-identical regardless of host worker threads.
        resoftmax_parallel::set_thread_override(Some(1));
        let serial = run_grid();
        resoftmax_parallel::set_thread_override(Some(4));
        let parallel = run_grid();
        resoftmax_parallel::set_thread_override(None);
        let ser = serde_json::to_string(&serial).expect("rows serialize");
        let par = serde_json::to_string(&parallel).expect("rows serialize");
        assert_eq!(ser, par, "serve rows must be identical at 1 vs 4 threads");
        println!("smoke: rows bit-identical at 1 and 4 worker threads");
        // And the kernel-pricing cache — warm by now from the two legs
        // above — must not perturb a single bit either (serving engines
        // iterate many near-identical decode schedules, the cache's best
        // case).
        let warm = run_grid();
        let wrm = serde_json::to_string(&warm).expect("rows serialize");
        assert_eq!(ser, wrm, "serve rows must be identical with a warm cache");
        let stats = resoftmax_gpusim::sim_cache_stats();
        println!(
            "smoke: warm-cache leg bit-identical (pricing cache: {} entries, \
             {} hits, {} misses)",
            stats.kernel_entries, stats.hits, stats.misses
        );
        serial
    } else {
        run_grid()
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
    let json = serde_json::to_string_pretty(&reports).expect("report serializes");
    std::fs::write(&out_path, format!("{json}\n")).expect("write benchmark report");
    println!("report written to {out_path}");
}
