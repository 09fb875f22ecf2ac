//! The `tune` experiment binary: cost-model-driven autotuning across a
//! workload grid, reporting best-vs-default simulated speedup per bucket to
//! `BENCH_tune.json`.
//!
//! ```text
//! cargo run --release --bin tune [-- --smoke] [--out BENCH_tune.json]
//! ```
//!
//! `--smoke` shrinks the grid and search space for CI, and doubles as the
//! determinism gate: the whole grid is tuned once at 1 worker thread
//! (against the persisted `TUNE_CACHE.json`) and once at 4 (fresh
//! in-memory tuner), and the report rows must be bit-identical. The
//! persisted cache means a second invocation answers every bucket from
//! `TUNE_CACHE.json` — visible on the `tune.cache_hits` counter — and
//! reproduces the identical report.

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::ModelConfig;
use resoftmax_tune::{
    precheck, precheck_decode, SearchMode, SearchSpace, TuneWorkload, Tuned, Tuner,
};

use crate::{write_report, BenchArgs, BenchRow};

/// Default path of the persisted tuning database.
pub const TUNE_CACHE_PATH: &str = "TUNE_CACHE.json";

fn grid(smoke: bool) -> Vec<(ModelConfig, TuneWorkload)> {
    let mut g = vec![
        (
            ModelConfig::bert_base(),
            TuneWorkload::Prefill {
                seq_len: 512,
                batch: 1,
            },
        ),
        (
            ModelConfig::bert_large(),
            TuneWorkload::Prefill {
                seq_len: 1024,
                batch: 2,
            },
        ),
        (
            ModelConfig::gpt_neo_1_3b(),
            TuneWorkload::Decode {
                ctxs: vec![512, 768, 1024, 2048],
            },
        ),
    ];
    if !smoke {
        g.extend([
            (
                ModelConfig::bert_large(),
                TuneWorkload::Prefill {
                    seq_len: 4096,
                    batch: 1,
                },
            ),
            (
                ModelConfig::bigbird_large(),
                TuneWorkload::Prefill {
                    seq_len: 4096,
                    batch: 1,
                },
            ),
            (
                ModelConfig::gpt_neo_1_3b(),
                TuneWorkload::Prefill {
                    seq_len: 2048,
                    batch: 4,
                },
            ),
            (
                ModelConfig::gpt_neo_1_3b(),
                TuneWorkload::Decode {
                    ctxs: vec![4096; 8],
                },
            ),
        ]);
    }
    g
}

/// Tunes the whole grid with `tuner`, verifying per-bucket invariants and
/// returning the report rows (deterministic order and content).
fn run_grid(tuner: &Tuner, device: &DeviceSpec, smoke: bool) -> (Vec<BenchRow>, Vec<Tuned>) {
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (model, workload) in grid(smoke) {
        let tuned = tuner
            .tune(&model, device, &workload)
            .expect("default configuration must be runnable for every grid workload");

        // Acceptance invariants, checked on every run, not just in tests:
        // never slower than the default, and analyzer-clean.
        assert!(
            tuned.cost_s <= tuned.default_cost_s,
            "{}: tuned {} slower than default {}",
            workload.label(),
            tuned.cost_s,
            tuned.default_cost_s
        );
        match &tuned.workload {
            TuneWorkload::Prefill { .. } => {
                precheck(&model, &tuned.params).expect("tuned schedule analyzes clean");
            }
            TuneWorkload::Decode { ctxs } => {
                precheck_decode(&model, ctxs, &tuned.params)
                    .expect("tuned decode schedule analyzes clean");
            }
        }

        let config = format!("{}/{}/{}", model.name, device.name, tuned.workload.label());
        rows.push(BenchRow::new(
            "tune",
            &config,
            "default_s",
            tuned.default_cost_s,
        ));
        rows.push(BenchRow::new("tune", &config, "tuned_s", tuned.cost_s));
        rows.push(BenchRow::new("tune", &config, "speedup", tuned.speedup()));
        results.push(tuned);
    }
    (rows, results)
}

/// Entry point of the `tune` binary (root package `src/bin/tune.rs`); lives
/// here so the logic is unit-testable and shares the bench helpers.
pub fn tune_main() {
    let args = BenchArgs::parse();
    let out = args.out_or("BENCH_tune.json");
    let device = crate::device_from_args(&args.rest);
    let (space, mode) = if args.smoke {
        (SearchSpace::smoke(), SearchMode::Exhaustive)
    } else {
        (SearchSpace::paper_default(), SearchMode::Exhaustive)
    };

    // Leg A: 1 worker thread, persisted cache.
    resoftmax_parallel::set_thread_override(Some(1));
    let tuner = Tuner::with_cache(space.clone(), mode.clone(), TUNE_CACHE_PATH)
        .expect("tuning cache readable");
    let preloaded = tuner.loaded_entries();
    let (rows, results) = run_grid(&tuner, &device, args.smoke);
    tuner.save().expect("tuning cache writable");

    // Leg B: 4 worker threads, fresh in-memory tuner. The report must be
    // bit-identical — search is order-preserving and index-reduced.
    resoftmax_parallel::set_thread_override(Some(4));
    let fresh = Tuner::new(space, mode);
    let (rows4, _) = run_grid(&fresh, &device, args.smoke);
    resoftmax_parallel::set_thread_override(None);
    assert_eq!(
        serde_json::to_string(&rows).expect("rows serialize"),
        serde_json::to_string(&rows4).expect("rows serialize"),
        "tune rows must be bit-identical at 1 vs 4 worker threads"
    );
    println!("rows bit-identical at 1 and 4 worker threads");

    // At least one bucket must strictly improve on the default schedule.
    let improved = results.iter().filter(|t| t.speedup() > 1.0).count();
    assert!(
        improved >= 1,
        "no workload bucket improved over the default schedule"
    );

    // Warm starts must actually answer from the persisted database.
    let hits = resoftmax_obs::counter("tune.cache_hits").get();
    if preloaded > 0 {
        assert!(
            hits > 0,
            "cache preloaded {preloaded} entries but answered no queries from it"
        );
    }

    for t in &results {
        println!(
            "{:<24} default {:9.4} ms  tuned {:9.4} ms  speedup {:5.2}x  {}",
            t.workload.label(),
            t.default_cost_s * 1e3,
            t.cost_s * 1e3,
            t.speedup(),
            if t.cache_hit {
                "(cached)"
            } else {
                "(searched)"
            },
        );
    }
    println!(
        "cache: {preloaded} entries preloaded, {} total, {hits} hits, {} misses \
         (database: {TUNE_CACHE_PATH})",
        tuner.entries(),
        resoftmax_obs::counter("tune.cache_misses").get(),
    );
    println!(
        "transfer: {} cross-device winners harvested, {} survived precheck",
        resoftmax_obs::counter("tune.transfer_candidates").get(),
        resoftmax_obs::counter("tune.transfer_survivors").get(),
    );
    write_report(&out, &rows);
    crate::write_trace_if_enabled();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_nonempty_and_smoke_is_smaller() {
        assert!(!grid(true).is_empty());
        assert!(grid(true).len() < grid(false).len());
        // Both grids exercise prefill AND decode pricing.
        for smoke in [true, false] {
            let g = grid(smoke);
            assert!(g
                .iter()
                .any(|(_, w)| matches!(w, TuneWorkload::Prefill { .. })));
            assert!(g
                .iter()
                .any(|(_, w)| matches!(w, TuneWorkload::Decode { .. })));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn run_grid_reports_three_metrics_per_bucket() {
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let (rows, results) = run_grid(&tuner, &DeviceSpec::a100(), true);
        assert_eq!(rows.len(), results.len() * 3);
        assert!(rows.iter().all(|r| r.bin == "tune" && r.value > 0.0));
    }
}
