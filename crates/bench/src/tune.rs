//! The `tune` experiment: cost-model-driven autotuning across a workload
//! grid, reporting best-vs-default simulated speedup per bucket to
//! `BENCH_tune.json`.
//!
//! Every run is its own determinism gate: the grid is tuned once at 1
//! worker thread against the persisted `TUNE_CACHE.json` (in the working
//! directory for the full A100 grid, else under `target/bench-smoke/`, as
//! [`BenchArgs::default_path`] places reports) and once at 4 with a fresh
//! in-memory tuner, and the report rows must be identical. A
//! bucket is answered from the persisted database exactly when an earlier
//! run tuned the same question (model, device, search space, mode and
//! bucket), so an identical rerun answers every bucket from the cache —
//! marked `(cached)` — and reproduces the same report, while a changed grid
//! or device searches afresh.

use std::path::Path;

use resoftmax_bench::{write_report, BenchArgs, BenchRow, Error};
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::ModelConfig;
use resoftmax_tune::{
    cache_key, default_params, precheck, precheck_decode, SearchMode, SearchSpace, TuneDb,
    TuneWorkload, Tuned, Tuner,
};

/// File name of the persisted tuning database.
const TUNE_CACHE: &str = "TUNE_CACHE.json";

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

/// Tunes every bucket of `grid` with `tuner`, verifying per-bucket
/// invariants and returning the report rows (deterministic order and
/// content).
fn run_grid(
    tuner: &Tuner,
    device: &DeviceSpec,
    grid: &[(ModelConfig, TuneWorkload)],
) -> Result<(Vec<BenchRow>, Vec<Tuned>), Error> {
    let mut rows = Vec::new();
    let mut results = Vec::new();
    for (model, workload) in grid {
        let tuned = tuner.tune(model, device, workload)?;

        // Acceptance invariants, checked on every run, not just in tests:
        // never slower than the default, and analyzer-clean.
        assert!(
            tuned.cost_s <= tuned.default_cost_s,
            "{}: tuned {} slower than default {}",
            workload.label(),
            tuned.cost_s,
            tuned.default_cost_s
        );
        let clean = match &tuned.workload {
            TuneWorkload::Prefill { .. } => precheck(model, &tuned.params),
            TuneWorkload::Decode { ctxs } => precheck_decode(model, ctxs, &tuned.params),
        };
        clean.map_err(|skip| {
            Error::failed(format!(
                "{}: the tuned schedule fails analysis: {skip}",
                workload.label()
            ))
        })?;

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
    Ok((rows, results))
}

/// Tunes `grid` against the persisted database at `path`, saves it, and
/// checks the warm start: a bucket must be answered from the cache exactly
/// when the database held its key before the run. Entries for other
/// questions (another device, search space or grid) are kept but never
/// answer.
fn tune_persisted(
    path: &Path,
    grid: &[(ModelConfig, TuneWorkload)],
    space: &SearchSpace,
    mode: &SearchMode,
    device: &DeviceSpec,
) -> Result<(Tuner, Vec<BenchRow>, Vec<Tuned>), Error> {
    let preloaded = TuneDb::load(path)?.entries;
    let tuner = Tuner::with_cache(space.clone(), mode.clone(), path)?;
    let (rows, results) = run_grid(&tuner, device, grid)?;
    for ((model, workload), tuned) in grid.iter().zip(&results) {
        let bucket = workload.bucket();
        let key = cache_key(
            model,
            device,
            &default_params(&bucket).profile,
            space,
            mode,
            &bucket,
        );
        assert_eq!(
            tuned.cache_hit,
            preloaded.contains_key(&key),
            "{}: a bucket is answered from the cache exactly when its key was preloaded",
            workload.label()
        );
    }
    tuner.save()?;
    Ok((tuner, rows, results))
}

/// Tunes the workload grid on the chosen device (A100 by default) and
/// writes the per-bucket default, tuned and speedup rows.
pub fn tune(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let grid = grid(args.smoke);
    let space = if args.smoke {
        SearchSpace::smoke()
    } else {
        SearchSpace::paper_default()
    };
    let mode = SearchMode::Exhaustive;

    // Leg A: 1 worker thread, persisted cache. A smoke or non-A100 run
    // keeps its own, so it never adds buckets to the full-scale one.
    let cache = args.default_path(TUNE_CACHE);
    resoftmax_parallel::set_thread_override(Some(1));
    let (tuner, rows, results) = tune_persisted(Path::new(&cache), &grid, &space, &mode, &device)?;

    // Leg B: 4 worker threads, fresh in-memory tuner. The report must be
    // bit-identical — search is order-preserving and index-reduced.
    resoftmax_parallel::set_thread_override(Some(4));
    let (rows4, _) = run_grid(&Tuner::new(space, mode), &device, &grid)?;
    resoftmax_parallel::set_thread_override(None);
    assert_eq!(
        serde_json::to_string(&rows)?,
        serde_json::to_string(&rows4)?,
        "tune rows must be bit-identical at 1 vs 4 worker threads"
    );
    println!("rows bit-identical at 1 and 4 worker threads");

    // At least one bucket must strictly improve on the default schedule.
    let improved = results.iter().filter(|t| t.speedup() > 1.0).count();
    assert!(
        improved >= 1,
        "no workload bucket improved over the default schedule"
    );

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
    // The persisted tuner's own counts: leg B's fresh tuner is not in them.
    let stats = tuner.stats();
    println!(
        "cache: {} entries preloaded, {} total, {} hits, {} misses \
         (database: {cache})",
        tuner.loaded_entries(),
        tuner.entries(),
        stats.hits,
        stats.misses,
    );
    write_report(&args.out_path("BENCH_tune.json"), &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_tune::TuneStats;

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
    fn warm_starts_answer_exactly_the_preloaded_buckets() {
        let dir = std::env::temp_dir().join(format!("resoftmax-tune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir is writable");
        let cache = dir.join(TUNE_CACHE);
        let (space, mode) = (SearchSpace::smoke(), SearchMode::Exhaustive);
        let grid = grid(true);
        let run = |device: &DeviceSpec| {
            tune_persisted(&cache, &grid, &space, &mode, device).expect("smoke grid tunes")
        };

        // Two different grids share one database: the second starts with
        // the first's entries preloaded, none of which answers it.
        let (_, first_rows, first) = run(&DeviceSpec::a100());
        let (_, _, second) = run(&DeviceSpec::t4());
        assert!(first.iter().chain(&second).all(|t| !t.cache_hit));
        assert_eq!(first_rows.len(), first.len() * 3);
        assert!(first_rows.iter().all(|r| r.bin == "tune" && r.value > 0.0));

        // An identical rerun answers every bucket from the database and
        // reproduces the first run's rows.
        let (tuner, rerun_rows, rerun) = run(&DeviceSpec::a100());
        assert!(rerun.iter().all(|t| t.cache_hit));
        assert_eq!(rerun_rows, first_rows);
        assert_eq!(tuner.loaded_entries(), first.len() + second.len());
        assert_eq!(
            tuner.stats(),
            TuneStats {
                hits: grid.len(),
                ..TuneStats::default()
            }
        );
        std::fs::remove_dir_all(&dir).expect("temp dir is removable");
    }
}
