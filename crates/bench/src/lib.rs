//! Shared helpers for the experiment binaries (`src/bin/*`) and criterion
//! benches that regenerate every table and figure of the paper.
//!
//! Run any experiment with, e.g.:
//!
//! ```text
//! cargo run --release -p resoftmax-bench --bin fig8_sd_sdf
//! cargo run --release -p resoftmax-bench --bin fig9_sweeps -- seq
//! cargo run --release -p resoftmax-bench --bin fig2_breakdown -- t4
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{LibraryProfile, ModelConfig, RunParams, SoftmaxStrategy};
use serde::{Deserialize, Serialize};

mod tune_bin;

pub use tune_bin::{tune_main, TUNE_CACHE_PATH};

/// The common CLI surface of the experiment binaries: `--smoke` (reduced
/// grid plus the 1-vs-4-worker-thread determinism gate), `--out <path>` or
/// a bare positional path (report destination), everything else passed
/// through (device names, sweep selectors).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchArgs {
    /// Reduced grid + determinism gate requested (`--smoke`).
    pub smoke: bool,
    /// Report destination (`--out <path>` or a bare non-flag argument).
    pub out: Option<String>,
    /// Remaining arguments, in order, for bin-specific parsing.
    pub rest: Vec<String>,
}

impl BenchArgs {
    /// Parses the process arguments (everything after the binary name).
    pub fn parse() -> Self {
        Self::from_args(std::env::args().skip(1).collect())
    }

    /// Parses an explicit argument list (testable form of [`parse`](Self::parse)).
    pub fn from_args(args: Vec<String>) -> Self {
        let mut out = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(a) = iter.next() {
            match a.as_str() {
                "--smoke" => out.smoke = true,
                "--out" => out.out = iter.next(),
                _ if !a.starts_with("--") && out.out.is_none() && a.ends_with(".json") => {
                    out.out = Some(a);
                }
                _ => out.rest.push(a),
            }
        }
        out
    }

    /// The report path, or `default` when none was given.
    pub fn out_or(&self, default: &str) -> String {
        self.out.clone().unwrap_or_else(|| default.to_owned())
    }
}

/// One row of a machine-readable benchmark report — the schema shared by
/// every migrated experiment binary, so downstream tooling can concatenate
/// `BENCH_*.json` files without per-bin parsers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// The producing binary (`"tune"`, `"ablation_tile_size"`, …).
    pub bin: String,
    /// The grid point, e.g. `"bert-large/A100/prefill/L4096/b1"`.
    pub config: String,
    /// The measured quantity, e.g. `"tuned_s"`, `"speedup"`.
    pub metric: String,
    /// The value, in the metric's unit.
    pub value: f64,
}

impl BenchRow {
    /// Constructs a row.
    pub fn new(
        bin: impl Into<String>,
        config: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) -> Self {
        BenchRow {
            bin: bin.into(),
            config: config.into(),
            metric: metric.into(),
            value,
        }
    }
}

/// Writes a benchmark report as pretty JSON (the `BENCH_*.json` convention)
/// and logs the destination.
pub fn write_report(path: &str, rows: &[BenchRow]) {
    let json = serde_json::to_string_pretty(&rows).expect("benchmark rows serialize");
    std::fs::write(path, format!("{json}\n")).expect("writable benchmark report path");
    println!("report written to {path} ({} rows)", rows.len());
}

/// Resolves a device name from an optional CLI argument
/// (`a100` default, `3090`, `t4`).
pub fn device_from_args(args: &[String]) -> DeviceSpec {
    match args
        .iter()
        .map(|s| s.to_lowercase())
        .find(|s| matches!(s.as_str(), "a100" | "3090" | "rtx3090" | "t4"))
    {
        None => DeviceSpec::a100(),
        Some(s) => match s.as_str() {
            "a100" => DeviceSpec::a100(),
            "3090" | "rtx3090" => DeviceSpec::rtx3090(),
            "t4" => DeviceSpec::t4(),
            _ => unreachable!(),
        },
    }
}

/// Paper's evaluation sequence length.
pub const PAPER_SEQ_LEN: usize = 4096;

/// `true` if the CLI args request machine-readable output (`--json`).
pub fn json_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--json")
}

/// Serializes experiment rows as pretty JSON for scripting against the
/// binaries (`fig8_sd_sdf -- --json | jq ...`).
pub fn print_json<T: serde::Serialize>(rows: &T) {
    println!(
        "{}",
        serde_json::to_string_pretty(rows).expect("experiment rows serialize")
    );
}

/// If tracing is on (`RESOFTMAX_TRACE`, or forced programmatically), writes
/// the merged chrome-trace of everything recorded so far to the trace output
/// path and returns it; does nothing when tracing is off.
///
/// Every experiment binary calls this on exit, so
/// `RESOFTMAX_TRACE=out.json cargo run --bin fig8_sd_sdf` yields one JSON
/// file merging the wall-clock spans (engine, simulator, parallel runtime)
/// with the simulated kernel timeline of every run, viewable in
/// `chrome://tracing` or <https://ui.perfetto.dev>.
pub fn write_trace_if_enabled() -> Option<String> {
    let path = resoftmax_obs::trace_output_path()?;
    let rec = resoftmax_obs::recorder();
    rec.write(&resoftmax_obs::ChromeTraceSink, &path)
        .expect("writable trace output path");
    let (spans, streams) = (rec.spans().len(), rec.sim_streams().len());
    eprintln!("trace: wrote {path} ({spans} wall-clock spans, {streams} simulated streams)");
    Some(path)
}

/// The complete static-analysis grid the `analyze` binary (and the
/// `perf_baseline` harness) sweeps: the evaluation models (plus the two
/// extra presets) × the four softmax strategies × the Fig. 9 sequence
/// lengths, the Fig. 7 library line-up at the paper's default length, and
/// the Fig. 9 batch sweep — in deterministic reporting order.
pub fn analysis_grid() -> Vec<(ModelConfig, RunParams)> {
    const SEQ_LENS: [usize; 5] = [512, 1024, 2048, 4096, 8192];
    const BATCHES: [usize; 4] = [1, 2, 4, 8];
    const STRATEGIES: [SoftmaxStrategy; 4] = [
        SoftmaxStrategy::Baseline,
        SoftmaxStrategy::Decomposed,
        SoftmaxStrategy::Recomposed,
        SoftmaxStrategy::OnlineFused,
    ];
    let models = {
        let mut m = ModelConfig::all_eval_models();
        m.push(ModelConfig::bert_base());
        m.push(ModelConfig::sparse_transformer());
        m
    };

    let mut combos = Vec::new();
    // Strategy × sequence-length grid (Fig. 8/9), paper-baseline library.
    for model in &models {
        for &strategy in &STRATEGIES {
            for &seq_len in &SEQ_LENS {
                combos.push((model.clone(), RunParams::new(seq_len).strategy(strategy)));
            }
        }
    }
    // Library line-up (Fig. 7) at the paper's default length.
    for model in &models {
        for profile in LibraryProfile::fig7_lineup() {
            for &strategy in &STRATEGIES {
                combos.push((
                    model.clone(),
                    RunParams::new(PAPER_SEQ_LEN)
                        .strategy(strategy)
                        .profile(profile.clone()),
                ));
            }
        }
    }
    // Batch sweep (Fig. 9 right).
    for model in &models {
        for &batch in &BATCHES {
            for &strategy in &STRATEGIES {
                combos.push((
                    model.clone(),
                    RunParams::new(PAPER_SEQ_LEN)
                        .strategy(strategy)
                        .batch(batch),
                ));
            }
        }
    }
    combos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_grid_shape() {
        let grid = analysis_grid();
        // 6 models × (4 strategies × 5 seq lens + lineup × 4 + 4 batches × 4).
        let lineup = LibraryProfile::fig7_lineup().len();
        assert_eq!(grid.len(), 6 * (4 * 5 + lineup * 4 + 4 * 4));
    }

    #[test]
    fn device_parsing() {
        assert_eq!(device_from_args(&[]).name, "A100");
        assert_eq!(device_from_args(&["t4".into()]).name, "T4");
        assert_eq!(device_from_args(&["3090".into()]).name, "RTX 3090");
        assert_eq!(
            device_from_args(&["seq".into(), "a100".into()]).name,
            "A100"
        );
    }
}
