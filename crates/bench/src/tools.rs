//! Tools over the whole evaluation: the static analyzer's CI gate, the
//! design-space export and the chrome-trace export of one run.

use std::fmt::Write as _;

use resoftmax_analyzer::{Severity, CERT_BUDGET_REL};
use resoftmax_bench::{analysis_grid, device_named, write_file, BenchArgs, Error};
use resoftmax_core::experiments::{full_grid_sweep, FIG9_BATCHES, FIG9_SEQ_LENS, PAPER_SEQ_LEN};
use resoftmax_core::format::{gb, ms, pct, render_table};
use resoftmax_gpusim::chrome_trace::to_chrome_trace;
use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{build_and_check_schedule, ModelConfig, RunParams, Session, SoftmaxStrategy};

struct ComboResult {
    kernels: usize,
    errors: usize,
    warnings: usize,
    /// Certified relative error bound, when the schedule has a dense
    /// softmax pipeline to certify (`None` for native block-sparse paths).
    bound_rel: Option<f64>,
    output: String,
}

fn analyze_one(model: &ModelConfig, params: &RunParams) -> ComboResult {
    let (kernels, report) = build_and_check_schedule(model, params);
    let errors = report.count(Severity::Error);
    let warnings = report.count(Severity::Warning);
    let bound_rel = report.error_bound.map(|b| b.rel);
    let mut output = String::new();
    if errors + warnings > 0 {
        writeln!(
            output,
            "{} / {} / L={} b={} / {}: {}",
            model.name,
            params.strategy.label(),
            params.seq_len,
            params.batch,
            params.profile.name,
            report.summary()
        )
        .expect("write to String");
        for d in &report.diagnostics {
            if d.severity >= Severity::Warning {
                writeln!(output, "  {}", d.render()).expect("write to String");
            }
        }
    }
    ComboResult {
        kernels: kernels.len(),
        errors,
        warnings,
        bound_rel,
        output,
    }
}

/// Renders the `--numerics` summary and returns the number of schedules
/// whose certificate exceeds the certification budget.
fn numerics_summary(results: &[ComboResult]) -> (String, usize) {
    let mut rels: Vec<f64> = results.iter().filter_map(|r| r.bound_rel).collect();
    rels.sort_by(f64::total_cmp);
    let uncertified = results.len() - rels.len();
    let violations = rels.iter().filter(|&&r| r > CERT_BUDGET_REL).count();
    let line = if rels.is_empty() {
        format!("numerics: no dense certificates in the grid ({uncertified} sparse schedules)")
    } else {
        format!(
            "numerics: {} certified schedules ({} without a dense certificate), \
             rel bound min {:.3e} / median {:.3e} / max {:.3e}, \
             {violations} budget violations (budget {CERT_BUDGET_REL:.1e})",
            rels.len(),
            uncertified,
            rels[0],
            rels[rels.len() / 2],
            rels[rels.len() - 1],
        )
    };
    (line, violations)
}

/// Statically analyzes every schedule the evaluation suite builds
/// ([`analysis_grid`]) — fusion legality, buffer dataflow, traffic
/// conservation, numeric certification — and fails if any schedule has an
/// error-severity finding: the CI gate for the schedule generator.
///
/// Combos are analyzed in parallel via `resoftmax-parallel`; findings are
/// buffered per combo and printed in grid order, so the output is
/// byte-identical at any thread count.
///
/// `--numerics` also summarizes the certified error bounds across the grid
/// (min / median / max relative bound, schedules without a dense
/// certificate) and fails if any certificate exceeds the certification
/// budget — the CI gate for the error model.
pub fn analyze(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let grid = analysis_grid();
    let results =
        resoftmax_parallel::parallel_map(&grid, |_, (model, params)| analyze_one(model, params));

    let mut kernels = 0;
    let mut errors = 0;
    let mut warnings = 0;
    for r in &results {
        kernels += r.kernels;
        errors += r.errors;
        warnings += r.warnings;
        print!("{}", r.output);
    }
    println!(
        "analyzed {} schedules ({} kernels): {} errors, {} warnings",
        grid.len(),
        kernels,
        errors,
        warnings
    );
    let mut violations = 0;
    if args.numerics {
        let (line, v) = numerics_summary(&results);
        println!("{line}");
        violations = v;
    }
    if errors > 0 || violations > 0 {
        return Err(Error::failed(format!(
            "{errors} schedule errors, {violations} certification budget violations"
        )));
    }
    Ok(())
}

/// Full design-space sweep: every model × strategy × L × batch on the
/// chosen device, or on every device with `all`, as a table; with
/// `--out PATH` also as rows, the raw material for regenerating any figure
/// externally. `--smoke` shrinks the sweep.
pub fn grid_sweep(args: &BenchArgs) -> Result<(), Error> {
    let devices: Vec<DeviceSpec> = if args.positionals.iter().any(|a| a == "all") {
        args.accept_positionals(|a| a == "all" || device_named(a).is_some())?;
        DeviceSpec::all_presets()
    } else {
        vec![args.device()?]
    };
    let (seq_lens, batches): (&[usize], &[usize]) = if args.smoke {
        (&[512, 1024], &[1, 2])
    } else {
        (&FIG9_SEQ_LENS, &FIG9_BATCHES)
    };
    let points = full_grid_sweep(
        &devices,
        seq_lens,
        batches,
        &[
            SoftmaxStrategy::Baseline,
            SoftmaxStrategy::Decomposed,
            SoftmaxStrategy::Recomposed,
            SoftmaxStrategy::OnlineFused,
        ],
    )?;

    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.device.clone(),
                p.model.clone(),
                p.strategy.clone(),
                p.seq_len.to_string(),
                p.batch.to_string(),
                ms(p.total_ms),
                gb(p.dram_gb * 1e9),
                format!("{:.4} J", p.energy_j),
                pct(p.softmax_frac),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["device", "model", "strategy", "L", "batch", "latency", "DRAM", "energy", "softmax"],
            &table
        )
    );
    args.write_rows("grid_sweep", &points)
}

fn model_named(name: &str) -> Option<ModelConfig> {
    match name.to_lowercase().as_str() {
        "bert" => Some(ModelConfig::bert_large()),
        "gpt" | "gpt-neo" => Some(ModelConfig::gpt_neo_1_3b()),
        "bigbird" => Some(ModelConfig::bigbird_large()),
        "longformer" => Some(ModelConfig::longformer_large()),
        _ => None,
    }
}

fn strategy_named(name: &str) -> Option<SoftmaxStrategy> {
    match name.to_lowercase().as_str() {
        "baseline" => Some(SoftmaxStrategy::Baseline),
        "sd" => Some(SoftmaxStrategy::Decomposed),
        "sdf" => Some(SoftmaxStrategy::Recomposed),
        "online" => Some(SoftmaxStrategy::OnlineFused),
        _ => None,
    }
}

/// Exports one simulated inference run (BERT-large, SDF, L = 4096 unless
/// a model — `bert`, `gpt`, `bigbird`, `longformer` — or a strategy —
/// `baseline`, `sd`, `sdf`, `online` — is named) as a chrome-trace JSON
/// file, viewable in `chrome://tracing` or <https://ui.perfetto.dev>:
/// softmax stretches shrinking under SDF, the IR sliver, the fused MatMuls
/// widening. It writes `trace.json` unless `--out` names a path; that file
/// is not a checked-in result, so the output rule of
/// [`BenchArgs::out_path`] does not apply.
pub fn export_trace(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device_and(|a| model_named(a).is_some() || strategy_named(a).is_some())?;
    let model = args
        .positionals
        .iter()
        .find_map(|a| model_named(a))
        .unwrap_or_else(ModelConfig::bert_large);
    let strategy = args
        .positionals
        .iter()
        .find_map(|a| strategy_named(a))
        .unwrap_or(SoftmaxStrategy::Recomposed);
    let path = args.out.as_deref().unwrap_or("trace.json");

    let params = RunParams::new(PAPER_SEQ_LEN).strategy(strategy);
    let report = Session::new(&model, &params, &device)?.run()?;
    write_file(path, &to_chrome_trace(&report.timeline))?;
    println!(
        "wrote {path}: {} kernels, {:.2} ms simulated on {} ({}, {})",
        report.timeline.len(),
        report.total_time_s() * 1e3,
        device.name,
        model.name,
        strategy.label(),
    );
    println!("open in chrome://tracing or https://ui.perfetto.dev");
    Ok(())
}
