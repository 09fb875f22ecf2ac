//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--smoke]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- compare PARENT_DIR CHANGE_DIR
//! ```
//!
//! Four seeded workloads (see `README.md` for why each exists) each repeat
//! a *unit* of work, timed on the host clock against a fixed reference job,
//! and check the unit's outputs: numeric kernels against an f64 oracle,
//! simulated schedules against the static analyzer, fleets against request
//! and KV-block conservation. Every metric prints as `workload metric value
//! unit`; the last line is one JSON object with the headline metrics that
//! `BENCHMARK.json` declares. `--trace 1` interleaves untraced and traced
//! units and reports where each unit's host time went, by crate. Without
//! `--workload` every workload runs in its own child process.

mod attention;
mod compare;
mod fleet;
mod fleet_burst;
mod fleet_steady;
mod pipeline;
mod reference;
mod report;
mod rng;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use report::{Report, RunFile};
use serde::Serialize;
use trace::Tracer;

/// Workload names, in the order a bare invocation runs them.
const WORKLOADS: [&str; 4] = [
    "attention_numeric",
    "paper_pipeline",
    "fleet_steady",
    "fleet_burst",
];

/// Settings that would change what the program computes or how it is
/// timed; a run with any of them set measures something else.
const REFUSED_ENV: [&str; 4] = [
    "RESOFTMAX_SIM_CACHE",
    "RESOFTMAX_THREADS",
    "RESOFTMAX_TRACE",
    "RESOFTMAX_METRICS",
];

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
const SETUP_REPS: usize = 3;

/// `BENCHMARK.json`, which declares the headline metrics each run ends with.
const SPEC: &str = include_str!("../../BENCHMARK.json");

/// Layers whose host share is reported.
const HOST_LAYERS: [&str; 10] = [
    "fp16", "tensor", "kernels", "model", "analyzer", "gpusim", "tune", "serve", "ctrl", "bench",
];

/// Work a unit did in each layer, counted by the benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    pub fp16_elems: f64,
    pub kernel_calls: f64,
    pub kernels_built: f64,
    pub kernels_checked: f64,
    pub gpusim_kernels: f64,
    pub gpusim_misses: f64,
    pub gpusim_class_misses: f64,
    pub serve_iterations: f64,
    pub ctrl_decisions: f64,
    pub tune_buckets: f64,
}

/// One benchmark workload.
pub trait Workload: Sized {
    /// Builds the seeded inputs and everything the units reuse.
    fn setup(seed: u64, smoke: bool) -> Self;

    /// Runs one unit of work and checks its outputs, returning one line
    /// per failed gate. The runner empties the pricing cache first.
    fn unit(&mut self, tr: &mut Tracer) -> Vec<String>;

    /// Untimed work after a traced unit that attributes its host time.
    fn attribute(&mut self, _tr: &mut Tracer) -> Vec<String> {
        Vec::new()
    }

    /// Host seconds per layer of traced unit `unit`.
    fn host_by_layer(&self, tr: &Tracer, unit: usize) -> BTreeMap<&'static str, f64> {
        tr.self_time_by_layer(unit)
    }

    /// Work per unit in each layer (traced runs).
    fn counts(&self) -> Counts;

    /// The workload's own metrics: end-to-end ones from an untraced run,
    /// per-layer ones from a traced run.
    fn report(&self, tr: &Tracer, r: &mut Report);
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: false,
        out: PathBuf::from("target/benchmark"),
        smoke: false,
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        let mut value = || it.next().ok_or(format!("{a} needs a value"));
        match a.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?}; one of {WORKLOADS:?}"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be a finite number ≥ 0".to_owned());
                }
            }
            "--trace" => {
                args.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--smoke" => args.smoke = true,
            _ => return Err(format!("unknown argument {a:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, parent, change] => compare::main(Path::new(parent), Path::new(change)),
            _ => {
                eprintln!("usage: benchmark compare PARENT_DIR CHANGE_DIR");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = REFUSED_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("benchmark: refusing to run with {var} set; unset it and rerun");
        return ExitCode::from(2);
    }
    match &args.workload {
        None => run_all(&argv),
        Some(w) => match run(w, &args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// Runs every workload, each in its own child process.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", w])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("benchmark: {w} exited with {s}");
                ok = false;
            }
            Err(e) => {
                eprintln!("benchmark: cannot start {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run(workload: &str, args: &Args) -> Result<bool, String> {
    let (run, tr) = measure_named(workload, args)?;
    emit(workload, args, &run, &tr)?;
    for f in &run.failures {
        eprintln!("{workload}: FAILED {f}");
    }
    Ok(run.correct)
}

fn measure_named(workload: &str, args: &Args) -> Result<(RunFile, Tracer), String> {
    match workload {
        "attention_numeric" => measure::<attention::Attention>(workload, args),
        "paper_pipeline" => measure::<pipeline::Pipeline>(workload, args),
        "fleet_steady" => measure::<fleet_steady::Steady>(workload, args),
        "fleet_burst" => measure::<fleet_burst::Burst>(workload, args),
        _ => unreachable!("workload names are checked while parsing"),
    }
}

/// Peak resident set size of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_owned())
}

/// Units attempted and the gates they failed.
#[derive(Default)]
struct Gates {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
}

impl Gates {
    fn count(&mut self, unit_failures: Vec<String>) {
        self.attempted += 1;
        if !unit_failures.is_empty() {
            self.failed += 1;
            self.failures.extend(unit_failures);
        }
    }
}

/// Sets up, measures units for `args.seconds` and checks them.
fn measure<W: Workload>(name: &str, args: &Args) -> Result<(RunFile, Tracer), String> {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    resoftmax_parallel::set_thread_override(Some(nproc));
    let workers = resoftmax_parallel::num_threads();
    let mut gates = Gates::default();

    // Set-up ends with one unit, so lazy initialisation and any work a
    // change moves out of the units land in `setup_s`.
    let mut off = Tracer::new(false);
    let setup_reps = if args.traced { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut state = None;
    for _ in 0..setup_reps {
        resoftmax_gpusim::clear_sim_cache();
        let t0 = Instant::now();
        let mut w = W::setup(args.seed, args.smoke);
        let unit_failures = w.unit(&mut off);
        setup_s.push(t0.elapsed().as_secs_f64());
        gates.count(unit_failures);
        state = Some(w);
    }
    let mut w = state.expect("set-up ran at least once");
    // Read before the first reference job, whose own allocations would
    // otherwise set the peak.
    let peak_rss_mb = peak_rss_mb()?;

    let mut tr = Tracer::new(args.traced);
    let (mut plain_s, mut traced_s, mut ref_s) = (Vec::new(), Vec::new(), Vec::new());
    let t_measure = Instant::now();
    loop {
        let traced_turn = args.traced && plain_s.len() > traced_s.len();
        // Traced units follow the reference job too, so the overhead ratio
        // compares units run under the same conditions.
        let reference_s = reference::time_s();
        resoftmax_gpusim::clear_sim_cache();
        let unit_failures = if traced_turn {
            tr.set_unit(traced_s.len());
            let t0 = Instant::now();
            let id = tr.begin("unit", "bench");
            let f = w.unit(&mut tr);
            tr.end(id);
            traced_s.push(t0.elapsed().as_secs_f64());
            [f, w.attribute(&mut tr)].concat()
        } else {
            ref_s.push(reference_s);
            let t0 = Instant::now();
            let f = w.unit(&mut off);
            plain_s.push(t0.elapsed().as_secs_f64());
            f
        };
        gates.count(unit_failures);
        let enough = !args.traced || !traced_s.is_empty();
        if enough && t_measure.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let measured_s = t_measure.elapsed().as_secs_f64();

    let mut r = Report::default();
    // Each unit over the reference job timed just before it.
    let rel: Vec<f64> = plain_s.iter().zip(&ref_s).map(|(u, r)| u / r).collect();
    r.host("unit_rel", stats::median(&rel), "ratio", "lower");
    r.host("unit_p50_ms", stats::median(&plain_s) * 1e3, "ms", "lower");
    let (q1, q3) = stats::quartiles(&plain_s);
    r.info("unit_q1_ms", q1 * 1e3, "ms");
    r.info("unit_q3_ms", q3 * 1e3, "ms");
    r.info("unit_n", plain_s.len() as f64, "count");
    r.info("reference_p50_ms", stats::median(&ref_s) * 1e3, "ms");
    r.host("peak_rss_mb", peak_rss_mb, "MB", "lower");
    r.setup(stats::median(&setup_s));
    r.info("measured_s", measured_s, "s");
    r.info("nproc", nproc as f64, "count");
    r.info("parallel.workers", workers as f64, "count");
    if args.traced {
        layer_metrics(&w, &tr, &plain_s, &traced_s, &mut r);
    }
    w.report(&tr, &mut r);
    r.exact(
        "failed_ratio",
        gates.failed as f64 / gates.attempted as f64,
        "ratio",
        "lower",
    );

    let run = RunFile {
        workload: name.to_owned(),
        seed: args.seed,
        traced: args.traced,
        nproc,
        workers,
        correct: gates.failed == 0,
        attempted: gates.attempted,
        failed: gates.failed,
        failures: gates.failures,
        metrics: r.metrics().to_vec(),
    };
    Ok((run, tr))
}

/// The per-layer metrics shared by every workload.
fn layer_metrics<W: Workload>(
    w: &W,
    tr: &Tracer,
    plain_s: &[f64],
    traced_s: &[f64],
    r: &mut Report,
) {
    r.info(
        "trace.overhead_ratio",
        stats::median(traced_s) / stats::median(plain_s),
        "ratio",
    );
    r.info("trace.units", traced_s.len() as f64, "count");
    r.info(
        "trace.spans_per_unit",
        tr.spans().len() as f64 / traced_s.len() as f64,
        "count",
    );
    for layer in HOST_LAYERS {
        let shares: Vec<f64> = traced_s
            .iter()
            .enumerate()
            .map(|(u, wall)| {
                let by = w.host_by_layer(tr, u);
                100.0 * by.get(layer).copied().unwrap_or(0.0) / wall
            })
            .collect();
        r.info(&format!("{layer}.host_pct"), stats::median(&shares), "%");
    }
    let c = w.counts();
    for (name, v) in [
        ("fp16.elems_per_unit", c.fp16_elems),
        ("kernels.calls_per_unit", c.kernel_calls),
        ("model.kernels_built_per_unit", c.kernels_built),
        ("analyzer.kernels_checked_per_unit", c.kernels_checked),
        ("gpusim.kernels_per_unit", c.gpusim_kernels),
        ("gpusim.misses_per_unit", c.gpusim_misses),
        ("gpusim.class_misses_per_unit", c.gpusim_class_misses),
        ("serve.iterations_per_unit", c.serve_iterations),
        ("ctrl.decisions_per_unit", c.ctrl_decisions),
        ("tune.buckets_per_unit", c.tune_buckets),
    ] {
        r.info(name, v, "count");
    }
}

/// One headline metric on the last line.
#[derive(Debug, Serialize)]
struct Headline {
    value: f64,
    unit: String,
}

/// The run's metrics that `BENCHMARK.json` declares for the last line: the
/// end-to-end ones, or the per-layer ones for a traced run. Each must be
/// reported, finite and in its declared unit.
fn headline(run: &RunFile) -> Result<BTreeMap<String, Headline>, String> {
    let spec: serde_json::Value =
        serde_json::from_str(SPEC).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let declared = spec[if run.traced {
        "per_layer"
    } else {
        "end_to_end"
    }]
    .as_array()
    .ok_or("BENCHMARK.json lists no metrics")?;
    let mut out = BTreeMap::new();
    for d in declared {
        let (Some(name), Some(unit)) = (d["name"].as_str(), d["unit"].as_str()) else {
            return Err(format!("BENCHMARK.json: malformed metric {d:?}"));
        };
        let m = run
            .metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("{} did not report {name}", run.workload))?;
        if m.unit != unit || !m.value.is_finite() {
            return Err(format!(
                "{}: {name} = {} {}, declared in {unit}",
                run.workload, m.value, m.unit
            ));
        }
        out.insert(
            name.to_owned(),
            Headline {
                value: m.value,
                unit: m.unit.clone(),
            },
        );
    }
    Ok(out)
}

/// Prints every metric, writes the run file (and the chrome trace), and
/// prints the summary line last.
fn emit(name: &str, args: &Args, run: &RunFile, tr: &Tracer) -> Result<(), String> {
    for m in &run.metrics {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let stem = format!(
        "{name}-seed{}-{}",
        args.seed,
        if args.traced { "traced" } else { "untraced" }
    );
    let path = args.out.join(format!("{stem}.json"));
    run.write(&path)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if tr.is_on() {
        let path = args.out.join(format!("{stem}.trace.json"));
        tr.write_chrome(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    #[derive(Serialize)]
    struct Summary {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: BTreeMap<String, Headline>,
    }
    let summary = Summary {
        correct: run.correct,
        attempted: run.attempted,
        failed: run.failed,
        metrics: headline(run)?,
    };
    let line = serde_json::to_string(&summary)
        .map_err(|e| format!("{name}: summary does not serialize: {e}"))?;
    println!("{line}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv(
            "--workload fleet_burst --seed 9 --seconds 12 --trace 1",
        ))
        .expect("valid arguments");
        assert_eq!(a.workload.as_deref(), Some("fleet_burst"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (9, 12.0, true, false)
        );
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace yes")).is_err());
        assert!(parse_args(&argv("--seconds -1")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    /// Every workload at its smoke size, untraced and traced: all gates
    /// pass and every metric `BENCHMARK.json` declares is reported, finite
    /// and in its declared unit.
    #[test]
    fn smoke_pass_of_every_workload() {
        for w in WORKLOADS {
            for traced in [false, true] {
                let args = Args {
                    workload: Some(w.to_owned()),
                    seed: 7,
                    seconds: 0.0,
                    traced,
                    out: PathBuf::new(),
                    smoke: true,
                };
                let (run, tr) = measure_named(w, &args).expect("smoke run measures");
                assert!(run.correct, "{w}: {:?}", run.failures);
                assert_eq!(tr.is_on(), traced);
                let headline = headline(&run).expect("every declared metric is reported");
                assert!(!headline.is_empty());
            }
        }
    }
}
