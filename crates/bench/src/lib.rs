//! What every experiment of the `resoftmax-bench` driver shares: the
//! command-line grammar ([`BenchArgs`]), the output rule
//! ([`BenchArgs::out_path`]), report writing ([`write_report`]), the
//! `{bin, config, metric, value}` row schema ([`BenchRow`]), the
//! determinism gate ([`determinism_gate`]) and the static-analysis grid
//! ([`analysis_grid`]).
//!
//! The driver runs one experiment per invocation, or all of them:
//!
//! ```text
//! cargo run --release -p resoftmax-bench -- fig8_sd_sdf
//! cargo run --release -p resoftmax-bench -- fig9_sweeps seq
//! cargo run --release -p resoftmax-bench -- fig2_breakdown t4
//! cargo run --release -p resoftmax-bench -- reproduce --smoke
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{LibraryProfile, ModelConfig, RunParams, SoftmaxStrategy};
use serde::{Deserialize, Serialize, Value};

/// Paper's evaluation sequence length.
pub const PAPER_SEQ_LEN: usize = 4096;

/// The Fig. 9(a) sequence lengths.
pub const FIG9_SEQ_LENS: [usize; 5] = [512, 1024, 2048, 4096, 8192];

/// The Fig. 9(b) batch sizes.
pub const FIG9_BATCHES: [usize; 4] = [1, 2, 4, 8];

/// Where a run other than the one a checked-in result holds (`--smoke`,
/// another device) writes its report, so it never overwrites that result.
const SMOKE_DIR: &str = "target/bench-smoke";

/// Why a bench command failed.
#[derive(Debug)]
pub enum Error {
    /// The command line is malformed: the driver prints its usage and
    /// exits 2.
    Usage(String),
    /// The experiment failed: the driver prints the error and exits 1.
    Failed(Box<dyn std::error::Error>),
}

impl Error {
    /// A failure described by `msg` alone.
    pub fn failed(msg: impl Into<String>) -> Self {
        Error::Failed(msg.into().into())
    }
}

impl<E: std::error::Error + 'static> From<E> for Error {
    fn from(e: E) -> Self {
        Error::Failed(Box::new(e))
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Usage(msg) => write!(f, "{msg}"),
            Error::Failed(e) => write!(f, "{e}"),
        }
    }
}

fn usage(msg: impl Into<String>) -> Error {
    Error::Usage(msg.into())
}

/// The command line after the experiment name. Flags may appear anywhere;
/// every other argument is a positional selector the experiment itself
/// interprets (a device name, a sweep, a sequence length, ...).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BenchArgs {
    /// `--smoke`: the reduced grid and the determinism gate, where the
    /// experiment has them. Every experiment accepts it, so `reproduce
    /// --smoke` can pass it to all of them.
    pub smoke: bool,
    /// `--out <path>`: where to write the report (see
    /// [`out_path`](Self::out_path)).
    pub out: Option<String>,
    /// `--numerics`: `analyze` also certifies every schedule's numeric
    /// error bound.
    pub numerics: bool,
    /// The positional selectors, in order.
    pub positionals: Vec<String>,
}

impl BenchArgs {
    /// Parses the arguments that follow the experiment name. An unknown
    /// flag, `--out` without a path, or `--out` given twice is a usage
    /// error.
    pub fn from_args(args: impl IntoIterator<Item = String>) -> Result<Self, Error> {
        let mut parsed = BenchArgs::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--numerics" => parsed.numerics = true,
                "--out" => {
                    let path = iter
                        .next()
                        .filter(|p| !p.starts_with('-'))
                        .ok_or_else(|| usage("--out needs a path"))?;
                    if parsed.out.replace(path).is_some() {
                        return Err(usage("--out given twice"));
                    }
                }
                _ if arg.starts_with('-') => return Err(usage(format!("unknown flag `{arg}`"))),
                _ => parsed.positionals.push(arg),
            }
        }
        Ok(parsed)
    }

    /// Checks that the experiment takes every flag given besides `--smoke`:
    /// `takes` lists them as spelled on the command line (`"--out"`,
    /// `"--numerics"`). Any other is a usage error, so no flag is silently
    /// ignored.
    pub fn accept_flags(&self, takes: &[&str]) -> Result<(), Error> {
        let given = [("--out", self.out.is_some()), ("--numerics", self.numerics)];
        match given
            .iter()
            .find(|&&(flag, on)| on && !takes.contains(&flag))
        {
            Some((flag, _)) => Err(usage(format!("this experiment takes no `{flag}`"))),
            None => Ok(()),
        }
    }

    /// Checks that `accept` takes every positional; the first one it
    /// rejects is a usage error.
    pub fn accept_positionals(&self, accept: impl Fn(&str) -> bool) -> Result<(), Error> {
        match self.positionals.iter().find(|a| !accept(a)) {
            Some(a) => Err(usage(format!("unknown argument `{a}`"))),
            None => Ok(()),
        }
    }

    /// The device the positionals name (the A100 when none does), for an
    /// experiment whose only selector is the device.
    pub fn device(&self) -> Result<DeviceSpec, Error> {
        self.device_and(|_| false)
    }

    /// Like [`device`](Self::device), for an experiment that also takes
    /// the positionals `other` accepts.
    pub fn device_and(&self, other: impl Fn(&str) -> bool) -> Result<DeviceSpec, Error> {
        self.accept_positionals(|a| device_named(a).is_some() || other(a))?;
        Ok(self
            .positionals
            .iter()
            .find_map(|a| device_named(a))
            .unwrap_or_else(DeviceSpec::a100))
    }

    /// Where an experiment writes its checked-in result `file`: the `--out`
    /// path when given, otherwise [`default_path`](Self::default_path).
    pub fn out_path(&self, file: &str) -> String {
        self.out.clone().unwrap_or_else(|| self.default_path(file))
    }

    /// Where this run keeps `file` when no `--out` names it: `file` itself
    /// for the run the checked-in files hold (full scale, on the A100);
    /// otherwise, under `--smoke` or for another device,
    /// `target/bench-smoke/<file>`. Reports and the tuning database
    /// (`TUNE_CACHE.json`) both follow it.
    pub fn default_path(&self, file: &str) -> String {
        let other_device = self
            .positionals
            .iter()
            .filter_map(|a| device_named(a))
            .any(|d| d != DeviceSpec::a100());
        if self.smoke || other_device {
            format!("{SMOKE_DIR}/{file}")
        } else {
            file.to_owned()
        }
    }

    /// Under `--out <path>`, writes `records` to that path as rows
    /// ([`rows_of`] with `bin`), for an experiment with no checked-in
    /// result; without it, does nothing.
    pub fn write_rows<T: Serialize>(&self, bin: &str, records: &[T]) -> Result<(), Error> {
        match &self.out {
            Some(path) => write_report(path, &rows_of(bin, records)?),
            None => Ok(()),
        }
    }
}

/// The device preset `name` selects: `a100`, `3090` or `rtx3090`, `t4`
/// (any case).
pub fn device_named(name: &str) -> Option<DeviceSpec> {
    match name.to_lowercase().as_str() {
        "a100" => Some(DeviceSpec::a100()),
        "3090" | "rtx3090" => Some(DeviceSpec::rtx3090()),
        "t4" => Some(DeviceSpec::t4()),
        _ => None,
    }
}

/// One row of a machine-readable benchmark report — the schema of every
/// `BENCH_*.json` file and of every `--out` report but a chrome trace, so
/// downstream tooling can concatenate them without per-experiment parsers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// The producing experiment (`"tune"`, `"ablation_tile_size"`, …).
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

/// Flattens experiment records into rows, one per `f64` field. A record's
/// string and integer fields, in field order, form each of its rows'
/// `config` (integers as `name=value`); the float field's name is the
/// `metric`. Any other field shape is an error.
pub fn rows_of<T: Serialize>(bin: &str, records: &[T]) -> Result<Vec<BenchRow>, Error> {
    let mut rows = Vec::new();
    for record in records {
        let value = record.to_value();
        let fields = value
            .as_object()
            .ok_or_else(|| Error::failed(format!("{bin}: a record is not a struct")))?;
        let mut config = Vec::new();
        let mut metrics = Vec::new();
        for (name, field) in fields {
            match field {
                Value::Str(s) => config.push(s.clone()),
                Value::U64(n) => config.push(format!("{name}={n}")),
                Value::I64(n) => config.push(format!("{name}={n}")),
                Value::F64(x) => metrics.push((name, *x)),
                _ => {
                    return Err(Error::failed(format!(
                        "{bin}: field `{name}` is not a string, an integer or a float"
                    )))
                }
            }
        }
        let config = config.join("/");
        rows.extend(
            metrics
                .into_iter()
                .map(|(metric, x)| BenchRow::new(bin, &config, metric.as_str(), x)),
        );
    }
    Ok(rows)
}

/// Writes `contents` to `path`, creating the parent directory first.
pub fn write_file(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}

/// Writes `report` to `path` as pretty JSON with a trailing newline (the
/// `BENCH_*.json` convention) and logs the destination.
pub fn write_report<T: Serialize>(path: &str, report: &T) -> Result<(), Error> {
    let json = serde_json::to_string_pretty(report)?;
    write_file(path, &format!("{json}\n"))?;
    match report.to_value().as_array() {
        Some(rows) => println!("report written to {path} ({} rows)", rows.len()),
        None => println!("report written to {path}"),
    }
    Ok(())
}

/// The determinism gate of the simulated-clock experiments: empties the
/// kernel-pricing memo, runs `run` at 1 and at 4 worker threads, then once
/// more with the memo warm from the first two, asserts that all three
/// results serialize to the same JSON, and returns the first. Emptying the
/// memo first keeps the first leg cold, and the memo counts it prints its
/// own, even when other experiments ran earlier in the process
/// (`reproduce`). `what` names the experiment in the assertion messages.
pub fn determinism_gate<T: Serialize>(
    what: &str,
    run: impl Fn() -> Result<T, Error>,
) -> Result<T, Error> {
    resoftmax_gpusim::clear_sim_cache();
    let [serial, parallel] = [1, 4].map(|threads| {
        resoftmax_parallel::set_thread_override(Some(threads));
        run()
    });
    resoftmax_parallel::set_thread_override(None);
    let serial = serial?;
    let ser = serde_json::to_string(&serial)?;
    assert_eq!(
        ser,
        serde_json::to_string(&parallel?)?,
        "{what} rows must be identical at 1 vs 4 threads"
    );
    println!("smoke: rows bit-identical at 1 and 4 worker threads");
    assert_eq!(
        ser,
        serde_json::to_string(&run()?)?,
        "{what} rows must be identical with a warm cache"
    );
    let stats = resoftmax_gpusim::sim_cache_stats();
    println!(
        "smoke: warm-cache leg bit-identical (pricing cache: {} entries, \
         {} hits, {} misses)",
        stats.kernel_entries, stats.hits, stats.misses
    );
    Ok(serial)
}

/// The complete static-analysis grid the `analyze` experiment sweeps: the
/// evaluation models (plus the two extra presets) × the four softmax
/// strategies × the Fig. 9 sequence lengths, the Fig. 7 library line-up at
/// the paper's default length, and the Fig. 9 batch sweep — in
/// deterministic reporting order.
pub fn analysis_grid() -> Vec<(ModelConfig, RunParams)> {
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
            for &seq_len in &FIG9_SEQ_LENS {
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
        for &batch in &FIG9_BATCHES {
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

    fn parse(args: &[&str]) -> Result<BenchArgs, Error> {
        BenchArgs::from_args(args.iter().map(|&a| a.to_owned()))
    }

    fn is_usage(r: &Result<impl fmt::Debug, Error>) -> bool {
        matches!(r, Err(Error::Usage(_)))
    }

    #[test]
    fn analysis_grid_shape() {
        let grid = analysis_grid();
        // 6 models × (4 strategies × 5 seq lens + lineup × 4 + 4 batches × 4).
        let lineup = LibraryProfile::fig7_lineup().len();
        assert_eq!(grid.len(), 6 * (4 * 5 + lineup * 4 + 4 * 4));
    }

    #[test]
    fn flags_and_positionals_parse_in_any_order() {
        let args = parse(&["t4", "--smoke", "--out", "x.json", "seq", "--numerics"])
            .expect("valid command line");
        assert_eq!(
            args,
            BenchArgs {
                smoke: true,
                out: Some("x.json".into()),
                numerics: true,
                positionals: vec!["t4".into(), "seq".into()],
            }
        );
        assert_eq!(parse(&[]).expect("empty is valid"), BenchArgs::default());
        // A bare `.json` argument is a positional like any other, never a
        // report path.
        assert_eq!(
            parse(&["out.json"]).expect("parses").positionals,
            ["out.json"]
        );
    }

    #[test]
    fn malformed_flags_are_usage_errors() {
        assert!(is_usage(&parse(&["--smok"])));
        assert!(is_usage(&parse(&["--trace"])));
        assert!(is_usage(&parse(&["--json"])));
        assert!(is_usage(&parse(&["-v"])));
        assert!(is_usage(&parse(&["--out"])));
        assert!(is_usage(&parse(&["--out", "--smoke"])));
        assert!(is_usage(&parse(&["--out", "a.json", "--out", "b.json"])));
    }

    #[test]
    fn device_selection() {
        let device = |args: &[&str]| parse(args).expect("parses").device().map(|d| d.name);
        assert_eq!(device(&[]).expect("default"), "A100");
        assert_eq!(device(&["t4"]).expect("t4"), "T4");
        assert_eq!(device(&["3090"]).expect("3090"), "RTX 3090");
        assert_eq!(device(&["RTX3090"]).expect("any case"), "RTX 3090");
        assert!(is_usage(&device(&["v100"])));
        assert!(is_usage(&device(&["seq"])));
        let with_sweep = parse(&["seq", "a100"])
            .expect("parses")
            .device_and(|a| a == "seq")
            .expect("seq is accepted");
        assert_eq!(with_sweep.name, "A100");
    }

    #[test]
    fn output_rule() {
        let out = |args: &[&str]| parse(args).expect("parses").out_path("BENCH_x.json");
        assert_eq!(out(&[]), "BENCH_x.json");
        assert_eq!(out(&["--smoke"]), "target/bench-smoke/BENCH_x.json");
        assert_eq!(out(&["--smoke", "--out", "y.json"]), "y.json");
        assert_eq!(out(&["--out", "y.json"]), "y.json");
        // Only the A100 run is checked in: another device never overwrites it.
        assert_eq!(out(&["a100"]), "BENCH_x.json");
        assert_eq!(out(&["t4"]), "target/bench-smoke/BENCH_x.json");
        assert_eq!(out(&["seq", "3090"]), "target/bench-smoke/BENCH_x.json");
        assert_eq!(out(&["t4", "--out", "y.json"]), "y.json");
        // The tuning database follows the same rule; `--out` names the
        // report only.
        let cache = |args: &[&str]| parse(args).expect("parses").default_path("TUNE_CACHE.json");
        assert_eq!(cache(&[]), "TUNE_CACHE.json");
        assert_eq!(cache(&["--smoke"]), "target/bench-smoke/TUNE_CACHE.json");
        assert_eq!(cache(&["t4"]), "target/bench-smoke/TUNE_CACHE.json");
        assert_eq!(cache(&["--out", "y.json"]), "TUNE_CACHE.json");
    }

    #[test]
    fn flags_an_experiment_does_not_take_are_usage_errors() {
        let accept =
            |args: &[&str], takes: &[&str]| parse(args).expect("parses").accept_flags(takes);
        assert!(accept(&["--smoke", "t4"], &[]).is_ok());
        assert!(accept(&["--numerics", "--out", "y.json"], &["--out", "--numerics"]).is_ok());
        assert!(accept(&["--numerics"], &["--numerics"]).is_ok());
        assert!(is_usage(&accept(&["--out", "y.json"], &[])));
        assert!(is_usage(&accept(&["--out", "y.json"], &["--numerics"])));
        assert!(is_usage(&accept(&["--numerics"], &["--out"])));
    }

    #[derive(Serialize)]
    struct Point {
        model: String,
        seq_len: usize,
        speedup: f64,
        frac: f64,
    }

    #[test]
    fn records_flatten_to_one_row_per_float_field() {
        let rows = rows_of(
            "sweep",
            &[Point {
                model: "BERT".into(),
                seq_len: 512,
                speedup: 1.5,
                frac: 0.25,
            }],
        )
        .expect("flat record");
        assert_eq!(
            rows,
            [
                BenchRow::new("sweep", "BERT/seq_len=512", "speedup", 1.5),
                BenchRow::new("sweep", "BERT/seq_len=512", "frac", 0.25),
            ]
        );
        assert!(rows_of("nested", &[vec![1.0]]).is_err());
    }
}
