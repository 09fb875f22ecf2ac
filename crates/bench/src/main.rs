//! `resoftmax-bench`: the one driver behind every table, figure, ablation,
//! extension, serving and tuning result of the repository.
//!
//! ```text
//! resoftmax-bench <experiment> [selectors] [--smoke] [--out PATH] [--numerics]
//! resoftmax-bench reproduce [--smoke]
//! ```
//!
//! Selectors are positional and experiment-specific: a device (`a100`,
//! `3090`, `t4`), every device (`all`), a model or a strategy. Every
//! experiment takes `--smoke`; `--out` and `--numerics` only where the
//! registry lists them. Standard output is a table for people; `--out`
//! writes `{bin, config, metric, value}` rows, the schema of every
//! checked-in `BENCH_*.json` (`export_trace` writes a chrome trace). Every
//! simulated table of the paper, the ablations and the extensions is
//! computed and printed by `figures` alone, one table per bin of its rows,
//! and `grid_sweep` prints its rows the same way. An unknown
//! experiment, selector, or a flag the experiment does not take is a usage
//! error (exit 2); a failed experiment exits 1. When `RESOFTMAX_TRACE` is
//! set, the merged chrome-trace of the run is written after the experiment.
//!
//! `reproduce` runs every experiment except the export tools in registry
//! order and writes every checked-in `BENCH_*.json`, so a clean
//! `git diff` afterwards pins every figure; `reproduce --smoke` runs the
//! reduced grids and their determinism gates and writes nothing checked in.

#![forbid(unsafe_code)]

mod paper;
mod serving;
mod tools;
mod tune;

use std::fmt::Write as _;
use std::process::ExitCode;

use resoftmax_bench::{BenchArgs, Error};

/// An experiment's entry point.
type Experiment = fn(&BenchArgs) -> Result<(), Error>;

/// Every subcommand — name, one-line summary, the flags it takes besides
/// `--smoke` (which every experiment accepts), entry point — in the order
/// `reproduce` runs them.
#[rustfmt::skip]
const EXPERIMENTS: &[(&str, &str, &[&str], Experiment)] = &[
    ("verify", "Eq. 1/2/3, fusion and online softmax checked numerically", &[], paper::verify),
    ("table1_specs", "Table 1: the evaluation GPUs' specifications", &[], paper::table1_specs),
    ("figures", "Figs. 2/5/7/8/9, §5.1, §6, ablations, extensions: tables, rows → BENCH_figures.json, claims [device]", &["--out"], paper::figures),
    ("serve_sim", "continuous-batching serving grid → BENCH_serve.json", &["--out"], serving::serve_sim),
    ("fleet_sim", "fleet SLO knee and scenarios → BENCH_fleet.json", &["--out"], serving::fleet_sim),
    ("ctrl_sim", "adaptive control plane vs static fleets → BENCH_ctrl.json", &["--out"], serving::ctrl_sim),
    ("tune", "schedule autotuning per workload bucket → BENCH_tune.json [device]", &["--out"], tune::tune),
    ("analyze", "static analysis of every evaluation schedule", &["--numerics"], tools::analyze),
    ("grid_sweep", "the whole design space [device|all]", &["--out"], tools::grid_sweep),
    ("export_trace", "one run as a chrome trace [device] [model] [strategy]", &["--out"], tools::export_trace),
    ("reproduce", "every experiment above but the export tools", &[], reproduce),
];

/// Registered subcommands `reproduce` does not run: the two export tools,
/// which regenerate nothing checked in, and itself.
const NOT_REPRODUCED: [&str; 3] = ["grid_sweep", "export_trace", "reproduce"];

/// Runs every experiment in registry order, each under a header, passing
/// `--smoke` through.
fn reproduce(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let each = BenchArgs {
        smoke: args.smoke,
        ..BenchArgs::default()
    };
    for (name, summary, _, run) in EXPERIMENTS {
        if NOT_REPRODUCED.contains(name) {
            continue;
        }
        let rule = "=".repeat(72);
        println!("\n{rule}\n{name}: {summary}\n{rule}");
        run(&each).map_err(|e| Error::failed(format!("{name}: {e}")))?;
    }
    Ok(())
}

/// The subcommand table, as printed on a usage error.
fn usage_table() -> String {
    let mut table =
        String::from("usage: resoftmax-bench <experiment> [selectors] [--smoke] [flags]\n\n");
    for (name, summary, flags, _) in EXPERIMENTS {
        write!(table, "  {name:<26} {summary}").expect("write to String");
        for flag in *flags {
            let value = if *flag == "--out" { " PATH" } else { "" };
            write!(table, " [{flag}{value}]").expect("write to String");
        }
        table.push('\n');
    }
    table
}

/// When tracing is on (`RESOFTMAX_TRACE`), writes the merged chrome-trace
/// of everything recorded — the wall-clock spans of the engine, simulator
/// and thread pool, and the simulated kernel timeline of every run — for
/// `chrome://tracing` or <https://ui.perfetto.dev>, and prints the per-span
/// summary to stderr.
fn write_trace_if_enabled() -> Result<(), Error> {
    let Some(path) = resoftmax_obs::trace_output_path() else {
        return Ok(());
    };
    let rec = resoftmax_obs::recorder();
    std::fs::write(&path, rec.chrome_trace())?;
    eprint!("{}", rec.summary());
    let (spans, streams) = (rec.spans().len(), rec.sim_streams().len());
    eprintln!("trace: wrote {path} ({spans} wall-clock spans, {streams} simulated streams)");
    Ok(())
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(&(_, _, flags, run)) = EXPERIMENTS.iter().find(|(n, ..)| *n == name) else {
        if !name.is_empty() {
            eprintln!("resoftmax-bench: unknown experiment `{name}`");
        }
        eprint!("{}", usage_table());
        return ExitCode::from(2);
    };
    let ran = BenchArgs::from_args(argv).and_then(|args| {
        args.accept_flags(flags)?;
        run(&args)
    });
    let result = match ran {
        Err(Error::Usage(msg)) => Err(Error::Usage(msg)),
        // The experiment's own error, if any, is the one reported.
        ran => {
            let traced = write_trace_if_enabled();
            ran.and(traced)
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(Error::Usage(msg)) => {
            eprintln!("resoftmax-bench {name}: {msg}");
            eprint!("{}", usage_table());
            ExitCode::from(2)
        }
        Err(Error::Failed(e)) => {
            eprintln!("resoftmax-bench {name}: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every name is registered once, every listed flag is spelled as the
    /// parser knows it, and every name `reproduce` skips is registered.
    #[test]
    fn registry_is_consistent() {
        for (i, (name, _, flags, _)) in EXPERIMENTS.iter().enumerate() {
            assert!(
                !EXPERIMENTS[..i].iter().any(|(n, ..)| n == name),
                "`{name}` is registered twice"
            );
            for &flag in *flags {
                let mut argv = vec![flag.to_owned()];
                if flag == "--out" {
                    argv.push("x.json".to_owned());
                }
                let args = BenchArgs::from_args(argv).expect("a flag the parser knows");
                assert!(args.accept_flags(flags).is_ok(), "{name} takes {flag}");
            }
        }
        for name in NOT_REPRODUCED {
            assert!(EXPERIMENTS.iter().any(|(n, ..)| *n == name), "{name}");
        }
    }

    /// The subcommands `text` names: each name (a word that starts with a
    /// lowercase letter) right after `resoftmax-bench -- `,
    /// `resoftmax-bench ` or `… ` (DESIGN's shorthand for the driver), and,
    /// when `headings` is set, the first name in each pair of backticks of a
    /// markdown heading.
    fn named_subcommands(text: &str, headings: bool) -> Vec<&str> {
        fn name(s: &str) -> Option<&str> {
            let end = s
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(s.len());
            s.starts_with(|c: char| c.is_ascii_lowercase())
                .then(|| &s[..end])
        }
        let mut names = Vec::new();
        for prefix in ["resoftmax-bench -- ", "resoftmax-bench ", "… "] {
            let after = text
                .match_indices(prefix)
                .map(|(i, _)| &text[i + prefix.len()..]);
            names.extend(after.filter_map(name));
        }
        let heading_lines = text.lines().filter(|l| headings && l.starts_with('#'));
        for heading in heading_lines {
            names.extend(heading.split('`').skip(1).step_by(2).filter_map(name));
        }
        names
    }

    /// Every subcommand the docs name is registered. CHANGELOG, CHANGES and
    /// ROADMAP are history, which may name retired ones, so they are not
    /// read.
    #[test]
    fn docs_name_only_registered_subcommands() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut stale = Vec::new();
        for doc in [
            "README.md",
            "EXPERIMENTS.md",
            "DESIGN.md",
            "CONTRIBUTING.md",
            ".claude/skills/verify/SKILL.md",
        ] {
            let text = std::fs::read_to_string(root.join(doc)).expect("a doc");
            for name in named_subcommands(&text, doc == "EXPERIMENTS.md") {
                if !EXPERIMENTS.iter().any(|(n, ..)| *n == name) {
                    stale.push(format!("{doc}: {name}"));
                }
            }
        }
        assert_eq!(stale, Vec::<String>::new(), "unregistered subcommands");
        // The scan sees each form.
        let named = named_subcommands(
            "`cargo run -p resoftmax-bench -- figures t4`, `resoftmax-bench tune`, \
             `… analyze`, `… 7 hits`\n## Fig. 8 (`fig8_sd_sdf`)\n",
            true,
        );
        assert_eq!(named, ["figures", "tune", "analyze", "fig8_sd_sdf"]);
    }
}
