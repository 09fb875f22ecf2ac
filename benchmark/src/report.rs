//! Named metrics with units, directions and regression bounds, and the
//! result files `compare` reads back.

use std::io;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// Bound on host-clock metrics: the share of the parent's median by which
/// the metric may worsen before a change counts as a regression. Host time
/// on a shared machine drifts by more than a tenth from minute to minute,
/// so the bound is wide; `unit_rel` stays well inside it.
pub const HOST_BOUND: f64 = 0.25;
/// Absolute floor under the `setup_s` bound, seconds: set-up is the
/// shortest interval timed, and it cannot be normalised.
pub const SETUP_FLOOR_S: f64 = 0.05;

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Metric name, e.g. `"ttft_p50_s"`.
    pub name: String,
    /// The value, in `unit`.
    pub value: f64,
    /// Unit, e.g. `"ms"`, `"count"`.
    pub unit: String,
    /// `"lower"` or `"higher"` when a direction is better, `"none"` for
    /// per-layer metrics that only explain the end-to-end ones.
    pub better: String,
    /// Allowed worsening as a share of the parent's median.
    pub bound_rel: Option<f64>,
    /// Allowed worsening in `unit` (the larger of the two bounds applies).
    pub bound_abs: Option<f64>,
}

impl Metric {
    /// The worsening this metric tolerates against a parent median.
    pub fn allowed(&self, parent: f64) -> Option<f64> {
        match (self.bound_rel, self.bound_abs) {
            (None, None) => None,
            (rel, abs) => Some((rel.unwrap_or(0.0) * parent.abs()).max(abs.unwrap_or(0.0))),
        }
    }
}

/// The metrics of one run, in the order they were measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
}

impl Report {
    fn push(
        &mut self,
        name: &str,
        value: f64,
        unit: &str,
        better: &str,
        bound: (Option<f64>, Option<f64>),
    ) {
        assert!(self.get(name).is_none(), "metric {name} reported twice");
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit: unit.to_owned(),
            better: better.to_owned(),
            bound_rel: bound.0,
            bound_abs: bound.1,
        });
    }

    /// A host-clock end-to-end metric (bound [`HOST_BOUND`]).
    pub fn host(&mut self, name: &str, value: f64, unit: &str, better: &str) {
        self.push(name, value, unit, better, (Some(HOST_BOUND), None));
    }

    /// A simulated-clock or output-quality metric. It is a deterministic
    /// function of the seed, so any worsening counts (bound 0).
    pub fn exact(&mut self, name: &str, value: f64, unit: &str, better: &str) {
        self.push(name, value, unit, better, (Some(0.0), Some(0.0)));
    }

    /// The set-up time, seconds.
    pub fn setup(&mut self, value: f64) {
        self.push(
            "setup_s",
            value,
            "s",
            "lower",
            (Some(HOST_BOUND), Some(SETUP_FLOOR_S)),
        );
    }

    /// A per-layer metric, with no bound of its own.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.push(name, value, unit, "none", (None, None));
    }

    /// The metric named `name`.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric, in report order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }
}

/// Everything one run measured, as written under the output directory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunFile {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Whether this was the traced run.
    pub traced: bool,
    /// Cores the host reports.
    pub nproc: usize,
    /// Worker threads the parallel pool was pinned to.
    pub workers: usize,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Units of work attempted.
    pub attempted: u64,
    /// Units with at least one failed gate.
    pub failed: u64,
    /// The failed gates, one line each.
    pub failures: Vec<String>,
    /// Every metric of the run.
    pub metrics: Vec<Metric>,
}

impl RunFile {
    /// Writes the run as pretty JSON.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let json = serde_json::to_string_pretty(self).map_err(io::Error::other)?;
        std::fs::write(path, json + "\n")
    }

    /// Reads a run written by [`write`](Self::write).
    pub fn read(path: &Path) -> io::Result<RunFile> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}
