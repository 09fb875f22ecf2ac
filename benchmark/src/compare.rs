//! `compare PARENT_DIR CHANGE_DIR`: judges two sets of runs of the
//! benchmark, one per commit, by the rules a performance claim must meet.
//!
//! Runs pair up by workload and seed (run at least ten seeds on each side,
//! alternating which commit runs first). For each end-to-end metric:
//!
//! * a bounded metric (host clock) is *improved* when the change wins at
//!   least nine tenths of the pairs, ties counting for neither side, and
//!   the medians differ by more than the parent's interquartile range; it
//!   is *unresolved* when either side's interquartile range exceeds the
//!   metric's bound, unless every change run beats every parent run; it has
//!   *regressed* when the change's median is worse than the parent's by
//!   more than the bound; otherwise it is *unchanged*;
//! * an exact metric (simulated clock, output quality; bound 0) must read
//!   the same on every pair, and any pair that reads worse is a regression.
//!
//! Each workload prints one summary row, then one line per metric. The exit
//! code is 1 when anything regressed or a change run failed a gate.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;

use crate::report::{Metric, RunFile};
use crate::stats::{median, quartiles};

/// The outcome for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The paired comparison of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    pub verdict: Verdict,
    pub wins: usize,
    pub ties: usize,
    pub losses: usize,
    /// `(q1, median, q3)` of the parent's and the change's runs.
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
}

fn summary(xs: &[f64]) -> (f64, f64, f64) {
    let (q1, q3) = quartiles(xs);
    (q1, median(xs), q3)
}

/// Judges paired runs of one metric. `parent[i]` and `change[i]` ran on
/// the same seed; `lower_is_better` gives the direction; `allowed` is the
/// worsening the metric's bound tolerates at the parent's median, and 0
/// marks an exact metric.
///
/// # Panics
///
/// Panics when the two sides have different lengths or no pairs.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, allowed: f64) -> Judgement {
    assert_eq!(parent.len(), change.len(), "runs must pair up");
    assert!(!parent.is_empty(), "nothing to compare");
    // Positive when the change reads better.
    let gain = |p: f64, c: f64| if lower_is_better { p - c } else { c - p };
    let (mut wins, mut ties, mut losses) = (0, 0, 0);
    for (&p, &c) in parent.iter().zip(change) {
        match gain(p, c) {
            g if g > 0.0 => wins += 1,
            g if g < 0.0 => losses += 1,
            _ => ties += 1,
        }
    }
    let (ps, cs) = (summary(parent), summary(change));
    let pairs = parent.len();
    let verdict = if allowed == 0.0 {
        match (wins, losses) {
            (_, l) if l > 0 => Verdict::Regressed,
            (0, 0) => Verdict::Unchanged,
            _ => Verdict::Improved,
        }
    } else {
        let gap = gain(ps.1, cs.1);
        let parent_iqr = ps.2 - ps.0;
        let spread = parent_iqr.max(cs.2 - cs.0);
        let better_every_run = if lower_is_better {
            max_of(change) < min_of(parent)
        } else {
            min_of(change) > max_of(parent)
        };
        if wins * 10 >= pairs * 9 && gap > parent_iqr {
            Verdict::Improved
        } else if spread > allowed && !better_every_run {
            Verdict::Unresolved
        } else if -gap > allowed {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        }
    };
    Judgement {
        verdict,
        wins,
        ties,
        losses,
        parent: ps,
        change: cs,
    }
}

fn max_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min_of(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Untraced runs under `dir`, by workload, then seed.
fn load(dir: &Path) -> Result<BTreeMap<String, BTreeMap<u64, RunFile>>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut runs: BTreeMap<String, BTreeMap<u64, RunFile>> = BTreeMap::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if !name.ends_with("-untraced.json") {
            continue;
        }
        let run = RunFile::read(&path).map_err(|e| e.to_string())?;
        runs.entry(run.workload.clone())
            .or_default()
            .insert(run.seed, run);
    }
    Ok(runs)
}

fn value(run: &RunFile, name: &str) -> Option<f64> {
    run.metrics.iter().find(|m| m.name == name).map(|m| m.value)
}

pub fn main(parent_dir: &Path, change_dir: &Path) -> ExitCode {
    let (parent, change) = match (load(parent_dir), load(change_dir)) {
        (Ok(p), Ok(c)) => (p, c),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let mut bad = false;
    for (workload, p_runs) in &parent {
        let Some(c_runs) = change.get(workload) else {
            println!("{workload}: no change runs");
            continue;
        };
        let seeds: Vec<u64> = p_runs
            .keys()
            .filter(|s| c_runs.contains_key(s))
            .copied()
            .collect();
        if seeds.is_empty() {
            println!("{workload}: no seed ran on both sides");
            continue;
        }
        let failed_change = seeds.iter().filter(|s| !c_runs[s].correct).count();
        bad |= failed_change > 0;
        let bounded: Vec<&Metric> = p_runs[&seeds[0]]
            .metrics
            .iter()
            .filter(|m| m.better != "none")
            .collect();
        let mut by_verdict: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut lines = Vec::new();
        for m in bounded {
            let pairs: Option<Vec<(f64, f64)>> = seeds
                .iter()
                .map(|s| Some((value(&p_runs[s], &m.name)?, value(&c_runs[s], &m.name)?)))
                .collect();
            let Some(pairs) = pairs else {
                lines.push(format!("  {:<26} missing on some run", m.name));
                continue;
            };
            let (p, c): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
            let allowed = m.allowed(median(&p)).unwrap_or(0.0);
            let j = judge(&p, &c, m.better == "lower", allowed);
            bad |= j.verdict == Verdict::Regressed;
            by_verdict
                .entry(j.verdict.label())
                .or_default()
                .push(&m.name);
            lines.push(format!(
                "  {:<26} {:<10} parent {:.6} [{:.6}, {:.6}]  change {:.6} [{:.6}, {:.6}] {}  wins/ties/losses {}/{}/{}  bound {:.6}",
                m.name,
                j.verdict.label(),
                j.parent.1,
                j.parent.0,
                j.parent.2,
                j.change.1,
                j.change.0,
                j.change.2,
                m.unit,
                j.wins,
                j.ties,
                j.losses,
                allowed,
            ));
        }
        let few = if seeds.len() < 10 {
            " (fewer than 10 pairs)"
        } else {
            ""
        };
        let verdicts: Vec<String> = by_verdict
            .iter()
            .map(|(v, names)| format!("{v}: {}", names.join(" ")))
            .collect();
        println!(
            "{workload}  pairs {}{few}  change runs failing gates {failed_change}  |  {}",
            seeds.len(),
            verdicts.join("  |  ")
        );
        for l in lines {
            println!("{l}");
        }
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ten(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * f64::from(i)).collect()
    }

    #[test]
    fn clear_win_is_improved() {
        let parent = ten(100.0, 0.1);
        let change = ten(90.0, 0.1);
        let j = judge(&parent, &change, true, 10.0);
        assert_eq!(
            (j.verdict, j.wins, j.ties, j.losses),
            (Verdict::Improved, 10, 0, 0)
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        // Eight wins and two ties: 8 of 10 pairs is short of nine tenths.
        let parent = ten(100.0, 0.1);
        let mut change: Vec<f64> = parent.iter().map(|p| p - 5.0).collect();
        change[0] = parent[0];
        change[1] = parent[1];
        let j = judge(&parent, &change, true, 10.0);
        assert_eq!((j.wins, j.ties, j.losses), (8, 2, 0));
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn gap_within_parent_spread_is_not_a_gain() {
        // The change wins every pair, but by less than the parent's IQR.
        let parent = ten(100.0, 1.0);
        let change: Vec<f64> = parent.iter().map(|p| p - 0.5).collect();
        let j = judge(&parent, &change, true, 20.0);
        assert_eq!(j.wins, 10);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worse_beyond_the_bound_regresses() {
        let parent = ten(100.0, 0.1);
        let change = ten(115.0, 0.1);
        assert_eq!(
            judge(&parent, &change, true, 10.0).verdict,
            Verdict::Regressed
        );
        // Higher-is-better metrics judge the other way.
        assert_eq!(
            judge(&change, &parent, false, 10.0).verdict,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&parent, &change, false, 10.0).verdict,
            Verdict::Improved
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_run_wins() {
        let parent = ten(100.0, 5.0);
        let change = ten(110.0, 5.0);
        assert_eq!(
            judge(&parent, &change, true, 10.0).verdict,
            Verdict::Unresolved
        );
        // Every change run below every parent run: a wide spread no longer hides it.
        let change = ten(20.0, 5.0);
        assert_eq!(
            judge(&parent, &change, true, 10.0).verdict,
            Verdict::Improved
        );
        let change = ten(60.0, 3.0);
        let j = judge(&parent, &change, true, 1.0);
        assert_eq!(j.verdict, Verdict::Improved);
    }

    #[test]
    fn exact_metrics_compare_pair_by_pair() {
        let parent = ten(1.0, 0.5);
        assert_eq!(
            judge(&parent, &parent, true, 0.0).verdict,
            Verdict::Unchanged
        );
        let mut change = parent.clone();
        change[3] += 1e-12;
        assert_eq!(
            judge(&parent, &change, true, 0.0).verdict,
            Verdict::Regressed
        );
        change[3] -= 2e-12;
        assert_eq!(
            judge(&parent, &change, true, 0.0).verdict,
            Verdict::Improved
        );
    }
}
