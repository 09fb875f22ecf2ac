//! The search driver over the knob space.
//!
//! Every candidate within bounds is priced. The candidate list order is
//! fixed, evaluation fans out through `resoftmax-parallel`'s
//! order-preserving `parallel_map`, and the reduction is an index-ordered
//! argmin with ties to the earlier candidate — so the result is
//! bit-identical at any worker-thread count.

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams};
use serde::{Deserialize, Serialize};

use crate::oracle::{default_unrunnable, evaluate, Skip, TuneWorkload};
use crate::space::SearchSpace;
use crate::TuneError;

/// How the tuner explores the space. One mode remains; the enum stays
/// because its serde form is fingerprinted into every cache key
/// (`mode=` in [`crate::cache_key`]), so persisted databases keep
/// answering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SearchMode {
    /// Price every candidate within the bounds.
    Exhaustive,
}

impl SearchMode {
    /// Stable fingerprint for cache keys.
    pub fn fingerprint(&self) -> String {
        crate::cache::fnv1a(
            serde_json::to_string(self)
                .expect("search mode serializes")
                .as_bytes(),
        )
    }
}

/// The result of one search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchOutcome {
    /// The winning configuration.
    pub best: RunParams,
    /// Its simulated time, seconds.
    pub best_cost_s: f64,
    /// The default configuration's simulated time, seconds.
    pub default_cost_s: f64,
    /// Candidates successfully priced.
    pub evaluated: usize,
}

/// Index-ordered argmin: the lowest cost wins, ties go to the earlier
/// candidate, so the reduction is independent of evaluation concurrency.
fn argmin(costs: &[Result<f64, Skip>]) -> Option<(usize, f64)> {
    let mut best: Option<(usize, f64)> = None;
    for (i, c) in costs.iter().enumerate() {
        if let Ok(c) = c {
            if best.is_none_or(|(_, b)| *c < b) {
                best = Some((i, *c));
            }
        }
    }
    best
}

/// Runs one exhaustive search for `workload` over `space`'s candidates,
/// starting from (and always including) `base` — so the outcome can never
/// be slower than the default schedule.
///
/// # Errors
///
/// [`TuneError::DefaultUnrunnable`] when the default configuration itself
/// fails the gates (the comparison baseline would not exist).
pub fn search(
    model: &ModelConfig,
    device: &DeviceSpec,
    workload: &TuneWorkload,
    space: &SearchSpace,
    base: &RunParams,
) -> Result<SearchOutcome, TuneError> {
    let _span = resoftmax_obs::span("tune.search", "tune");
    let candidates = space.candidates(base);
    // Priced in parallel; the outcomes come back in candidate order.
    let costs =
        resoftmax_parallel::parallel_map(&candidates, |_, p| evaluate(model, device, workload, p));
    let default_cost_s = match &costs[0] {
        Ok(c) => *c,
        Err(skip) => return Err(default_unrunnable(workload, skip)),
    };
    let (i, best_cost_s) = argmin(&costs).expect("candidate 0 priced");
    Ok(SearchOutcome {
        best: candidates[i].clone(),
        best_cost_s,
        default_cost_s,
        evaluated: costs.iter().filter(|c| c.is_ok()).count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmin_prefers_earlier_on_ties() {
        let costs: Vec<Result<f64, Skip>> = vec![
            Err(Skip::InvalidConfig("x".into())),
            Ok(2.0),
            Ok(1.0),
            Ok(1.0),
        ];
        assert_eq!(argmin(&costs), Some((2, 1.0)));
        assert_eq!(argmin(&[] as &[Result<f64, Skip>]), None);
    }
}
