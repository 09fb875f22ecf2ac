//! Determinism contract: tuning results are bit-identical across
//! worker-thread counts and across warm and cold pricing memos.
//!
//! Serialized-JSON comparison (not float tolerance) on purpose — the claim
//! is bitwise reproducibility, which is what lets the persisted cache and
//! the CI smoke check compare runs with `cmp`.

#![cfg(not(miri))] // end-to-end simulation is too slow under miri

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::ModelConfig;
use resoftmax_tune::{SearchMode, SearchSpace, TuneWorkload, Tuned, Tuner};

fn workloads() -> Vec<(ModelConfig, TuneWorkload)> {
    vec![
        (
            ModelConfig::bert_base(),
            TuneWorkload::Prefill {
                seq_len: 512,
                batch: 1,
            },
        ),
        (
            ModelConfig::bert_base(),
            TuneWorkload::Prefill {
                seq_len: 1024,
                batch: 4,
            },
        ),
        // Block-sparse, so every candidate's kernels include fluid-simulated
        // grids, which go through the pricing memo.
        (
            ModelConfig::longformer_large(),
            TuneWorkload::Prefill {
                seq_len: 1024,
                batch: 1,
            },
        ),
        (
            ModelConfig::gpt_neo_1_3b(),
            TuneWorkload::Decode {
                ctxs: vec![700, 300, 1500],
            },
        ),
    ]
}

fn run_all(threads: Option<usize>) -> Vec<String> {
    resoftmax_parallel::set_thread_override(threads);
    let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
    let device = DeviceSpec::a100();
    let rows = workloads()
        .iter()
        .map(|(m, w)| {
            let Tuned {
                params,
                cost_s,
                default_cost_s,
                ..
            } = tuner.tune(m, &device, w).unwrap();
            format!(
                "{}|{}|{cost_s:e}|{default_cost_s:e}",
                w.label(),
                serde_json::to_string(&params).unwrap()
            )
        })
        .collect();
    resoftmax_parallel::set_thread_override(None);
    rows
}

#[test]
fn exhaustive_is_bit_identical_across_thread_counts() {
    let one = run_all(Some(1));
    let four = run_all(Some(4));
    assert_eq!(one, four);
}

/// A warm kernel-pricing memo (populated by an earlier full pass) must
/// reproduce the rows priced from a cold memo bit for bit, at 1 and 4
/// workers. This is the tuning-level face of the simulator memo's
/// bit-identity contract.
#[test]
fn warm_pricing_cache_is_bit_identical_across_workers() {
    resoftmax_gpusim::clear_sim_cache();
    let fresh = run_all(Some(1)); // also populates the global memo
    let one = run_all(Some(1));
    let four = run_all(Some(4));
    assert_eq!(one, fresh, "warm cache diverges from fresh pricing");
    assert_eq!(four, fresh, "warm cache diverges at 4 workers");
}
