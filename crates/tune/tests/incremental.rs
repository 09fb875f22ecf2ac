//! Incremental re-simulation: with the kernel-pricing memo warm, pricing a
//! single-knob neighbor of an already-priced candidate re-simulates only
//! the kernels that knob actually changes — everything else answers from
//! the memo. The model is block-sparse: the memo holds fluid-simulated
//! (heterogeneous-grid) kernels only, and a dense model's uniform grids are
//! priced by their closed form without a lookup.
//!
//! Kept in its own (single-test) binary: the assertions read deltas of the
//! process-global pricing-cache statistics, which concurrent tests would
//! perturb.

#![cfg(not(miri))] // end-to-end simulation is too slow under miri

use resoftmax_gpusim::{clear_sim_cache, sim_cache_stats, DeviceSpec};
use resoftmax_model::{RunParams, SoftmaxStrategy};
use resoftmax_tune::{evaluate, TuneWorkload};

#[test]
fn neighbor_candidates_reprice_only_changed_kernels() {
    let model = resoftmax_model::ModelConfig::longformer_large();
    let device = DeviceSpec::a100();
    let w = TuneWorkload::Prefill {
        seq_len: 1024,
        batch: 1,
    };
    let a = RunParams::new(1024);
    // A single-knob neighbor: recomposing the softmax replaces the softmax
    // kernels but leaves the rest untouched — among the memoized kernels,
    // the block-sparse P·V matmul.
    let b = a.clone().strategy(SoftmaxStrategy::Decomposed);

    clear_sim_cache();
    let t_a = evaluate(&model, &device, &w, &a).unwrap();
    let s0 = sim_cache_stats();
    assert!(s0.misses > 0, "cold pricing simulates fresh");

    // Re-pricing the identical candidate answers entirely from the cache.
    let t_a2 = evaluate(&model, &device, &w, &a).unwrap();
    assert_eq!(t_a.to_bits(), t_a2.to_bits());
    let s1 = sim_cache_stats();
    assert_eq!(
        s1.misses, s0.misses,
        "an identical candidate must not re-simulate anything"
    );
    assert!(s1.hits > s0.hits);

    // The neighbor re-simulates its changed kernels (fresh misses appear)
    // but answers for every untouched kernel from the cache — strictly
    // fewer fresh simulations than the cold pricing of `a` needed.
    let t_b = evaluate(&model, &device, &w, &b).unwrap();
    assert!(t_b > 0.0);
    let s2 = sim_cache_stats();
    let fresh_b = s2.misses - s1.misses;
    assert!(fresh_b > 0, "the changed softmax kernels really re-price");
    assert!(
        fresh_b < s0.misses,
        "neighbor repriced {fresh_b} kernels fresh; cold pricing needed {}",
        s0.misses
    );
    assert!(
        s2.hits > s1.hits,
        "unchanged kernels must answer from the cache"
    );
    clear_sim_cache();
}
