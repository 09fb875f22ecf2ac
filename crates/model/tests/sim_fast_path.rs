//! Full-sweep equivalence check for the pricing memo: answering from it
//! must leave every per-kernel statistic bit-identical to `Gpu::reference`
//! (the plain event loop, no memo), across the complete evaluation
//! schedules (all models × strategies, dense and block-sparse, including the
//! heterogeneous block-sparse tails).

use resoftmax_gpusim::{DeviceSpec, Gpu};
use resoftmax_model::{build_schedule, ModelConfig, RunParams, SoftmaxStrategy};

fn sweep_points() -> Vec<(ModelConfig, RunParams)> {
    let mut points = Vec::new();
    // Debug builds re-run static analysis inside build_schedule, so keep the
    // grid small there; release (the tier-1 configuration) takes the full one.
    let seq_lens: &[usize] = if cfg!(debug_assertions) {
        &[4096]
    } else {
        &[2048, 4096]
    };
    for model in ModelConfig::all_eval_models() {
        for &seq_len in seq_lens {
            for strategy in SoftmaxStrategy::all() {
                points.push((model.clone(), RunParams::new(seq_len).strategy(strategy)));
            }
        }
    }
    points
}

#[test]
fn fast_path_matches_event_loop_on_full_sweep() {
    for device in [DeviceSpec::a100(), DeviceSpec::t4()] {
        for (model, params) in sweep_points() {
            let kernels = build_schedule(&model, &params).expand();
            let mut memo = Gpu::new(device.clone());
            let mut slow = Gpu::reference(device.clone());
            for k in &kernels {
                let sf = memo.launch(k).expect("memo launch");
                let ss = slow.launch(k).expect("reference launch");
                assert_eq!(
                    sf,
                    ss,
                    "stats diverge for {} / {} / L={} / kernel {}",
                    model.name,
                    params.strategy.label(),
                    params.seq_len,
                    k.name
                );
            }
            assert_eq!(
                memo.timeline().total_time_s().to_bits(),
                slow.timeline().total_time_s().to_bits(),
                "timeline totals diverge for {} / {}",
                model.name,
                params.strategy.label()
            );
        }
    }
}
