//! What-if: softmax recomposition on hypothetical future GPUs.
//!
//! §2.3 argues that "due to the memory wall problem, where the memory
//! bandwidth is less scalable compared to the computational power, the
//! softmax layers could take even more of the total execution time in future
//! GPUs." This example builds custom [`DeviceSpec`]s scaling compute and
//! bandwidth independently and shows where recomposition matters most.
//!
//! ```text
//! cargo run --release --example gpu_whatif
//! ```

use resoftmax::prelude::*;

fn scaled_a100(name: &str, compute: f64, bandwidth: f64) -> DeviceSpec {
    let mut d = DeviceSpec::a100();
    name.clone_into(&mut d.name);
    d.fp16_cuda_tflops *= compute;
    d.fp16_tensor_tflops *= compute;
    d.mem_bandwidth_gbps *= bandwidth;
    // Latency hiding needs proportionally more outstanding requests.
    d.mem_saturation_threads *= bandwidth;
    d
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let devices = [
        scaled_a100("A100 (today)", 1.0, 1.0),
        scaled_a100("2x compute", 2.0, 1.0),
        scaled_a100("4x compute", 4.0, 1.0),
        scaled_a100("4x compute, 2x BW", 4.0, 2.0),
        scaled_a100("2x BW only", 1.0, 2.0),
    ];
    let model = ModelConfig::bert_large();

    println!("BERT-large, L = 4096, batch 1 — the memory-wall trajectory:\n");
    println!(
        "{:<20} {:>10} {:>14} {:>13}",
        "device", "baseline", "softmax share", "SDF speedup"
    );
    for device in devices {
        device.validate()?;
        let base = Session::new(&model, &RunParams::new(4096), &device)?.run()?;
        let sdf = Session::new(
            &model,
            &RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
            &device,
        )?
        .run()?;
        println!(
            "{:<20} {:>7.2} ms {:>13.1}% {:>12.2}x",
            device.name,
            base.total_time_s() * 1e3,
            base.softmax_time_fraction() * 100.0,
            base.total_time_s() / sdf.total_time_s()
        );
    }
    println!("\nAs compute scales past bandwidth, the softmax share grows and");
    println!("recomposition's payoff rises — the paper's future-GPU argument.");
    Ok(())
}
