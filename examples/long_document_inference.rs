//! Long-document inference: the paper's motivating scenario (§2.2).
//!
//! A synthetic TriviaQA-style corpus is generated; we show (1) why long
//! sequence lengths matter (token coverage), (2) what they cost (per-model
//! latency vs L), and (3) what recomposition buys across the whole corpus.
//!
//! ```text
//! cargo run --release --example long_document_inference
//! ```

use resoftmax::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let corpus = Workload::generate(&WorkloadConfig::default());
    println!(
        "Synthetic long-document corpus: {} documents (TriviaQA substitute)\n",
        corpus.len()
    );

    // 1. §2.2: longer L keeps more of each document.
    println!("sequence length -> token coverage / documents truncated:");
    for l in [512usize, 1024, 2048, 4096, 8192] {
        println!(
            "  L={l:5}: {:5.1}% of tokens kept, {:4.1}% of documents truncated",
            corpus.token_coverage(l) * 100.0,
            corpus.truncated_fraction(l) * 100.0
        );
    }

    // 2. What long sequences cost, and what recomposition recovers.
    let device = DeviceSpec::a100();
    println!("\nper-iteration latency on {} (batch 1):", device.name);
    println!(
        "{:<18} {:>6} {:>12} {:>12} {:>9}",
        "model", "L", "baseline", "recomposed", "speedup"
    );
    for model in [
        ModelConfig::bert_large(),
        ModelConfig::longformer_large(),
        ModelConfig::bigbird_large(),
    ] {
        for l in [512usize, 4096] {
            let base = Session::new(&model, &RunParams::new(l), &device)?.run()?;
            let sdf = Session::new(
                &model,
                &RunParams::new(l).strategy(SoftmaxStrategy::Recomposed),
                &device,
            )?
            .run()?;
            println!(
                "{:<18} {:>6} {:>9.2} ms {:>9.2} ms {:>8.2}x",
                model.name,
                l,
                base.total_time_s() * 1e3,
                sdf.total_time_s() * 1e3,
                base.total_time_s() / sdf.total_time_s()
            );
        }
    }

    // 3. Whole-corpus view: batched Longformer at L = 4096.
    let model = ModelConfig::longformer_large();
    let batch = 8;
    let iters = corpus.iterations(batch);
    let base = Session::new(&model, &RunParams::new(4096).batch(batch), &device)?.run()?;
    let sdf = Session::new(
        &model,
        &RunParams::new(4096)
            .batch(batch)
            .strategy(SoftmaxStrategy::Recomposed),
        &device,
    )?
    .run()?;
    println!("\ncorpus sweep ({iters} iterations of batch {batch}, Longformer-large, L=4096):");
    println!(
        "  baseline  {:.1} s   recomposed {:.1} s   ({:.2}x, {:.1} GB less off-chip traffic per pass)",
        base.total_time_s() * iters as f64,
        sdf.total_time_s() * iters as f64,
        base.total_time_s() / sdf.total_time_s(),
        (base.total_dram_bytes() - sdf.total_dram_bytes()) * iters as f64 / 1e9
    );
    Ok(())
}
