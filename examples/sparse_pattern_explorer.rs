//! Sparse-attention pattern explorer: the block-sparse structures behind
//! BigBird and Longformer (§3.4), the statistics that drive their kernel
//! performance, and the §5.1 utilization effect of softmax decomposition.
//!
//! ```text
//! cargo run --release --example sparse_pattern_explorer
//! ```

use resoftmax::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Pattern structure across sequence lengths.
    println!("block-sparse pattern statistics (block = 64):\n");
    for l in [1024usize, 4096, 8192] {
        let bb = pattern::bigbird(l, &BigBirdConfig::default());
        let lf = pattern::longformer(l, &LongformerConfig::default());
        let st = pattern::strided(l, 64, 1, 8);
        println!("L = {l}:");
        println!("  BigBird    {}", PatternStats::of(&bb));
        println!("  Longformer {}", PatternStats::of(&lf));
        println!("  Strided    {}", PatternStats::of(&st));
    }

    // 2. A tiny ASCII render of the BigBird pattern at L = 1024.
    let layout = pattern::bigbird(1024, &BigBirdConfig::default());
    println!("\nBigBird block mask at L = 1024 (█ = retained block):");
    for br in 0..layout.n_blocks() {
        let row: String = (0..layout.n_blocks())
            .map(|bc| if layout.is_set(br, bc) { '█' } else { '·' })
            .collect();
        println!("  {row}");
    }

    // 3. Numerics: block-sparse attention equals masked dense attention.
    let l = 256;
    let layout = pattern::bigbird(
        l,
        &BigBirdConfig {
            block: 32,
            ..Default::default()
        },
    );
    let q = randn_matrix::<f64>(l, 16, 1.0, 1);
    let k = randn_matrix::<f64>(l, 16, 1.0, 2);
    let v = randn_matrix::<f64>(l, 16, 1.0, 3);
    let sparse_out = spmm(&block_sparse_softmax(&sddmm(&q, &k, &layout)?), &v)?;
    let mask = layout.element_mask();
    let dense_scores = apply_mask(&matmul(&q, &transpose(&k))?, &mask)?;
    let dense_out = matmul(&softmax_rows(&dense_scores), &v)?;
    println!(
        "\nblock-sparse vs masked-dense attention, max |Δ| = {:.2e}",
        max_abs_diff(&sparse_out, &dense_out)
    );

    // 4. §5.1: why decomposition alone speeds sparse models up — the
    //    baseline softmax's worst-case allocation starves bandwidth.
    let device = DeviceSpec::a100();
    let support_fraction =
        PatternStats::of(&pattern::bigbird(4096, &BigBirdConfig::default())).row_mean * 64.0
            / 4096.0;
    println!(
        "\nBigBird at L=4096: a mean row touches {:.0}% of its allocated span.",
        support_fraction * 100.0
    );
    for m in [
        ModelConfig::bigbird_large(),
        ModelConfig::longformer_large(),
    ] {
        let base = Session::new(&m, &RunParams::new(4096), &device)?.run()?;
        let sd = Session::new(
            &m,
            &RunParams::new(4096).strategy(SoftmaxStrategy::Decomposed),
            &device,
        )?
        .run()?;
        println!(
            "  {:<18} SD alone: {:.2}x speedup despite {:.2}x the softmax traffic",
            m.name,
            base.total_time_s() / sd.total_time_s(),
            sd.total_dram_bytes() / base.total_dram_bytes(),
        );
    }
    Ok(())
}
