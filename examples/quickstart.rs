//! Quickstart: recompose one attention layer's softmax and see both halves
//! of the paper's claim — the math is exact, and the GPU time drops.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use resoftmax::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. The mathematics (paper Eq. 2): decomposing softmax into
    //    LS -> IR -> GS changes nothing about the result.
    // ------------------------------------------------------------------
    let x = randn_matrix::<f64>(8, 512, 2.0, 42);
    let monolithic = softmax_rows(&x);
    let decomposed = decomposed_softmax(&x, 64)?;
    println!(
        "decomposed vs monolithic softmax, max |Δ| = {:.2e}",
        max_abs_diff(&monolithic, &decomposed)
    );

    // ------------------------------------------------------------------
    // 2. The fused pipeline (paper Fig. 6): QKᵀ+LS epilogue -> IR ->
    //    GS+PV prologue equals the unfused attention layer.
    // ------------------------------------------------------------------
    let (l, d_head, t) = (256, 64, 64);
    let scale = 1.0 / (d_head as f64).sqrt();
    let q = randn_matrix::<f64>(l, d_head, 1.0, 1);
    let k = randn_matrix::<f64>(l, d_head, 1.0, 2);
    let v = randn_matrix::<f64>(l, d_head, 1.0, 3);
    let reference = reference_attention(&q, &k, &v, scale, None)?;
    let (fused, ir) = recomposed_attention(&q, &k, &v, t, scale, None)?;
    println!(
        "fused vs unfused attention,          max |Δ| = {:.2e}",
        max_abs_diff(&reference, &fused)
    );
    let r_sum: f64 = ir.r_prime.row(0).iter().sum();
    println!("reconstruction factors r' sum to {r_sum:.12} per row");

    // ------------------------------------------------------------------
    // 3. The performance (paper Fig. 8): run BERT-large at L = 4096 on a
    //    simulated A100 with and without recomposition.
    // ------------------------------------------------------------------
    let (model, device) = (ModelConfig::bert_large(), DeviceSpec::a100());
    let params = RunParams::new(4096);
    let baseline = Session::new(&model, &params, &device)?.run()?;
    let params = params.strategy(SoftmaxStrategy::Recomposed);
    let sdf = Session::new(&model, &params, &device)?.run()?;
    println!(
        "\nBERT-large, L=4096, A100 (simulated):\n  baseline {:.2} ms ({:.0}% in softmax), recomposed {:.2} ms -> {:.2}x speedup",
        baseline.total_time_s() * 1e3,
        baseline.softmax_time_fraction() * 100.0,
        sdf.total_time_s() * 1e3,
        baseline.total_time_s() / sdf.total_time_s()
    );
    println!(
        "  off-chip traffic {:.1} GB -> {:.1} GB",
        baseline.total_dram_bytes() / 1e9,
        sdf.total_dram_bytes() / 1e9
    );
    Ok(())
}
