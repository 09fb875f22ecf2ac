//! §6: using the recomposed softmax in training.
//!
//! The forward pass runs the fused pipeline (never materializing the softmax
//! *input* off-chip); the backward pass uses Eq. 3, which needs only the
//! softmax *output*. This example trains a toy attention layer to reproduce
//! a target mapping, demonstrating that gradients flow correctly through the
//! recomposed forward pass.
//!
//! ```text
//! cargo run --release --example training_forward_backward
//! ```

use resoftmax::prelude::*;
use resoftmax::tensor::{matmul_transpose_b, scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (l, d) = (32, 8);
    let sc = 1.0 / (d as f64).sqrt();
    let q = randn_matrix::<f64>(l, d, 0.5, 1);
    let k = randn_matrix::<f64>(l, d, 0.5, 2);
    let v = randn_matrix::<f64>(l, d, 0.5, 3);
    let target = randn_matrix::<f64>(l, d, 0.5, 4);

    // Forward with the recomposed pipeline; backward via Eq. 3 on P = GS(X').
    // We optimize the attention *scores* S directly (treating S as the
    // parameter keeps the demo focused on the softmax gradient path).
    let mut s = scale(&matmul_transpose_b(&q, &k)?, sc);
    let lr = 2.0;
    println!("training the attention scores to match a target (Eq. 3 backward):\n");
    for step in 0..30 {
        // Forward: decomposed softmax (≡ fused LS→IR→GS numerically).
        let p = decomposed_softmax(&s, 8)?;
        let out = matmul(&p, &v)?;

        // Loss = ½‖out − target‖².
        let mut loss = 0.0;
        let mut d_out = Matrix::<f64>::zeros(l, d);
        for r in 0..l {
            for c in 0..d {
                let e = out.get(r, c) - target.get(r, c);
                loss += 0.5 * e * e;
                d_out.set(r, c, e);
            }
        }
        if step % 5 == 0 {
            println!("  step {step:2}: loss = {loss:.6}");
        }

        // Backward: dP = dOut · Vᵀ, then Eq. 3 needs only P (the softmax
        // OUTPUT) — the input S was never stored by the forward pass.
        let d_p = matmul_transpose_b(&d_out, &v)?;
        let d_s = softmax_backward(&p, &d_p)?;

        for (r, c, g) in d_s.clone().iter() {
            s.set(r, c, s.get(r, c) - lr * g);
        }
    }
    let final_p = decomposed_softmax(&s, 8)?;
    let final_out = matmul(&final_p, &v)?;
    println!(
        "\nfinal max |out − target| = {:.4} (was {:.4} at init)",
        max_abs_diff(&final_out, &target),
        {
            let p0 = decomposed_softmax(&scale(&matmul_transpose_b(&q, &k)?, sc), 8)?;
            max_abs_diff(&matmul(&p0, &v)?, &target)
        }
    );
    println!(
        "gradients flowed through the recomposed softmax without its input ever being stored."
    );
    Ok(())
}
