//! Thread-count invariance: every kernel that runs on the work-stealing pool
//! must produce **bit-identical** FP16 output at 1, 2, 4, and 8 workers.
//!
//! The pool only ever splits work across disjoint output rows, tiles, or
//! blocks — never across a reduction axis — so each output element is
//! computed by exactly one worker in exactly the order the serial code would
//! use. These tests pin that contract: results are compared as raw `u16`
//! bit patterns, so even a `-0.0` vs `+0.0` or NaN-payload difference fails.
//!
//! The thread override is process-global, so all tests funnel through one
//! lock ([`bitwise_invariant`]) rather than racing each other's settings.

use std::sync::Mutex;

use resoftmax_fp16::F16;
use resoftmax_kernels::{
    bs_online_attention, bs_recomposed_attention, fused_gs_pv, fused_qk_ls, linear, local_softmax,
    online_attention, recomposed_attention, reference_attention, softmax_rows,
};
use resoftmax_parallel::set_thread_override;
use resoftmax_sparse::{block_sparse_softmax, pattern, sddmm, spmm, BlockSparseMatrix};
use resoftmax_tensor::{matmul, matmul_tiled, matmul_transpose_b, randn_matrix, Matrix, TileDims};

/// Runs `f` at 1 worker, then re-runs at 2, 4, and 8 workers, requiring the
/// returned bit patterns to match the serial run exactly.
fn bitwise_invariant(label: &str, f: impl Fn() -> Vec<u16>) {
    static GUARD: Mutex<()> = Mutex::new(());
    let _g = GUARD.lock().unwrap();
    set_thread_override(Some(1));
    let serial = f();
    for n in [2usize, 4, 8] {
        set_thread_override(Some(n));
        let parallel = f();
        assert_eq!(
            serial, parallel,
            "{label}: output bits differ between 1 and {n} threads"
        );
    }
    set_thread_override(None);
}

fn bits(m: &Matrix<F16>) -> Vec<u16> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn bits_vec(v: &[F16]) -> Vec<u16> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bits_bs(m: &BlockSparseMatrix<F16>) -> Vec<u16> {
    m.blocks().iter().flat_map(bits).collect()
}

/// Shapes chosen to exercise uneven chunking: sizes that are not multiples
/// of the worker counts, a single-row case, and one larger-than-chunk case.
const MATMUL_SHAPES: [(usize, usize, usize); 4] =
    [(1, 7, 5), (13, 13, 13), (33, 17, 29), (64, 48, 96)];

#[test]
fn matmul_is_thread_invariant() {
    for (seed, &(m, k, n)) in MATMUL_SHAPES.iter().enumerate() {
        let a = randn_matrix::<F16>(m, k, 1.0, seed as u64);
        let b = randn_matrix::<F16>(k, n, 1.0, seed as u64 + 100);
        bitwise_invariant(&format!("matmul {m}x{k}x{n}"), || {
            bits(&matmul(&a, &b).unwrap())
        });
    }
}

#[test]
fn matmul_transpose_b_is_thread_invariant() {
    for (seed, &(m, k, n)) in MATMUL_SHAPES.iter().enumerate() {
        let a = randn_matrix::<F16>(m, k, 1.0, seed as u64 + 7);
        let b = randn_matrix::<F16>(n, k, 1.0, seed as u64 + 107);
        bitwise_invariant(&format!("matmul_transpose_b {m}x{k}x{n}"), || {
            bits(&matmul_transpose_b(&a, &b).unwrap())
        });
    }
}

#[test]
fn matmul_tiled_is_thread_invariant() {
    for &t in &[4usize, 8, 16] {
        let a = randn_matrix::<F16>(24, 32, 1.0, 41);
        let b = randn_matrix::<F16>(32, 48, 1.0, 42);
        bitwise_invariant(&format!("matmul_tiled t={t}"), || {
            bits(&matmul_tiled(&a, &b, TileDims::new(t, t)).unwrap())
        });
    }
}

#[test]
fn fused_qk_ls_is_thread_invariant() {
    // The last shape is past the pool's 4096-element serial cutoff, with odd
    // d and T so the row updates run their vector tails.
    for &(l, d, t) in &[
        (16usize, 8usize, 4usize),
        (24, 16, 8),
        (40, 8, 8),
        (72, 13, 9),
    ] {
        let q = randn_matrix::<F16>(l, d, 0.5, 1);
        let k = randn_matrix::<F16>(l, d, 0.5, 2);
        let scale = 1.0 / (d as f64).sqrt();
        bitwise_invariant(&format!("fused_qk_ls L={l} T={t}"), || {
            let out = fused_qk_ls(&q, &k, t, scale, None).unwrap();
            let mut all = bits(&out.x_prime);
            all.extend(bits(&out.m_prime));
            all.extend(bits(&out.d_prime));
            all
        });
    }
}

#[test]
fn fused_gs_pv_is_thread_invariant() {
    let (l, d, t) = (32usize, 16usize, 8usize);
    let q = randn_matrix::<F16>(l, d, 0.5, 3);
    let k = randn_matrix::<F16>(l, d, 0.5, 4);
    let v = randn_matrix::<F16>(l, d, 0.5, 5);
    let scale = 1.0 / (d as f64).sqrt();
    bitwise_invariant("fused_gs_pv", || {
        let ls = fused_qk_ls(&q, &k, t, scale, None).unwrap();
        let ir = resoftmax_kernels::inter_reduce(&ls.m_prime, &ls.d_prime);
        bits(&fused_gs_pv(&ls.x_prime, &ir.r_prime, &v, t).unwrap())
    });
}

#[test]
fn attention_pipelines_are_thread_invariant() {
    // L·d is past the pool's 4096-element serial cutoff; d and T are odd, so
    // the row updates and the P·V loops run their vector tails.
    let (l, d, t) = (333usize, 13usize, 9usize);
    let q = randn_matrix::<F16>(l, d, 0.5, 11);
    let k = randn_matrix::<F16>(l, d, 0.5, 12);
    let v = randn_matrix::<F16>(l, d, 0.5, 13);
    let scale = 1.0 / (d as f64).sqrt();
    bitwise_invariant("recomposed_attention", || {
        let (out, ir) = recomposed_attention(&q, &k, &v, t, scale, None).unwrap();
        let mut all = bits(&out);
        all.extend(bits_vec(&ir.m));
        all.extend(bits_vec(&ir.d));
        all.extend(bits(&ir.r_prime));
        all
    });
    bitwise_invariant("reference_attention", || {
        bits(&reference_attention(&q, &k, &v, scale, None).unwrap())
    });
    bitwise_invariant("online_attention", || {
        bits(&online_attention(&q, &k, &v, t, scale, None).unwrap())
    });
}

#[test]
fn softmax_and_layers_are_thread_invariant() {
    // Each output is past the pool's 4096-element serial cutoff.
    let x = randn_matrix::<F16>(70, 72, 2.0, 51);
    bitwise_invariant("softmax_rows", || bits(&softmax_rows(&x)));
    bitwise_invariant("local_softmax", || {
        let ls = local_softmax(&x, 9).unwrap();
        let mut all = bits(&ls.x_prime);
        all.extend(bits(&ls.m_prime));
        all.extend(bits(&ls.d_prime));
        all
    });
    let h = randn_matrix::<F16>(96, 45, 1.0, 52);
    let w = randn_matrix::<F16>(45, 43, 0.3, 53);
    let b = randn_matrix::<F16>(1, 43, 0.1, 54);
    bitwise_invariant("linear", || bits(&linear(&h, &w, b.row(0)).unwrap()));
}

#[test]
fn sparse_ops_are_thread_invariant() {
    let (l, block) = (64usize, 8usize);
    let d = 16usize;
    let layout = pattern::sliding_window(l, block, 2);
    let q = randn_matrix::<F16>(l, d, 0.5, 21);
    let k = randn_matrix::<F16>(l, d, 0.5, 22);
    let v = randn_matrix::<F16>(l, d, 0.5, 23);
    bitwise_invariant("sddmm", || bits_bs(&sddmm(&q, &k, &layout).unwrap()));
    bitwise_invariant("block_sparse_softmax", || {
        let scores = sddmm(&q, &k, &layout).unwrap();
        bits_bs(&block_sparse_softmax(&scores))
    });
    bitwise_invariant("spmm", || {
        let scores = sddmm(&q, &k, &layout).unwrap();
        let probs = block_sparse_softmax(&scores);
        bits(&spmm(&probs, &v).unwrap())
    });
}

#[test]
fn sparse_attention_pipelines_are_thread_invariant() {
    let (l, block, d) = (64usize, 8usize, 16usize);
    let layout = pattern::sliding_window(l, block, 2);
    let q = randn_matrix::<F16>(l, d, 0.5, 31);
    let k = randn_matrix::<F16>(l, d, 0.5, 32);
    let v = randn_matrix::<F16>(l, d, 0.5, 33);
    let scale = 1.0 / (d as f64).sqrt();
    bitwise_invariant("bs_recomposed_attention", || {
        bits(&bs_recomposed_attention(&q, &k, &v, &layout, scale).unwrap())
    });
    bitwise_invariant("bs_online_attention", || {
        bits(&bs_online_attention(&q, &k, &v, &layout, scale).unwrap())
    });
}
