//! `attention_numeric`: the paper's attention layer computed for real, in
//! binary16, on the host.
//!
//! A unit is one head at `L = 1024`, `d_head = 64`, `T = 64`: encode the
//! inputs to binary16, the score product and a monolithic softmax on their
//! own, then the Baseline (`reference_attention`), SDF (`fused_qk_ls` →
//! `inter_reduce` → `fused_gs_pv`, i.e. `recomposed_attention` call by
//! call) and online-softmax layers, decode the outputs, and check each
//! against an f64 oracle the benchmark computes itself during set-up. This
//! is the one workload where `fp16`, `tensor`, `kernels` and `parallel` do
//! the work and the simulator does none.

use std::collections::BTreeMap;
use std::time::Instant;

use resoftmax_analyzer::error_model;
use resoftmax_core::verify::derived_fusion_tolerance;
use resoftmax_fp16::{f16_bits_from_f32_slice, f32_from_f16_bits_slice, F16};
use resoftmax_gpusim::AccumFormat;
use resoftmax_kernels::{
    fused_gs_pv, fused_qk_ls, inter_reduce, online_attention, reference_attention, softmax_rows,
};
use resoftmax_tensor::{matmul_transpose_b, Matrix};

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::median;
use crate::trace::Tracer;
use crate::{Counts, Workload};

struct Size {
    l: usize,
    d: usize,
    t: usize,
    heads: usize,
}

const FULL: Size = Size {
    l: 1024,
    d: 64,
    t: 64,
    heads: 4,
};
const SMOKE: Size = Size {
    l: 128,
    d: 32,
    t: 32,
    heads: 1,
};

/// Bytes per binary16 element.
const F16_BYTES: f64 = 2.0;

/// The timed calls of one unit, in call order, with their layers.
const CALLS: [(&str, &str); 9] = [
    ("encode", "fp16"),
    ("matmul_transpose_b", "tensor"),
    ("softmax_rows", "kernels"),
    ("reference_attention", "kernels"),
    ("fused_qk_ls", "kernels"),
    ("inter_reduce", "kernels"),
    ("fused_gs_pv", "kernels"),
    ("online_attention", "kernels"),
    ("decode", "fp16"),
];

struct Head {
    /// Row-major `L × d` inputs, every value exact in binary16.
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// The f64 attention output over the same inputs.
    oracle: Vec<f64>,
}

pub struct Attention {
    size: Size,
    heads: Vec<Head>,
    next: usize,
    /// Worst |output − oracle| per layer so far: baseline, SDF, online.
    max_err: [f64; 3],
    tolerance: f64,
    row_sum_tolerance: f64,
    /// `fused_qk_ls` at one worker ÷ at the pinned worker count, per traced unit.
    scaling: Vec<f64>,
}

/// Values on a 2⁻⁸ grid within ±4 are exact in binary16, so encoding
/// loses nothing and the oracle sees exactly what the kernels see.
fn exact_f16_values(rng: &mut Rng, n: usize) -> Vec<f32> {
    (0..n)
        .map(|_| ((rng.normal() * 256.0).round().clamp(-1024.0, 1024.0) / 256.0) as f32)
        .collect()
}

/// Softmax attention in f64, written out loop by loop.
fn oracle(q: &[f32], k: &[f32], v: &[f32], l: usize, d: usize, scale: f64) -> Vec<f64> {
    let mut out = vec![0.0; l * d];
    let mut s = vec![0.0f64; l];
    for i in 0..l {
        let qi = &q[i * d..(i + 1) * d];
        for (j, sj) in s.iter_mut().enumerate() {
            let kj = &k[j * d..(j + 1) * d];
            *sj = scale
                * qi.iter()
                    .zip(kj)
                    .map(|(&a, &b)| f64::from(a) * f64::from(b))
                    .sum::<f64>();
        }
        let m = s.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut z = 0.0;
        for sj in &mut s {
            *sj = (*sj - m).exp();
            z += *sj;
        }
        let oi = &mut out[i * d..(i + 1) * d];
        for (j, &sj) in s.iter().enumerate() {
            let p = sj / z;
            for (o, &x) in oi.iter_mut().zip(&v[j * d..(j + 1) * d]) {
                *o += p * f64::from(x);
            }
        }
    }
    out
}

fn to_matrix(bits: Vec<u16>, rows: usize, cols: usize) -> Matrix<F16> {
    Matrix::from_vec(rows, cols, bits.into_iter().map(F16::from_bits).collect())
        .expect("input length is rows × cols")
}

fn bits(m: &Matrix<F16>) -> Vec<u16> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

fn max_abs_err(got: &[f32], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(&g, &w)| (f64::from(g) - w).abs())
        .fold(0.0, f64::max)
}

impl Attention {
    fn scale(&self) -> f64 {
        1.0 / (self.size.d as f64).sqrt()
    }
}

impl Workload for Attention {
    fn setup(seed: u64, smoke: bool) -> Self {
        let size = if smoke { SMOKE } else { FULL };
        let (l, d) = (size.l, size.d);
        let scale = 1.0 / (d as f64).sqrt();
        let heads = (0..size.heads as u64)
            .map(|h| {
                let mut rng = Rng::new(seed, h);
                let (q, k, v) = (
                    exact_f16_values(&mut rng, l * d),
                    exact_f16_values(&mut rng, l * d),
                    exact_f16_values(&mut rng, l * d),
                );
                let oracle = oracle(&q, &k, &v, l, d, scale);
                Head { q, k, v, oracle }
            })
            .collect();
        Attention {
            tolerance: derived_fusion_tolerance(l, size.t),
            row_sum_tolerance: error_model::monolithic(l, AccumFormat::Fp32).row_sum,
            size,
            heads,
            next: 0,
            max_err: [0.0; 3],
            scaling: Vec::new(),
        }
    }

    fn unit(&mut self, tr: &mut Tracer) -> Vec<String> {
        let (l, d, t) = (self.size.l, self.size.d, self.size.t);
        let scale = self.scale();
        let head_ix = self.next % self.heads.len();
        self.next += 1;
        let head = &self.heads[head_ix];
        let mut failures = Vec::new();

        let (qb, kb, vb) = tr.span("encode", "fp16", || {
            (
                f16_bits_from_f32_slice(&head.q),
                f16_bits_from_f32_slice(&head.k),
                f16_bits_from_f32_slice(&head.v),
            )
        });
        let (q, k, v) = (
            to_matrix(qb, l, d),
            to_matrix(kb, l, d),
            to_matrix(vb, l, d),
        );
        let scores = tr.span("matmul_transpose_b", "tensor", || {
            matmul_transpose_b(&q, &k).expect("q and k are both L × d")
        });
        let probs = tr.span("softmax_rows", "kernels", || softmax_rows(&scores));
        let reference = tr.span("reference_attention", "kernels", || {
            reference_attention(&q, &k, &v, scale, None).expect("shapes agree")
        });
        let ls = tr.span("fused_qk_ls", "kernels", || {
            fused_qk_ls(&q, &k, t, scale, None).expect("t divides L")
        });
        let ir = tr.span("inter_reduce", "kernels", || {
            inter_reduce(&ls.m_prime, &ls.d_prime)
        });
        let sdf = tr.span("fused_gs_pv", "kernels", || {
            fused_gs_pv(&ls.x_prime, &ir.r_prime, &v, t).expect("shapes agree")
        });
        let online = tr.span("online_attention", "kernels", || {
            online_attention(&q, &k, &v, t, scale, None).expect("t divides L")
        });
        let outputs = tr.span("decode", "fp16", || {
            [&reference, &sdf, &online].map(|m| f32_from_f16_bits_slice(&bits(m)))
        });

        tr.span("check", "bench", || {
            let qb = f32_from_f16_bits_slice(&bits(&q));
            if qb != head.q {
                failures.push(format!("head {head_ix}: binary16 round trip changed q"));
            }
            let worst_row = (0..l)
                .map(|r| (probs.row(r).iter().map(|p| p.to_f64()).sum::<f64>() - 1.0).abs())
                .fold(0.0, f64::max);
            if worst_row > self.row_sum_tolerance {
                failures.push(format!(
                    "head {head_ix}: softmax row sum off by {worst_row:e} > {:e}",
                    self.row_sum_tolerance
                ));
            }
            for (i, (name, out)) in ["reference_attention", "recomposed", "online_attention"]
                .iter()
                .zip(&outputs)
                .enumerate()
            {
                let err = max_abs_err(out, &head.oracle);
                self.max_err[i] = self.max_err[i].max(err);
                if err.is_nan() || err > self.tolerance {
                    failures.push(format!(
                        "head {head_ix}: {name} error {err:e} > tolerance {:e}",
                        self.tolerance
                    ));
                }
            }
        });
        failures
    }

    fn attribute(&mut self, _tr: &mut Tracer) -> Vec<String> {
        // Parallel scaling of the heaviest kernel: one worker against the
        // pinned count, on the same inputs.
        let (l, d, t) = (self.size.l, self.size.d, self.size.t);
        let head = &self.heads[0];
        let q = to_matrix(f16_bits_from_f32_slice(&head.q), l, d);
        let k = to_matrix(f16_bits_from_f32_slice(&head.k), l, d);
        let workers = resoftmax_parallel::num_threads();
        let time_at = |n: usize| {
            resoftmax_parallel::set_thread_override(Some(n));
            let t0 = Instant::now();
            let out = fused_qk_ls(&q, &k, t, self.scale(), None).expect("t divides L");
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(out);
            dt
        };
        let one = time_at(1);
        let many = time_at(workers);
        self.scaling.push(one / many);
        Vec::new()
    }

    fn counts(&self) -> Counts {
        let elems = (self.size.l * self.size.d) as f64;
        Counts {
            // Three inputs encoded, three outputs decoded.
            fp16_elems: 6.0 * elems,
            kernel_calls: 6.0,
            ..Counts::default()
        }
    }

    fn report(&self, tr: &Tracer, r: &mut Report) {
        let (l, d, t) = (self.size.l as f64, self.size.d as f64, self.size.t as f64);
        r.info("attn.seq_len", l, "count");
        r.info("attn.d_head", d, "count");
        r.info("attn.tile", t, "count");
        r.info("attn.heads", self.heads.len() as f64, "count");
        let unit_ms = r
            .get("unit_p50_ms")
            .expect("runner reports unit time")
            .value;
        r.host("attn_heads_per_s", 1e3 / unit_ms, "1/s", "higher");
        r.exact(
            "attn_max_abs_err",
            self.max_err.iter().copied().fold(0.0, f64::max),
            "abs",
            "lower",
        );
        for (name, err) in ["baseline", "sdf", "online"].iter().zip(self.max_err) {
            r.info(&format!("attn.max_abs_err_{name}"), err, "abs");
        }
        r.info("attn.tolerance", self.tolerance, "abs");
        if !tr.is_on() {
            return;
        }

        // Median duration of each call over the traced units.
        let mut p50 = BTreeMap::new();
        for (name, layer) in CALLS {
            let durs: Vec<f64> = (0..tr.units())
                .flat_map(|u| tr.durations(u, name))
                .collect();
            let key = format!("{layer}.{name}");
            r.info(&format!("{key}_n"), durs.len() as f64, "count");
            if durs.is_empty() {
                continue;
            }
            let m = median(&durs);
            p50.insert(name, m);
            if layer != "fp16" {
                r.info(&format!("{key}_ms"), m * 1e3, "ms");
            }
        }
        // Three inputs per encode, three outputs per decode.
        for dir in ["encode", "decode"] {
            if let Some(s) = p50.get(dir) {
                r.info(
                    &format!("fp16.{dir}_ns_per_elem"),
                    s * 1e9 / (3.0 * l * d),
                    "ns",
                );
            }
        }
        // Operation counts and bytes are computed from tensor sizes, not
        // measured: 2·L²·d for each L×L×d product.
        let flops = 2.0 * l * l * d;
        for name in ["fused_qk_ls", "fused_gs_pv"] {
            if let Some(s) = p50.get(name) {
                r.info(
                    &format!("kernels.{name}_gflops"),
                    flops / s / 1e9,
                    "GFLOP/s",
                );
            }
        }
        let n_sv = l / t;
        // SDF: Q,K in → X′, m′, d′ out; m′, d′ in → r′ out; X′, r′, V in → O out.
        let recomposed = (2.0 * l * d + l * l + 2.0 * l * n_sv)
            + (3.0 * l * n_sv)
            + (l * l + l * n_sv + 2.0 * l * d);
        // Baseline: Q,K in → S out; S in → scaled S out; S in → P out; P, V in → O out.
        let reference = (2.0 * l * d + l * l) + 2.0 * l * l + 2.0 * l * l + (l * l + 2.0 * l * d);
        r.info(
            "kernels.recomposed_bytes_per_head",
            recomposed * F16_BYTES,
            "B",
        );
        r.info(
            "kernels.reference_bytes_per_head",
            reference * F16_BYTES,
            "B",
        );
        if !self.scaling.is_empty() {
            r.info("parallel.scaling", median(&self.scaling), "x");
        }
    }
}
