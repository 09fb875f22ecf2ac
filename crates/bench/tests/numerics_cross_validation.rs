//! Cross-validation of the static numeric certificates against *measured*
//! error from the numeric kernels.
//!
//! For every dense `(strategy, L, T)` combination the `analyze` grid sweeps
//! — plus the fp16-accumulation (`SDF16`) combinations the tuner may now
//! enumerate — this suite runs the matching numeric pipeline in binary16 on
//! random score rows and checks that the empirical error never exceeds the
//! static bound:
//!
//! * max elementwise `|y₁₆ − y₆₄|` ≤ `bound.rel` (softmax outputs lie in
//!   `[0, 1]`, so a worst-case *relative* certificate implies the same
//!   absolute ceiling), and
//! * worst row-sum deviation `|Σᵢ y₁₆ − 1|` ≤ `bound.row_sum`.
//!
//! A violation on any combination means the abstract interpretation is
//! unsound for an input the kernels actually produce — the one failure mode
//! a certificate must not have. The converse (a slack bound) is fine and
//! expected: the static model charges worst-case roundoff at every step.

use resoftmax_analyzer::CERT_BUDGET_REL;
use resoftmax_bench::analysis_grid;
use resoftmax_fp16::F16;
use resoftmax_kernels::costs::TileConfig;
use resoftmax_kernels::{decomposed_softmax, decomposed_softmax_narrow_accum, softmax_rows_f64};
use resoftmax_model::{
    decode_error_bound, static_error_bound, ModelConfig, RunParams, SoftmaxStrategy,
};
use resoftmax_tensor::{randn_matrix, Matrix};
use std::collections::BTreeMap;

/// Rows measured per (strategy, L, T) combination and input style. The rows
/// are independent softmax problems, so this multiplies the sample count
/// without changing the worst case the certificate must dominate.
const ROWS: usize = 4;

/// Spread of the random score rows — matches the verification harness in
/// `resoftmax-core` (scores of roughly unit-variance QK^T at typical scale).
const SPREAD: f64 = 3.0;

/// Monolithic three-sweep softmax in binary16 with a wide normalizer — the
/// numeric model of the `Baseline` strategy's standalone Softmax kernel
/// (elementwise values round to fp16; the reduction accumulates wide).
fn monolithic_f16(x: &Matrix<F16>) -> Matrix<F16> {
    resoftmax_kernels::softmax_rows(x)
}

/// Tiled online softmax in binary16: running max / normalizer carried in
/// `f32` across length-`t` chunks, as the fused kernel holds them in fp32
/// registers (`kernels::online_attention` folds over a `Normalizer<f32>`),
/// exponentials taken in `f32` and stored values rounded to fp16 — the
/// numeric model of `OnlineFused`'s softmax recurrence, without the PV
/// accumulation that follows it.
fn online_softmax_f16(x: &Matrix<F16>, t: usize) -> Matrix<F16> {
    let (rows, cols) = x.shape();
    let mut y = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let mut m = f32::NEG_INFINITY;
        let mut d = 0.0f32;
        for base in (0..cols).step_by(t) {
            let end = (base + t).min(cols);
            let chunk_max = (base..end)
                .map(|c| x.get(r, c).to_f32())
                .fold(f32::NEG_INFINITY, f32::max);
            let new_m = m.max(chunk_max);
            if new_m == f32::NEG_INFINITY {
                continue;
            }
            if m != f32::NEG_INFINITY {
                d *= (m - new_m).exp();
            }
            for c in base..end {
                let e = F16::from_f32((x.get(r, c).to_f32() - new_m).exp());
                d += e.to_f32();
            }
            m = new_m;
        }
        if m == f32::NEG_INFINITY {
            continue;
        }
        for c in 0..cols {
            let e = F16::from_f32((x.get(r, c).to_f32() - m).exp());
            y.set(r, c, F16::from_f32(e.to_f32() / d));
        }
    }
    y
}

/// Runs the numeric pipeline matching `strategy` on `x`.
fn run_pipeline(strategy: SoftmaxStrategy, x: &Matrix<F16>, t: usize) -> Matrix<F16> {
    match strategy {
        SoftmaxStrategy::Baseline => monolithic_f16(x),
        SoftmaxStrategy::Decomposed | SoftmaxStrategy::Recomposed => {
            decomposed_softmax(x, t).expect("grid tile divides grid length")
        }
        SoftmaxStrategy::RecomposedFp16 => {
            decomposed_softmax_narrow_accum(x, t).expect("grid tile divides grid length")
        }
        SoftmaxStrategy::OnlineFused => online_softmax_f16(x, t),
    }
}

/// Measured (max |Δ| vs f64 oracle, worst row-sum deviation) for one input.
fn measure(strategy: SoftmaxStrategy, x: &Matrix<F16>, t: usize) -> (f64, f64) {
    let oracle = softmax_rows_f64(x);
    let y = run_pipeline(strategy, x, t);
    let mut max_abs = 0.0f64;
    let mut worst_sum = 0.0f64;
    for r in 0..x.rows() {
        let mut sum = 0.0f64;
        for c in 0..x.cols() {
            max_abs = max_abs.max((y.get(r, c).to_f64() - oracle.get(r, c)).abs());
            sum += y.get(r, c).to_f64();
        }
        worst_sum = worst_sum.max((sum - 1.0).abs());
    }
    (max_abs, worst_sum)
}

/// The two input styles stressed per combination: flat random rows (every
/// output small — stresses the normalizer) and spiked rows with one dominant
/// score (an output near 1 — stresses the absolute ceiling).
fn inputs(l: usize, seed: usize) -> [Matrix<F16>; 2] {
    let flat = randn_matrix::<F16>(ROWS, l, SPREAD, seed as u64);
    let mut spiked = flat.clone();
    for r in 0..ROWS {
        let c = seed.wrapping_mul(31).wrapping_add(r * 97) % l;
        // +15 keeps the spiked exponential dominant even over 8192 summed
        // competitors (e¹⁵ ≫ L·E[eˣ]), putting one output near 1.
        let v = spiked.get(r, c).to_f64() + 15.0;
        spiked.set(r, c, F16::from_f64(v));
    }
    [flat, spiked]
}

/// Every dense combination in the analysis grid, deduplicated to the
/// numerics-relevant key `(strategy, L, T)`, plus the `SDF16` combinations
/// at the tile widths that certify.
fn combos() -> BTreeMap<(String, usize, usize), (SoftmaxStrategy, RunParams, ModelConfig)> {
    let mut out = BTreeMap::new();
    let dense = ModelConfig::bert_large();
    for (model, params) in analysis_grid() {
        if static_error_bound(&model, &params).is_none() {
            continue; // sparse attention: no dense certificate to validate
        }
        let key = (
            params.strategy.label().to_owned(),
            params.seq_len,
            params.tile.n,
        );
        out.entry(key)
            .or_insert_with(|| (params.strategy, params.clone(), model));
    }
    // SDF16 is not in the grid's fp32 line-up; sweep it at its certified
    // tile widths across the same sequence lengths.
    for &t in &[16usize, 32] {
        for &l in &[512usize, 1024, 2048, 4096, 8192] {
            let params = RunParams::new(l)
                .strategy(SoftmaxStrategy::RecomposedFp16)
                .tile(TileConfig::new(64, t));
            let key = (params.strategy.label().to_owned(), l, t);
            out.entry(key)
                .or_insert_with(|| (SoftmaxStrategy::RecomposedFp16, params, dense.clone()));
        }
    }
    out
}

/// The load-bearing check: for every combination, empirical error ≤ static
/// bound, on both input styles, for both the elementwise and row-sum terms.
#[test]
fn empirical_error_never_exceeds_static_bound() {
    let mut violations = Vec::new();
    let mut checked = 0usize;
    for (seed, ((label, l, t), (strategy, params, model))) in combos().into_iter().enumerate() {
        let bound = static_error_bound(&model, &params)
            .unwrap_or_else(|| panic!("dense combo {label}/L{l}/T{t} must have a certificate"));
        for (style, x) in ["flat", "spiked"].iter().zip(inputs(l, seed + 1)) {
            let (max_abs, worst_sum) = measure(strategy, &x, t);
            checked += 1;
            if max_abs > bound.rel {
                violations.push(format!(
                    "{label}/L{l}/T{t}/{style}: measured |Δ| {max_abs:.3e} > certified {:.3e}",
                    bound.rel
                ));
            }
            if worst_sum > bound.row_sum {
                violations.push(format!(
                    "{label}/L{l}/T{t}/{style}: row-sum dev {worst_sum:.3e} > certified {:.3e}",
                    bound.row_sum
                ));
            }
        }
    }
    assert!(
        checked >= 2 * (4 * 5 + 2 * 5),
        "grid shrank: {checked} measurements"
    );
    assert!(
        violations.is_empty(),
        "static certificates violated empirically:\n{}",
        violations.join("\n")
    );
}

/// Acceptance check: every fp32 combination in the grid certifies under the
/// budget (the new numerics gate must not reject previously-valid
/// schedules), and the certified SDF16 sweep certifies too.
#[test]
fn every_grid_combo_certifies() {
    for ((label, l, t), (_, params, model)) in combos() {
        let bound = static_error_bound(&model, &params).expect("dense combo");
        assert!(
            bound.certifies(CERT_BUDGET_REL),
            "{label}/L{l}/T{t}: rel {:.3e} exceeds budget {CERT_BUDGET_REL:.1e}",
            bound.rel
        );
    }
}

/// The corrupted variant — fp16 LS accumulation at the grid's default tile
/// width — must be *rejected* by the static pass, and the empirical pipeline
/// shows why: its measured error exceeds what the budget permits at tiles
/// this wide, so the gate is load-bearing rather than conservative noise.
#[test]
fn uncertified_wide_fp16_variant_is_rejected() {
    let model = ModelConfig::bert_large();
    let params = RunParams::new(4096).strategy(SoftmaxStrategy::RecomposedFp16);
    assert_eq!(params.tile.n, 64, "default tile is the paper's T >= 64");
    let bound = static_error_bound(&model, &params).expect("dense combo");
    assert!(
        !bound.certifies(CERT_BUDGET_REL),
        "wide-tile fp16 accumulation must fail certification, got rel {:.3e}",
        bound.rel
    );
    // The static bound still dominates the measurement even where it fails
    // the budget — rejection means "cannot prove it is accurate enough",
    // and soundness must hold on both sides of the gate.
    let [flat, spiked] = inputs(4096, 99);
    for x in [flat, spiked] {
        let (max_abs, worst_sum) = measure(SoftmaxStrategy::RecomposedFp16, &x, 64);
        assert!(max_abs <= bound.rel, "{max_abs:.3e} > {:.3e}", bound.rel);
        assert!(worst_sum <= bound.row_sum);
    }
}

/// Decode certificates agree with the prefill model: a heterogeneous batch
/// is certified at its worst (longest) context, exactly as if that context
/// were a prefill of the same shape.
#[test]
fn decode_bound_matches_worst_context() {
    let params = RunParams::new(64)
        .strategy(SoftmaxStrategy::RecomposedFp16)
        .tile(TileConfig::new(64, 16));
    let hetero = decode_error_bound(&[128, 2048, 512], &params).expect("decode certificate");
    let worst = decode_error_bound(&[2048], &params).expect("decode certificate");
    assert_eq!(hetero, worst);
    assert_eq!(hetero.ctx, 2048);
    // And the decode certificate for the fp16 LS epilogue is the same
    // decomposed-fp16 bound the prefill path certifies.
    let prefill = static_error_bound(
        &ModelConfig::bert_large(),
        &RunParams::new(2048)
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .tile(TileConfig::new(64, 16)),
    )
    .expect("prefill certificate");
    assert_eq!(hetero, prefill);
}
