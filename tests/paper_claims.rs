//! End-to-end integration tests of the paper's claims on the public API,
//! crossing every crate boundary: fp16 → tensor → sparse → kernels →
//! gpusim → model → core.

use std::sync::OnceLock;

use resoftmax::core::claims;
use resoftmax::prelude::*;

/// Asserts that every claim of `section` in `core::claims` holds on the
/// figure rows, which are computed once for all the tests of this file; the
/// failure lists each claim out of its band with its paper value, measured
/// value and band.
fn assert_claims_hold(section: &str) {
    static ROWS: OnceLock<Vec<experiments::BenchRow>> = OnceLock::new();
    let rows = ROWS.get_or_init(|| experiments::figure_rows().unwrap());
    let failed: Vec<String> = claims::check(claims::CLAIMS, rows)
        .iter()
        .filter(|o| o.claim.section == section && !o.holds())
        .map(|o| o.cells().join(" | "))
        .collect();
    assert!(
        failed.is_empty(),
        "{} {section} claims do not hold ({}):\n{}",
        failed.len(),
        claims::HEADERS.join(" | "),
        failed.join("\n")
    );
}

/// One test per section of `core::claims`, in table order, and one that the
/// table has no other section and lists each section's claims together.
macro_rules! claim_tests {
    ($($test:ident: $section:literal,)*) => {
        $(#[test]
        fn $test() {
            assert_claims_hold($section);
        })*

        #[test]
        fn every_section_has_a_claim_test() {
            let mut sections: Vec<&str> = claims::CLAIMS.iter().map(|c| c.section).collect();
            sections.dedup();
            assert_eq!(sections, [$($section),*]);
        }
    };
}

claim_tests! {
    fig2_claims_hold: "Fig. 2",
    fig5_claims_hold: "Fig. 5",
    fig7_claims_hold: "Fig. 7",
    fig8_claims_hold: "Fig. 8",
    fig9a_claims_hold: "Fig. 9(a)",
    fig9b_claims_hold: "Fig. 9(b)",
    section_5_1_claims_hold: "§5.1",
}

/// The numerics behind it all, exercised through the umbrella prelude.
#[test]
fn recomposition_is_numerically_faithful() {
    let eq = verify::verify_decomposition(16, 512, 64, 99);
    assert!(eq.max_abs_f64 < 1e-13);
    assert!(eq.max_ulp_fp16 <= 8);
    let fr = verify::verify_fusion(256, 64, 64, 100);
    assert!(fr.max_abs_f64 < 1e-5);
    assert!(verify::verify_backward(2, 32, 101) < 1e-5);
}

/// Block-sparse attention through the full public path equals masked dense.
#[test]
fn sparse_attention_end_to_end() {
    let l = 128;
    let layout = pattern::longformer(
        l,
        &LongformerConfig {
            block: 16,
            window: 64,
            global_tokens: 16,
        },
    );
    let q = randn_matrix::<f64>(l, 8, 1.0, 1);
    let k = randn_matrix::<f64>(l, 8, 1.0, 2);
    let v = randn_matrix::<f64>(l, 8, 1.0, 3);
    let sparse_out = spmm(&block_sparse_softmax(&sddmm(&q, &k, &layout).unwrap()), &v).unwrap();
    let mask = layout.element_mask();
    let dense = matmul(
        &softmax_rows(&apply_mask(&matmul(&q, &transpose(&k)).unwrap(), &mask)),
        &v,
    )
    .unwrap();
    assert!(max_abs_diff(&sparse_out, &dense) < 1e-9);
}

/// Half precision end to end: recomposed attention in bit-exact binary16
/// stays finite and close to the f64 oracle even with large scores.
#[test]
fn fp16_pipeline_is_safe() {
    let l = 128;
    let q = randn_matrix::<F16>(l, 32, 2.0, 5);
    let k = randn_matrix::<F16>(l, 32, 2.0, 6);
    let v = randn_matrix::<F16>(l, 32, 1.0, 7);
    let scale = 1.0 / 32f64.sqrt();
    let (out, ir) = recomposed_attention(&q, &k, &v, 32, scale, None).unwrap();
    assert!(!out.has_nan());
    assert!(out.as_slice().iter().all(|x| x.is_finite()));
    for r in 0..l {
        let s: f64 = ir.r_prime.row(r).iter().map(|x| x.to_f64()).sum();
        assert!((s - 1.0).abs() < 0.05, "row {r}: Σr' = {s}");
    }
}
