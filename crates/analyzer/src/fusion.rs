//! Fusion-legality rules.
//!
//! Two checks from §3.3 of the paper, beyond the sequence grammar in
//! [`crate::fsm`]:
//!
//! * **Tile width** — recomposition is only legal when the LS sub-vector
//!   length `T` equals the output-tile width of the MatMul it is fused with
//!   (or feeds): an LS over sub-vectors that straddle tile boundaries would
//!   need cross-tile reductions inside the epilogue. The rule also pins
//!   every `T` in the SDA block (LS, IR, GS, fused epilogue/prologue) to the
//!   schedule-wide value, since `m'`/`d'`/`r'` layouts are shared.
//! * **GS placement** — Global Scaling must be an *elementwise* rescale of
//!   the `P·V` MatMul's LHS operand: fused, it reads `x'` and `r'` (never
//!   finished probabilities); standalone, it must be shape-preserving and
//!   its output must be what `P·V` consumes.

use crate::diagnostic::{Diagnostic, Rule};
use crate::spec::{ScheduleSpec, StrategyKind};
use resoftmax_gpusim::{KernelCategory, KernelDesc};

fn reads_role(k: &KernelDesc, role: &str) -> bool {
    k.reads.iter().any(|b| b.id.is(role))
}

/// The schedule-wide LS sub-vector length the spec implies: the MatMul tile
/// width on the dense path, the block side on the block-sparse path (block
/// tiles are the natural LS unit there).
pub fn expected_sub_vector(spec: &ScheduleSpec) -> usize {
    match &spec.sparse {
        Some(s) => s.block,
        None => spec.tile_n,
    }
}

/// Runs the tile-width and GS-placement checks.
pub fn check(spec: &ScheduleSpec, kernels: &[KernelDesc], diags: &mut Vec<Diagnostic>) {
    let t_expected = expected_sub_vector(spec);
    let kv_len = spec.seq_len;
    // Batched decode keys by per-row context lengths, not `seq_len`, and its
    // formulas use exact `⌈ctx / T⌉` sub-vector counts — no approximation to
    // warn about.
    if spec.decode.is_none() && !kv_len.is_multiple_of(t_expected) {
        diags.push(Diagnostic {
            rule: Rule::FusionTileWidth,
            severity: crate::Severity::Warning,
            kernel: None,
            message: format!(
                "sub-vector length T={t_expected} does not divide the key length {kv_len}; \
                 edge sub-vectors are approximated"
            ),
        });
    }

    let mut last_qk_tile_n: Option<usize> = None;
    for (i, k) in kernels.iter().enumerate() {
        // Warp alignment: hardware launches whole warps, so a thread-block
        // size that is not a multiple of 32 misstates occupancy.
        if !(k.shape.threads as usize).is_multiple_of(32) {
            diags.push(Diagnostic::error(
                Rule::ShapeWarpAlignment,
                i,
                format!(
                    "`{}` launches {}-thread blocks; block sizes must be a \
                     multiple of the 32-lane warp width",
                    k.name, k.shape.threads
                ),
            ));
        }

        // Every kernel that participates in the decomposed-softmax dataflow
        // must agree on T.
        if let Some(t) = k.meta.sub_vector {
            if t != t_expected {
                diags.push(Diagnostic::error(
                    Rule::FusionTileWidth,
                    i,
                    format!(
                        "`{}` uses sub-vector length T={t} but the schedule's \
                         m'/d'/r' layout implies T={t_expected}",
                        k.name
                    ),
                ));
            }
        }

        match k.category {
            KernelCategory::MatMulQk => {
                last_qk_tile_n = k.meta.tile_n;
                if k.meta.fused_ls {
                    match (k.meta.sub_vector, k.meta.tile_n) {
                        (Some(t), Some(n)) if t != n => diags.push(Diagnostic::error(
                            Rule::FusionTileWidth,
                            i,
                            format!(
                                "`{}` fuses LS with sub-vector length T={t} into a MatMul \
                                 with output-tile width {n}; recomposition requires T to \
                                 equal the tile width (paper §3.3)",
                                k.name
                            ),
                        )),
                        (None, _) | (_, None) => diags.push(Diagnostic::warning(
                            Rule::FusionTileWidth,
                            i,
                            format!(
                                "`{}` fuses LS but does not declare both its sub-vector \
                                 length and tile width; legality cannot be checked",
                                k.name
                            ),
                        )),
                        _ => {}
                    }
                }
            }
            KernelCategory::LocalSoftmax => {
                // Standalone LS (the SD configuration): its tiles must align
                // with the tiles of the QK MatMul that produced its input,
                // or recomposing later would be illegal.
                match (k.meta.sub_vector, last_qk_tile_n) {
                    (Some(t), Some(n)) if t != n => diags.push(Diagnostic::error(
                        Rule::FusionTileWidth,
                        i,
                        format!(
                            "`{}` runs LS with sub-vector length T={t} over scores \
                             produced by a MatMul with output-tile width {n}",
                            k.name
                        ),
                    )),
                    (None, _) => diags.push(Diagnostic::warning(
                        Rule::FusionTileWidth,
                        i,
                        format!("`{}` declares no sub-vector length", k.name),
                    )),
                    _ => {}
                }
            }
            KernelCategory::MatMulPv => check_pv_gs(spec, i, k, diags),
            KernelCategory::GlobalScaling => check_standalone_gs(i, k, kernels, diags),
            _ => {}
        }
    }
}

/// GS fused into the `P·V` prologue: present exactly under the recomposed
/// strategy, reading `x'`+`r'` rather than finished probabilities.
fn check_pv_gs(spec: &ScheduleSpec, i: usize, k: &KernelDesc, diags: &mut Vec<Diagnostic>) {
    let fused_gs = k.meta.fused_gs || reads_role(k, "r_prime");
    match spec.strategy {
        StrategyKind::Recomposed => {
            if !fused_gs {
                diags.push(Diagnostic::error(
                    Rule::FusionGsPlacement,
                    i,
                    format!(
                        "`{}`: recomposed schedules must fuse Global Scaling into the \
                         P·V prologue, but this P·V has none",
                        k.name
                    ),
                ));
                return;
            }
            if !reads_role(k, "x_prime") || !reads_role(k, "r_prime") {
                diags.push(Diagnostic::error(
                    Rule::FusionGsPlacement,
                    i,
                    format!(
                        "`{}` fuses GS but does not read both x' and r'; the prologue \
                         must rescale the LHS operand elementwise",
                        k.name
                    ),
                ));
            }
            if reads_role(k, "probs") {
                diags.push(Diagnostic::error(
                    Rule::FusionGsPlacement,
                    i,
                    format!(
                        "`{}` fuses GS yet reads finished probabilities; the fused \
                         prologue must consume unscaled x' instead",
                        k.name
                    ),
                ));
            }
            if k.tbs.total_cuda_flops() == 0.0 {
                diags.push(Diagnostic::error(
                    Rule::FusionGsPlacement,
                    i,
                    format!(
                        "`{}` claims a GS prologue but declares zero CUDA-core FLOPs; \
                         the elementwise rescale is unaccounted",
                        k.name
                    ),
                ));
            }
        }
        _ => {
            if fused_gs {
                diags.push(Diagnostic::error(
                    Rule::FusionGsPlacement,
                    i,
                    format!(
                        "`{}` fuses Global Scaling into P·V under the {:?} strategy; \
                         only recomposed schedules may do so",
                        k.name, spec.strategy
                    ),
                ));
            }
        }
    }
}

/// Standalone GS (the SD configuration): an elementwise, shape-preserving
/// rescale whose output is exactly what the following `P·V` consumes.
fn check_standalone_gs(
    i: usize,
    k: &KernelDesc,
    kernels: &[KernelDesc],
    diags: &mut Vec<Diagnostic>,
) {
    if !reads_role(k, "x_prime") || !reads_role(k, "r_prime") {
        diags.push(Diagnostic::error(
            Rule::FusionGsPlacement,
            i,
            format!("`{}`: standalone GS must read x' and r'", k.name),
        ));
    }
    let in_fp = k.reads.iter().find(|b| b.id.is("x_prime")).map(|b| b.bytes);
    let out = k.writes.first();
    match (in_fp, out) {
        (Some(inf), Some(o)) if o.bytes != inf => diags.push(Diagnostic::error(
            Rule::FusionGsPlacement,
            i,
            format!(
                "`{}`: GS must be shape-preserving, but its x' input footprint \
                 ({inf} B) differs from its output footprint ({} B)",
                k.name, o.bytes
            ),
        )),
        _ => {}
    }
    // The next P·V must consume this GS's output (the scaled probabilities).
    if let Some(out) = out {
        if let Some(pv) = kernels[i..]
            .iter()
            .find(|n| n.category == KernelCategory::MatMulPv)
        {
            if !pv.reads.iter().any(|b| b.id == out.id) {
                diags.push(Diagnostic::error(
                    Rule::FusionGsPlacement,
                    i,
                    format!(
                        "`{}` writes `{}` but the following P·V (`{}`) does not read it; \
                         GS must feed the P·V LHS",
                        k.name, out.id, pv.name
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ScheduleSpec, SparseSpec};
    use resoftmax_gpusim::{KernelCategory, KernelDesc, KernelMeta, TbWork};

    #[test]
    fn matching_tiles_pass() {
        let spec = ScheduleSpec::dense_test(1024, 1);
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.meta(KernelMeta {
            tile_n: Some(64),
            sub_vector: Some(64),
            fused_ls: true,
            ..KernelMeta::default()
        });
        let mut diags = Vec::new();
        check(&spec, &[qk.build()], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn mismatched_ls_tile_fails() {
        let spec = ScheduleSpec::dense_test(1024, 1);
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.meta(KernelMeta {
            tile_n: Some(64),
            sub_vector: Some(32),
            fused_ls: true,
            ..KernelMeta::default()
        });
        let mut diags = Vec::new();
        check(&spec, &[qk.build()], &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::FusionTileWidth && d.severity == crate::Severity::Error));
    }

    #[test]
    fn standalone_ls_must_match_preceding_qk() {
        let spec = ScheduleSpec::dense_test(1024, 1);
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.meta(KernelMeta {
            tile_n: Some(128),
            ..KernelMeta::default()
        });
        let mut ls = KernelDesc::builder("ls", KernelCategory::LocalSoftmax);
        ls.meta(KernelMeta {
            sub_vector: Some(64),
            ..KernelMeta::default()
        });
        let mut diags = Vec::new();
        check(&spec, &[qk.build(), ls.build()], &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::FusionTileWidth && d.kernel == Some(1)),
            "{diags:?}"
        );
    }

    #[test]
    fn sparse_sub_vector_is_the_block() {
        let mut spec = ScheduleSpec::dense_test(1024, 1);
        spec.sparse = Some(SparseSpec {
            block: 64,
            n_blocks: 16,
            nnz_blocks: 32,
            row_counts: vec![2; 16],
        });
        assert_eq!(expected_sub_vector(&spec), 64);
    }

    #[test]
    fn gs_prologue_required_under_recomposed() {
        let mut spec = ScheduleSpec::dense_test(1024, 1);
        spec.strategy = StrategyKind::Recomposed;
        let mut pv = KernelDesc::builder("pv", KernelCategory::MatMulPv);
        pv.reads("l0.probs", 64).uniform(1, TbWork::default());
        let mut diags = Vec::new();
        check(&spec, &[pv.build()], &mut diags);
        assert!(diags.iter().any(|d| d.rule == Rule::FusionGsPlacement));
    }

    #[test]
    fn gs_prologue_forbidden_under_baseline() {
        let spec = ScheduleSpec::dense_test(1024, 1);
        let mut pv = KernelDesc::builder("pv", KernelCategory::MatMulPv);
        pv.reads("l0.x_prime", 64)
            .reads("l0.r_prime", 4)
            .meta(KernelMeta {
                fused_gs: true,
                ..KernelMeta::default()
            });
        let mut diags = Vec::new();
        check(&spec, &[pv.build()], &mut diags);
        assert!(diags.iter().any(|d| d.rule == Rule::FusionGsPlacement));
    }

    #[test]
    fn standalone_gs_must_feed_pv() {
        let spec = ScheduleSpec::dense_test(1024, 1);
        let mut gs = KernelDesc::builder("gs", KernelCategory::GlobalScaling);
        gs.reads("l0.x_prime", 64)
            .reads("l0.r_prime", 4)
            .writes("l0.probs", 64);
        let mut pv = KernelDesc::builder("pv", KernelCategory::MatMulPv);
        pv.reads("l0.scores", 64); // wrong operand
        let mut diags = Vec::new();
        check(&spec, &[gs.build(), pv.build()], &mut diags);
        assert!(
            diags
                .iter()
                .any(|d| d.rule == Rule::FusionGsPlacement && d.kernel == Some(0)),
            "{diags:?}"
        );
    }
}
