//! Numerics rule family: abstract interpretation of a schedule's softmax
//! kernel sequence into a certified worst-case error bound.
//!
//! The pass walks the schedule once and classifies every kernel that
//! *accumulates* attention probabilities — monolithic softmax, Local
//! Softmax (standalone or riding a `Q·Kᵀ` epilogue), Inter-Reduction, and
//! fully fused online attention — by the accumulator format its
//! [`KernelMeta::accum`](resoftmax_gpusim::KernelMeta) declares. Each
//! pipeline present in the stream is then bounded by the matching
//! [`error_model`] formula at the schedule's worst
//! context length, and the loosest bound becomes the schedule's certified
//! [`ErrorBound`].
//!
//! Three rules fire on the way:
//!
//! * `numerics/accumulation` (error) — a structurally unsound format
//!   choice: binary16 accumulation with no rescaling stage to absorb it
//!   (a monolithic or fused softmax accumulating in fp16, or an fp16 LS
//!   with no Inter-Reduction anywhere downstream).
//! * `numerics/tolerance` (error) — the certified bound exceeds
//!   [`CERT_BUDGET_REL`], i.e. the schedule cannot promise the tolerance
//!   the equivalence harness verifies against.
//! * `numerics/assumed-format` (info) — accumulating kernels without
//!   declared formats were assumed fp32; hand-rolled schedules get this
//!   note instead of a spurious rejection.
//!
//! Block-sparse schedules are skipped (their gather pipelines store the
//! same intermediates but the per-row lengths are data-dependent; the
//! dense worst case does not transfer), as are schedules with no softmax
//! kernels at all — both certify as `None`, not as zero error.

use crate::diagnostic::{Diagnostic, Rule, Severity};
use crate::error_model::{self, ErrorBound, CERT_BUDGET_REL};
use crate::spec::ScheduleSpec;
use crate::view::ScheduleView;
use resoftmax_gpusim::{AccumFormat, KernelCategory, KernelDesc};

/// What a kernel contributes to the softmax error pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Monolithic softmax: one unrescaled sum over the full context.
    Monolithic,
    /// Local Softmax: per-sub-vector sums (standalone or fused epilogue).
    LocalSoftmax,
    /// Inter-Reduction: the global rescaling sum over sub-vector partials.
    InterReduction,
    /// Fully fused online-softmax attention.
    Fused,
}

fn role_of(k: &KernelDesc) -> Option<Role> {
    match k.category {
        KernelCategory::Softmax => Some(Role::Monolithic),
        KernelCategory::LocalSoftmax => Some(Role::LocalSoftmax),
        KernelCategory::MatMulQk if k.meta.fused_ls => Some(Role::LocalSoftmax),
        KernelCategory::InterReduction => Some(Role::InterReduction),
        KernelCategory::FusedAttention => Some(Role::Fused),
        _ => None,
    }
}

/// The worse (larger-roundoff) of two accumulator formats.
fn worst(a: AccumFormat, b: AccumFormat) -> AccumFormat {
    if a.unit_roundoff() >= b.unit_roundoff() {
        a
    } else {
        b
    }
}

/// Runs the numerics pass, appending findings to `diags`, and returns the
/// certified worst-case bound of the schedule when the pass applies (dense,
/// at least one softmax-family kernel); `None` otherwise. The bound is
/// returned even when it exceeds the budget — the accompanying
/// `numerics/tolerance` error carries the rejection.
pub(crate) fn check(
    spec: &ScheduleSpec,
    kernels: ScheduleView<'_>,
    diags: &mut Vec<Diagnostic>,
) -> Option<ErrorBound> {
    if spec.sparse.is_some() || kernels.is_empty() {
        return None;
    }
    // Worst context any probability row spans: the longest decode row, or
    // the full sequence length.
    let ctx = spec
        .decode
        .as_ref()
        .and_then(|d| d.ctxs.iter().copied().max())
        .unwrap_or(spec.seq_len);
    if ctx == 0 {
        return None;
    }
    let t = spec.tile_n.max(1);

    let mut assumed = 0usize;
    // Worst declared accumulator format per role, where present.
    let (mut mono, mut ls, mut ir, mut fused) = (None, None, None, None);
    let mut classified: Vec<(usize, Role, AccumFormat)> = Vec::new();
    for (i, (_, k)) in kernels.iter().enumerate() {
        let Some(role) = role_of(k) else { continue };
        let accum = k.meta.accum.unwrap_or_else(|| {
            assumed += 1;
            AccumFormat::Fp32
        });
        let slot = match role {
            Role::Monolithic => &mut mono,
            Role::LocalSoftmax => &mut ls,
            Role::InterReduction => &mut ir,
            Role::Fused => &mut fused,
        };
        *slot = Some(slot.map_or(accum, |prev| worst(prev, accum)));
        classified.push((i, role, accum));
    }

    // Structural rule: fp16 accumulation is only admissible where a
    // rescaling stage follows to renormalize it.
    let has_ir = ir.is_some();
    for &(i, role, accum) in &classified {
        if accum != AccumFormat::Fp16 {
            continue;
        }
        match role {
            Role::Monolithic | Role::Fused => diags.push(Diagnostic::error(
                Rule::NumericsAccumulation,
                i,
                format!(
                    "'{}' accumulates a length-{ctx} softmax sum in fp16 with no \
                     rescaling stage; certified error grows as (ctx-1)·2⁻¹¹",
                    kernels.get(i).1.name
                ),
            )),
            Role::LocalSoftmax if !has_ir => diags.push(Diagnostic::error(
                Rule::NumericsAccumulation,
                i,
                format!(
                    "'{}' accumulates fp16 Local Softmax partials but the schedule \
                     has no Inter-Reduction rescale to renormalize them",
                    kernels.get(i).1.name
                ),
            )),
            Role::LocalSoftmax | Role::InterReduction => {}
        }
    }

    // Bound every pipeline present; the schedule certifies at the loosest.
    let mut bound: Option<ErrorBound> = None;
    let mut fold = |b: ErrorBound| {
        bound = Some(match bound {
            Some(prev) if prev.rel >= b.rel => prev,
            _ => b,
        });
    };
    if let Some(accum) = mono {
        fold(error_model::monolithic(ctx, accum));
    }
    if ls.is_some() || ir.is_some() {
        fold(error_model::decomposed(
            ctx,
            t,
            ls.unwrap_or(AccumFormat::Fp32),
            ir.unwrap_or(AccumFormat::Fp32),
        ));
    }
    if let Some(accum) = fused {
        fold(error_model::online(ctx, t, accum));
    }

    if let Some(b) = bound {
        if !b.certifies(CERT_BUDGET_REL) {
            diags.push(Diagnostic::schedule_error(
                Rule::NumericsTolerance,
                format!(
                    "certified relative error bound {:.3e} (ctx {}, T {}, {} sub-vectors) \
                     exceeds the verify budget {CERT_BUDGET_REL:.1e}",
                    b.rel, b.ctx, b.t, b.n_sv
                ),
            ));
        }
    }
    if assumed > 0 {
        let s = if assumed == 1 { "" } else { "s" };
        diags.push(Diagnostic {
            rule: Rule::NumericsAssumedFormat,
            severity: Severity::Info,
            kernel: None,
            message: format!(
                "{assumed} accumulating kernel{s} declare no accumulator format; assumed fp32"
            ),
        });
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_gpusim::KernelMeta;

    fn kernel(category: KernelCategory, accum: Option<AccumFormat>) -> KernelDesc {
        let mut b = KernelDesc::builder("k", category);
        b.meta(KernelMeta {
            accum,
            ..KernelMeta::default()
        });
        b.build()
    }

    fn diags_of(spec: &ScheduleSpec, kernels: &[KernelDesc]) -> Vec<Diagnostic> {
        let mut d = Vec::new();
        check(spec, ScheduleView::flat(kernels), &mut d);
        d
    }

    fn certified_bound(spec: &ScheduleSpec, kernels: &[KernelDesc]) -> Option<ErrorBound> {
        check(spec, ScheduleView::flat(kernels), &mut Vec::new())
    }

    #[test]
    fn fp32_pipelines_certify_silently() {
        let spec = ScheduleSpec::dense_test(4096, 1);
        for cat in [
            KernelCategory::Softmax,
            KernelCategory::LocalSoftmax,
            KernelCategory::FusedAttention,
        ] {
            let ks = vec![kernel(cat, Some(AccumFormat::Fp32))];
            assert!(diags_of(&spec, &ks).is_empty(), "{cat:?}");
            let b = certified_bound(&spec, &ks).unwrap();
            assert!(b.certifies(CERT_BUDGET_REL), "{cat:?}: {b:?}");
        }
    }

    #[test]
    fn fp16_monolithic_is_rejected_structurally_and_by_tolerance() {
        let spec = ScheduleSpec::dense_test(4096, 1);
        let ks = vec![kernel(KernelCategory::Softmax, Some(AccumFormat::Fp16))];
        let diags = diags_of(&spec, &ks);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::NumericsAccumulation && d.severity == Severity::Error));
        assert!(diags.iter().any(|d| d.rule == Rule::NumericsTolerance));
    }

    #[test]
    fn fp16_ls_with_rescale_certifies_at_small_t() {
        let mut spec = ScheduleSpec::dense_test(4096, 1);
        spec.tile_n = 16;
        let ks = vec![
            kernel(KernelCategory::LocalSoftmax, Some(AccumFormat::Fp16)),
            kernel(KernelCategory::InterReduction, Some(AccumFormat::Fp32)),
        ];
        assert!(diags_of(&spec, &ks).is_empty());
        // Same pipeline at T = 64 blows the budget but is structurally fine.
        spec.tile_n = 64;
        let diags = diags_of(&spec, &ks);
        assert!(diags.iter().all(|d| d.rule == Rule::NumericsTolerance));
        assert_eq!(diags.len(), 1);
    }

    #[test]
    fn fp16_ls_without_rescale_is_structural_error() {
        let mut spec = ScheduleSpec::dense_test(4096, 1);
        spec.tile_n = 16;
        let ks = vec![kernel(
            KernelCategory::LocalSoftmax,
            Some(AccumFormat::Fp16),
        )];
        assert!(diags_of(&spec, &ks)
            .iter()
            .any(|d| d.rule == Rule::NumericsAccumulation));
    }

    #[test]
    fn missing_formats_are_an_info_note_not_an_error() {
        let spec = ScheduleSpec::dense_test(1024, 1);
        let ks = vec![
            kernel(KernelCategory::Softmax, None),
            kernel(KernelCategory::LocalSoftmax, None),
        ];
        let diags = diags_of(&spec, &ks);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].rule, Rule::NumericsAssumedFormat);
        assert_eq!(diags[0].severity, Severity::Info);
        assert!(diags[0].message.contains("2 accumulating kernels"));
    }

    #[test]
    fn sparse_and_empty_schedules_are_skipped() {
        let mut spec = ScheduleSpec::dense_test(1024, 1);
        assert!(certified_bound(&spec, &[]).is_none());
        spec.sparse = Some(crate::spec::SparseSpec {
            block: 64,
            n_blocks: 16,
            nnz_blocks: 48,
            row_counts: vec![3; 16],
        });
        let ks = vec![kernel(KernelCategory::Softmax, Some(AccumFormat::Fp16))];
        assert!(certified_bound(&spec, &ks).is_none());
        assert!(diags_of(&spec, &ks).is_empty());
    }

    #[test]
    fn decode_bound_tracks_the_longest_row() {
        let mut spec = ScheduleSpec::dense_test(1, 1);
        spec.decode = Some(crate::spec::DecodeSpec {
            ctxs: vec![256, 4096, 1000],
        });
        let ks = vec![kernel(KernelCategory::Softmax, Some(AccumFormat::Fp32))];
        let b = certified_bound(&spec, &ks).unwrap();
        assert_eq!(b.ctx, 4096);
    }

    #[test]
    fn fused_ls_epilogue_counts_as_local_softmax() {
        let spec = ScheduleSpec::dense_test(4096, 1);
        let mut b = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        b.meta(KernelMeta {
            fused_ls: true,
            accum: Some(AccumFormat::Fp16),
            ..KernelMeta::default()
        });
        let ks = vec![
            b.build(),
            kernel(KernelCategory::InterReduction, Some(AccumFormat::Fp32)),
        ];
        let bound = certified_bound(&spec, &ks).unwrap();
        // T = 64 with fp16 LS accumulation: structurally fine, over budget.
        assert!(!bound.certifies(CERT_BUDGET_REL));
    }
}
