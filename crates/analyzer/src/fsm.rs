//! SDA sequence grammar: the attention kernels of each layer must follow
//! the category sequence the configured strategy implies.
//!
//! The grammar is a tiny cyclic FSM — one cycle per layer:
//!
//! ```text
//! Baseline   : QK → (Scale → Mask)? → Softmax → PV
//! Decomposed : QK → (Scale → Mask)? → LS → IR → GS → PV
//! Recomposed : QK+LS → IR → PV+GS        (fused scale/mask)
//!              QK → Scale → Mask → LS → IR → PV+GS   (separate scale/mask)
//! OnlineFused: FusedMHA
//! ```
//!
//! where the optional Scale/Mask pair appears exactly when the library
//! profile runs them standalone (dense path only — the block-sparse kernels
//! always fuse them).

use crate::diagnostic::{Diagnostic, Rule};
use crate::spec::{ScheduleSpec, StrategyKind};
use crate::view::ScheduleView;
use resoftmax_gpusim::{KernelCategory, KernelDesc};

/// One state of the SDA grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SdaState {
    /// `Q·Kᵀ`; `fused_ls` when Local Softmax rides its epilogue.
    Qk {
        /// Local Softmax fused into the epilogue.
        fused_ls: bool,
    },
    /// Standalone elementwise scale.
    Scale,
    /// Standalone elementwise mask.
    Mask,
    /// Monolithic softmax.
    Softmax,
    /// Standalone Local Softmax.
    Ls,
    /// Inter-sub-vector reduction.
    Ir,
    /// Standalone Global Scaling.
    Gs,
    /// `P·V`; `fused_gs` when Global Scaling rides its prologue.
    Pv {
        /// Global Scaling fused into the prologue.
        fused_gs: bool,
    },
    /// Fully fused online-softmax attention.
    Fused,
}

impl SdaState {
    fn label(self) -> String {
        match self {
            SdaState::Qk { fused_ls: true } => "QK+LS".into(),
            SdaState::Qk { fused_ls: false } => "QK".into(),
            SdaState::Scale => "Scale".into(),
            SdaState::Mask => "Mask".into(),
            SdaState::Softmax => "Softmax".into(),
            SdaState::Ls => "LS".into(),
            SdaState::Ir => "IR".into(),
            SdaState::Gs => "GS".into(),
            SdaState::Pv { fused_gs: true } => "PV+GS".into(),
            SdaState::Pv { fused_gs: false } => "PV".into(),
            SdaState::Fused => "FusedMHA".into(),
        }
    }
}

/// Classifies one SDA kernel into its grammar state. Fusion flags come from
/// the structured metadata with the buffer declarations as a fallback, so
/// hand-rolled descriptions still classify.
pub fn classify(k: &KernelDesc) -> Option<SdaState> {
    let state = match k.category {
        KernelCategory::MatMulQk => SdaState::Qk {
            fused_ls: k.meta.fused_ls || k.writes.iter().any(|b| b.id.is("x_prime")),
        },
        KernelCategory::Scale => SdaState::Scale,
        KernelCategory::Mask => SdaState::Mask,
        KernelCategory::Softmax => SdaState::Softmax,
        KernelCategory::LocalSoftmax => SdaState::Ls,
        KernelCategory::InterReduction => SdaState::Ir,
        KernelCategory::GlobalScaling => SdaState::Gs,
        KernelCategory::MatMulPv => SdaState::Pv {
            fused_gs: k.meta.fused_gs || k.reads.iter().any(|b| b.id.is("r_prime")),
        },
        KernelCategory::FusedAttention => SdaState::Fused,
        _ => return None,
    };
    Some(state)
}

/// The per-layer SDA state sequence the spec's strategy implies.
pub fn expected_pattern(spec: &ScheduleSpec) -> Vec<SdaState> {
    // Block-sparse kernels always fuse scale/mask into the QK epilogue.
    let separate = spec.separate_scale_mask && spec.sparse.is_none();
    let mut p = Vec::new();
    if spec.strategy == StrategyKind::OnlineFused {
        p.push(SdaState::Fused);
        return p;
    }
    let qk_ls = spec.strategy == StrategyKind::Recomposed && !separate;
    p.push(SdaState::Qk { fused_ls: qk_ls });
    if separate {
        p.push(SdaState::Scale);
        p.push(SdaState::Mask);
    }
    match spec.strategy {
        StrategyKind::Baseline => {
            p.push(SdaState::Softmax);
            p.push(SdaState::Pv { fused_gs: false });
        }
        StrategyKind::Decomposed => {
            p.extend([
                SdaState::Ls,
                SdaState::Ir,
                SdaState::Gs,
                SdaState::Pv { fused_gs: false },
            ]);
        }
        StrategyKind::Recomposed => {
            // With separate scale/mask the LS epilogue cannot ride the QK
            // MatMul; LS runs standalone, GS still fuses into PV.
            if separate {
                p.push(SdaState::Ls);
            }
            p.push(SdaState::Ir);
            p.push(SdaState::Pv { fused_gs: true });
        }
        StrategyKind::OnlineFused => unreachable!("returned above"),
    }
    p
}

/// Checks the schedule's SDA kernels against the cyclic grammar.
pub(crate) fn check(spec: &ScheduleSpec, kernels: ScheduleView<'_>, diags: &mut Vec<Diagnostic>) {
    let pattern = expected_pattern(spec);
    let sda: Vec<(usize, SdaState)> = kernels
        .iter()
        .enumerate()
        .filter_map(|(i, (_, k))| classify(k).map(|s| (i, s)))
        .collect();

    let expected_len = pattern.len() * spec.layers;
    if sda.len() != expected_len {
        diags.push(Diagnostic::schedule_error(
            Rule::FusionSequence,
            format!(
                "expected {expected_len} SDA kernels ({} layers x {:?}-pattern of {}), found {}",
                spec.layers,
                spec.strategy,
                pattern.len(),
                sda.len()
            ),
        ));
    }

    for (pos, &(idx, actual)) in sda.iter().enumerate() {
        let want = pattern[pos % pattern.len()];
        if actual != want {
            diags.push(Diagnostic::error(
                Rule::FusionSequence,
                idx,
                format!(
                    "`{}`: SDA sequence position {} of layer {} should be {} but is {}",
                    kernels.get(idx).1.name,
                    pos % pattern.len(),
                    pos / pattern.len(),
                    want.label(),
                    actual.label()
                ),
            ));
            // One clear mismatch beats a cascade of follow-on errors.
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScheduleSpec;
    use resoftmax_gpusim::KernelDesc;

    /// The grammar check over a flat sequence.
    fn check(spec: &ScheduleSpec, kernels: &[KernelDesc], diags: &mut Vec<Diagnostic>) {
        super::check(spec, ScheduleView::flat(kernels), diags);
    }

    fn mk(cat: KernelCategory) -> KernelDesc {
        KernelDesc::builder("k", cat).build()
    }

    #[test]
    fn patterns_per_strategy() {
        let mut spec = ScheduleSpec::dense_test(1024, 1);
        assert_eq!(expected_pattern(&spec).len(), 3);
        spec.strategy = StrategyKind::Decomposed;
        assert_eq!(expected_pattern(&spec).len(), 5);
        spec.strategy = StrategyKind::Recomposed;
        assert_eq!(
            expected_pattern(&spec),
            vec![
                SdaState::Qk { fused_ls: true },
                SdaState::Ir,
                SdaState::Pv { fused_gs: true }
            ]
        );
        spec.separate_scale_mask = true;
        assert_eq!(expected_pattern(&spec).len(), 6);
        spec.strategy = StrategyKind::OnlineFused;
        assert_eq!(expected_pattern(&spec), vec![SdaState::Fused]);
    }

    #[test]
    fn clean_baseline_sequence_passes() {
        let spec = ScheduleSpec::dense_test(1024, 2);
        let layer = [
            KernelCategory::MatMulQk,
            KernelCategory::Softmax,
            KernelCategory::MatMulPv,
        ];
        let ks: Vec<KernelDesc> = layer.iter().chain(layer.iter()).map(|&c| mk(c)).collect();
        let mut diags = Vec::new();
        check(&spec, &ks, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn swapped_kernels_caught() {
        let spec = ScheduleSpec::dense_test(1024, 1);
        let ks = vec![
            mk(KernelCategory::MatMulQk),
            mk(KernelCategory::MatMulPv),
            mk(KernelCategory::Softmax),
        ];
        let mut diags = Vec::new();
        check(&spec, &ks, &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::FusionSequence && d.kernel == Some(1)));
    }

    #[test]
    fn missing_ir_changes_count() {
        let mut spec = ScheduleSpec::dense_test(1024, 1);
        spec.strategy = StrategyKind::Recomposed;
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.writes("l0.x_prime", 4);
        let mut pv = KernelDesc::builder("pv", KernelCategory::MatMulPv);
        pv.reads("l0.r_prime", 4);
        let ks = vec![qk.build(), pv.build()];
        let mut diags = Vec::new();
        check(&spec, &ks, &mut diags);
        assert!(diags.iter().any(|d| d.rule == Rule::FusionSequence));
    }

    #[test]
    fn classification_uses_buffer_fallback() {
        let mut qk = KernelDesc::builder("qk", KernelCategory::MatMulQk);
        qk.writes("l3.x_prime", 128);
        assert_eq!(classify(&qk.build()), Some(SdaState::Qk { fused_ls: true }));
        assert_eq!(classify(&mk(KernelCategory::Fc)), None);
    }
}
