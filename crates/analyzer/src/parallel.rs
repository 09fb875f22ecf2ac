//! Parallel-split legality rule.
//!
//! Every parallel runtime in this project — the simulated GPU grid and the
//! host work-stealing pool (`resoftmax-parallel`) — promises bit-exact FP16
//! results at any degree of parallelism. That promise holds only when work
//! is split along axes whose units own *disjoint* slices of the output, so
//! the per-element accumulation order never depends on how many workers ran.
//! A split that crosses a reduction axis breaks it: partial maxima/sums
//! would combine in a parallelism-dependent order.
//!
//! This rule checks each kernel's declared
//! [`ParallelSplit`] against the reduction
//! structure its category implies:
//!
//! * Row-reducing kernels (monolithic softmax, IR, LayerNorm, fused online
//!   attention) reduce across a full row — only [`OutputRows`] is safe.
//! * Local Softmax reduces within a sub-vector only, so rows may be cut into
//!   segments or tiles as long as segments respect the `T` boundary.
//! * MatMuls reduce along `k`, which no output-side split touches — any
//!   output split is safe.
//! * Elementwise kernels have no reduction at all.
//!
//! Kernels that declare no split are skipped (hand-rolled descriptions);
//! declaring [`ReductionAxis`] is always an error.
//!
//! [`OutputRows`]: resoftmax_gpusim::ParallelSplit::OutputRows
//! [`ReductionAxis`]: resoftmax_gpusim::ParallelSplit::ReductionAxis

use crate::diagnostic::{Diagnostic, Rule};
use crate::view::ScheduleView;
use resoftmax_gpusim::{KernelCategory, ParallelSplit};

/// The splits that keep results independent of parallelism for a category.
fn legal_splits(category: KernelCategory) -> &'static [ParallelSplit] {
    use KernelCategory as C;
    use ParallelSplit as S;
    match category {
        // Full-row reductions: max and normalizer span the whole row.
        C::Softmax | C::InterReduction | C::LayerNorm | C::FusedAttention => &[S::OutputRows],
        // LS reduces within one sub-vector; segments and tiles are disjoint.
        C::LocalSoftmax => &[S::OutputRows, S::RowSegments, S::OutputTiles],
        // MatMuls: the k-axis reduction lives inside each output unit.
        C::MatMulQk | C::MatMulPv | C::Fc | C::FeedForward => {
            &[S::OutputRows, S::OutputTiles, S::Elements]
        }
        // Pure elementwise: no reduction anywhere.
        C::GlobalScaling | C::Scale | C::Mask | C::Activation | C::Other => {
            &[S::OutputRows, S::OutputTiles, S::Elements, S::RowSegments]
        }
    }
}

/// Flags kernels whose declared parallel split crosses a reduction axis.
pub(crate) fn check(kernels: ScheduleView<'_>, diags: &mut Vec<Diagnostic>) {
    for (i, (_, k)) in kernels.iter().enumerate() {
        let Some(split) = k.meta.split else {
            continue;
        };
        if split == ParallelSplit::ReductionAxis {
            diags.push(Diagnostic::error(
                Rule::ParallelSplitReduction,
                i,
                format!(
                    "`{}` declares its work split along a reduction axis; partial \
                     results would merge in a parallelism-dependent order, breaking \
                     the bit-exactness contract",
                    k.name
                ),
            ));
            continue;
        }
        let legal = legal_splits(k.category);
        if !legal.contains(&split) {
            diags.push(Diagnostic::error(
                Rule::ParallelSplitReduction,
                i,
                format!(
                    "`{}` ({:?}) declares a {split:?} split, but that cuts through \
                     the category's reduction axis; safe splits are {legal:?}",
                    k.name, k.category
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_gpusim::{KernelDesc, KernelMeta};

    fn kernel(category: KernelCategory, split: Option<ParallelSplit>) -> KernelDesc {
        let mut b = KernelDesc::builder("k", category);
        b.meta(KernelMeta {
            split,
            ..KernelMeta::default()
        });
        b.build()
    }

    fn run(kernels: &[KernelDesc]) -> Vec<Diagnostic> {
        let mut diags = Vec::new();
        check(ScheduleView::flat(kernels), &mut diags);
        diags
    }

    #[test]
    fn undeclared_split_is_skipped() {
        assert!(run(&[kernel(KernelCategory::Softmax, None)]).is_empty());
    }

    #[test]
    fn reduction_axis_always_fails() {
        for category in [
            KernelCategory::MatMulQk,
            KernelCategory::Softmax,
            KernelCategory::Other,
        ] {
            let diags = run(&[kernel(category, Some(ParallelSplit::ReductionAxis))]);
            assert_eq!(diags.len(), 1, "{category:?}");
            assert_eq!(diags[0].rule, Rule::ParallelSplitReduction);
        }
    }

    #[test]
    fn softmax_rows_pass_segments_fail() {
        assert!(run(&[kernel(
            KernelCategory::Softmax,
            Some(ParallelSplit::OutputRows)
        )])
        .is_empty());
        // Cutting a monolithic softmax row into segments splits its max/sum.
        let diags = run(&[kernel(
            KernelCategory::Softmax,
            Some(ParallelSplit::RowSegments),
        )]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].kernel, Some(0));
    }

    #[test]
    fn local_softmax_may_split_segments() {
        assert!(run(&[kernel(
            KernelCategory::LocalSoftmax,
            Some(ParallelSplit::RowSegments)
        )])
        .is_empty());
    }

    #[test]
    fn matmul_output_splits_pass() {
        for split in [
            ParallelSplit::OutputRows,
            ParallelSplit::OutputTiles,
            ParallelSplit::Elements,
        ] {
            assert!(
                run(&[kernel(KernelCategory::MatMulPv, Some(split))]).is_empty(),
                "{split:?}"
            );
        }
    }

    #[test]
    fn inter_reduction_rejects_element_split() {
        let diags = run(&[kernel(
            KernelCategory::InterReduction,
            Some(ParallelSplit::Elements),
        )]);
        assert_eq!(diags.len(), 1);
        assert!(diags[0].message.contains("reduction axis"));
    }
}
