//! The schedule knob space the tuner searches.
//!
//! Three dimensions, matching the paper's §5 sensitivity axes:
//!
//! * **Tile** — the MatMul output tile `(m, n)`; its width `n` is the LS
//!   sub-vector length `T` (§3.3 requires them equal, which the schedule
//!   builder enforces by construction).
//! * **Strategy** — monolithic baseline, decomposed (SD), recomposed (SDF),
//!   fp16-accumulation recomposed (SDF16, admissible only where the
//!   oracle's numeric-certification gate holds), or the fully fused
//!   online-softmax extension.
//! * **LS split** — the declared [`ParallelSplit`] of standalone Local
//!   Softmax kernels. Deliberately includes points the static analyzer
//!   rejects (`ReductionAxis`), so the legality gate is exercised on every
//!   search rather than trusted.

use resoftmax_gpusim::ParallelSplit;
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{LibraryProfile, RunParams, SoftmaxStrategy};
use serde::{Deserialize, Serialize};

/// Bounds of one tuning search: the cross product of the listed values.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchSpace {
    /// Candidate tile heights `m`.
    pub tile_ms: Vec<usize>,
    /// Candidate tile widths `n` (the paper's `T`).
    pub tile_ns: Vec<usize>,
    /// Candidate softmax strategies.
    pub strategies: Vec<SoftmaxStrategy>,
    /// Candidate LS parallel-split overrides (`None` keeps the generators'
    /// defaults).
    pub ls_splits: Vec<Option<ParallelSplit>>,
}

impl SearchSpace {
    /// The full search space: tile heights {32, 64, 128} × widths
    /// {16, 32, 64, 128, 256} (the §5.2 ablation range around the paper's
    /// `T ≥ 64` observation) × all five strategies × every declarable LS
    /// split — including points a gate must prune: the always-illegal
    /// `ReductionAxis` split (analyzer gate) and SDF16 at wide tiles
    /// (numeric-certification gate).
    pub fn paper_default() -> Self {
        SearchSpace {
            tile_ms: vec![32, 64, 128],
            tile_ns: vec![16, 32, 64, 128, 256],
            strategies: vec![
                SoftmaxStrategy::Baseline,
                SoftmaxStrategy::Decomposed,
                SoftmaxStrategy::Recomposed,
                SoftmaxStrategy::RecomposedFp16,
                SoftmaxStrategy::OnlineFused,
            ],
            ls_splits: vec![
                None,
                Some(ParallelSplit::OutputRows),
                Some(ParallelSplit::RowSegments),
                Some(ParallelSplit::ReductionAxis),
            ],
        }
    }

    /// A reduced grid for smoke tests and CI: one tile height, three
    /// widths, all strategies, and one illegal split point to keep the
    /// pruning path hot.
    pub fn smoke() -> Self {
        SearchSpace {
            tile_ms: vec![64],
            tile_ns: vec![32, 64, 128],
            strategies: vec![
                SoftmaxStrategy::Baseline,
                SoftmaxStrategy::Decomposed,
                SoftmaxStrategy::Recomposed,
                SoftmaxStrategy::RecomposedFp16,
                SoftmaxStrategy::OnlineFused,
            ],
            ls_splits: vec![None, Some(ParallelSplit::ReductionAxis)],
        }
    }

    /// Stable fingerprint of the bounds, part of the cache key: a cache
    /// entry tuned over different bounds must not be reused.
    pub fn fingerprint(&self) -> String {
        crate::cache::fnv1a(
            serde_json::to_string(self)
                .expect("search space serializes")
                .as_bytes(),
        )
    }

    /// Enumerates the candidate configurations for `base` in deterministic
    /// order. The first entry is always `base` itself (the default
    /// schedule), so a search over this list can never return something
    /// slower than the default. Knob combinations that differ only in
    /// unreachable dimensions are canonicalized and deduplicated — an LS
    /// split override only reaches a schedule that has a standalone LS
    /// kernel.
    pub fn candidates(&self, base: &RunParams) -> Vec<RunParams> {
        let mut out = vec![base.clone()];
        for &strategy in &self.strategies {
            for &m in &self.tile_ms {
                for &n in &self.tile_ns {
                    for &split in &self.ls_splits {
                        let split = if has_standalone_ls(strategy, &base.profile) {
                            split
                        } else {
                            None
                        };
                        let cand = base
                            .clone()
                            .strategy(strategy)
                            .tile(TileConfig::new(m, n))
                            .ls_split(split);
                        if !out.contains(&cand) {
                            out.push(cand);
                        }
                    }
                }
            }
        }
        out
    }
}

/// `true` if a schedule built with this strategy/profile pair contains a
/// standalone Local Softmax kernel that an [`RunParams::ls_split`] override
/// can reach: SD always runs LS standalone; SDF only in the degenerate
/// separate-scale/mask profiles where the fused epilogue is unavailable.
pub fn has_standalone_ls(strategy: SoftmaxStrategy, profile: &LibraryProfile) -> bool {
    strategy == SoftmaxStrategy::Decomposed
        || (strategy.is_recomposed() && profile.separate_scale_mask)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn candidates_start_with_base_and_dedupe() {
        let space = SearchSpace::smoke();
        let base = RunParams::new(512);
        let cands = space.candidates(&base);
        assert_eq!(cands[0], base);
        // No duplicates.
        for (i, a) in cands.iter().enumerate() {
            assert!(!cands[i + 1..].contains(a), "duplicate candidate {a:?}");
        }
        // Split variants only appear for strategies with a standalone LS.
        for c in &cands {
            if c.ls_split.is_some() {
                assert!(has_standalone_ls(c.strategy, &c.profile), "{c:?}");
            }
        }
        // Smoke grid: base + 3 tiles × (Baseline 1 + SD 2 + SDF 1 + SDF16 1
        // + Online 1 split variants) - 1 duplicate of base (Baseline 64×64).
        assert_eq!(cands.len(), 18);
    }

    #[test]
    fn default_space_contains_paper_point() {
        let space = SearchSpace::paper_default();
        let cands = space.candidates(&RunParams::new(4096));
        assert!(cands
            .iter()
            .any(|c| c.strategy == SoftmaxStrategy::Recomposed
                && c.tile.m == 64
                && c.tile.n == 64));
        assert!(cands.len() > 50);
    }

    #[test]
    fn fingerprint_distinguishes_spaces() {
        assert_ne!(
            SearchSpace::paper_default().fingerprint(),
            SearchSpace::smoke().fingerprint()
        );
        assert_eq!(
            SearchSpace::smoke().fingerprint(),
            SearchSpace::smoke().fingerprint()
        );
    }
}
