//! The one softmax reduction: a row's running maximum `m` and normalizer
//! `d = Σ e^{x−m}`, the `(m, d)` pair of Eq. 2.
//!
//! Pairs merge associatively,
//! `(m₁,d₁) ⊕ (m₂,d₂) = (m, d₁·e^{m₁−m} + d₂·e^{m₂−m})` with
//! `m = max(m₁, m₂)`, so every softmax kernel is one way of grouping the
//! same reduction: the monolithic softmax observes a whole row, LS observes
//! one tile into a fresh pair (a leaf), IR merges a row's leaves, and online
//! softmax folds tiles into one pair left to right. One masked rule holds
//! for all of them: an all-`−∞` tile leaves the pair at the empty `(−∞, 0)`
//! and its values are zeros.
//!
//! Each kernel keeps its own accumulator width `A`, rounding points and
//! order, so its output keeps its bits. `round` rounds each exponential and
//! `add` each partial sum of `d`; outputs round once to the working
//! precision `T`:
//!
//! | kernel | `A` | `round` | `add` |
//! |---|---|---|---|
//! | `softmax_rows`, `local_softmax`, `bs_local_softmax` | `f64` | to `T` | exact |
//! | `local_softmax_narrow_accum` (SDF16's LS) | `f64` | to `T` | to `T` |
//! | `inter_reduce` (`merge`, `share`) | `f64` | — | exact |
//! | `fused_qk_ls` (the LS epilogue) | `f32` | exact | exact |
//! | `online_attention`, `bs_online_attention` | `f32` | exact | exact |
//!
//! `x'`, `m'`, `d'`, `r'` and the softmax output each round once to `T`
//! from `A`; the online kernels round `acc/d` once.

use resoftmax_tensor::Scalar;
use std::ops::{Add, Div, Mul, Sub};

/// An accumulator width: `f32` (the fused kernels' registers) or `f64`
/// (the wide reductions).
pub(crate) trait Accum:
    Copy
    + PartialEq
    + Into<f64>
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
{
    /// `+0`.
    const ZERO: Self;
    /// `−∞`, the maximum of nothing.
    const NEG_INFINITY: Self;
    /// IEEE `maxNum`, as `f32::max` / `f64::max`.
    fn max(self, other: Self) -> Self;
    /// `e^self`.
    fn exp(self) -> Self;
}

macro_rules! accum {
    ($($t:ty),*) => {$(
        impl Accum for $t {
            const ZERO: Self = 0.0;
            const NEG_INFINITY: Self = <$t>::NEG_INFINITY;
            fn max(self, other: Self) -> Self {
                <$t>::max(self, other)
            }
            fn exp(self) -> Self {
                <$t>::exp(self)
            }
        }
    )*};
}
accum!(f32, f64);

/// Rounds to the working precision `T`: the `round` of the wide kernels,
/// and, after the add, the narrow accumulator's `add`.
pub(crate) fn to<T: Scalar>(x: f64) -> f64 {
    T::from_f64(x).to_f64()
}

/// A row's `(m, d)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Normalizer<A> {
    /// The running maximum.
    pub m: A,
    /// The normalizer, `Σ e^{x−m}` over what the pair has seen.
    pub d: A,
}

impl<A: Accum> Normalizer<A> {
    /// The pair of nothing, `(−∞, 0)`: the identity of `merge` and `observe`.
    pub const EMPTY: Self = Normalizer {
        m: A::NEG_INFINITY,
        d: A::ZERO,
    };

    /// Folds one tile into the pair: raises `m` to cover the tile,
    /// overwrites the tile with its exponentials `round(e^{x−m})` against
    /// the raised `m`, adds them up with `add` from zero, and sets
    /// `d ← d·α + Σ` where `α = e^{m_old−m}` (0 for the empty pair).
    ///
    /// Returns `α`, the factor that rescaled the earlier sum, or `None` for
    /// an all-`−∞` tile, which leaves the pair and the tile untouched.
    pub fn observe(
        &mut self,
        tile: &mut [A],
        round: impl Fn(A) -> A,
        add: impl Fn(A, A) -> A,
    ) -> Option<A> {
        let m_tile = tile.iter().fold(A::NEG_INFINITY, |a, &x| a.max(x));
        if m_tile == A::NEG_INFINITY {
            return None;
        }
        let m = self.m.max(m_tile);
        let alpha = if self.m == A::NEG_INFINITY {
            A::ZERO
        } else {
            (self.m - m).exp()
        };
        let mut d = A::ZERO;
        for x in tile {
            *x = round((*x - m).exp());
            d = add(d, *x);
        }
        self.d = self.d * alpha + d;
        self.m = m;
        Some(alpha)
    }

    /// IR: merges a row's leaves `(m'_k, d'_k)`. `m` is their maximum,
    /// taken first; `d` adds up their [`share`](Self::share)s in order.
    pub fn merge(leaves: impl Iterator<Item = (A, A)> + Clone) -> Self {
        let m = leaves.clone().fold(A::NEG_INFINITY, |a, (mk, _)| a.max(mk));
        let mut n = Normalizer { m, d: A::ZERO };
        n.d = leaves
            .filter_map(|(mk, dk)| n.share(mk, dk))
            .fold(A::ZERO, |d, s| d + s);
        n
    }

    /// Leaf `(m_k, d_k)`'s share `e^{m_k−m}·d_k` of the merged `d`, or
    /// `None` for an empty leaf or pair. IR's `r'_k` is `share / d`.
    pub fn share(&self, m_k: A, d_k: A) -> Option<A> {
        (m_k != A::NEG_INFINITY && self.m != A::NEG_INFINITY).then(|| (m_k - self.m).exp() * d_k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_tensor::randn_matrix;

    fn observe(n: &mut Normalizer<f64>, tile: &[f64]) -> Option<f64> {
        n.observe(&mut tile.to_vec(), |e| e, |d, e| d + e)
    }

    #[test]
    fn merge_fold_and_one_observe_agree() {
        let x = randn_matrix::<f64>(16, 96, 4.0, 1);
        let tiles = [1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 96].iter().cycle();
        for (r, &t) in (0..16).zip(tiles) {
            let (mut fold, mut whole) = (Normalizer::EMPTY, Normalizer::EMPTY);
            let leaves: Vec<_> = (x.row(r).chunks(t))
                .map(|tile| {
                    let mut leaf = Normalizer::EMPTY;
                    observe(&mut leaf, tile);
                    observe(&mut fold, tile);
                    (leaf.m, leaf.d)
                })
                .collect();
            let tree = Normalizer::merge(leaves.into_iter());
            observe(&mut whole, x.row(r));
            assert!(tree.m == whole.m && fold.m == whole.m, "T={t}");
            // Each grouping rounds differently; all stay within a few ulps.
            for (how, d) in [("IR", tree.d), ("fold", fold.d)] {
                let ulps = d.to_bits().abs_diff(whole.d.to_bits());
                assert!(ulps <= 8, "T={t}: {how} {d} vs {}", whole.d);
            }
        }
    }

    #[test]
    fn the_empty_pair_is_the_identity() {
        let tile = [0.5, -1.25, 3.0, 2.0];
        let mut n = Normalizer::EMPTY;
        assert_eq!(observe(&mut n, &tile), Some(0.0));
        let d = tile.iter().fold(0.0, |d, &x: &f64| d + (x - 3.0).exp());
        assert_eq!((n.m, n.d.to_bits()), (3.0, d.to_bits()));
        let (leaf, empty) = ((n.m, n.d), (f64::NEG_INFINITY, 0.0));
        for leaves in [vec![leaf], vec![empty, leaf], vec![leaf, empty]] {
            assert_eq!(Normalizer::merge(leaves.into_iter()), n);
        }
        assert_eq!(Normalizer::merge([empty].into_iter()), Normalizer::EMPTY);
    }

    #[test]
    fn a_fully_masked_tile_changes_nothing() {
        let mut tile = [f32::NEG_INFINITY; 5];
        for mut n in [Normalizer { m: 1.5f32, d: 2.0 }, Normalizer::EMPTY] {
            let before = n;
            assert_eq!(n.observe(&mut tile, |e| e, |d, e| d + e), None);
            assert_eq!(n, before);
            assert!(tile.iter().all(|&x| x == f32::NEG_INFINITY));
        }
    }
}
