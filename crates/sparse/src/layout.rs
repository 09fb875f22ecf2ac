//! Block-sparse layout: which square blocks of the attention matrix exist.
//!
//! Following DeepSpeed / Triton block-sparse kernels (paper §3.4), sparsity is
//! defined at the granularity of `block × block` squares, so every retained
//! block is dense inside and tensor-core friendly.

use core::fmt;
use core::ops::Range;

/// Error for inconsistent layout construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayoutError(String);

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid block-sparse layout: {}", self.0)
    }
}

impl std::error::Error for LayoutError {}

/// A block-sparsity pattern over an `L × L` attention matrix.
///
/// The grid is `n_blocks × n_blocks` where `n_blocks = L / block`; a `true`
/// mask entry means the block is retained (computed / stored), `false` means
/// skipped entirely.
///
/// The layout also keeps the number of retained blocks in each block-row,
/// current through every constructor and [`set`](BlockLayout::set), so the
/// count queries ([`row_counts`](BlockLayout::row_counts),
/// [`nnz_blocks`](BlockLayout::nnz_blocks), [`row_ptr`](BlockLayout::row_ptr),
/// ...) never rescan the mask. The counts follow from the mask, so two
/// layouts with equal masks compare equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockLayout {
    block: usize,
    n_blocks: usize,
    mask: Vec<bool>,
    /// Retained blocks in each block-row (`n_blocks` long).
    row_counts: Vec<usize>,
}

impl BlockLayout {
    /// Builds a layout from a block-grid mask (row-major, `n_blocks²` long).
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError`] if `block == 0` or the mask length is not a
    /// perfect square of the implied grid.
    pub fn from_mask(block: usize, n_blocks: usize, mask: Vec<bool>) -> Result<Self, LayoutError> {
        if block == 0 {
            return Err(LayoutError("block size must be nonzero".into()));
        }
        if mask.len() != n_blocks * n_blocks {
            return Err(LayoutError(format!(
                "mask length {} != {}²",
                mask.len(),
                n_blocks
            )));
        }
        let row_counts = (0..n_blocks)
            .map(|br| {
                mask[br * n_blocks..(br + 1) * n_blocks]
                    .iter()
                    .filter(|&&set| set)
                    .count()
            })
            .collect();
        Ok(BlockLayout {
            block,
            n_blocks,
            mask,
            row_counts,
        })
    }

    /// Fully dense layout for an `L × L` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is not a multiple of `block`.
    pub fn dense(seq_len: usize, block: usize) -> Self {
        let n = checked_blocks(seq_len, block);
        BlockLayout {
            block,
            n_blocks: n,
            mask: vec![true; n * n],
            row_counts: vec![n; n],
        }
    }

    /// Layout with no blocks (useful as a builder starting point).
    ///
    /// # Panics
    ///
    /// Panics if `seq_len` is not a multiple of `block`.
    pub fn empty(seq_len: usize, block: usize) -> Self {
        let n = checked_blocks(seq_len, block);
        BlockLayout {
            block,
            n_blocks: n,
            mask: vec![false; n * n],
            row_counts: vec![0; n],
        }
    }

    /// Block side length in elements.
    #[inline]
    pub fn block(&self) -> usize {
        self.block
    }

    /// Grid side length in blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.n_blocks
    }

    /// Sequence length `L = n_blocks × block`.
    #[inline]
    pub fn seq_len(&self) -> usize {
        self.n_blocks * self.block
    }

    /// Whether block `(br, bc)` is retained.
    ///
    /// # Panics
    ///
    /// Panics if out of the block grid.
    #[inline]
    pub fn is_set(&self, br: usize, bc: usize) -> bool {
        assert!(
            br < self.n_blocks && bc < self.n_blocks,
            "block index out of range"
        );
        self.mask[br * self.n_blocks + bc]
    }

    /// Sets block `(br, bc)`, keeping its block-row's count current.
    ///
    /// # Panics
    ///
    /// Panics if out of the block grid.
    #[inline]
    pub fn set(&mut self, br: usize, bc: usize, value: bool) {
        assert!(
            br < self.n_blocks && bc < self.n_blocks,
            "block index out of range"
        );
        let cell = &mut self.mask[br * self.n_blocks + bc];
        if *cell != value {
            *cell = value;
            if value {
                self.row_counts[br] += 1;
            } else {
                self.row_counts[br] -= 1;
            }
        }
    }

    /// Retains blocks `cols` of block-row `br`, counting the ones not yet
    /// retained.
    ///
    /// # Panics
    ///
    /// Panics if out of the block grid.
    pub(crate) fn retain_run(&mut self, br: usize, cols: Range<usize>) {
        let n = self.n_blocks;
        for cell in &mut self.mask[br * n..(br + 1) * n][cols] {
            self.row_counts[br] += usize::from(!*cell);
            *cell = true;
        }
    }

    /// Number of retained blocks.
    pub fn nnz_blocks(&self) -> usize {
        self.row_counts.iter().sum()
    }

    /// Retained blocks in block-row `br`, as column indices.
    pub fn row_blocks(&self, br: usize) -> Vec<usize> {
        (0..self.n_blocks)
            .filter(|&bc| self.is_set(br, bc))
            .collect()
    }

    /// Number of retained blocks per block-row.
    pub fn row_counts(&self) -> Vec<usize> {
        self.row_counts.clone()
    }

    /// Fraction of blocks retained, in `[0, 1]`.
    pub fn density(&self) -> f64 {
        if self.mask.is_empty() {
            return 0.0;
        }
        self.nnz_blocks() as f64 / self.mask.len() as f64
    }

    /// Number of retained *elements* (`nnz_blocks × block²`).
    pub fn nnz_elements(&self) -> usize {
        self.nnz_blocks() * self.block * self.block
    }

    /// Iterator over retained `(block_row, block_col)` coordinates in
    /// row-major order (the BSR storage order used by the numeric ops).
    pub fn iter_blocks(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let n = self.n_blocks;
        self.mask
            .iter()
            .enumerate()
            .filter(|(_, &set)| set)
            .map(move |(i, _)| (i / n, i % n))
    }

    /// CSR-style row pointers over retained blocks: `row_ptr[br]..row_ptr[br+1]`
    /// indexes into the row-major retained-block sequence.
    pub fn row_ptr(&self) -> Vec<usize> {
        let mut ptr = Vec::with_capacity(self.n_blocks + 1);
        ptr.push(0);
        let mut acc = 0;
        for &count in &self.row_counts {
            acc += count;
            ptr.push(acc);
        }
        ptr
    }

    /// Dense `L × L` boolean element mask (true = attend).
    pub fn element_mask(&self) -> Vec<bool> {
        let l = self.seq_len();
        let mut m = vec![false; l * l];
        for (br, bc) in self.iter_blocks() {
            for r in br * self.block..(br + 1) * self.block {
                for c in bc * self.block..(bc + 1) * self.block {
                    m[r * l + c] = true;
                }
            }
        }
        m
    }

    /// Union of two layouts (same geometry).
    ///
    /// # Panics
    ///
    /// Panics if geometries differ.
    pub fn union(&self, other: &BlockLayout) -> BlockLayout {
        assert_eq!(self.block, other.block, "block size mismatch");
        assert_eq!(self.n_blocks, other.n_blocks, "grid mismatch");
        let mut out = self.clone();
        for (br, bc) in other.iter_blocks() {
            out.set(br, bc, true);
        }
        out
    }

    /// Keeps only blocks on or below the diagonal (autoregressive masking, in
    /// block granularity: a block is kept if any of it is on/below the element
    /// diagonal, i.e. `bc <= br`).
    pub fn causal(&self) -> BlockLayout {
        let mut out = self.clone();
        for br in 0..self.n_blocks {
            for bc in 0..self.n_blocks {
                if bc > br {
                    out.set(br, bc, false);
                }
            }
        }
        out
    }
}

fn checked_blocks(seq_len: usize, block: usize) -> usize {
    assert!(block > 0, "block size must be nonzero");
    assert!(
        seq_len.is_multiple_of(block),
        "seq_len {seq_len} must be a multiple of block {block}"
    );
    seq_len / block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_and_empty() {
        let d = BlockLayout::dense(256, 64);
        assert_eq!(d.n_blocks(), 4);
        assert_eq!(d.seq_len(), 256);
        assert_eq!(d.nnz_blocks(), 16);
        assert_eq!(d.density(), 1.0);
        assert_eq!(d.nnz_elements(), 256 * 256);

        let e = BlockLayout::empty(256, 64);
        assert_eq!(e.nnz_blocks(), 0);
        assert_eq!(e.density(), 0.0);
    }

    #[test]
    #[should_panic(expected = "multiple of block")]
    fn non_divisible_rejected() {
        let _ = BlockLayout::dense(100, 64);
    }

    #[test]
    fn from_mask_validation() {
        assert!(BlockLayout::from_mask(0, 2, vec![true; 4]).is_err());
        assert!(BlockLayout::from_mask(64, 2, vec![true; 3]).is_err());
        let ok = BlockLayout::from_mask(64, 2, vec![true, false, false, true]).unwrap();
        assert_eq!(ok.nnz_blocks(), 2);
        assert!(ok.is_set(0, 0));
        assert!(!ok.is_set(0, 1));
    }

    #[test]
    fn set_get_row_blocks() {
        let mut l = BlockLayout::empty(256, 64);
        l.set(1, 2, true);
        l.set(1, 0, true);
        assert_eq!(l.row_blocks(1), vec![0, 2]);
        assert_eq!(l.row_blocks(0), Vec::<usize>::new());
        assert_eq!(l.row_counts(), vec![0, 2, 0, 0]);
    }

    #[test]
    fn row_ptr_csr() {
        let mut l = BlockLayout::empty(192, 64);
        l.set(0, 0, true);
        l.set(2, 0, true);
        l.set(2, 2, true);
        assert_eq!(l.row_ptr(), vec![0, 1, 1, 3]);
        let blocks: Vec<_> = l.iter_blocks().collect();
        assert_eq!(blocks, vec![(0, 0), (2, 0), (2, 2)]);
    }

    #[test]
    fn element_mask_expands_blocks() {
        let mut l = BlockLayout::empty(4, 2);
        l.set(0, 1, true);
        let m = l.element_mask();
        assert!(!m[0]); // (0,0)
        assert!(m[2]); // (0,2) inside block (0,1)
        assert!(m[4 + 3]); // (1,3)
        assert!(!m[2 * 4 + 2]); // (2,2)
        assert_eq!(m.iter().filter(|&&x| x).count(), 4);
    }

    #[test]
    fn union_and_causal() {
        let mut a = BlockLayout::empty(256, 64);
        a.set(0, 3, true);
        let mut b = BlockLayout::empty(256, 64);
        b.set(3, 0, true);
        let u = a.union(&b);
        assert_eq!(u.nnz_blocks(), 2);
        let c = u.causal();
        assert_eq!(c.nnz_blocks(), 1, "block above diagonal removed");
        assert!(c.is_set(3, 0));
    }

    #[test]
    #[should_panic(expected = "block index out of range")]
    fn out_of_range_panics() {
        let l = BlockLayout::dense(128, 64);
        let _ = l.is_set(2, 0);
    }
}
