//! Dense matrix types and reference linear-algebra operations.
//!
//! This crate is the numeric substrate for the softmax-recomposition
//! reproduction: a row-major [`Matrix`] generic over a [`Scalar`] element type
//! (including software binary16 via [`resoftmax_fp16::F16`]), tile views that
//! mirror how GPU thread blocks partition work, and reference implementations
//! of the operations appearing in a transformer's scaled-dot-product-attention
//! block (matrix multiply in several dataflows, transposes, row reductions,
//! elementwise maps).
//!
//! Kernels in `resoftmax-kernels` are written against these primitives and are
//! validated against the naive reference implementations here.
//!
//! # Example
//!
//! ```
//! use resoftmax_tensor::{Matrix, matmul};
//!
//! let a = Matrix::<f32>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::<f32>::identity(2);
//! let c = matmul(&a, &b).unwrap();
//! assert_eq!(c, a);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod matrix;
mod ops;
mod random;
mod scalar;
mod tile;

pub use matrix::{Matrix, ShapeError};
pub use ops::{
    add, elementwise_binary, elementwise_unary, frobenius_norm, matmul, matmul_tiled,
    matmul_transpose_b, max_abs_diff, row_max, row_sum, row_update, scale, transpose,
};
pub use random::{randn_matrix, uniform_matrix};
pub use scalar::Scalar;
pub use tile::{TileDims, TileIter, TileView};
