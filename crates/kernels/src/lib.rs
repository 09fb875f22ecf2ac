//! The kernel catalog: numerically exact implementations *and* cost profiles
//! of every kernel the paper discusses.
//!
//! Each kernel exists twice, deliberately derived from the same tiling:
//!
//! * a **numeric** implementation operating on [`resoftmax_tensor::Matrix`]
//!   values (generic over precision, including bit-exact binary16), used to
//!   *prove* the mathematical claims — the decomposed softmax (LS/IR/GS,
//!   Eq. 2) equals the monolithic safe softmax (Eq. 1), the fused pipelines
//!   equal the unfused ones, the backward pass needs only `Y` (Eq. 3);
//! * a **cost profile** ([`resoftmax_gpusim::KernelDesc`]) describing the
//!   kernel's grid, per-thread-block resources and work, which the simulator
//!   executes to reproduce the paper's performance results.
//!
//! Module map:
//!
//! * `normalizer` (crate-private) — the one softmax reduction, the `(m, d)`
//!   pair of Eq. 2: observe a tile, merge leaves, one masked rule. Every
//!   numeric kernel below reduces through it; its docs state each kernel's
//!   accumulator width and rounding points.
//! * [`softmax_rows`], [`softmax_backward`], [`apply_mask`] — monolithic
//!   reference (paper Eq. 1 / Eq. 3).
//! * [`decomposed`] — LS / IR / GS (Eq. 2) and the decomposed backward.
//! * [`fused`] — MatMul+LS epilogue and GS+MatMul prologue numerics (§3.3).
//! * [`online`] — online-softmax attention, dense and block-sparse.
//! * [`sparse_numeric`] — block-sparse decomposed softmax (§3.4): each
//!   kernel is its dense twin over a row's retained tiles.
//! * [`layers`] — FC, LayerNorm, GeLU and residual numerics.
//! * [`costs`] — cost profiles for all of the above plus FC / FeedForward /
//!   LayerNorm / elementwise kernels.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costs;
pub mod decomposed;
pub mod fused;
pub mod layers;
mod normalizer;
pub mod online;
mod softmax;
pub mod sparse_numeric;

pub use decomposed::{
    decomposed_softmax, decomposed_softmax_backward, decomposed_softmax_narrow_accum, global_scale,
    inter_reduce, local_softmax, local_softmax_narrow_accum, InterReductionOutput,
    LocalSoftmaxOutput,
};
pub use fused::{fused_gs_pv, fused_qk_ls, recomposed_attention, reference_attention};
pub use layers::{gelu, layernorm as layernorm_numeric, linear, residual};
pub use online::{bs_online_attention, online_attention};
pub use softmax::{apply_mask, causal_mask, softmax_backward, softmax_rows, softmax_rows_f64};
pub use sparse_numeric::{
    bs_decomposed_softmax, bs_decomposed_softmax_backward, bs_global_scale, bs_local_softmax,
    bs_recomposed_attention, BsLocalSoftmaxOutput,
};
