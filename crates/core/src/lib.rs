//! Softmax recomposition — the paper's primary contribution, as a library.
//!
//! This crate is the public face of the reproduction of *"Accelerating
//! Transformer Networks through Recomposing Softmax Layers"* (IISWC 2022):
//!
//! * **The recomposition itself** — re-exported from `resoftmax-kernels`:
//!   [`decomposed_softmax`] / [`local_softmax`] / [`inter_reduce`] /
//!   [`global_scale`] implement Eq. 2; [`recomposed_attention`] is the fully
//!   fused pipeline of Fig. 6 (`Q·Kᵀ`+LS epilogue → IR → GS+`P·V` prologue).
//! * **Strategies over whole models** — re-exported from `resoftmax-model`:
//!   [`SoftmaxStrategy`] selects Baseline / SD / SDF when building a kernel
//!   schedule, and a [`Session`] validates a run and executes it on a
//!   simulated GPU.
//! * **Verification** ([`verify`]): measured error of every mathematical
//!   claim (decomposition exactness, fusion exactness, the Eq. 3 backward).
//! * **Experiments** ([`experiments`]): one driver per simulated table —
//!   the paper's figures, §5.1 and §6, the ablations and the extensions —
//!   and the `{bin, config, metric, value}` rows of every `BENCH_*.json`.
//! * **Claims** ([`claims`]): each paper number of Figs. 2/5/7/8/9 and
//!   §5.1, and each finding of §6, the ablations and the extensions,
//!   written once with its band, checked against the rows.
//!
//! # Quickstart
//!
//! ```
//! use resoftmax_core::experiments::figure_rows;
//! use resoftmax_core::{claims, verify::verify_decomposition, DeviceSpec};
//!
//! // The math: decomposed softmax == monolithic softmax (exact in f64).
//! let eq = verify_decomposition(8, 256, 64, 42);
//! assert!(eq.max_abs_f64 < 1e-13);
//!
//! // The performance: every claim of the paper's evaluation holds on the
//! // simulated A100's figures.
//! let rows = figure_rows(&DeviceSpec::a100())?;
//! assert!(claims::check(claims::CLAIMS, &rows).iter().all(|o| o.holds()));
//! # Ok::<(), resoftmax_model::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod claims;
pub mod experiments;
pub mod format;
pub mod reference_model;
pub mod verify;

pub use resoftmax_gpusim::{
    Breakdown, DeviceSpec, Gpu, KernelCategory, KernelDesc, LaunchError, Timeline,
};
pub use resoftmax_kernels::{
    decomposed_softmax, global_scale, inter_reduce, local_softmax, recomposed_attention,
    reference_attention, softmax_backward, softmax_rows,
};
pub use resoftmax_model::{
    build_schedule, LibraryProfile, ModelConfig, RunParams, RunReport, Session, SoftmaxStrategy,
    Workload, WorkloadConfig,
};
