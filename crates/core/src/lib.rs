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
//! * **Experiments** ([`experiments`]): one driver per table/figure of the
//!   paper's evaluation.
//!
//! # Quickstart
//!
//! ```
//! use resoftmax_core::{
//!     experiments::fig8_sd_sdf, verify::verify_decomposition, DeviceSpec,
//! };
//!
//! // The math: decomposed softmax == monolithic softmax (exact in f64).
//! let eq = verify_decomposition(8, 256, 64, 42);
//! assert!(eq.max_abs_f64 < 1e-13);
//!
//! // The performance: SDF beats the baseline on every model at the
//! // paper's L = 4096 evaluation point.
//! let rows = fig8_sd_sdf(&DeviceSpec::a100(), 4096, 1)?;
//! assert!(rows.iter().all(|r| r.sdf_speedup > 1.0));
//! # Ok::<(), resoftmax_model::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

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
