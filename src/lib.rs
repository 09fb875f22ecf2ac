//! `resoftmax` — a full reproduction of *"Accelerating Transformer Networks
//! through Recomposing Softmax Layers"* (IISWC 2022) in Rust.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`obs`] — zero-overhead-when-disabled observability: spans, counters,
//!   and the unified chrome-trace export (see README "Observability").
//! * [`fp16`] — bit-exact software binary16.
//! * [`tensor`] — matrices, tiles, reference linear algebra.
//! * [`gpusim`] — the GPU performance/energy simulator standing in for the
//!   paper's A100 / RTX 3090 / T4 (see `DESIGN.md`).
//! * [`sparse`] — block-sparse layouts and attention patterns.
//! * [`kernels`] — the kernel catalog: numerics + cost profiles.
//! * [`model`] — transformer configs, schedules, and the [`model::Session`]
//!   that validates a run and simulates it.
//! * [`serve`] — the continuous-batching serving simulator: the
//!   [`serve::FleetBuilder`] cluster, from one replica up (routing, KV
//!   migration over a modeled interconnect, fault scenarios).
//! * [`core`] — the paper-facing API: recomposition, verification,
//!   experiment drivers for every table and figure.
//!
//! Start with [`prelude`] and `examples/quickstart.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use resoftmax_core as core;
pub use resoftmax_fp16 as fp16;
pub use resoftmax_gpusim as gpusim;
pub use resoftmax_kernels as kernels;
pub use resoftmax_model as model;
pub use resoftmax_obs as obs;
pub use resoftmax_serve as serve;
pub use resoftmax_sparse as sparse;
pub use resoftmax_tensor as tensor;

/// The README's Rust blocks, compiled as doctests so they cannot drift from
/// the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

/// The items almost every user of the library needs.
pub mod prelude {
    pub use resoftmax_core::experiments;
    pub use resoftmax_core::reference_model::{AttentionImpl, ReferenceEncoder};
    pub use resoftmax_core::verify;
    pub use resoftmax_fp16::F16;
    pub use resoftmax_gpusim::{DeviceSpec, Gpu, KernelCategory, Timeline};
    pub use resoftmax_kernels::{
        apply_mask, causal_mask, decomposed_softmax, global_scale, inter_reduce, local_softmax,
        recomposed_attention, reference_attention, softmax_backward, softmax_rows,
    };
    pub use resoftmax_model::{
        build_schedule, run_seq2seq, Error, LibraryProfile, ModelConfig, RunParams, RunReport,
        Seq2SeqConfig, Session, SoftmaxStrategy, Workload, WorkloadConfig,
    };
    pub use resoftmax_obs::{
        counter, float_counter, metrics_snapshot, recorder, span, ChromeTraceSink, JsonMetricsSink,
        SummarySink,
    };
    // `Error` already names the model error above; the serve error keeps its
    // crate prefix as `ServeError`.
    pub use resoftmax_serve::{
        Error as ServeError, Fleet, FleetBuilder, FleetEvent, FleetReport, LinkSpec, ReplicaStats,
        RouterPolicy, ServeConfig,
    };
    pub use resoftmax_sparse::{
        block_sparse_softmax, pattern, sddmm, spmm, BigBirdConfig, BlockLayout, BlockSparseMatrix,
        LongformerConfig, PatternStats,
    };
    pub use resoftmax_tensor::{
        matmul, max_abs_diff, randn_matrix, transpose, Matrix, Scalar, TileDims,
    };
}
