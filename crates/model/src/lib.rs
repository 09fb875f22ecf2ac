//! Transformer model definitions and the simulated inference engine.
//!
//! Ties the substrates together: model configurations at the paper's
//! published dimensions ([`ModelConfig`]), library schedule profiles
//! ([`LibraryProfile`], Fig. 7), the kernel-schedule builder implementing the
//! Baseline / SD / SDF configurations ([`build_schedule`], Fig. 6), the
//! [`Session`] that validates a run and executes its schedule on the GPU
//! simulator, and the synthetic long-document workload ([`Workload`], the
//! TriviaQA substitute).
//!
//! The prefill and batched-decode builders return a layered
//! [`Schedule`](resoftmax_gpusim::Schedule): the prologue, layer 0 and the
//! layer count, the cost builders run for layer 0 only. [`check_schedule`]
//! and [`check_decode_schedule`] analyze that form from two layers, and
//! [`Gpu::run`](resoftmax_gpusim::Gpu::run) prices it from its first
//! layers, so nothing expands it on the way; [`price_batched_decode`] is
//! that run for a serving step. Debug builds emit every layer through the
//! builders and assert it equals its renamed copy.
//!
//! # Example
//!
//! ```
//! use resoftmax_model::{ModelConfig, RunParams, Session, SoftmaxStrategy};
//! use resoftmax_gpusim::DeviceSpec;
//!
//! let (model, device) = (ModelConfig::bigbird_large(), DeviceSpec::a100());
//! let base = Session::new(&model, &RunParams::new(1024), &device)?.run()?;
//! let sdf_params = RunParams::new(1024).strategy(SoftmaxStrategy::Recomposed);
//! let sdf = Session::new(&model, &sdf_params, &device)?.run()?;
//! assert!(sdf.total_time_s() < base.total_time_s());
//! # Ok::<(), resoftmax_model::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod decode;
mod engine;
mod error;
mod library;
mod schedule;
mod seq2seq;
mod session;
mod training;
mod workload;

pub use config::{AttentionKind, ModelConfig};
pub use decode::{
    build_and_check_decode_schedule, build_batched_decode_schedule, check_decode_schedule,
    decode_analysis_spec, decode_error_bound, price_batched_decode,
};
pub use engine::RunReport;
pub use error::Error;
pub use library::{LibraryProfile, SparseSupport};
pub use resoftmax_gpusim::ParallelSplit;
pub use schedule::{
    analysis_spec, build_and_check_schedule, build_schedule, check_schedule, static_error_bound,
    RunParams, SoftmaxStrategy,
};
pub use seq2seq::{build_seq2seq_schedule, run_seq2seq, Seq2SeqConfig};
pub use session::{validate_decode, validate_prefill, Session};
pub use training::build_training_schedule;
pub use workload::{Document, Workload, WorkloadConfig};

/// The items almost every user of this crate needs, importable in one line:
/// `use resoftmax_model::prelude::*;`.
pub mod prelude {
    pub use crate::config::ModelConfig;
    pub use crate::engine::RunReport;
    pub use crate::error::Error;
    pub use crate::library::LibraryProfile;
    pub use crate::schedule::{RunParams, SoftmaxStrategy};
    pub use crate::session::Session;
    pub use resoftmax_gpusim::DeviceSpec;
}
