//! Cost-model-driven schedule autotuner with a persisted tuning cache.
//!
//! The paper fixes one schedule shape per experiment; this crate closes the
//! loop by *searching* the schedule knob space — MatMul tile `(m, n)` (the
//! width doubling as the LS sub-vector length `T`), softmax strategy
//! (baseline / SD / SDF / online-fused), and the standalone-LS
//! [`ParallelSplit`](resoftmax_gpusim::ParallelSplit) — using the
//! [`resoftmax_gpusim`] cost model as the oracle and the
//! `resoftmax-analyzer` legality rules as the gate, so illegal candidates
//! are pruned before a schedule is ever simulated (or even built).
//!
//! The pieces:
//!
//! * [`SearchSpace`] — the knob bounds ([`SearchSpace::paper_default`] /
//!   [`SearchSpace::smoke`]).
//! * [`search`] — prices every candidate within bounds. It is
//!   deterministic: evaluation fans out through `resoftmax-parallel`'s
//!   order-preserving map and reduces by enumeration index, so results are
//!   bit-identical at any worker-thread count. [`SearchMode`] has the one
//!   variant, [`Exhaustive`](SearchMode::Exhaustive); its fingerprint is
//!   part of every cache key.
//! * [`Tuner`] — orchestrates searches and caches answers in a versioned
//!   JSON [`TuneDb`], keyed by model × device × profile × workload bucket ×
//!   space/mode fingerprints. [`Tuner::stats`] reports this tuner's own
//!   cache hits and misses, candidates priced and session fallbacks
//!   ([`TuneStats`]).
//! * [`SessionTuneExt`] — `.tuned(&tuner)` on a session.
//!
//! ```
//! use resoftmax_gpusim::DeviceSpec;
//! use resoftmax_model::{ModelConfig, RunParams, Session};
//! use resoftmax_tune::{SearchMode, SearchSpace, SessionTuneExt, Tuner};
//!
//! let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
//! let params = RunParams::new(512);
//! let session = Session::new(&ModelConfig::bert_base(), &params, &DeviceSpec::a100())?
//!     .tuned(&tuner)?;
//! let report = session.run()?;
//! assert!(report.total_time_s() > 0.0);
//! assert_eq!(tuner.stats().misses, 1);
//! # Ok::<(), resoftmax_tune::TuneError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod oracle;
mod search;
mod session_ext;
mod space;
mod tuner;

pub use cache::{cache_key, fnv1a, CacheEntry, TuneDb, CACHE_VERSION};
pub use oracle::{
    default_params, evaluate, precheck, precheck_decode, Skip, TuneWorkload, LEGAL_LS_SPLITS,
};
pub use search::{search, SearchMode, SearchOutcome};
pub use session_ext::SessionTuneExt;
pub use space::{has_standalone_ls, SearchSpace};
pub use tuner::{TuneError, TuneStats, Tuned, Tuner};
