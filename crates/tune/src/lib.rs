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
//! * [`SearchMode`] — [`Exhaustive`](SearchMode::Exhaustive) within bounds,
//!   or seeded [`Annealed`](SearchMode::Annealed) for larger spaces. Both
//!   are deterministic: evaluation fans out through `resoftmax-parallel`'s
//!   order-preserving map and reduces by enumeration index, so results are
//!   bit-identical at any worker-thread count.
//! * [`Tuner`] — orchestrates searches and caches answers in a versioned
//!   JSON [`TuneDb`], keyed by model × device × profile × workload bucket ×
//!   space/mode fingerprints. Cache traffic shows up on the always-on
//!   counters `tune.cache_hits` / `tune.cache_misses`; a miss seeds its
//!   search with winners cached for the same question on *other* devices
//!   (`tune.transfer_candidates` / `tune.transfer_survivors`).
//! * [`SessionTuneExt`] — `.tuned(&tuner)` on a session.
//! * [`TunedPlanner`] — a [`resoftmax_serve::IterationPlanner`] that serves
//!   every continuous-batching iteration with its tuned schedule.
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
//! # Ok::<(), resoftmax_tune::TuneError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod oracle;
mod search;
mod serve_hook;
mod session_ext;
mod space;
mod tuner;

pub use cache::{cache_key, fnv1a, CacheEntry, TuneDb, CACHE_VERSION};
pub use oracle::{
    default_params, evaluate, precheck, precheck_decode, Skip, TuneWorkload, LEGAL_LS_SPLITS,
};
pub use search::{search, SearchMode, SearchOutcome};
pub use serve_hook::TunedPlanner;
pub use session_ext::SessionTuneExt;
pub use space::{has_standalone_ls, SearchSpace};
pub use tuner::{TuneError, Tuned, Tuner};
