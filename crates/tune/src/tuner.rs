//! The [`Tuner`]: search orchestration plus the persisted result cache.
//!
//! A `Tuner` owns a [`SearchSpace`], a [`SearchMode`], and a [`TuneDb`].
//! [`Tuner::tune`] canonicalizes the workload to its cache bucket, answers
//! from the database when the exact question was tuned before (counted on
//! `tune.cache_hits`), and otherwise runs the search and records the result
//! (`tune.cache_misses`). A miss first harvests *cross-device transfer
//! seeds*: cached winners for the same question on other devices, repriced
//! as extra starting points (`tune.transfer_candidates` /
//! `tune.transfer_survivors`) — fleet tuning prices the second device's
//! search from the first device's answer instead of from scratch.
//! [`Tuner::save`] persists the database so the next process starts warm.

use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams};

use crate::cache::{cache_key, CacheEntry, TuneDb};
use crate::oracle::{default_params, precheck, precheck_decode, TuneWorkload};
use crate::search::{search, SearchMode};
use crate::session_ext::apply_knobs;
use crate::space::SearchSpace;

/// Errors surfaced by tuning.
#[derive(Debug)]
pub enum TuneError {
    /// Even the default configuration fails the legality gates for this
    /// workload, so there is no baseline to improve on.
    DefaultUnrunnable {
        /// The workload's [`TuneWorkload::label`].
        workload: String,
        /// The gate's rejection reason.
        reason: String,
    },
    /// The tuning database could not be read or written.
    Io(io::Error),
    /// Session construction or validation failed.
    Model(resoftmax_model::Error),
}

impl core::fmt::Display for TuneError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TuneError::DefaultUnrunnable { workload, reason } => {
                write!(
                    f,
                    "default configuration unrunnable for {workload}: {reason}"
                )
            }
            TuneError::Io(e) => write!(f, "tuning cache I/O failed: {e}"),
            TuneError::Model(e) => write!(f, "session error: {e}"),
        }
    }
}

impl std::error::Error for TuneError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TuneError::Io(e) => Some(e),
            TuneError::Model(e) => Some(e),
            TuneError::DefaultUnrunnable { .. } => None,
        }
    }
}

impl From<io::Error> for TuneError {
    fn from(e: io::Error) -> Self {
        TuneError::Io(e)
    }
}

impl From<resoftmax_model::Error> for TuneError {
    fn from(e: resoftmax_model::Error) -> Self {
        TuneError::Model(e)
    }
}

/// One tuning answer: the winning configuration and the comparison that
/// justified it. `params` carries the bucket's representative dimensions;
/// callers apply the *knobs* (strategy, tile, LS split) to their own
/// workload, which is what [`crate::SessionTuneExt`] and the serve planner do.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuned {
    /// The tuned run parameters.
    pub params: RunParams,
    /// Simulated time of the tuned schedule, seconds.
    pub cost_s: f64,
    /// Simulated time of the default schedule for the same bucket, seconds.
    pub default_cost_s: f64,
    /// Whether the answer came from the persisted cache.
    pub cache_hit: bool,
    /// The cache bucket that was tuned (workload dimensions rounded up to
    /// powers of two).
    pub workload: TuneWorkload,
}

impl Tuned {
    /// Simulated speedup of the tuned schedule over the default (≥ 1.0 by
    /// construction — the default is always a candidate).
    pub fn speedup(&self) -> f64 {
        self.default_cost_s / self.cost_s
    }
}

/// Cost-model-driven schedule autotuner with a persisted result cache.
///
/// Shared-reference tuning (`&self`) is thread-safe: the database sits
/// behind a mutex, and the searches themselves parallelize internally
/// through `resoftmax-parallel`.
#[derive(Debug)]
pub struct Tuner {
    space: SearchSpace,
    mode: SearchMode,
    db: Mutex<TuneDb>,
    path: Option<PathBuf>,
    loaded: usize,
}

impl Tuner {
    /// An in-memory tuner (no persistence).
    pub fn new(space: SearchSpace, mode: SearchMode) -> Self {
        Tuner {
            space,
            mode,
            db: Mutex::new(TuneDb::new()),
            path: None,
            loaded: 0,
        }
    }

    /// A tuner backed by the database file at `path`. A missing file starts
    /// empty; a stale or corrupt one is discarded (see [`TuneDb::load`]).
    /// Call [`Tuner::save`] to persist new results.
    pub fn with_cache(
        space: SearchSpace,
        mode: SearchMode,
        path: impl Into<PathBuf>,
    ) -> Result<Self, TuneError> {
        let path = path.into();
        let db = TuneDb::load(&path)?;
        let loaded = db.entries.len();
        Ok(Tuner {
            space,
            mode,
            db: Mutex::new(db),
            path: Some(path),
            loaded,
        })
    }

    /// The search bounds this tuner explores.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// The search mode this tuner runs.
    pub fn mode(&self) -> &SearchMode {
        &self.mode
    }

    /// How many entries the persisted database held at load time (0 for
    /// in-memory tuners) — lets callers distinguish a warm start.
    pub fn loaded_entries(&self) -> usize {
        self.loaded
    }

    /// How many entries the database holds now.
    pub fn entries(&self) -> usize {
        self.db
            .lock()
            .expect("tuner database poisoned")
            .entries
            .len()
    }

    /// Tunes `workload` on `model` × `device`, answering from the cache
    /// when possible. The workload is canonicalized to its power-of-two
    /// bucket first, so nearby workloads share one search.
    ///
    /// # Errors
    ///
    /// [`TuneError::DefaultUnrunnable`] when the default configuration
    /// itself fails the legality gates for this workload.
    pub fn tune(
        &self,
        model: &ModelConfig,
        device: &DeviceSpec,
        workload: &TuneWorkload,
    ) -> Result<Tuned, TuneError> {
        self.tune_with_mode(model, device, workload, &self.mode)
    }

    /// Like [`Tuner::tune`], but searching with `mode` instead of the
    /// tuner's default. The mode fingerprint is part of the cache key, so
    /// answers found under different modes never alias; a caller can e.g.
    /// anneal one expensive long-tail bucket while everything else stays on
    /// the tuner's exhaustive default.
    ///
    /// # Errors
    ///
    /// [`TuneError::DefaultUnrunnable`] when the default configuration
    /// itself fails the legality gates for this workload.
    pub fn tune_with_mode(
        &self,
        model: &ModelConfig,
        device: &DeviceSpec,
        workload: &TuneWorkload,
        mode: &SearchMode,
    ) -> Result<Tuned, TuneError> {
        let bucket = workload.bucket();
        let base = default_params(&bucket);
        let key = cache_key(model, device, &base.profile, &self.space, mode, &bucket);

        if let Some(entry) = self
            .db
            .lock()
            .expect("tuner database poisoned")
            .entries
            .get(&key)
        {
            resoftmax_obs::counter("tune.cache_hits").incr();
            return Ok(Tuned {
                params: entry.params.clone(),
                cost_s: entry.cost_s,
                default_cost_s: entry.default_cost_s,
                cache_hit: true,
                workload: bucket,
            });
        }
        resoftmax_obs::counter("tune.cache_misses").incr();

        let seeds = self.transfer_seeds(model, &bucket, &base, &key);
        let outcome = search(model, device, &bucket, &self.space, mode, &base, &seeds)?;
        self.db
            .lock()
            .expect("tuner database poisoned")
            .entries
            .insert(
                key,
                CacheEntry {
                    params: outcome.best.clone(),
                    cost_s: outcome.best_cost_s,
                    default_cost_s: outcome.default_cost_s,
                    device: device.name.clone(),
                },
            );
        Ok(Tuned {
            params: outcome.best,
            cost_s: outcome.best_cost_s,
            default_cost_s: outcome.default_cost_s,
            cache_hit: false,
            workload: bucket,
        })
    }

    /// Harvests cross-device transfer seeds for a cache miss: cached
    /// winners for the same question on other devices (same model, profile,
    /// workload bucket, space, and mode — only the `dev=` key segment
    /// differs), with this bucket's knobs applied and the static gates
    /// rerun. Every harvested winner counts on `tune.transfer_candidates`;
    /// those surviving the precheck count on `tune.transfer_survivors` and
    /// seed the search (see [`search`] for how each mode consumes them).
    /// Deduplicated in key order, so the seed list is deterministic.
    fn transfer_seeds(
        &self,
        model: &ModelConfig,
        bucket: &TuneWorkload,
        base: &RunParams,
        key: &str,
    ) -> Vec<RunParams> {
        let mut foreign: Vec<RunParams> = Vec::new();
        for (_, e) in self
            .db
            .lock()
            .expect("tuner database poisoned")
            .foreign_winners(key)
        {
            let candidate = apply_knobs(base, &e.params);
            if !foreign.contains(&candidate) {
                foreign.push(candidate);
            }
        }
        let mut seeds = Vec::new();
        for candidate in foreign {
            resoftmax_obs::counter("tune.transfer_candidates").incr();
            let survives = match bucket {
                TuneWorkload::Prefill { .. } => precheck(model, &candidate).is_ok(),
                TuneWorkload::Decode { ctxs } => precheck_decode(model, ctxs, &candidate).is_ok(),
            };
            if survives {
                resoftmax_obs::counter("tune.transfer_survivors").incr();
                seeds.push(candidate);
            }
        }
        seeds
    }

    /// Persists the database to the path given at construction. A no-op for
    /// in-memory tuners.
    pub fn save(&self) -> Result<(), TuneError> {
        if let Some(path) = &self.path {
            self.db
                .lock()
                .expect("tuner database poisoned")
                .save(path)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn tune_caches_by_bucket() {
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let model = ModelConfig::bert_base();
        let device = DeviceSpec::a100();
        let w = TuneWorkload::Prefill {
            seq_len: 512,
            batch: 1,
        };
        let first = tuner.tune(&model, &device, &w).unwrap();
        assert!(!first.cache_hit);
        assert!(first.speedup() >= 1.0);
        // Same bucket (500 rounds up to 512) → cache hit, same answer.
        let near = TuneWorkload::Prefill {
            seq_len: 500,
            batch: 1,
        };
        let second = tuner.tune(&model, &device, &near).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.params, first.params);
        assert_eq!(second.cost_s, first.cost_s);
        assert_eq!(tuner.entries(), 1);
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn default_unrunnable_surfaces() {
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        // A sparse model has no decode cost model: even the default decode
        // configuration fails the gates.
        let e = tuner
            .tune(
                &ModelConfig::bigbird_large(),
                &DeviceSpec::a100(),
                &TuneWorkload::Decode { ctxs: vec![512] },
            )
            .unwrap_err();
        assert!(matches!(e, TuneError::DefaultUnrunnable { .. }), "{e}");
    }
}
