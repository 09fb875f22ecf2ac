//! The [`Tuner`]: search orchestration plus the persisted result cache.
//!
//! A `Tuner` owns a [`SearchSpace`], a [`SearchMode`], and a [`TuneDb`].
//! [`Tuner::tune`] canonicalizes the workload to its cache bucket, answers
//! from the database when the exact question was tuned before, and
//! otherwise runs the search and records the result. The tuner counts its
//! own traffic — hits, misses, candidates priced, session fallbacks — and
//! [`Tuner::stats`] reads the counts back, so two tuners in one process
//! never mix. [`Tuner::save`] persists the database so the next process
//! starts warm.

use std::io;
use std::path::PathBuf;
use std::sync::Mutex;

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams};

use crate::cache::{cache_key, CacheEntry, TuneDb};
use crate::oracle::{default_params, TuneWorkload};
use crate::search::{search, SearchMode};
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
/// workload, which is what [`crate::SessionTuneExt`] does.
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

/// What one [`Tuner`] has done since it was constructed: a snapshot taken
/// by [`Tuner::stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TuneStats {
    /// Questions answered from the database.
    pub hits: usize,
    /// Questions that ran a search.
    pub misses: usize,
    /// Candidates the searches priced (gate-pruned ones excluded).
    pub evaluated: usize,
    /// [`crate::SessionTuneExt::tuned`] calls whose tuned knobs did not
    /// transfer to the exact workload, so the session kept its own.
    pub fallbacks: usize,
}

/// The database and the counts, behind one lock.
#[derive(Debug, Default)]
struct State {
    db: TuneDb,
    stats: TuneStats,
}

/// Cost-model-driven schedule autotuner with a persisted result cache.
///
/// Shared-reference tuning (`&self`) is thread-safe: the database and the
/// counts sit behind a mutex, and the searches themselves parallelize
/// internally through `resoftmax-parallel`.
#[derive(Debug)]
pub struct Tuner {
    space: SearchSpace,
    mode: SearchMode,
    state: Mutex<State>,
    path: Option<PathBuf>,
    loaded: usize,
}

impl Tuner {
    /// An in-memory tuner (no persistence).
    pub fn new(space: SearchSpace, mode: SearchMode) -> Self {
        Tuner {
            space,
            mode,
            state: Mutex::default(),
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
        Ok(Tuner {
            loaded: db.entries.len(),
            state: Mutex::new(State {
                db,
                stats: TuneStats::default(),
            }),
            path: Some(path),
            ..Tuner::new(space, mode)
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tuner state poisoned")
    }

    /// The search bounds this tuner explores.
    pub fn space(&self) -> &SearchSpace {
        &self.space
    }

    /// This tuner's counts so far.
    pub fn stats(&self) -> TuneStats {
        self.state().stats
    }

    /// Counts one knob transfer that fell back to the caller's parameters.
    pub(crate) fn note_fallback(&self) {
        self.state().stats.fallbacks += 1;
    }

    /// How many entries the persisted database held at load time (0 for
    /// in-memory tuners) — lets callers distinguish a warm start.
    pub fn loaded_entries(&self) -> usize {
        self.loaded
    }

    /// How many entries the database holds now.
    pub fn entries(&self) -> usize {
        self.state().db.entries.len()
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
        let bucket = workload.bucket();
        let base = default_params(&bucket);
        let key = cache_key(
            model,
            device,
            &base.profile,
            &self.space,
            &self.mode,
            &bucket,
        );

        {
            let mut state = self.state();
            if let Some(entry) = state.db.entries.get(&key) {
                let tuned = Tuned {
                    params: entry.params.clone(),
                    cost_s: entry.cost_s,
                    default_cost_s: entry.default_cost_s,
                    cache_hit: true,
                    workload: bucket,
                };
                state.stats.hits += 1;
                return Ok(tuned);
            }
            state.stats.misses += 1;
        }

        let outcome = search(model, device, &bucket, &self.space, &base)?;
        let mut state = self.state();
        state.stats.evaluated += outcome.evaluated;
        state.db.entries.insert(
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

    /// Persists the database to the path given at construction. A no-op for
    /// in-memory tuners.
    pub fn save(&self) -> Result<(), TuneError> {
        if let Some(path) = &self.path {
            self.state().db.save(path)?;
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
        let evaluated = tuner.stats().evaluated;
        assert!(evaluated > 0);
        let second = tuner.tune(&model, &device, &near).unwrap();
        assert!(second.cache_hit);
        assert_eq!(second.params, first.params);
        assert_eq!(second.cost_s, first.cost_s);
        assert_eq!(tuner.entries(), 1);
        // A hit prices nothing.
        assert_eq!(
            tuner.stats(),
            TuneStats {
                hits: 1,
                misses: 1,
                evaluated,
                fallbacks: 0,
            }
        );
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
