//! Session integration: an extension trait that retunes an existing
//! [`Session`] through a [`Tuner`].
//!
//! `resoftmax-model` cannot depend on this crate (the tuner sits above the
//! model layer), so the integration is an extension trait: bring
//! [`SessionTuneExt`] into scope and every session grows a `.tuned(..)`.
//!
//! Only the schedule *knobs* transfer from the tuning result — strategy,
//! tile, and LS split; the session keeps its own workload dimensions and
//! library profile. Because the tuner optimizes the workload's power-of-two
//! *bucket*, a tuned knob can be illegal for the exact workload (a tile
//! width that divides the bucket but not the real sequence length). Those
//! cases fall back to the session's original parameters and count in the
//! tuner's [`TuneStats::fallbacks`](crate::TuneStats::fallbacks) — tuning
//! never turns a runnable session into a broken one.

use resoftmax_model::Session;

use crate::oracle::{precheck, TuneWorkload};
use crate::tuner::{TuneError, Tuner};

/// Adds [`tuned`](SessionTuneExt::tuned) to [`Session`].
pub trait SessionTuneExt {
    /// Returns a new session with this session's model, device, and
    /// workload, reconfigured with tuned schedule knobs. Falls back to the
    /// original parameters (counted in `tuner`'s
    /// [`TuneStats::fallbacks`](crate::TuneStats::fallbacks)) when the
    /// tuned knobs do not transfer to the exact workload.
    ///
    /// # Errors
    ///
    /// [`TuneError::DefaultUnrunnable`] when even the default configuration
    /// fails tuning's legality gates; [`TuneError::Model`] if the rebuilt
    /// session fails validation (not expected after a clean precheck).
    fn tuned(&self, tuner: &Tuner) -> Result<Session, TuneError>;
}

impl SessionTuneExt for Session {
    fn tuned(&self, tuner: &Tuner) -> Result<Session, TuneError> {
        let workload = TuneWorkload::Prefill {
            seq_len: self.params().seq_len,
            batch: self.params().batch,
        };
        let result = tuner.tune(self.model(), self.device(), &workload)?;
        // Only the knobs transfer; the workload dimensions and profile stay.
        let candidate = self
            .params()
            .clone()
            .strategy(result.params.strategy)
            .tile(result.params.tile)
            .ls_split(result.params.ls_split);
        let params = if precheck(self.model(), &candidate).is_ok() {
            candidate
        } else {
            tuner.note_fallback();
            self.params().clone()
        };
        Ok(Session::new(self.model(), &params, self.device())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchMode;
    use crate::space::SearchSpace;
    use crate::tuner::TuneStats;
    use resoftmax_gpusim::DeviceSpec;
    use resoftmax_model::{ModelConfig, RunParams};

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn tuned_session_is_no_slower() {
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let session = Session::new(
            &ModelConfig::bert_base(),
            &RunParams::new(512),
            &DeviceSpec::a100(),
        )
        .unwrap();
        let baseline = session.run().unwrap().total_time_s();
        let tuned = session.tuned(&tuner).unwrap();
        assert!(tuned.run().unwrap().total_time_s() <= baseline);
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn illegal_transfer_falls_back() {
        // seq_len 96 buckets to 128. With the space pinned to 64-wide tiles,
        // every tuning winner divides the bucket (64 | 128) but not the real
        // sequence (64 ∤ 96) — the knob transfer must fall back to the
        // session's own parameters instead of producing a broken session.
        let space = SearchSpace {
            tile_ns: vec![64],
            ..SearchSpace::smoke()
        };
        let tuner = Tuner::new(space, SearchMode::Exhaustive);
        let params = RunParams::new(96).tile(resoftmax_kernels::costs::TileConfig::new(64, 32));
        let session =
            Session::new(&ModelConfig::bert_base(), &params, &DeviceSpec::a100()).unwrap();
        let tuned = session.tuned(&tuner).unwrap();
        assert_eq!(tuned.params(), session.params());
        tuned.run().unwrap();
        assert_eq!(
            tuner.stats(),
            TuneStats {
                hits: 0,
                misses: 1,
                evaluated: 4,
                fallbacks: 1,
            }
        );
    }
}
