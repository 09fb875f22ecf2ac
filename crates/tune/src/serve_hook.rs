//! Serving integration: a [`resoftmax_serve::IterationPlanner`] that prices
//! every continuous-batching engine iteration with its tuned schedule.
//!
//! Each engine iteration fuses chunked-prefill rows with batched-decode
//! rows; the planner canonicalizes the iteration's row mix to its
//! power-of-two decode bucket, tunes that bucket (answered from the cache
//! after the first occurrence), and transfers the winning knobs onto the
//! base parameters. A serving run touches only a handful of buckets, so the
//! searches amortize to near-zero after warmup — and with a persisted
//! [`Tuner`], across processes.
//!
//! Fleets tune per replica: [`TunedPlanner::for_fleet`] builds one planner
//! per replica device (sharing the tuner and its cache), so a heterogeneous
//! fleet serves each iteration with the schedule tuned for the device it
//! actually runs on.
//!
//! Fallback rules mirror [`crate::SessionTuneExt`]: if tuning fails or the
//! tuned knobs are not decode-legal for the *exact* row mix, the iteration
//! is priced with the base parameters (counted on `tune.fallbacks`). The
//! planner is deterministic in `ctxs` and the tuner's configuration, as the
//! serve engine requires.

use resoftmax_gpusim::DeviceSpec;
use resoftmax_model::{ModelConfig, RunParams};
use resoftmax_serve::IterationPlanner;

use crate::cache::fnv1a;
use crate::oracle::{precheck_decode, TuneWorkload};
use crate::search::SearchMode;
use crate::session_ext::apply_knobs;
use crate::tuner::Tuner;

/// Decode buckets whose (power-of-two-rounded) context reaches this length
/// are "long-tail": the schedule space there is wide enough that the
/// exhaustive sweep's cost stops paying for itself, so the planner searches
/// them with a seeded annealer instead (counted on `tune.annealed_buckets`).
const LONG_TAIL_CTX: usize = 2048;

/// Prices serving iterations with tuned schedules. Construct with
/// [`TunedPlanner::new`] (one device) or [`TunedPlanner::for_fleet`] (one
/// planner per replica) and pass to
/// [`resoftmax_serve::FleetBuilder::planner`].
pub struct TunedPlanner<'a> {
    tuner: &'a Tuner,
    model: ModelConfig,
    device: DeviceSpec,
}

impl<'a> TunedPlanner<'a> {
    /// A planner tuning iterations of `model` on `device` through `tuner`.
    pub fn new(tuner: &'a Tuner, model: &ModelConfig, device: &DeviceSpec) -> Self {
        TunedPlanner {
            tuner,
            model: model.clone(),
            device: device.clone(),
        }
    }

    /// One planner per fleet replica, in replica order, all sharing `tuner`
    /// (and therefore its result cache — replicas of the same device type
    /// reuse each other's searches).
    pub fn for_fleet(tuner: &'a Tuner, model: &ModelConfig, devices: &[DeviceSpec]) -> Vec<Self> {
        devices
            .iter()
            .map(|d| TunedPlanner::new(tuner, model, d))
            .collect()
    }

    /// The device this planner tunes for.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }
}

impl IterationPlanner for TunedPlanner<'_> {
    fn plan(&self, ctxs: &[usize], base: &RunParams) -> RunParams {
        let workload = TuneWorkload::Decode {
            ctxs: ctxs.to_vec(),
        };
        let bucket = workload.bucket();
        let long_tail = match &bucket {
            TuneWorkload::Decode { ctxs } => {
                ctxs.iter().copied().max().unwrap_or(0) >= LONG_TAIL_CTX
            }
            TuneWorkload::Prefill { .. } => false,
        };
        let result = if long_tail {
            resoftmax_obs::counter("tune.annealed_buckets").incr();
            // The seed derives from the bucket label, so every planner
            // (and every rerun) anneals a given bucket identically — the
            // answer stays deterministic and cache-stable.
            let seed = u64::from_str_radix(&fnv1a(bucket.label().as_bytes()), 16)
                .expect("fnv1a emits 16 hex digits");
            self.tuner.tune_with_mode(
                &self.model,
                &self.device,
                &workload,
                &SearchMode::annealed(seed),
            )
        } else {
            self.tuner.tune(&self.model, &self.device, &workload)
        };
        let Ok(tuned) = result else {
            resoftmax_obs::counter("tune.fallbacks").incr();
            return base.clone();
        };
        let candidate = apply_knobs(base, &tuned.params);
        if precheck_decode(&self.model, ctxs, &candidate).is_ok() {
            candidate
        } else {
            resoftmax_obs::counter("tune.fallbacks").incr();
            base.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::SearchMode;
    use crate::space::SearchSpace;
    use resoftmax_serve::{
        BaselinePlanner, FleetBuilder, IterationPlanner, RouterPolicy, ServeConfig, ServeReport,
    };

    fn cfg() -> ServeConfig {
        ServeConfig {
            requests: 4,
            arrival_rate_hz: 64.0,
            prompt_tokens: (64, 128),
            decode_tokens: (4, 8),
            max_batch: 4,
            prefill_chunk: 64,
            ..ServeConfig::default()
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn tuned_serving_completes_no_slower_than_baseline() {
        let model = ModelConfig::gpt_neo_1_3b();
        let device = DeviceSpec::a100();
        let params = RunParams::new(4096);
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let planner = TunedPlanner::new(&tuner, &model, &device);

        let serve = |planner: &dyn IterationPlanner| -> ServeReport {
            FleetBuilder::new()
                .model(model.clone())
                .params(params.clone())
                .replica(device.clone())
                .planner(planner)
                .workload(cfg())
                .build()
                .unwrap()
                .run()
                .unwrap()
                .serve_report()
        };
        let baseline = serve(&BaselinePlanner);
        let tuned = serve(&planner);
        assert_eq!(tuned.completed, cfg().requests);
        assert!(tuned.sim_time_s <= baseline.sim_time_s);
        // The run touches few buckets; repeats must hit the cache.
        assert!(tuner.entries() >= 1);
        let hits = resoftmax_obs::counter("tune.cache_hits").get();
        let rerun = serve(&planner);
        assert_eq!(rerun, tuned);
        assert!(resoftmax_obs::counter("tune.cache_hits").get() > hits);
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn long_tail_buckets_anneal_deterministically() {
        let model = ModelConfig::gpt_neo_1_3b();
        let device = DeviceSpec::a100();
        let params = RunParams::new(4096);
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let planner = TunedPlanner::new(&tuner, &model, &device);

        // 3000 rounds up to a 4096-token bucket: long tail → annealed.
        let long = [3000, 1500];
        let before = resoftmax_obs::counter("tune.annealed_buckets").get();
        let first = planner.plan(&long, &params);
        assert!(
            resoftmax_obs::counter("tune.annealed_buckets").get() > before,
            "long-tail bucket must route through the annealer"
        );
        // The annealer seed derives from the bucket label, so replanning
        // answers identically (from the cache, under the annealed key).
        let second = planner.plan(&long, &params);
        assert_eq!(second, first);

        // Short buckets stay on the tuner's default mode.
        let mid = resoftmax_obs::counter("tune.annealed_buckets").get();
        planner.plan(&[256, 128], &params);
        assert_eq!(resoftmax_obs::counter("tune.annealed_buckets").get(), mid);
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn heterogeneous_fleet_tunes_per_replica_device() {
        let model = ModelConfig::gpt_neo_1_3b();
        let devices = [DeviceSpec::a100(), DeviceSpec::t4()];
        let params = RunParams::new(4096);
        let tuner = Tuner::new(SearchSpace::smoke(), SearchMode::Exhaustive);
        let planners = TunedPlanner::for_fleet(&tuner, &model, &devices);
        assert_eq!(planners.len(), 2);
        assert_eq!(planners[1].device().name, "T4");

        let mut builder = FleetBuilder::new()
            .model(model)
            .params(params)
            .router(RouterPolicy::LeastLoaded)
            .workload(cfg());
        for (d, p) in devices.iter().zip(&planners) {
            builder = builder
                .replica(d.clone())
                .planner(p as &dyn IterationPlanner);
        }
        let report = builder.build().unwrap().run().unwrap();
        assert_eq!(report.completed, cfg().requests);
        assert_eq!(report.replicas[0].device, "A100");
        assert_eq!(report.replicas[1].device, "T4");
        // Both device types were tuned (distinct cache keys per device).
        assert!(tuner.entries() >= 2, "entries: {}", tuner.entries());
    }
}
