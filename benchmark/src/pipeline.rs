//! `paper_pipeline`: the paper's figures, re-derived cold.
//!
//! A unit is one cold rep: with the pricing cache empty and a fresh
//! in-memory `Tuner`, build, statically check and simulate on an A100 every
//! schedule behind Figs. 7–9 (the six models × four strategies × five
//! sequence lengths, the Fig. 7 library line-up at L = 4096 and the batch
//! sweep: 336 schedules), then tune seven prefill/decode buckets on an A100
//! and a T4 in the `paper_default` space. Large prefill and block-sparse
//! schedules put `model`, `analyzer`, `gpusim` and `tune` on the hot path;
//! nothing is served. The seed only shuffles the order of the work, so the
//! simulated results are the same for every seed.

use resoftmax_gpusim::{sim_cache_stats, DeviceSpec, Gpu};
use resoftmax_model::{
    build_schedule, check_schedule, LibraryProfile, ModelConfig, RunParams, SoftmaxStrategy,
};
use resoftmax_tune::{SearchMode, SearchSpace, TuneWorkload, Tuner};

use crate::report::Report;
use crate::rng::Rng;
use crate::stats::{geomean, median};
use crate::trace::Tracer;
use crate::{Counts, Workload};

/// The paper's evaluation sequence length.
const PAPER_SEQ_LEN: usize = 4096;

/// One schedule of the grid.
struct Combo {
    model: ModelConfig,
    params: RunParams,
}

/// What one schedule simulated to.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimResult {
    time_s: f64,
    dram_bytes: f64,
    softmax_time_s: f64,
}

pub struct Pipeline {
    combos: Vec<Combo>,
    /// Order the combos run in (a seeded permutation).
    order: Vec<usize>,
    /// `(baseline, recomposed)` combo indices of each evaluation model at
    /// L = 4096, batch 1, on the paper's own library profile (Fig. 8).
    fig8: Vec<(usize, usize)>,
    buckets: Vec<(ModelConfig, DeviceSpec, TuneWorkload)>,
    space: SearchSpace,
    /// Results of the first rep; every later rep must reproduce them.
    sims: Option<Vec<SimResult>>,
    tuned: Option<Vec<(f64, f64)>>,
    counts: Counts,
    /// Pricing-cache hit counts of the last rep: kernel and wave class.
    cache: [(u64, u64); 2],
}

fn grid(smoke: bool) -> (Vec<Combo>, Vec<(usize, usize)>) {
    const STRATEGIES: [SoftmaxStrategy; 4] = [
        SoftmaxStrategy::Baseline,
        SoftmaxStrategy::Decomposed,
        SoftmaxStrategy::Recomposed,
        SoftmaxStrategy::OnlineFused,
    ];
    let mut combos = Vec::new();
    let mut fig8 = Vec::new();
    if smoke {
        let model = ModelConfig::bert_base();
        for s in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            combos.push(Combo {
                model: model.clone(),
                params: RunParams::new(256).strategy(s),
            });
        }
        return (combos, vec![(0, 1)]);
    }
    let eval = ModelConfig::all_eval_models();
    let mut models = eval.clone();
    models.push(ModelConfig::bert_base());
    models.push(ModelConfig::sparse_transformer());
    let mut push = |model: &ModelConfig, params: RunParams| {
        combos.push(Combo {
            model: model.clone(),
            params,
        });
        combos.len() - 1
    };
    for model in &models {
        for seq_len in [512, 1024, 2048, PAPER_SEQ_LEN, 8192] {
            let ix: Vec<usize> = STRATEGIES
                .iter()
                .map(|&s| push(model, RunParams::new(seq_len).strategy(s)))
                .collect();
            if seq_len == PAPER_SEQ_LEN && eval.contains(model) {
                fig8.push((ix[0], ix[2]));
            }
        }
        for profile in LibraryProfile::fig7_lineup() {
            for &s in &STRATEGIES {
                let params = RunParams::new(PAPER_SEQ_LEN)
                    .strategy(s)
                    .profile(profile.clone());
                push(model, params);
            }
        }
        for batch in [1, 2, 4, 8] {
            for &s in &STRATEGIES {
                push(
                    model,
                    RunParams::new(PAPER_SEQ_LEN).strategy(s).batch(batch),
                );
            }
        }
    }
    (combos, fig8)
}

fn buckets(smoke: bool) -> Vec<(ModelConfig, DeviceSpec, TuneWorkload)> {
    let prefill = |seq_len, batch| TuneWorkload::Prefill { seq_len, batch };
    if smoke {
        return vec![(
            ModelConfig::bert_base(),
            DeviceSpec::a100(),
            prefill(256, 1),
        )];
    }
    let work = [
        (ModelConfig::bert_base(), prefill(512, 1)),
        (ModelConfig::bert_large(), prefill(1024, 2)),
        (
            ModelConfig::gpt_neo_1_3b(),
            TuneWorkload::Decode {
                ctxs: vec![512, 768, 1024, 2048],
            },
        ),
        (ModelConfig::bert_large(), prefill(4096, 1)),
        (ModelConfig::bigbird_large(), prefill(4096, 1)),
        (ModelConfig::gpt_neo_1_3b(), prefill(2048, 4)),
        (
            ModelConfig::gpt_neo_1_3b(),
            TuneWorkload::Decode {
                ctxs: vec![4096; 8],
            },
        ),
    ];
    [DeviceSpec::a100(), DeviceSpec::t4()]
        .iter()
        .flat_map(|dev| {
            work.iter()
                .map(move |(m, w)| (m.clone(), dev.clone(), w.clone()))
        })
        .collect()
}

impl Pipeline {
    fn speedups(&self) -> Option<(f64, f64, f64, f64)> {
        let sims = self.sims.as_ref()?;
        let tuned = self.tuned.as_ref()?;
        let pairs = || self.fig8.iter().map(|&(b, s)| (&sims[b], &sims[s]));
        let sdf = geomean(
            &pairs()
                .map(|(b, s)| b.time_s / s.time_s)
                .collect::<Vec<_>>(),
        );
        let traffic = geomean(
            &pairs()
                .map(|(b, s)| s.dram_bytes / b.dram_bytes)
                .collect::<Vec<_>>(),
        );
        let softmax_share = pairs()
            .map(|(b, _)| b.softmax_time_s / b.time_s)
            .sum::<f64>()
            / self.fig8.len() as f64;
        let tuned = geomean(
            &tuned
                .iter()
                .map(|&(cost, default)| default / cost)
                .collect::<Vec<_>>(),
        );
        Some((sdf, tuned, traffic, softmax_share))
    }
}

impl Workload for Pipeline {
    fn setup(seed: u64, smoke: bool) -> Self {
        let (combos, fig8) = grid(smoke);
        let mut rng = Rng::new(seed, 0);
        let mut order: Vec<usize> = (0..combos.len()).collect();
        rng.shuffle(&mut order);
        let mut buckets = buckets(smoke);
        rng.shuffle(&mut buckets);
        Pipeline {
            combos,
            order,
            fig8,
            buckets,
            space: if smoke {
                SearchSpace::smoke()
            } else {
                SearchSpace::paper_default()
            },
            sims: None,
            tuned: None,
            counts: Counts::default(),
            cache: [(0, 0); 2],
        }
    }

    fn unit(&mut self, tr: &mut Tracer) -> Vec<String> {
        // Cold by construction: the runner empties the pricing cache, and
        // the tuner is in memory only, so no tuning database can warm it.
        let tuner = Tuner::new(self.space.clone(), SearchMode::Exhaustive);
        let device = DeviceSpec::a100();
        let mut failures = Vec::new();
        let mut sims = vec![None; self.combos.len()];
        let mut counts = Counts::default();
        for &ix in &self.order {
            let Combo { model, params } = &self.combos[ix];
            let label = || {
                format!(
                    "{}/{}/L{}/b{}/{}",
                    model.name,
                    params.strategy.label(),
                    params.seq_len,
                    params.batch,
                    params.profile.name
                )
            };
            let kernels = tr.span("build_schedule", "model", || build_schedule(model, params));
            let report = tr.span("check_schedule", "analyzer", || {
                check_schedule(model, params, &kernels)
            });
            if report.has_errors() {
                failures.push(format!("{}: {}", label(), report.summary()));
            }
            let mut gpu = Gpu::new(device.clone());
            if let Err(e) = tr.span("run", "gpusim", || gpu.run(&kernels)) {
                failures.push(format!("{}: launch failed: {e}", label()));
                continue;
            }
            let timeline = gpu.into_timeline();
            counts.kernels_built += kernels.len() as f64;
            counts.kernels_checked += kernels.len() as f64;
            counts.gpusim_kernels += timeline.len() as f64;
            let b = timeline.breakdown();
            sims[ix] = Some(SimResult {
                time_s: timeline.total_time_s(),
                dram_bytes: timeline.total_dram_bytes(),
                softmax_time_s: b.softmax_time_s(),
            });
        }
        let mut tuned = Vec::new();
        for (model, device, workload) in &self.buckets {
            match tr.span("tune", "tune", || tuner.tune(model, device, workload)) {
                Ok(t) => {
                    if t.cost_s > t.default_cost_s {
                        failures.push(format!(
                            "{}/{}/{}: tuned {} s slower than default {} s",
                            model.name,
                            device.name,
                            workload.label(),
                            t.cost_s,
                            t.default_cost_s
                        ));
                    }
                    tuned.push((t.cost_s, t.default_cost_s));
                }
                Err(e) => failures.push(format!(
                    "{}/{}/{}: {e}",
                    model.name,
                    device.name,
                    workload.label()
                )),
            }
        }
        counts.tune_buckets = self.buckets.len() as f64;
        let stats = sim_cache_stats();
        counts.gpusim_misses = stats.misses as f64;
        counts.gpusim_class_misses = stats.class_misses as f64;
        self.cache = [
            (stats.hits, stats.hits + stats.misses),
            (stats.class_hits, stats.class_hits + stats.class_misses),
        ];
        self.counts = counts;

        let Some(sims) = sims.into_iter().collect::<Option<Vec<_>>>() else {
            return failures;
        };
        if tuned.len() != self.buckets.len() {
            return failures;
        }
        match (&self.sims, &self.tuned) {
            (Some(first), Some(first_tuned)) => {
                if *first != sims || *first_tuned != tuned {
                    failures.push("a cold rep simulated different results than the first".into());
                }
            }
            _ => {
                self.sims = Some(sims);
                self.tuned = Some(tuned);
            }
        }
        failures
    }

    fn counts(&self) -> Counts {
        self.counts
    }

    fn report(&self, tr: &Tracer, r: &mut Report) {
        let unit_ms = r
            .get("unit_p50_ms")
            .expect("runner reports unit time")
            .value;
        r.host("cold_pipeline_s", unit_ms / 1e3, "s", "lower");
        r.info("pipeline.schedules", self.combos.len() as f64, "count");
        if let Some((sdf, tuned, traffic, softmax_share)) = self.speedups() {
            r.exact("sdf_speedup_geomean", sdf, "x", "higher");
            r.exact("tuned_speedup_geomean", tuned, "x", "higher");
            if tr.is_on() {
                r.info("sim.fig8_traffic_ratio_geomean", traffic, "ratio");
                r.info("sim.fig2_softmax_share_mean", softmax_share, "ratio");
            }
        }
        if !tr.is_on() {
            return;
        }
        for (name, layer) in [
            ("build_schedule", "model"),
            ("check_schedule", "analyzer"),
            ("run", "gpusim"),
            ("tune", "tune"),
        ] {
            let per_unit: Vec<f64> = (0..tr.units()).map(|u| tr.total_s(u, name)).collect();
            if !per_unit.is_empty() {
                r.info(&format!("{layer}.{name}_s"), median(&per_unit), "s");
            }
        }
        r.info(
            "analyzer.kernels_checked",
            self.counts.kernels_checked,
            "count",
        );
        r.info(
            "gpusim.kernels_launched",
            self.counts.gpusim_kernels,
            "count",
        );
        for (name, (hits, lookups)) in ["cache", "class"].iter().zip(self.cache) {
            r.info(&format!("gpusim.{name}_lookups"), lookups as f64, "count");
            if lookups > 0 {
                r.info(
                    &format!("gpusim.{name}_hit_ratio"),
                    hits as f64 / lookups as f64,
                    "ratio",
                );
            }
        }
        r.info("tune.buckets", self.counts.tune_buckets, "count");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_matches_the_figures() {
        let (combos, fig8) = grid(false);
        // 6 models × (4 strategies × 5 lengths + 5 profiles × 4 + 4 batches × 4).
        assert_eq!(combos.len(), 336);
        assert_eq!(fig8.len(), 4);
        for (b, s) in fig8 {
            assert_eq!(combos[b].params.strategy, SoftmaxStrategy::Baseline);
            assert_eq!(combos[s].params.strategy, SoftmaxStrategy::Recomposed);
            assert_eq!(combos[b].params.seq_len, PAPER_SEQ_LEN);
            assert_eq!(combos[b].model, combos[s].model);
        }
        assert_eq!(buckets(false).len(), 14);
    }
}
