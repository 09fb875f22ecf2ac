//! The cost oracle: legality pruning (static) + simulated execution time.
//!
//! Candidates pass through four gates, cheapest first:
//!
//! 1. **Static knob legality** — an LS split that crosses the reduction
//!    axis, a tile width that does not divide the sequence length, a
//!    sequence length incompatible with a sparse model's block size. These
//!    are rejected before any schedule is built.
//! 2. **Numeric certification** — the analyzer's error model bounds the
//!    candidate's worst-case softmax error from `(strategy, T, ctx)` alone;
//!    a bound exceeding [`resoftmax_analyzer::CERT_BUDGET_REL`] prunes the
//!    candidate, again before any schedule exists. This is what makes
//!    precision-diverse strategies (`SDF16`) safe to enumerate: the tuner
//!    only ever prices them where the certificate holds.
//! 3. **Static analysis** — the built schedule runs through
//!    `resoftmax-analyzer`; any `Error`-severity diagnostic prunes the
//!    candidate.
//! 4. **Launchability** — the simulator refuses kernels whose thread block
//!    exceeds the device's SM resources.
//!
//! Only candidates clearing all four are priced; the price is the
//! simulated end-to-end time of the workload's schedule, which is what the
//! search minimizes. A candidate is never expanded to its `model.layers`
//! layers: the gates build its prologue and layer 0 (a [`Schedule`]), the
//! analyzer checks that form from its first two layers, and [`Gpu::run`]
//! prices it, simulating layers only until the L2 state repeats. Report
//! and total equal the full schedule's, the total bit for bit.

use crate::TuneError;
use resoftmax_analyzer::{ErrorBound, CERT_BUDGET_REL};
use resoftmax_gpusim::{DeviceSpec, Gpu, ParallelSplit, Schedule, Timeline};
use resoftmax_model::{
    build_and_check_decode_schedule, build_and_check_schedule, decode_error_bound,
    static_error_bound, validate_decode, validate_prefill, ModelConfig, RunParams,
};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;

/// A workload bucket the tuner optimizes for: one full-sequence inference
/// iteration, or one continuous-batching engine iteration (the serving
/// scheduler's fused prefill + batched-decode schedule).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum TuneWorkload {
    /// Full-sequence inference at `seq_len` × `batch`.
    Prefill {
        /// Sequence length `L`.
        seq_len: usize,
        /// Batch size.
        batch: usize,
    },
    /// One batched decode iteration: one token generated per entry of
    /// `ctxs`, each row attending a KV cache of that length.
    Decode {
        /// Per-row context lengths.
        ctxs: Vec<usize>,
    },
}

impl TuneWorkload {
    /// Canonicalizes the workload to its cache bucket: every dimension is
    /// rounded up to the next power of two, so nearby workloads share one
    /// tuning result. Decode buckets collapse the heterogeneous row mix to
    /// `rows` uniform rows at the longest (bucketed) context — the
    /// conservative representative the serving planner tunes against.
    pub fn bucket(&self) -> TuneWorkload {
        match self {
            TuneWorkload::Prefill { seq_len, batch } => TuneWorkload::Prefill {
                seq_len: seq_len.next_power_of_two(),
                batch: batch.next_power_of_two(),
            },
            TuneWorkload::Decode { ctxs } => {
                let rows = ctxs.len().next_power_of_two();
                let max_ctx = ctxs.iter().copied().max().unwrap_or(1).next_power_of_two();
                TuneWorkload::Decode {
                    ctxs: vec![max_ctx; rows],
                }
            }
        }
    }

    /// Stable label for reports and cache keys, e.g. `"prefill/L4096/b1"`
    /// or `"decode/r8/c1024"`.
    pub fn label(&self) -> String {
        match self {
            TuneWorkload::Prefill { seq_len, batch } => format!("prefill/L{seq_len}/b{batch}"),
            TuneWorkload::Decode { ctxs } => {
                let max_ctx = ctxs.iter().copied().max().unwrap_or(0);
                format!("decode/r{}/c{max_ctx}", ctxs.len())
            }
        }
    }
}

/// Why a candidate was pruned before (or instead of) being priced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Skip {
    /// The configuration cannot build a schedule at all (tile divisibility,
    /// sparse block size, unsupported decode combination, …).
    InvalidConfig(String),
    /// The declared LS split crosses the category's reduction axis; the
    /// analyzer would reject the schedule, so it is never built.
    IllegalSplit(ParallelSplit),
    /// The certified worst-case numeric error of the candidate exceeds the
    /// budget; the analyzer would reject the schedule, so it is never built.
    Numerics(String),
    /// The built schedule fails static analysis.
    Analysis(String),
    /// A kernel cannot launch on the target device.
    Launch(String),
}

impl core::fmt::Display for Skip {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Skip::InvalidConfig(r) => write!(f, "invalid configuration: {r}"),
            Skip::IllegalSplit(s) => write!(
                f,
                "LS split {s:?} crosses the reduction axis (legal: {LEGAL_LS_SPLITS:?})"
            ),
            Skip::Numerics(r) => write!(f, "numeric certification failed: {r}"),
            Skip::Analysis(r) => write!(f, "static analysis rejected the schedule: {r}"),
            Skip::Launch(r) => write!(f, "kernel cannot launch: {r}"),
        }
    }
}

/// The LS splits the analyzer's parallel rule accepts for Local Softmax
/// kernels (LS reduces within one sub-vector, so rows, segments and tiles
/// are all disjoint-output splits). Kept in sync with the analyzer by a
/// test that runs each variant through `resoftmax_analyzer::analyze`.
pub const LEGAL_LS_SPLITS: [ParallelSplit; 3] = [
    ParallelSplit::OutputRows,
    ParallelSplit::RowSegments,
    ParallelSplit::OutputTiles,
];

fn check_ls_split(params: &RunParams) -> Result<(), Skip> {
    match params.ls_split {
        Some(s) if !LEGAL_LS_SPLITS.contains(&s) => Err(Skip::IllegalSplit(s)),
        _ => Ok(()),
    }
}

/// The numerics gate: prunes a candidate whose statically certified error
/// bound exceeds the budget. Like `check_ls_split`, this must run before
/// any schedule is built — the builders debug-assert their own analysis,
/// and the numerics rule is part of it.
fn check_numerics(bound: Option<ErrorBound>) -> Result<(), Skip> {
    match bound {
        Some(b) if !b.certifies(CERT_BUDGET_REL) => Err(Skip::Numerics(format!(
            "certified relative error bound {:.3e} exceeds the {CERT_BUDGET_REL:.1e} budget \
             (ctx {}, T {})",
            b.rel, b.ctx, b.t
        ))),
        _ => Ok(()),
    }
}

/// A rejection by the model layer's legality rules, as a [`Skip`].
fn invalid_config(e: resoftmax_model::Error) -> Skip {
    match e {
        resoftmax_model::Error::InvalidConfig { reason } => Skip::InvalidConfig(reason),
        other => Skip::InvalidConfig(other.to_string()),
    }
}

/// Statically validates a full-sequence candidate without simulating it:
/// knob legality, buildability, and a clean analyzer report. It builds the
/// schedule, the embedding kernel and layer 0 ([`build_and_check_schedule`]),
/// and returns it, so a caller that goes on to price the candidate builds
/// nothing more. The tuner's search
/// prunes with it; [`crate::SessionTuneExt::tuned`] rechecks tuned knobs
/// against the exact workload with it, and `resoftmax-bench`'s `tune` and
/// `ablation_tile_size` subcommands check their grid points with it.
pub fn precheck(model: &ModelConfig, params: &RunParams) -> Result<Schedule, Skip> {
    check_ls_split(params)?;
    check_numerics(static_error_bound(model, params))?;
    // The prefill rules `Session::new` applies: nonzero dims, sparse block
    // size, tile divisibility.
    validate_prefill(model, params).map_err(invalid_config)?;
    let (schedule, report) = build_and_check_schedule(model, params);
    if report.has_errors() {
        return Err(Skip::Analysis(report.render()));
    }
    Ok(schedule)
}

/// [`precheck`] for a batched-decode candidate: it builds and returns
/// layer 0 only ([`build_and_check_decode_schedule`]). The numerics gate
/// runs before the decode rules `Session::decode_batch` applies, so an
/// uncertifiable candidate is classed [`Skip::Numerics`].
pub fn precheck_decode(
    model: &ModelConfig,
    ctxs: &[usize],
    params: &RunParams,
) -> Result<Schedule, Skip> {
    check_ls_split(params)?;
    check_numerics(decode_error_bound(ctxs, params))?;
    validate_decode(model, ctxs, params).map_err(invalid_config)?;
    let (schedule, report) = build_and_check_decode_schedule(model, ctxs, params);
    if report.has_errors() {
        return Err(Skip::Analysis(report.render()));
    }
    Ok(schedule)
}

thread_local! {
    /// One reusable simulator per worker thread. A search prices hundreds of
    /// candidates, and building `Gpu::new(device.clone())` for every one
    /// churns a fresh device spec, L2 model, and timeline per candidate;
    /// instead each worker keeps its `Gpu` and [`Gpu::reset`]s it between
    /// candidates (L2 flushed, timeline cleared) — the exact state a fresh
    /// construction would start from, so pricing stays bit-identical.
    static ORACLE_GPU: RefCell<Option<Gpu>> = const { RefCell::new(None) };
}

/// Prices `schedule` on this worker's `Gpu`.
fn simulate(device: &DeviceSpec, schedule: &Schedule) -> Result<Timeline, Skip> {
    ORACLE_GPU.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.as_ref().is_none_or(|gpu| gpu.device() != device) {
            *slot = Some(Gpu::new(device.clone()));
        }
        let gpu = slot.as_mut().expect("just installed");
        gpu.reset();
        gpu.run(schedule).map_err(|e| Skip::Launch(e.to_string()))?;
        Ok(gpu.take_timeline())
    })
}

/// Prices one candidate for one workload: prune through the static gates,
/// then return the simulated end-to-end time in seconds. Deterministic —
/// the simulator is exact and single-candidate evaluation is sequential.
pub fn evaluate(
    model: &ModelConfig,
    device: &DeviceSpec,
    workload: &TuneWorkload,
    params: &RunParams,
) -> Result<f64, Skip> {
    let priced = match workload {
        TuneWorkload::Prefill { seq_len, batch } => {
            let params = params.clone().batch(*batch);
            let params = RunParams {
                seq_len: *seq_len,
                ..params
            };
            simulate(device, &precheck(model, &params)?)
        }
        TuneWorkload::Decode { ctxs } => simulate(device, &precheck_decode(model, ctxs, params)?),
    };
    priced.map(|priced| priced.total_time_s())
}

/// The default (untuned) parameters for a workload bucket — the reference
/// configuration every tuning result is compared against.
pub fn default_params(workload: &TuneWorkload) -> RunParams {
    match workload {
        TuneWorkload::Prefill { seq_len, batch } => RunParams {
            seq_len: *seq_len,
            batch: *batch,
            ..RunParams::default()
        },
        TuneWorkload::Decode { ctxs } => RunParams {
            seq_len: ctxs.iter().copied().max().unwrap_or(1),
            ..RunParams::default()
        },
    }
}

/// Errors the search layer surfaces when even the reference point fails.
pub(crate) fn default_unrunnable(workload: &TuneWorkload, skip: &Skip) -> TuneError {
    TuneError::DefaultUnrunnable {
        workload: workload.label(),
        reason: skip.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_gpusim::KernelCategory;
    use resoftmax_kernels::costs::TileConfig;
    use resoftmax_model::SoftmaxStrategy;

    #[test]
    fn buckets_round_up_to_powers_of_two() {
        let w = TuneWorkload::Prefill {
            seq_len: 1000,
            batch: 3,
        };
        assert_eq!(
            w.bucket(),
            TuneWorkload::Prefill {
                seq_len: 1024,
                batch: 4
            }
        );
        let d = TuneWorkload::Decode {
            ctxs: vec![260, 1000, 90],
        };
        assert_eq!(
            d.bucket(),
            TuneWorkload::Decode {
                ctxs: vec![1024; 4]
            }
        );
        // Buckets are fixed points.
        assert_eq!(w.bucket().bucket(), w.bucket());
        assert_eq!(d.bucket().bucket(), d.bucket());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(
            TuneWorkload::Prefill {
                seq_len: 4096,
                batch: 2
            }
            .label(),
            "prefill/L4096/b2"
        );
        assert_eq!(
            TuneWorkload::Decode {
                ctxs: vec![512, 1024]
            }
            .label(),
            "decode/r2/c1024"
        );
    }

    /// `LEGAL_LS_SPLITS` must agree with the analyzer's parallel rule: a
    /// dense SD schedule with each declared split either passes or fails
    /// `check_schedule` exactly as the constant predicts.
    #[test]
    #[cfg_attr(miri, ignore = "builds full schedules; covered by native runs")]
    fn legal_splits_agree_with_analyzer() {
        let model = ModelConfig::bert_base();
        for split in [
            ParallelSplit::OutputRows,
            ParallelSplit::RowSegments,
            ParallelSplit::OutputTiles,
            ParallelSplit::ReductionAxis,
        ] {
            let params = RunParams::new(512)
                .strategy(SoftmaxStrategy::Decomposed)
                .ls_split(Some(split));
            let expect_legal = LEGAL_LS_SPLITS.contains(&split);
            if !expect_legal {
                // precheck must reject statically, before a schedule (whose
                // debug assertion would fire) is ever built.
                assert_eq!(
                    precheck(&model, &params),
                    Err(Skip::IllegalSplit(split)),
                    "{split:?}"
                );
                continue;
            }
            // The schedule precheck built carries the override.
            let schedule = precheck(&model, &params).expect("legal split");
            assert!(schedule
                .layer()
                .iter()
                .filter(|k| k.category == KernelCategory::LocalSoftmax)
                .all(|k| k.meta.split == Some(split)));
        }
    }

    #[test]
    #[cfg_attr(miri, ignore = "builds full schedules; covered by native runs")]
    fn precheck_rejects_with_reasons() {
        let model = ModelConfig::bert_large();
        // Tile width not dividing L.
        let bad_tile = RunParams::new(1000).tile(TileConfig::new(64, 48));
        let e = precheck(&model, &bad_tile).unwrap_err();
        assert!(matches!(e, Skip::InvalidConfig(_)), "{e}");
        // Zero tile height (prefill) and zero tile width (decode).
        let zero_height = RunParams::new(512).tile(TileConfig { m: 0, n: 64 });
        let e = precheck(&model, &zero_height).unwrap_err();
        assert!(matches!(e, Skip::InvalidConfig(_)), "{e}");
        let zero_width = RunParams::new(512)
            .strategy(SoftmaxStrategy::Recomposed)
            .tile(TileConfig { m: 64, n: 0 });
        let e = precheck_decode(&ModelConfig::gpt_neo_1_3b(), &[512], &zero_width).unwrap_err();
        assert!(matches!(e, Skip::InvalidConfig(_)), "{e}");
        // Sparse model + decode workload.
        let e = precheck_decode(&ModelConfig::bigbird_large(), &[512], &RunParams::new(512))
            .unwrap_err();
        assert!(e.to_string().contains("dense"), "{e}");
        // Online fusion has no decode form.
        let e = precheck_decode(
            &ModelConfig::gpt_neo_1_3b(),
            &[512],
            &RunParams::new(512).strategy(SoftmaxStrategy::OnlineFused),
        )
        .unwrap_err();
        assert!(matches!(e, Skip::InvalidConfig(_)), "{e}");
    }

    /// A malformed architecture is pruned as an invalid configuration by
    /// both prechecks, before any schedule is built.
    #[test]
    fn prechecks_reject_malformed_architectures() {
        let base = ModelConfig::gpt_neo_1_3b();
        for model in [
            ModelConfig {
                layers: 0,
                ..base.clone()
            },
            ModelConfig {
                heads: 0,
                ..base.clone()
            },
            ModelConfig {
                d_ff: 0,
                ..base.clone()
            },
            ModelConfig { heads: 3, ..base },
        ] {
            let e = precheck(&model, &RunParams::new(512)).unwrap_err();
            assert!(matches!(e, Skip::InvalidConfig(_)), "{model:?}: {e}");
            let e = precheck_decode(&model, &[512], &RunParams::new(512)).unwrap_err();
            assert!(matches!(e, Skip::InvalidConfig(_)), "{model:?}: {e}");
        }
    }

    /// The default candidates of one prefill and one decode bucket reach
    /// their repeating L2 state on an A100 after two layers, so a change
    /// that defeats the tuner's shortcut fails here rather than only
    /// slowing tuning down.
    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn default_candidates_simulate_two_layers_on_an_a100() {
        let device = DeviceSpec::a100();
        let model = ModelConfig::bert_large();
        let params = default_params(&TuneWorkload::Prefill {
            seq_len: 4096,
            batch: 1,
        });
        let schedule = precheck(&model, &params).unwrap();
        let priced = simulate(&device, &schedule).unwrap();
        assert_eq!(model.layers - priced.repeats(), 2, "prefill/L4096/b1");

        let model = ModelConfig::gpt_neo_1_3b();
        let ctxs = vec![4096; 8];
        let params = default_params(&TuneWorkload::Decode { ctxs: ctxs.clone() });
        let schedule = precheck_decode(&model, &ctxs, &params).unwrap();
        let priced = simulate(&device, &schedule).unwrap();
        assert_eq!(model.layers - priced.repeats(), 2, "decode/r8/c4096");
    }

    #[test]
    #[cfg_attr(miri, ignore = "end-to-end simulation is too slow under miri")]
    fn evaluate_prices_legal_candidates() {
        let model = ModelConfig::bert_base();
        let device = DeviceSpec::a100();
        let w = TuneWorkload::Prefill {
            seq_len: 512,
            batch: 1,
        };
        let base = default_params(&w);
        let t = evaluate(&model, &device, &w, &base).unwrap();
        assert!(t > 0.0);
        // Recomposed at the same point must also price, and differ.
        let sdf = base.clone().strategy(SoftmaxStrategy::Recomposed);
        let t2 = evaluate(&model, &device, &w, &sdf).unwrap();
        assert!(t2 > 0.0 && t2 != t);
    }

    /// The numerics gate prunes SDF16 statically where its certificate
    /// fails (wide tiles), and prices it where the certificate holds
    /// (narrow tiles) — never building a schedule for the rejected points.
    #[test]
    #[cfg_attr(miri, ignore = "builds full schedules; covered by native runs")]
    fn numerics_gate_controls_fp16_recomposition() {
        let model = ModelConfig::bert_base();
        let device = DeviceSpec::a100();
        let wide = RunParams::new(4096).strategy(SoftmaxStrategy::RecomposedFp16);
        let e = precheck(&model, &wide).unwrap_err();
        assert!(matches!(e, Skip::Numerics(_)), "{e}");
        let narrow = wide.clone().tile(TileConfig::new(64, 16));
        assert!(precheck(&model, &narrow).is_ok());
        let w = TuneWorkload::Prefill {
            seq_len: 4096,
            batch: 1,
        };
        assert!(evaluate(&model, &device, &w, &narrow).unwrap() > 0.0);

        // Decode: same gate, taken at the batch's longest context.
        let m = ModelConfig::gpt_neo_1_3b();
        let e = precheck_decode(&m, &[512], &wide).unwrap_err();
        assert!(matches!(e, Skip::Numerics(_)), "{e}");
        assert!(precheck_decode(&m, &[512], &narrow).is_ok());
    }
}
