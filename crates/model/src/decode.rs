//! Extension: autoregressive *decode* (token generation with a KV cache)
//! — a scope boundary of the paper.
//!
//! The paper evaluates full-sequence inference, where the attention matrix
//! is `L × L` and dwarfs the L2. In token-by-token generation the "attention
//! matrix" is a single `1 × ctx` row per head (kilobytes): it lives in L2
//! between kernels, so eliminating its off-chip traffic — the entire point
//! of recomposition — has nothing to eliminate. Decode is bound by weight
//! and KV-cache streaming instead. This module prices that regime so the
//! boundary is measured, not asserted.
//!
//! The batched builder generalizes the single-request schedule to one fused
//! engine iteration over rows at *heterogeneous* context lengths — the shape
//! a continuous-batching serving loop produces (`resoftmax-serve`): each row
//! is one token being generated (or one prefill-chunk position), attending a
//! KV cache of its own length.

use crate::config::{AttentionKind, ModelConfig};
use crate::error::Error;
use crate::schedule::{apply_ls_split, build_layer, RunParams, SoftmaxStrategy};
use crate::session::validate_decode;
use resoftmax_analyzer::{analyze_periodic, DecodeSpec, ErrorBound, ScheduleSpec};
use resoftmax_gpusim::{
    AccumFormat, Gpu, KernelCategory, KernelDesc, KernelDescBuilder, KernelMeta, ParallelSplit,
    Schedule, Scope, TbGroup, TbShape, TbWork, Timeline,
};
use resoftmax_kernels::costs::{
    row_threads, EXP_FLOP_EQUIV, FP16_BYTES, SOFTMAX_PHASE_EFFICIENCY, STREAM_EFFICIENCY,
};

/// Attaches one thread block per attention instance to the builder: `heads`
/// TBs per row, each sized by that row's context length. Adjacent rows with
/// equal contexts merge into one group (a single run collapses to a uniform
/// grid, which the simulator prices in closed form).
fn per_row_tbs(
    b: &mut KernelDescBuilder,
    ctxs: &[usize],
    heads: u64,
    work_of: impl Fn(usize) -> TbWork,
) {
    let mut runs: Vec<(usize, u64)> = Vec::new();
    for &c in ctxs {
        match runs.last_mut() {
            Some((prev, n)) if *prev == c => *n += heads,
            _ => runs.push((c, heads)),
        }
    }
    if let [(c, n)] = runs[..] {
        b.uniform(n, work_of(c));
    } else {
        b.grouped(
            runs.into_iter()
                .map(|(c, n)| TbGroup::new(work_of(c), n))
                .collect(),
        );
    }
}

/// The per-iteration constants every layer of a batched-decode schedule
/// shares, validated and computed once; [`Self::layer`] stamps out one
/// layer's kernels from them.
struct DecodeLayers<'a> {
    model: &'a ModelConfig,
    ctxs: &'a [usize],
    params: &'a RunParams,
    t_sub: usize,
    max_ctx: usize,
    // Batch-wide byte totals for the buffer declarations (all `heads`
    // instances of all rows).
    cache_total: u64,
    row_total: u64,
    sv_total: u64,
    qkv_total: u64,
}

impl<'a> DecodeLayers<'a> {
    fn new(model: &'a ModelConfig, ctxs: &'a [usize], params: &'a RunParams) -> Self {
        assert!(
            matches!(model.attention, AttentionKind::Dense { .. }),
            "decode cost model covers dense attention only"
        );
        assert!(
            params.strategy != SoftmaxStrategy::OnlineFused,
            "decode attention is a single row; online fusion is the GEMV itself"
        );
        assert!(
            !ctxs.is_empty(),
            "decode batch must contain at least one row"
        );
        assert!(
            ctxs.iter().all(|&c| c > 0),
            "decode context lengths must be nonzero"
        );
        assert!(params.tile.n > 0, "decode tile width must be nonzero");
        let h = model.heads as u64;
        let d_head = model.d_head();
        let t_sub = params.tile.n;
        let n_sv = |ctx: usize| ctx.div_ceil(t_sub);
        DecodeLayers {
            model,
            ctxs,
            params,
            t_sub,
            max_ctx: *ctxs.iter().max().expect("nonempty batch"),
            cache_total: ctxs
                .iter()
                .map(|&c| (c * d_head * FP16_BYTES) as u64)
                .sum::<u64>()
                * h,
            row_total: ctxs.iter().map(|&c| (c * FP16_BYTES) as u64).sum::<u64>() * h,
            sv_total: ctxs
                .iter()
                .map(|&c| (n_sv(c) * FP16_BYTES) as u64)
                .sum::<u64>()
                * h,
            qkv_total: (ctxs.len() * model.d_model * FP16_BYTES) as u64,
        }
    }

    /// The iteration's schedule: layer 0, no prologue.
    fn schedule(&self) -> Schedule {
        let mut layer = Vec::new();
        self.layer(0, &mut layer);
        let schedule = Schedule::new(Vec::new(), layer, self.model.layers);
        #[cfg(debug_assertions)]
        crate::schedule::assert_layer_copies(&schedule, |l, kernels| self.layer(l, kernels));
        schedule
    }

    /// Pushes layer `layer`'s kernels. Every buffer id is in the
    /// `l{layer}` scope (the closing LayerNorm writes the next layer's
    /// `l{layer+1}.x`) and no kernel name carries the index, so layer
    /// `l + 1` is layer `l` with every id's layer advanced by one. Its
    /// FC/FF kernels are `ctxs.len()`-row GEMVs, weight-streaming bound.
    fn layer(&self, layer: usize, kernels: &mut Vec<KernelDesc>) {
        let start = kernels.len();
        let scope = Scope::layer(layer);
        build_layer(
            self.model.d_model,
            self.model.d_ff,
            self.ctxs.len(),
            false,
            scope,
            Scope::layer(layer + 1).id("x"),
            kernels,
            |kernels| self.attention(scope, kernels),
        );
        apply_ls_split(self.params, &mut kernels[start..]);
    }

    /// One layer's SDA block: GEMVs over each row's KV cache.
    fn attention(&self, scope: Scope, kernels: &mut Vec<KernelDesc>) {
        let DecodeLayers {
            model,
            ctxs,
            params,
            t_sub,
            max_ctx,
            cache_total,
            row_total,
            sv_total,
            qkv_total,
        } = *self;
        let strategy = decode_strategy(params.strategy);
        // The LS epilogue's partial sums accumulate in `ls_accum`; the GEMV
        // dot products themselves always accumulate in binary32.
        let (recomposed, ls_accum) = (strategy.is_recomposed(), strategy.ls_accum());
        let n_sv = |ctx: usize| ctx.div_ceil(t_sub);
        let rows = ctxs.len();
        let heads = model.heads;
        let d_head = model.d_head();
        let h = heads as u64;
        let inst = h * rows as u64;

        // q·Kᵀ over the KV cache: one GEMV per instance, streaming that
        // row's K-cache slice plus its q and (appended) k rows. With
        // recomposition the LS epilogue rides along (scale + exp + local
        // max), fused as in Fig. 6, emitting the per-sub-vector m'/d'.
        let mut qk = KernelDesc::builder(
            format!(
                "decode_qk{}(rows={rows},max_ctx={max_ctx})",
                match (recomposed, ls_accum) {
                    (false, _) => "",
                    (true, AccumFormat::Fp32) => "+ls",
                    (true, AccumFormat::Fp16) => "+ls16",
                }
            ),
            KernelCategory::MatMulQk,
        );
        qk.shape(TbShape::new(256, 16 * 1024, 64));
        per_row_tbs(&mut qk, ctxs, h, |ctx| TbWork {
            cuda_flops: 2.0 * (ctx * d_head) as f64
                + if recomposed {
                    (EXP_FLOP_EQUIV + 6.0) * ctx as f64
                } else {
                    2.0 * ctx as f64
                },
            tensor_flops: 0.0,
            dram_read_bytes: ((ctx + 2) * d_head * FP16_BYTES) as f64,
            dram_write_bytes: (ctx * FP16_BYTES) as f64
                + if recomposed {
                    (2 * n_sv(ctx) * FP16_BYTES) as f64
                } else {
                    0.0
                },
            mem_active_fraction: 1.0,
            efficiency: STREAM_EFFICIENCY,
        });
        qk.meta(KernelMeta {
            d_head: Some(d_head),
            instances: Some(inst),
            fused_ls: recomposed,
            sub_vector: recomposed.then_some(t_sub),
            tile_n: recomposed.then_some(t_sub),
            split: Some(ParallelSplit::OutputRows),
            accum: Some(ls_accum),
            ..KernelMeta::default()
        })
        .reads(scope.id("k_cache"), cache_total)
        .reads(scope.id("q"), qkv_total)
        .reads(scope.id("k"), qkv_total)
        .writes(
            scope.id(if recomposed { "x_prime" } else { "scores" }),
            row_total,
        );
        if recomposed {
            qk.writes(scope.id("m_prime"), sv_total)
                .writes(scope.id("d_prime"), sv_total);
        }
        kernels.push(qk.build());

        if recomposed {
            // IR over each row's sub-vectors: trivially small. 64 instance
            // rows per TB; the remainder TB charges only its true rows — a
            // padded figure here is a 4x overcount at GPT-Neo batch 1.
            let per_inst_sv: Vec<usize> = ctxs
                .iter()
                .flat_map(|&c| std::iter::repeat_n(n_sv(c), heads))
                .collect();
            let tbs: Vec<TbWork> = per_inst_sv
                .chunks(64)
                .map(|chunk| {
                    let sv: f64 = chunk.iter().map(|&v| v as f64).sum();
                    TbWork {
                        cuda_flops: sv * (EXP_FLOP_EQUIV + 4.0),
                        dram_read_bytes: sv * (2 * FP16_BYTES) as f64,
                        dram_write_bytes: sv * FP16_BYTES as f64,
                        ..TbWork::default()
                    }
                })
                .collect();
            let mut ir = KernelDesc::builder(
                format!("decode_ir(rows={rows},max_ctx={max_ctx})"),
                KernelCategory::InterReduction,
            );
            ir.shape(TbShape::new(128, 4096, 32))
                .per_tb(tbs)
                .meta(KernelMeta {
                    instances: Some(inst),
                    sub_vector: Some(t_sub),
                    split: Some(ParallelSplit::OutputRows),
                    accum: Some(AccumFormat::Fp32),
                    ..KernelMeta::default()
                })
                .reads(scope.id("m_prime"), sv_total)
                .reads(scope.id("d_prime"), sv_total)
                .writes(scope.id("r_prime"), sv_total);
            kernels.push(ir.build());
        } else {
            // Monolithic softmax over ONE row per instance: only
            // `heads × rows` thread blocks exist — a parallelism desert.
            // Threads are allocated for the longest row (real kernels size
            // the block for the worst case), in whole warps.
            let mut sm = KernelDesc::builder(
                format!("decode_softmax(rows={rows},max_ctx={max_ctx})"),
                KernelCategory::Softmax,
            );
            sm.shape(TbShape::new(
                row_threads(max_ctx),
                (max_ctx * FP16_BYTES) as u32,
                40,
            ));
            per_row_tbs(&mut sm, ctxs, h, |ctx| TbWork {
                cuda_flops: (EXP_FLOP_EQUIV + 4.0) * ctx as f64,
                dram_read_bytes: (ctx * FP16_BYTES) as f64,
                dram_write_bytes: (ctx * FP16_BYTES) as f64,
                mem_active_fraction: 1.0,
                efficiency: SOFTMAX_PHASE_EFFICIENCY,
                ..TbWork::default()
            });
            sm.meta(KernelMeta {
                instances: Some(inst),
                split: Some(ParallelSplit::OutputRows),
                accum: Some(AccumFormat::Fp32),
                ..KernelMeta::default()
            })
            .reads(scope.id("scores"), row_total)
            .writes(scope.id("probs"), row_total);
            kernels.push(sm.build());
        }

        // P·V over the V cache. Under recomposition the GS prologue rescales
        // the x' row by the reconstruction factors, so the kernel streams
        // that row's r' slice too — its traffic is part of the cost model.
        let mut pv = KernelDesc::builder(
            format!(
                "decode_pv{}(rows={rows},max_ctx={max_ctx})",
                if recomposed { "+gs" } else { "" }
            ),
            KernelCategory::MatMulPv,
        );
        pv.shape(TbShape::new(256, 16 * 1024, 64));
        per_row_tbs(&mut pv, ctxs, h, |ctx| TbWork {
            cuda_flops: 2.0 * (ctx * d_head) as f64 + if recomposed { ctx as f64 } else { 0.0 },
            dram_read_bytes: ((ctx + 1) * d_head * FP16_BYTES) as f64
                + (ctx * FP16_BYTES) as f64
                + if recomposed {
                    (n_sv(ctx) * FP16_BYTES) as f64
                } else {
                    0.0
                },
            dram_write_bytes: (d_head * FP16_BYTES) as f64,
            mem_active_fraction: 1.0,
            efficiency: STREAM_EFFICIENCY,
            ..TbWork::default()
        });
        pv.meta(KernelMeta {
            d_head: Some(d_head),
            instances: Some(inst),
            fused_gs: recomposed,
            sub_vector: recomposed.then_some(t_sub),
            split: Some(ParallelSplit::OutputRows),
            accum: Some(AccumFormat::Fp32),
            ..KernelMeta::default()
        })
        .reads(scope.id("v_cache"), cache_total)
        .reads(
            scope.id(if recomposed { "x_prime" } else { "probs" }),
            row_total,
        )
        .reads(scope.id("v"), qkv_total);
        if recomposed {
            pv.reads(scope.id("r_prime"), sv_total);
        }
        pv.writes(scope.id("attn_out"), qkv_total);
        kernels.push(pv.build());
    }
}

/// Builds the kernel schedule for ONE engine iteration that generates one
/// token per entry of `ctxs`, each attending a KV cache of that length.
///
/// Every attention kernel is launched once for the whole batch (continuous
/// batching: heterogeneous rows share a grid); the feed-forward stack runs
/// as `ctxs.len()`-row GEMMs. `params` supplies the strategy and the
/// sub-vector tile width; its `batch`/`seq_len` are ignored here — the row
/// count is `ctxs.len()`. Only layer 0 is built; it runs `model.layers`
/// times, each copy with every buffer id's layer advanced by one.
///
/// # Panics
///
/// Panics for non-dense models (decode with block-sparse caches is not
/// modeled), for the online-fused strategy, for empty or zero contexts,
/// and for a zero tile width.
pub fn build_batched_decode_schedule(
    model: &ModelConfig,
    ctxs: &[usize],
    params: &RunParams,
) -> Schedule {
    let schedule = DecodeLayers::new(model, ctxs, params).schedule();
    #[cfg(debug_assertions)]
    {
        let report = check_decode_schedule(model, ctxs, params, &schedule);
        debug_assert!(
            !report.has_errors(),
            "build_batched_decode_schedule produced a schedule that fails static analysis:\n{}",
            report.render()
        );
    }
    schedule
}

/// [`build_batched_decode_schedule`] with the report
/// [`check_decode_schedule`] gives on it. The tuner builds and checks its
/// decode candidates this way.
///
/// # Panics
///
/// As [`build_batched_decode_schedule`].
pub fn build_and_check_decode_schedule(
    model: &ModelConfig,
    ctxs: &[usize],
    params: &RunParams,
) -> (Schedule, resoftmax_analyzer::Report) {
    let schedule = DecodeLayers::new(model, ctxs, params).schedule();
    let report = check_decode_schedule(model, ctxs, params, &schedule);
    (schedule, report)
}

/// Prices one batched-decode iteration on `gpu` and drains its timeline
/// (flushing L2, as [`Gpu::take_timeline`] does): [`Gpu::run`] on
/// [`build_batched_decode_schedule`]'s schedule. Only layer 0 is built,
/// and the layers are simulated only until the L2 residency repeats
/// (DESIGN §14); on an A100, GPT-Neo repeats after two of its 24 layers.
///
/// # Errors
///
/// [`Error::InvalidConfig`] when the decode rules reject the iteration (see
/// [`validate_decode`](crate::validate_decode)); [`Error::Launch`] if a
/// kernel cannot launch.
pub fn price_batched_decode(
    gpu: &mut Gpu,
    model: &ModelConfig,
    ctxs: &[usize],
    params: &RunParams,
) -> Result<Timeline, Error> {
    validate_decode(model, ctxs, params)?;
    gpu.run(&build_batched_decode_schedule(model, ctxs, params))?;
    Ok(gpu.take_timeline())
}

/// The strategy a decode iteration runs under `strategy`. Unfused
/// decomposition has no decode path of its own — one row per instance
/// leaves nothing for standalone LS/IR/GS to win — so SD runs as the
/// baseline. The builder, the analyzer spec and the certified bound all
/// read this.
fn decode_strategy(strategy: SoftmaxStrategy) -> SoftmaxStrategy {
    if strategy == SoftmaxStrategy::Decomposed {
        SoftmaxStrategy::Baseline
    } else {
        strategy
    }
}

/// Statically analyzes a batched-decode schedule against the spec implied by
/// `(model, ctxs, params)` ([`decode_analysis_spec`]), returning the full
/// diagnostic report: [`resoftmax_analyzer::analyze_certified`]'s on the
/// expanded schedule. A schedule of `model.layers` layers is analyzed from
/// its first two ([`resoftmax_analyzer::analyze_periodic`]), any other over
/// every kernel.
pub fn check_decode_schedule(
    model: &ModelConfig,
    ctxs: &[usize],
    params: &RunParams,
    schedule: &Schedule,
) -> resoftmax_analyzer::Report {
    analyze_periodic(&decode_analysis_spec(model, ctxs, params), schedule)
}

/// The analyzer's description of the batched-decode iteration `(model,
/// ctxs, params)`. It has `seq_len = 1` and `batch = ctxs.len()`, so the
/// FC/LayerNorm formulas apply unchanged, and carries the per-row contexts
/// in a [`DecodeSpec`], which drive the exact SDA traffic and footprint
/// sums. [`check_decode_schedule`] analyzes against it.
pub fn decode_analysis_spec(
    model: &ModelConfig,
    ctxs: &[usize],
    params: &RunParams,
) -> ScheduleSpec {
    ScheduleSpec {
        seq_len: 1,
        batch: ctxs.len(),
        heads: model.heads,
        d_model: model.d_model,
        d_ff: model.d_ff,
        layers: model.layers,
        strategy: decode_strategy(params.strategy).kind(),
        tile_m: params.tile.m,
        tile_n: params.tile.n,
        softmax_overhead: 1.0,
        matmul_overhead: 1.0,
        attention_overhead: 1.0,
        separate_scale_mask: false,
        separate_elementwise: false,
        sparse: None,
        decode: Some(DecodeSpec {
            ctxs: ctxs.to_vec(),
        }),
    }
}

/// The certified numeric error bound for the batched-decode schedule
/// `(ctxs, params)` would build, computed without building it — the decode
/// counterpart of [`crate::schedule::static_error_bound`] (same rationale:
/// the builder debug-asserts its own analysis, so uncertifiable points must
/// be rejected before a schedule exists).
///
/// The bound is taken at the *longest* context of the batch, matching what
/// the numerics pass reports for the heterogeneous grid. Returns `None`
/// for empty batches, all-zero contexts, and the online-fused strategy
/// (which the decode builder rejects outright).
pub fn decode_error_bound(ctxs: &[usize], params: &RunParams) -> Option<ErrorBound> {
    let ctx = ctxs.iter().copied().max().filter(|&c| c > 0)?;
    (params.strategy != SoftmaxStrategy::OnlineFused)
        .then(|| decode_strategy(params.strategy).certified_bound(ctx, params.tile.n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_gpusim::DeviceSpec;

    fn decode_step(m: &ModelConfig, params: &RunParams) -> crate::RunReport {
        crate::Session::new(m, params, &DeviceSpec::a100())
            .unwrap()
            .decode_step(4096)
            .unwrap()
    }

    #[test]
    fn decode_runs_and_is_fast() {
        let m = ModelConfig::gpt_neo_1_3b();
        let r = decode_step(&m, &RunParams::new(4096));
        // single token: tens of ms at worst (GEMV parallelism desert), far
        // from the ~140ms of full-sequence inference
        assert!(r.total_time_s() < 0.04, "{}", r.total_time_s());
        assert!(r.total_time_s() > 1e-4);
    }

    #[test]
    fn recomposition_is_neutral_in_decode() {
        // The paper's win vanishes when the attention matrix is one row:
        // speedup within a few percent of 1.0.
        let m = ModelConfig::gpt_neo_1_3b();
        let base = decode_step(&m, &RunParams::new(4096));
        let sdf = decode_step(
            &m,
            &RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
        );
        let speedup = base.total_time_s() / sdf.total_time_s();
        assert!(
            (0.95..1.10).contains(&speedup),
            "decode speedup {speedup} should be ~1"
        );
    }

    #[test]
    fn decode_softmax_fraction_is_tiny() {
        let m = ModelConfig::gpt_neo_1_3b();
        let r = decode_step(&m, &RunParams::new(4096));
        assert!(
            r.softmax_time_fraction() < 0.1,
            "decode softmax frac {}",
            r.softmax_time_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "dense attention only")]
    fn sparse_decode_rejected() {
        let _ = build_batched_decode_schedule(
            &ModelConfig::bigbird_large(),
            &[4096],
            &RunParams::new(4096),
        );
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn zero_ctx_rejected() {
        let _ = build_batched_decode_schedule(
            &ModelConfig::gpt_neo_1_3b(),
            &[128, 0],
            &RunParams::new(4096),
        );
    }

    #[test]
    #[should_panic(expected = "decode tile width must be nonzero")]
    fn zero_tile_width_rejected() {
        use resoftmax_kernels::costs::TileConfig;
        let _ = build_batched_decode_schedule(
            &ModelConfig::gpt_neo_1_3b(),
            &[128],
            &RunParams::new(4096).tile(TileConfig { m: 64, n: 0 }),
        );
    }

    /// Regression (IR padded-TB overcount): the remainder thread block must
    /// charge only its true instance rows. GPT-Neo at batch 1 has 16
    /// instances in one 64-row TB — a padded figure is a 4x overcount.
    #[test]
    fn ir_remainder_tb_charges_true_rows() {
        let m = ModelConfig::gpt_neo_1_3b();
        let ctx = 4096;
        let params = RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed);
        let ks = build_batched_decode_schedule(&m, &[ctx], &params);
        let ir = ks
            .layer()
            .iter()
            .find(|k| k.category == KernelCategory::InterReduction)
            .expect("recomposed decode has an IR kernel");
        let n_sv = ctx.div_ceil(params.tile.n);
        let expected = (m.heads * n_sv * FP16_BYTES) as f64; // 16 rows, not 64
        assert_eq!(ir.tbs.total_write_bytes(), expected);
        assert_eq!(ir.tbs.total_read_bytes(), 2.0 * expected);
    }

    /// Regression (r' dead store): the recomposed PV kernel must read the
    /// IR output and account its bytes.
    #[test]
    fn recomposed_pv_reads_r_prime() {
        let m = ModelConfig::gpt_neo_1_3b();
        let params = RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed);
        let ks = build_batched_decode_schedule(&m, &[4096], &params);
        let pv = ks
            .layer()
            .iter()
            .find(|k| k.category == KernelCategory::MatMulPv)
            .expect("decode has a PV kernel");
        let r_prime = pv
            .reads
            .iter()
            .find(|b| b.id.is("r_prime"))
            .expect("recomposed PV must read r_prime");
        let n_sv = 4096_usize.div_ceil(params.tile.n);
        assert_eq!(r_prime.bytes, (n_sv * FP16_BYTES * m.heads) as u64);
    }

    /// Regression (warp alignment): decode softmax thread counts are whole
    /// warps even for awkward context lengths (260/4 = 65 before rounding).
    #[test]
    fn decode_softmax_threads_are_warp_aligned() {
        let m = ModelConfig::gpt_neo_1_3b();
        for ctx in [260, 1000, 4096] {
            let ks = build_batched_decode_schedule(&m, &[ctx], &RunParams::new(4096));
            let sm = ks
                .layer()
                .iter()
                .find(|k| k.category == KernelCategory::Softmax)
                .expect("baseline decode has a softmax kernel");
            assert_eq!(sm.shape.threads % 32, 0, "ctx={ctx}: {}", sm.shape.threads);
        }
    }

    #[test]
    fn batched_heterogeneous_contexts_run() {
        let m = ModelConfig::gpt_neo_1_3b();
        let ctxs = [260, 1000, 1000, 4096];
        // Decomposed rides the baseline decode path (monolithic softmax);
        // it must analyze clean too, not just build.
        for strategy in [
            SoftmaxStrategy::Baseline,
            SoftmaxStrategy::Decomposed,
            SoftmaxStrategy::Recomposed,
        ] {
            let params = RunParams::new(4096).strategy(strategy);
            let ks = build_batched_decode_schedule(&m, &ctxs, &params);
            let report = check_decode_schedule(&m, &ctxs, &params, &ks);
            assert!(!report.has_errors(), "{strategy:?}:\n{}", report.render());
            // The static decode bound is exactly what the pass certifies.
            assert_eq!(report.error_bound, decode_error_bound(&ctxs, &params));
        }
    }

    #[test]
    fn fp16_recomposed_decode_certifies_at_small_tiles() {
        use resoftmax_kernels::costs::TileConfig;
        let m = ModelConfig::gpt_neo_1_3b();
        let ctxs = [260, 1000, 4096];
        let params = RunParams::new(4096)
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .tile(TileConfig::new(64, 16));
        let ks = build_batched_decode_schedule(&m, &ctxs, &params);
        let report = check_decode_schedule(&m, &ctxs, &params, &ks);
        assert!(!report.has_errors(), "{}", report.render());
        assert_eq!(report.error_bound, decode_error_bound(&ctxs, &params));
        // The fused QK GEMV declares its binary16 LS accumulation.
        let qk = ks
            .layer()
            .iter()
            .find(|k| k.category == KernelCategory::MatMulQk)
            .unwrap();
        assert_eq!(qk.meta.accum, Some(AccumFormat::Fp16));
        assert!(qk.name.contains("+ls16"), "{}", qk.name);
        // At the default 64-wide tile the same strategy is uncertifiable.
        let wide = RunParams::new(4096).strategy(SoftmaxStrategy::RecomposedFp16);
        let bound = decode_error_bound(&ctxs, &wide).unwrap();
        assert!(!bound.certifies(resoftmax_analyzer::CERT_BUDGET_REL));
    }

    #[test]
    fn batched_decode_scales_sublinearly() {
        // Four rows in one fused iteration beat four single-row iterations:
        // the weight streams are shared across the batch.
        let m = ModelConfig::gpt_neo_1_3b();
        let params = RunParams::new(4096);
        let device = DeviceSpec::a100();
        let one = crate::engine::simulate_schedule(
            "decode_batch",
            &m.name,
            &params,
            device.clone(),
            &build_batched_decode_schedule(&m, &[2048], &params),
        )
        .unwrap();
        let four = crate::engine::simulate_schedule(
            "decode_batch",
            &m.name,
            &params,
            device,
            &build_batched_decode_schedule(&m, &[2048; 4], &params),
        )
        .unwrap();
        assert!(
            four.total_time_s() < 4.0 * one.total_time_s(),
            "batched {} vs 4x single {}",
            four.total_time_s(),
            4.0 * one.total_time_s()
        );
    }

    /// The schedule is `model.layers` copies of layer 0, each with every
    /// buffer id's layer advanced by one. The first, a middle and the last
    /// copy must be what the builder emits for that layer: the premise of
    /// the layered form, which debug builds also assert on every build.
    #[test]
    fn decode_layers_are_shifted_copies() {
        let m = ModelConfig::gpt_neo_1_3b();
        let ctxs = [260, 1000, 1000, 4096];
        for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            let params = RunParams::new(4096).strategy(strategy);
            let schedule = build_batched_decode_schedule(&m, &ctxs, &params);
            assert_eq!(
                (schedule.prologue().len(), schedule.layers()),
                (0, m.layers)
            );
            let per_layer = schedule.layer().len();
            let flat = schedule.expand();
            let layers = DecodeLayers::new(&m, &ctxs, &params);
            for l in [0, m.layers / 2, m.layers - 1] {
                let mut built = Vec::new();
                layers.layer(l, &mut built);
                assert_eq!(
                    flat[l * per_layer..][..per_layer],
                    built,
                    "{strategy:?} layer {l}"
                );
            }
        }
    }

    /// GPT-Neo on an A100 reaches its repeating L2 state after two layers,
    /// so an L2 change that silently defeats the shortcut fails here rather
    /// than only slowing the fleets down.
    #[test]
    fn gpt_neo_on_a100_simulates_two_layers() {
        let m = ModelConfig::gpt_neo_1_3b();
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let prefill_and_decode: Vec<usize> = (1..=256).chain([300, 4096]).collect();
        for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            let params = RunParams::new(4096).strategy(strategy);
            for ctxs in [&[4096][..], &[260, 1000, 1000, 4096], &prefill_and_decode] {
                let priced = price_batched_decode(&mut gpu, &m, ctxs, &params).unwrap();
                assert_eq!(
                    m.layers - priced.repeats(),
                    2,
                    "{strategy:?} with {} rows",
                    ctxs.len()
                );
                assert_eq!(priced.len(), 11 * m.layers);
            }
        }
    }

    /// What `build_batched_decode_schedule` panics on, the pricer rejects
    /// with a typed error before building anything.
    #[test]
    fn price_batched_decode_rejects_what_the_builder_cannot_build() {
        use resoftmax_kernels::costs::TileConfig;
        let mut gpu = Gpu::new(DeviceSpec::a100());
        let dense = ModelConfig::gpt_neo_1_3b();
        let online = RunParams::new(4096).strategy(SoftmaxStrategy::OnlineFused);
        for (model, ctxs, params, why) in [
            (
                ModelConfig::bigbird_large(),
                &[4096][..],
                RunParams::new(4096),
                "dense",
            ),
            (dense.clone(), &[4096], online, "online fusion"),
            (dense.clone(), &[], RunParams::new(4096), "at least one row"),
            (dense.clone(), &[128, 0], RunParams::new(4096), "nonzero"),
            (
                dense,
                &[128],
                RunParams::new(4096).tile(TileConfig { m: 64, n: 0 }),
                "tile width",
            ),
        ] {
            match price_batched_decode(&mut gpu, &model, ctxs, &params) {
                Err(Error::InvalidConfig { reason }) => assert!(reason.contains(why), "{reason}"),
                other => panic!("{why}: expected InvalidConfig, got {other:?}"),
            }
        }
    }
}
