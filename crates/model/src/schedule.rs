//! The schedule builder: model config + run parameters → kernel sequence.
//!
//! This is where the paper's three configurations diverge (Fig. 6):
//!
//! * **Baseline** — `Q·Kᵀ`(+scale+mask) → monolithic softmax → `P·V`.
//! * **Decomposed (SD)** — `Q·Kᵀ`(+scale+mask) → LS → IR → GS → `P·V`.
//! * **Recomposed (SDF)** — `Q·Kᵀ`(+scale+mask+LS) → IR → GS+`P·V`.
//!
//! Library profiles further vary which elementwise layers run standalone and
//! whether sparse models use block-sparse kernels, a dense fallback, or a
//! gather-based implementation (Fig. 7).

use crate::config::ModelConfig;
use crate::library::{LibraryProfile, SparseSupport};
use resoftmax_analyzer::{
    analyze_periodic, error_model, ErrorBound, ScheduleSpec, SparseSpec, StrategyKind,
};
use resoftmax_gpusim::{
    AccumFormat, BufferId, KernelCategory, KernelDesc, ParallelSplit, Schedule, Scope, TbSet,
};
use resoftmax_kernels::costs::{common, dense, sparse, AttnDims, TileConfig};
use resoftmax_sparse::BlockLayout;
use serde::{Deserialize, Serialize};

/// Work multiplier gather/scatter-based sparse implementations pay on every
/// attention kernel (the data moves an extra time through gather indices).
const GATHER_PENALTY: f64 = 2.0;

/// The paper's softmax configurations (§5.1), plus the online-softmax
/// extension (§7 pointer, later known as FlashAttention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SoftmaxStrategy {
    /// Monolithic softmax (state-of-the-art library baseline).
    Baseline,
    /// Softmax decomposition only (SD): LS / IR / GS as standalone kernels.
    Decomposed,
    /// Softmax decomposition + fusion (SDF): the paper's contribution.
    Recomposed,
    /// Extension: SDF with the Local-Softmax partial sums accumulated in
    /// binary16 instead of binary32. Cheaper in the fused epilogue (halved
    /// accumulator register pressure) but numerically admissible only where
    /// the analyzer's numerics pass certifies the error bound — in practice
    /// small sub-vector lengths (`T ≤ 32`). The autotuner prices it through
    /// its four-gate oracle; `Session` rejects uncertifiable combinations.
    RecomposedFp16,
    /// Extension: fully fused online-softmax attention — one kernel per SDA
    /// block, no attention matrix in DRAM at all (`resoftmax_kernels::online`).
    OnlineFused,
}

impl SoftmaxStrategy {
    /// The paper's three configurations, in its reporting order.
    pub fn all() -> [SoftmaxStrategy; 3] {
        [
            SoftmaxStrategy::Baseline,
            SoftmaxStrategy::Decomposed,
            SoftmaxStrategy::Recomposed,
        ]
    }

    /// Short label used in reports ("Baseline" / "SD" / "SDF" / "SDF16" /
    /// "Online").
    pub fn label(self) -> &'static str {
        match self {
            SoftmaxStrategy::Baseline => "Baseline",
            SoftmaxStrategy::Decomposed => "SD",
            SoftmaxStrategy::Recomposed => "SDF",
            SoftmaxStrategy::RecomposedFp16 => "SDF16",
            SoftmaxStrategy::OnlineFused => "Online",
        }
    }

    /// `true` for the recomposed strategies (SDF and SDF16): LS fused into
    /// the `Q·Kᵀ` epilogue, GS into the `P·V` prologue.
    pub fn is_recomposed(self) -> bool {
        matches!(
            self,
            SoftmaxStrategy::Recomposed | SoftmaxStrategy::RecomposedFp16
        )
    }

    /// The format Local Softmax accumulates its partial sums in: binary16
    /// under SDF16 only.
    pub(crate) fn ls_accum(self) -> AccumFormat {
        if self == SoftmaxStrategy::RecomposedFp16 {
            AccumFormat::Fp16
        } else {
            AccumFormat::Fp32
        }
    }

    /// The analyzer's view of the strategy. SDF16 is structurally SDF; only
    /// the accumulation-format metadata differs, and the numerics pass reads
    /// that off the kernels themselves.
    pub(crate) fn kind(self) -> StrategyKind {
        match self {
            SoftmaxStrategy::Baseline => StrategyKind::Baseline,
            SoftmaxStrategy::Decomposed => StrategyKind::Decomposed,
            SoftmaxStrategy::Recomposed | SoftmaxStrategy::RecomposedFp16 => {
                StrategyKind::Recomposed
            }
            SoftmaxStrategy::OnlineFused => StrategyKind::OnlineFused,
        }
    }

    /// The certified worst-case error of this strategy's softmax over rows
    /// of `ctx` elements split into `t`-wide sub-vectors: the one table
    /// [`static_error_bound`] and
    /// [`decode_error_bound`](crate::decode_error_bound) read.
    pub fn certified_bound(self, ctx: usize, t: usize) -> ErrorBound {
        match self {
            SoftmaxStrategy::Baseline => error_model::monolithic(ctx, AccumFormat::Fp32),
            SoftmaxStrategy::Decomposed
            | SoftmaxStrategy::Recomposed
            | SoftmaxStrategy::RecomposedFp16 => {
                error_model::decomposed(ctx, t, self.ls_accum(), AccumFormat::Fp32)
            }
            SoftmaxStrategy::OnlineFused => error_model::online(ctx, t, AccumFormat::Fp32),
        }
    }
}

/// Parameters of one inference run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunParams {
    /// Sequence length `L`.
    pub seq_len: usize,
    /// Batch size.
    pub batch: usize,
    /// Softmax configuration.
    pub strategy: SoftmaxStrategy,
    /// Library schedule profile.
    pub profile: LibraryProfile,
    /// MatMul tile (its width is the LS sub-vector length `T`).
    pub tile: TileConfig,
    /// Overrides the declared parallel split of every standalone Local
    /// Softmax kernel (`None` keeps the generators' defaults). This is a
    /// schedule *annotation*, not a cost knob: the static analyzer rejects
    /// any override that crosses the category's reduction axis, which is how
    /// the autotuner prunes illegal points of its `ParallelSplit` dimension.
    pub ls_split: Option<ParallelSplit>,
}

impl RunParams {
    /// Baseline run at the paper's default setup (batch 1, 64-wide tiles,
    /// the paper's own baseline library profile).
    pub fn new(seq_len: usize) -> Self {
        RunParams {
            seq_len,
            batch: 1,
            strategy: SoftmaxStrategy::Baseline,
            profile: LibraryProfile::ours_baseline(),
            tile: TileConfig::default(),
            ls_split: None,
        }
    }

    /// Sets the strategy (builder style).
    pub fn strategy(mut self, strategy: SoftmaxStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the batch size.
    pub fn batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Sets the library profile.
    pub fn profile(mut self, profile: LibraryProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Sets the MatMul tile (tile width = the LS sub-vector length `T`).
    pub fn tile(mut self, tile: TileConfig) -> Self {
        self.tile = tile;
        self
    }

    /// Sets the Local-Softmax parallel-split override.
    pub fn ls_split(mut self, split: Option<ParallelSplit>) -> Self {
        self.ls_split = split;
        self
    }
}

impl Default for RunParams {
    /// The paper's default operating point: `L = 4096`, batch 1, monolithic
    /// softmax, 64×64 tiles, the paper's own baseline library profile. This
    /// is the reference configuration the autotuner reports speedups
    /// against (`RunParams { seq_len, batch, ..RunParams::default() }`
    /// re-anchors it to another workload).
    fn default() -> Self {
        RunParams::new(4096)
    }
}

/// Multiplies every per-block work figure of a kernel by `factor`
/// (implementation-efficiency modeling for library profiles).
fn scale_work(desc: &mut KernelDesc, factor: f64) {
    if factor == 1.0 {
        return;
    }
    let scale_one = |w: &mut resoftmax_gpusim::TbWork| {
        w.cuda_flops *= factor;
        w.tensor_flops *= factor;
        w.dram_read_bytes *= factor;
        w.dram_write_bytes *= factor;
    };
    match &mut desc.tbs {
        TbSet::Uniform { work, .. } => scale_one(work),
        TbSet::PerTb(v) => v.iter_mut().for_each(scale_one),
        TbSet::Grouped(v) => v.iter_mut().for_each(|g| scale_one(&mut g.work)),
    }
}

/// Whether `model`'s attention runs on block-sparse kernels under `profile`:
/// sparse models do, unless the profile falls back to dense kernels.
pub(crate) fn uses_sparse_kernels(model: &ModelConfig, profile: &LibraryProfile) -> bool {
    model.attention.is_sparse() && !matches!(profile.sparse_support, SparseSupport::DenseFallback)
}

/// Builds the complete kernel schedule of one inference iteration: the
/// embedding kernel, then layer 0, which runs `model.layers` times, each
/// copy with every buffer id's layer advanced by one. The cost builders run
/// for layer 0 only; [`Schedule::expand`] gives the flat kernels.
///
/// # Panics
///
/// Panics if the tile height or width is zero, if `seq_len` is
/// incompatible with the model's sparse block size, or if the tile width
/// does not divide the sequence length.
pub fn build_schedule(model: &ModelConfig, params: &RunParams) -> Schedule {
    build_schedule_on(model, params, sparse_layout(model, params).as_ref())
}

/// Builds the schedule of one inference iteration and statically analyzes
/// it: the same schedule as [`build_schedule`] and the same report as
/// [`check_schedule`] on it, with the sparse layout both read built once.
///
/// # Panics
///
/// As [`build_schedule`].
pub fn build_and_check_schedule(
    model: &ModelConfig,
    params: &RunParams,
) -> (Schedule, resoftmax_analyzer::Report) {
    let layout = sparse_layout(model, params);
    let schedule = prefill_schedule(model, params, layout.as_ref());
    let report = analyze_periodic(&prefill_spec(model, params, layout.as_ref()), &schedule);
    (schedule, report)
}

/// The block layout `(model, params)`'s attention kernels are built on:
/// `Some` where [`uses_sparse_kernels`] holds.
pub(crate) fn sparse_layout(model: &ModelConfig, params: &RunParams) -> Option<BlockLayout> {
    uses_sparse_kernels(model, &params.profile).then(|| model.attention.layout(params.seq_len))
}

/// [`build_schedule`] on a sparse layout the caller built once for the whole
/// schedule: `model.attention.layout(params.seq_len)` where
/// [`uses_sparse_kernels`] holds, else `None`.
pub(crate) fn build_schedule_on(
    model: &ModelConfig,
    params: &RunParams,
    layout: Option<&BlockLayout>,
) -> Schedule {
    let schedule = prefill_schedule(model, params, layout);
    // Debug builds statically verify every schedule they hand out: fusion
    // legality, buffer dataflow, and traffic conservation (release builds
    // skip the pass; the `resoftmax-bench analyze` subcommand covers CI).
    #[cfg(debug_assertions)]
    {
        let report = analyze_periodic(&prefill_spec(model, params, layout), &schedule);
        debug_assert!(
            !report.has_errors(),
            "build_schedule produced a schedule that fails static analysis:\n{}",
            report.render()
        );
    }
    schedule
}

/// The embedding kernel and prefill layer 0 of `(model, params)` on
/// `layout`, layer 0 running `model.layers` times.
fn prefill_schedule(
    model: &ModelConfig,
    params: &RunParams,
    layout: Option<&BlockLayout>,
) -> Schedule {
    assert!(
        params.tile.m > 0 && params.tile.n > 0,
        "prefill tile height and width must be nonzero, got {}x{}",
        params.tile.m,
        params.tile.n
    );
    let rows = params.seq_len * params.batch;
    // Embedding lookup feeding layer 0 (constant-cost glue, category etc.).
    let embedding = common::elementwise(
        (rows * model.d_model) as u64,
        1.0,
        1,
        KernelCategory::Other,
        "embedding",
        &[Scope::Global.id("tokens")],
        Scope::layer(0).id("x"),
    );
    let mut layer = Vec::new();
    prefill_layer(model, params, layout, 0, &mut layer);
    let schedule = Schedule::new(vec![embedding], layer, model.layers);
    #[cfg(debug_assertions)]
    assert_layer_copies(&schedule, |l, kernels| {
        prefill_layer(model, params, layout, l, kernels);
    });
    schedule
}

/// Debug builds' check of the premise of the layered form: each layer of
/// `schedule`'s expansion, layer 0 with its ids advanced, is what `emit`
/// pushes for that layer. It holds because a builder's layer `l + 1` is
/// its layer `l` renamed: its ids are all in scope `l{l}` (the closing
/// LayerNorm writes `l{l+1}.x`) and nothing else in a kernel depends on the
/// layer index.
#[cfg(debug_assertions)]
pub(crate) fn assert_layer_copies(schedule: &Schedule, emit: impl Fn(usize, &mut Vec<KernelDesc>)) {
    let per_layer = schedule.layer().len().max(1);
    let kernels = schedule.expand();
    for (l, copy) in kernels[schedule.prologue().len()..]
        .chunks(per_layer)
        .enumerate()
    {
        let mut built = Vec::with_capacity(per_layer);
        emit(l, &mut built);
        assert!(
            built == copy,
            "layer {l} copied from layer 0 differs from the layer its builder emits"
        );
    }
}

/// Emits prefill layer `layer` of `(model, params)` on `layout` as the cost
/// builders make it, with the library's efficiency overheads and the
/// [`RunParams::ls_split`] override applied.
pub(crate) fn prefill_layer(
    model: &ModelConfig,
    params: &RunParams,
    layout: Option<&BlockLayout>,
    layer: usize,
    kernels: &mut Vec<KernelDesc>,
) {
    let start = kernels.len();
    let profile = &params.profile;
    let scope = Scope::layer(layer);
    build_layer(
        model.d_model,
        model.d_ff,
        params.seq_len * params.batch,
        profile.separate_elementwise,
        scope,
        Scope::layer(layer + 1).id("x"),
        kernels,
        |kernels| build_attention(model, params, layout, scope, kernels),
    );
    // Library efficiency overheads.
    let built = &mut kernels[start..];
    for k in built.iter_mut() {
        let factor = match k.category {
            c if c.is_softmax_family() => profile.softmax_overhead,
            KernelCategory::MatMulQk
            | KernelCategory::MatMulPv
            | KernelCategory::Fc
            | KernelCategory::FeedForward => profile.matmul_overhead,
            _ => 1.0,
        };
        scale_work(k, factor);
    }
    apply_ls_split(params, built);
}

/// Applies the [`RunParams::ls_split`] override to every standalone Local
/// Softmax kernel of a built layer (dense `local_softmax` and the
/// block-sparse `bs_local_softmax`). A declared split the analyzer's
/// parallel rule rejects (e.g. `ReductionAxis`) makes the schedule fail
/// [`check_schedule`] — intentionally: that is the pruning signal the
/// autotuner's `ParallelSplit` search dimension relies on. Callers that
/// build schedules directly in debug builds should therefore validate the
/// override first (see `resoftmax-tune`'s precheck).
pub(crate) fn apply_ls_split(params: &RunParams, kernels: &mut [KernelDesc]) {
    let Some(split) = params.ls_split else { return };
    for k in kernels {
        if k.category == KernelCategory::LocalSoftmax {
            k.meta.split = Some(split);
        }
    }
}

/// Statically analyzes a schedule against the spec implied by
/// `(model, params)` ([`analysis_spec`]), returning the full diagnostic
/// report: [`resoftmax_analyzer::analyze_certified`]'s on the expanded
/// schedule. A schedule of `model.layers` layers is analyzed from its first
/// two ([`resoftmax_analyzer::analyze_periodic`]), any other over every
/// kernel.
pub fn check_schedule(
    model: &ModelConfig,
    params: &RunParams,
    schedule: &Schedule,
) -> resoftmax_analyzer::Report {
    analyze_periodic(&analysis_spec(model, params), schedule)
}

/// The analyzer's description of `(model, params)`: the exact dimensions,
/// strategy, overheads and sparse layout that [`build_schedule`] bakes
/// into its kernels. [`check_schedule`] analyzes against it.
pub fn analysis_spec(model: &ModelConfig, params: &RunParams) -> ScheduleSpec {
    prefill_spec(model, params, sparse_layout(model, params).as_ref())
}

/// [`analysis_spec`] on the sparse layout the schedule was built on, as
/// [`build_schedule_on`] takes it.
fn prefill_spec(
    model: &ModelConfig,
    params: &RunParams,
    layout: Option<&BlockLayout>,
) -> ScheduleSpec {
    let profile = &params.profile;
    let sparse = layout.map(|layout| SparseSpec {
        block: layout.block(),
        n_blocks: layout.n_blocks(),
        nnz_blocks: layout.nnz_blocks(),
        row_counts: layout.row_counts(),
    });
    let attention_overhead = match (sparse.is_some(), profile.sparse_support) {
        (true, SparseSupport::GatherBased) => GATHER_PENALTY,
        _ => 1.0,
    };
    ScheduleSpec {
        seq_len: params.seq_len,
        batch: params.batch,
        heads: model.heads,
        d_model: model.d_model,
        d_ff: model.d_ff,
        layers: model.layers,
        strategy: params.strategy.kind(),
        tile_m: params.tile.m,
        tile_n: params.tile.n,
        softmax_overhead: profile.softmax_overhead,
        matmul_overhead: profile.matmul_overhead,
        attention_overhead,
        separate_scale_mask: profile.separate_scale_mask,
        separate_elementwise: profile.separate_elementwise,
        sparse,
        decode: None,
    }
}

/// The certified numeric error bound the analyzer's numerics pass will
/// attach to the schedule `(model, params)` *would* build — computed
/// statically, without building it.
///
/// This is the form the autotuner's numerics gate and [`crate::Session`]
/// validation use: [`build_schedule`] debug-asserts its own analysis, so an
/// uncertifiable combination must be rejected *before* a schedule exists
/// (the same reasoning as `check_ls_split`). Returns `None` where the
/// numerics pass does not apply: actually-sparse schedules (no bound is
/// claimed for block-sparse kernels) and zero-length sequences.
///
/// The bound agrees exactly with what
/// [`resoftmax_analyzer::analyze_certified`] reports on the built schedule;
/// a test pins that correspondence across strategies and tiles.
pub fn static_error_bound(model: &ModelConfig, params: &RunParams) -> Option<ErrorBound> {
    if uses_sparse_kernels(model, &params.profile) || params.seq_len == 0 {
        return None;
    }
    Some(
        params
            .strategy
            .certified_bound(params.seq_len, params.tile.n),
    )
}

/// Emits one transformer layer over `rows` token rows: the QKV projections
/// of `scope`'s `x`, the SDA block `attention` emits, the output projection
/// and LayerNorm, the FeedForward block, and the closing LayerNorm that
/// writes `next_x`. With `separate_elementwise`, bias, GeLU and the
/// residual adds run as standalone kernels (HuggingFace-style) instead of
/// in the MatMul epilogues.
pub(crate) fn build_layer(
    d_model: usize,
    d_ff: usize,
    rows: usize,
    separate_elementwise: bool,
    scope: Scope,
    next_x: BufferId,
    kernels: &mut Vec<KernelDesc>,
    attention: impl FnOnce(&mut Vec<KernelDesc>),
) {
    let fused_elementwise = !separate_elementwise;

    // QKV projections.
    for out in ["q", "k", "v"] {
        kernels.push(common::fc(
            rows,
            d_model,
            d_model,
            KernelCategory::Fc,
            scope.id("x"),
            scope.id(out),
            fused_elementwise,
        ));
        if separate_elementwise {
            kernels.push(common::elementwise(
                (rows * d_model) as u64,
                1.0,
                1,
                KernelCategory::Other,
                &format!("bias_{out}"),
                &[scope.id(out)],
                scope.id(out),
            ));
        }
    }

    // The SDA block.
    attention(kernels);

    // Output projection + residual + LayerNorm.
    kernels.push(common::fc(
        rows,
        d_model,
        d_model,
        KernelCategory::Fc,
        scope.id("attn_out"),
        scope.id("proj"),
        fused_elementwise,
    ));
    if separate_elementwise {
        kernels.push(common::elementwise(
            (rows * d_model) as u64,
            1.0,
            2,
            KernelCategory::Other,
            "residual1",
            &[scope.id("proj"), scope.id("x")],
            scope.id("proj"),
        ));
    }
    kernels.push(common::layernorm(
        rows,
        d_model,
        scope.id("proj"),
        scope.id("ln1"),
    ));

    // FeedForward block.
    kernels.push(common::fc(
        rows,
        d_model,
        d_ff,
        KernelCategory::FeedForward,
        scope.id("ln1"),
        scope.id("ff1"),
        fused_elementwise,
    ));
    if separate_elementwise {
        kernels.push(common::elementwise(
            (rows * d_ff) as u64,
            17.0, // bias + GeLU at SFU cost
            1,
            KernelCategory::Activation,
            "gelu",
            &[scope.id("ff1")],
            scope.id("ff1"),
        ));
    }
    kernels.push(common::fc(
        rows,
        d_ff,
        d_model,
        KernelCategory::FeedForward,
        scope.id("ff1"),
        scope.id("ff2"),
        false,
    ));
    if separate_elementwise {
        kernels.push(common::elementwise(
            (rows * d_model) as u64,
            1.0,
            2,
            KernelCategory::Other,
            "residual2",
            &[scope.id("ff2"), scope.id("ln1")],
            scope.id("ff2"),
        ));
    }
    // Final LayerNorm hands the activation to the next layer.
    kernels.push(common::layernorm(rows, d_model, scope.id("ff2"), next_x));
}

/// Emits one layer's SDA block: on `layout`'s block-sparse kernels when it is
/// given, else on the dense kernels.
fn build_attention(
    model: &ModelConfig,
    params: &RunParams,
    layout: Option<&BlockLayout>,
    scope: Scope,
    kernels: &mut Vec<KernelDesc>,
) {
    let dims = AttnDims::new(params.seq_len, model.d_head(), model.heads, params.batch);
    let profile = &params.profile;

    if let Some(layout) = layout {
        // Gather-based implementations move the data an extra time around
        // every attention kernel.
        let gather_penalty = match profile.sparse_support {
            SparseSupport::GatherBased => GATHER_PENALTY,
            _ => 1.0,
        };
        let strategy = params.strategy;
        // No certified bound exists for block-sparse kernels, so SDF16 is
        // undefined there; `Session` rejects the combination with a typed
        // error before reaching the builder.
        assert!(
            strategy.ls_accum() == AccumFormat::Fp32,
            "fp16-accumulation recomposed softmax (SDF16) has no \
             block-sparse implementation; use a dense-fallback \
             profile or an fp32-accumulation strategy"
        );
        let start = kernels.len();
        if strategy == SoftmaxStrategy::OnlineFused {
            kernels.push(sparse::bs_fused_mha_online(layout, &dims, scope));
        } else {
            let (epilogue, prologue) = if strategy.is_recomposed() {
                (
                    sparse::BsQkEpilogue::ScaleMaskLocalSoftmax,
                    sparse::BsPvPrologue::GlobalScaling,
                )
            } else {
                (sparse::BsQkEpilogue::ScaleMask, sparse::BsPvPrologue::None)
            };
            kernels.push(sparse::bs_matmul_qk(layout, &dims, scope, epilogue));
            match strategy {
                SoftmaxStrategy::Baseline => {
                    kernels.push(sparse::bs_softmax_baseline(layout, &dims, scope));
                }
                SoftmaxStrategy::Decomposed => kernels.extend([
                    sparse::bs_local_softmax(layout, &dims, scope),
                    sparse::bs_inter_reduction(layout, &dims, scope),
                    sparse::bs_global_scaling(layout, &dims, scope),
                ]),
                _ => kernels.push(sparse::bs_inter_reduction(layout, &dims, scope)),
            }
            kernels.push(sparse::bs_matmul_pv(layout, &dims, scope, prologue));
        }
        for k in &mut kernels[start..] {
            scale_work(k, gather_penalty);
        }
        return;
    }

    // Dense path (dense models, and sparse models under a dense fallback).
    dense_attention(
        &dims,
        params.strategy,
        params.tile,
        profile.separate_scale_mask,
        scope,
        kernels,
    );
}

/// Emits one dense SDA block over `dims`: the strategy's Fig. 6 kernel
/// chain (see the module docs), for square and rectangular (cross-)
/// attention alike. Prefill and all three seq2seq attention sites build
/// their dense blocks here.
///
/// With `separate_scale_mask` (HuggingFace-style) the `Q·Kᵀ` MatMul writes
/// raw scores and scale and mask run standalone; LS then cannot ride its
/// epilogue, so the recomposed strategies run LS standalone too, in their
/// declared accumulation format.
pub(crate) fn dense_attention(
    dims: &AttnDims,
    strategy: SoftmaxStrategy,
    tile: TileConfig,
    separate_scale_mask: bool,
    scope: Scope,
    kernels: &mut Vec<KernelDesc>,
) {
    let t = tile.n;
    if strategy == SoftmaxStrategy::OnlineFused {
        kernels.push(dense::fused_mha_online(dims, tile, scope));
        return;
    }
    let recomposed = strategy.is_recomposed();
    let epilogue = match (separate_scale_mask, recomposed) {
        (true, _) => dense::QkEpilogue::None,
        (false, false) => dense::QkEpilogue::ScaleMask,
        (false, true) => match strategy.ls_accum() {
            AccumFormat::Fp32 => dense::QkEpilogue::ScaleMaskLocalSoftmax,
            AccumFormat::Fp16 => dense::QkEpilogue::ScaleMaskLocalSoftmaxF16Acc,
        },
    };
    kernels.push(dense::matmul_qk(dims, tile, scope, epilogue));
    if separate_scale_mask {
        let elems = dims.attn_bytes() / 2;
        kernels.push(common::elementwise(
            elems,
            1.0,
            1,
            KernelCategory::Scale,
            "scale",
            &[scope.id("scores")],
            scope.id("scores"),
        ));
        kernels.push(common::elementwise(
            elems,
            1.0,
            2,
            KernelCategory::Mask,
            "mask",
            &[scope.id("scores")],
            scope.id("scores"),
        ));
    }
    if strategy == SoftmaxStrategy::Baseline {
        kernels.push(dense::softmax_monolithic(dims, scope, "scores"));
    } else {
        if !epilogue.fuses_ls() {
            kernels.push(dense::local_softmax_accum(
                dims,
                t,
                scope,
                "scores",
                strategy.ls_accum(),
            ));
        }
        kernels.push(dense::inter_reduction(dims, t, scope));
        if !recomposed {
            kernels.push(dense::global_scaling(dims, t, scope));
        }
    }
    let prologue = if recomposed {
        dense::PvPrologue::GlobalScaling
    } else {
        dense::PvPrologue::None
    };
    kernels.push(dense::matmul_pv(dims, tile, scope, prologue));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bert() -> ModelConfig {
        ModelConfig::bert_large()
    }

    #[test]
    fn baseline_schedule_shape() {
        let ks = build_schedule(&bert(), &RunParams::new(4096)).expand();
        // 1 embedding + 24 × (3 fc + 3 attn + 1 fc + ln + 2 ff + ln) = 1 + 24·11
        assert_eq!(ks.len(), 1 + 24 * 11);
        assert!(ks.iter().any(|k| k.category == KernelCategory::Softmax));
        assert!(!ks
            .iter()
            .any(|k| k.category == KernelCategory::LocalSoftmax));
    }

    #[test]
    fn recomposed_removes_standalone_softmax() {
        let ks = build_schedule(
            &bert(),
            &RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
        )
        .expand();
        assert!(!ks.iter().any(|k| k.category == KernelCategory::Softmax));
        assert!(ks
            .iter()
            .any(|k| k.category == KernelCategory::InterReduction));
        // 11 - softmax + ir = still 11 per layer
        assert_eq!(ks.len(), 1 + 24 * 11);
        // LS is fused: the QK kernel writes x'
        let qk = ks
            .iter()
            .find(|k| k.category == KernelCategory::MatMulQk)
            .unwrap();
        assert!(qk.writes.iter().any(|b| b.id.is("x_prime")));
    }

    #[test]
    fn decomposed_adds_three_kernels() {
        let base = build_schedule(&bert(), &RunParams::new(4096));
        let sd = build_schedule(
            &bert(),
            &RunParams::new(4096).strategy(SoftmaxStrategy::Decomposed),
        );
        assert_eq!(sd.len(), base.len() + 24 * 2); // softmax -> ls+ir+gs
    }

    #[test]
    fn sparse_model_uses_block_sparse_kernels() {
        let ks = build_schedule(&ModelConfig::bigbird_large(), &RunParams::new(4096)).expand();
        let qk = ks
            .iter()
            .find(|k| k.category == KernelCategory::MatMulQk)
            .unwrap();
        assert!(qk.name.starts_with("bs_"), "{}", qk.name);
    }

    /// Building and checking with one layout gives the schedule and the
    /// report `build_schedule` and `check_schedule` give apart, on every
    /// sparse model, strategy and Fig. 7 library profile.
    #[test]
    fn build_and_check_matches_build_then_check() {
        let mut checked = 0;
        for model in [
            ModelConfig::bigbird_large(),
            ModelConfig::longformer_large(),
            ModelConfig::sparse_transformer(),
        ] {
            for strategy in [
                SoftmaxStrategy::Baseline,
                SoftmaxStrategy::Decomposed,
                SoftmaxStrategy::Recomposed,
                SoftmaxStrategy::RecomposedFp16,
                SoftmaxStrategy::OnlineFused,
            ] {
                for profile in LibraryProfile::fig7_lineup() {
                    let params = RunParams::new(1024)
                        .strategy(strategy)
                        .tile(TileConfig::new(64, 16))
                        .profile(profile);
                    // SDF16 has no block-sparse implementation.
                    if crate::validate_prefill(&model, &params).is_err() {
                        continue;
                    }
                    let kernels = build_schedule(&model, &params);
                    let report = check_schedule(&model, &params, &kernels);
                    assert_eq!(
                        build_and_check_schedule(&model, &params),
                        (kernels, report),
                        "{} {strategy:?} {}",
                        model.name,
                        params.profile.name
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked >= 40, "{checked} combinations checked");
    }

    #[test]
    fn dense_fallback_ignores_sparsity() {
        let params = RunParams::new(4096).profile(LibraryProfile::tensorrt());
        let ks = build_schedule(&ModelConfig::bigbird_large(), &params).expand();
        let qk = ks
            .iter()
            .find(|k| k.category == KernelCategory::MatMulQk)
            .unwrap();
        assert!(!qk.name.starts_with("bs_"), "{}", qk.name);
    }

    #[test]
    fn huggingface_profile_adds_elementwise_kernels() {
        let hg = build_schedule(
            &bert(),
            &RunParams::new(4096).profile(LibraryProfile::huggingface()),
        )
        .expand();
        let ours = build_schedule(&bert(), &RunParams::new(4096));
        assert!(hg.len() > ours.len());
        assert!(hg.iter().any(|k| k.category == KernelCategory::Scale));
        assert!(hg.iter().any(|k| k.category == KernelCategory::Mask));
        assert!(hg.iter().any(|k| k.category == KernelCategory::Activation));
    }

    #[test]
    fn overheads_scale_work() {
        let ours = build_schedule(&bert(), &RunParams::new(4096)).expand();
        let tvm = build_schedule(
            &bert(),
            &RunParams::new(4096).profile(LibraryProfile::autotvm()),
        )
        .expand();
        let flops = |ks: &[KernelDesc]| -> f64 { ks.iter().map(KernelDesc::total_flops).sum() };
        assert!(flops(&tvm) > 1.3 * flops(&ours));
    }

    #[test]
    fn batch_scales_grid() {
        let b1 = build_schedule(&bert(), &RunParams::new(4096)).expand();
        let b8 = build_schedule(&bert(), &RunParams::new(4096).batch(8)).expand();
        let tbs = |ks: &[KernelDesc]| -> u64 { ks.iter().map(|k| k.tbs.count()).sum() };
        let r = tbs(&b8) as f64 / tbs(&b1) as f64;
        assert!(r > 7.0 && r < 9.0, "batch-8 grid ratio {r}");
    }

    #[test]
    fn recomposed_fp16_mirrors_recomposed_and_declares_its_format() {
        let params = RunParams::new(4096)
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .tile(TileConfig::new(64, 16));
        let ks = build_schedule(&bert(), &params).expand();
        // Same shape as SDF: no standalone softmax, IR present.
        assert!(!ks.iter().any(|k| k.category == KernelCategory::Softmax));
        assert!(ks
            .iter()
            .any(|k| k.category == KernelCategory::InterReduction));
        assert_eq!(ks.len(), 1 + 24 * 11);
        // The fused QK kernel declares binary16 accumulation.
        let qk = ks
            .iter()
            .find(|k| k.category == KernelCategory::MatMulQk)
            .unwrap();
        assert_eq!(qk.meta.accum, Some(AccumFormat::Fp16));
        assert!(qk.name.contains("ls16"), "{}", qk.name);
        // The separate-scale-mask degenerate path keeps the format on the
        // standalone LS kernel instead.
        let hf = params.clone().profile(LibraryProfile::huggingface());
        let ks = build_schedule(&bert(), &hf).expand();
        let ls = ks
            .iter()
            .find(|k| k.category == KernelCategory::LocalSoftmax)
            .unwrap();
        assert_eq!(ls.meta.accum, Some(AccumFormat::Fp16));
    }

    #[test]
    fn static_bound_matches_certified_bound_across_strategies() {
        for (strategy, tile_n) in [
            (SoftmaxStrategy::Baseline, 64),
            (SoftmaxStrategy::Decomposed, 64),
            (SoftmaxStrategy::Recomposed, 64),
            (SoftmaxStrategy::RecomposedFp16, 16),
            (SoftmaxStrategy::OnlineFused, 64),
        ] {
            let params = RunParams::new(2048)
                .strategy(strategy)
                .tile(TileConfig::new(64, tile_n));
            let ks = build_schedule(&bert(), &params);
            let report = check_schedule(&bert(), &params, &ks);
            let stat = static_error_bound(&bert(), &params);
            assert!(stat.is_some(), "{}", strategy.label());
            assert_eq!(report.error_bound, stat, "{}", strategy.label());
        }
        // Sparse schedules carry no certified bound, statically or otherwise.
        let sparse = ModelConfig::bigbird_large();
        assert_eq!(static_error_bound(&sparse, &RunParams::new(4096)), None);
    }

    #[test]
    fn fp16_recomposition_uncertifiable_at_wide_tiles() {
        let params = RunParams::new(4096)
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .tile(TileConfig::new(64, 64));
        let bound = static_error_bound(&bert(), &params).unwrap();
        assert!(!bound.certifies(resoftmax_analyzer::CERT_BUDGET_REL));
        // ...while the paper-default fp32 SDF at the same point certifies.
        let fp32 = params.strategy(SoftmaxStrategy::Recomposed);
        let bound = static_error_bound(&bert(), &fp32).unwrap();
        assert!(bound.certifies(resoftmax_analyzer::CERT_BUDGET_REL));
    }

    #[test]
    #[should_panic(expected = "block-sparse")]
    fn fp16_recomposition_panics_on_sparse_schedules() {
        let params = RunParams::new(4096)
            .strategy(SoftmaxStrategy::RecomposedFp16)
            .tile(TileConfig::new(64, 16));
        let _ = build_schedule(&ModelConfig::bigbird_large(), &params);
    }

    #[test]
    #[should_panic(expected = "prefill tile height and width must be nonzero, got 0x64")]
    fn zero_tile_height_rejected() {
        let params = RunParams::new(512).tile(TileConfig { m: 0, n: 64 });
        let _ = build_schedule(&bert(), &params);
    }

    #[test]
    #[should_panic(expected = "prefill tile height and width must be nonzero, got 64x0")]
    fn zero_tile_width_rejected() {
        let params = RunParams::new(512).tile(TileConfig { m: 64, n: 0 });
        let _ = build_schedule(&bert(), &params);
    }

    /// A full-sequence schedule is the embedding kernel and then
    /// `model.layers` copies of layer 0, each with every buffer id's layer
    /// advanced by one. The first, a middle and the last copy must be what
    /// the cost builders emit for that layer, on every model, strategy and
    /// Fig. 7 library profile: the premise of the layered form, which debug
    /// builds also assert on every build.
    #[test]
    fn prefill_layers_are_shifted_copies() {
        let mut models = ModelConfig::all_eval_models();
        models.push(ModelConfig::bert_base());
        models.push(ModelConfig::sparse_transformer());
        let strategies = [
            SoftmaxStrategy::Baseline,
            SoftmaxStrategy::Decomposed,
            SoftmaxStrategy::Recomposed,
            SoftmaxStrategy::RecomposedFp16,
            SoftmaxStrategy::OnlineFused,
        ];
        let mut checked = 0;
        for model in &models {
            for strategy in strategies {
                for profile in LibraryProfile::fig7_lineup() {
                    for ls_split in [None, Some(ParallelSplit::RowSegments)] {
                        let params = RunParams::new(512)
                            .strategy(strategy)
                            .tile(TileConfig::new(64, 16))
                            .profile(profile.clone())
                            .ls_split(ls_split);
                        // SDF16 has no block-sparse implementation.
                        if crate::validate_prefill(model, &params).is_err() {
                            continue;
                        }
                        let schedule = build_schedule(model, &params);
                        assert_eq!(schedule.layers(), model.layers);
                        assert_eq!(schedule.prologue()[0].name, "embedding");
                        let per_layer = schedule.layer().len();
                        let flat = schedule.expand();
                        let layout = sparse_layout(model, &params);
                        for l in [0, model.layers / 2, model.layers - 1] {
                            let mut built = Vec::new();
                            prefill_layer(model, &params, layout.as_ref(), l, &mut built);
                            assert_eq!(
                                flat[1 + l * per_layer..][..per_layer],
                                built,
                                "{} {strategy:?} {} {ls_split:?} layer {l}",
                                model.name,
                                profile.name
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 200, "{checked} schedules checked");
    }

    #[test]
    fn buffer_chain_links_layers() {
        let ks = build_schedule(&bert(), &RunParams::new(512)).expand();
        // the embedding writes l0.x, layer 0's QKV FCs read it
        assert!(ks[0].writes.iter().any(|b| b.id == "l0.x"));
        assert!(ks[1].reads.iter().any(|b| b.id == "l0.x"));
        // layer 0's last layernorm writes l1.x
        assert!(ks.iter().any(|k| k.writes.iter().any(|b| b.id == "l1.x")));
    }
}
