//! Kernel descriptions: the interface between kernel implementations
//! (`resoftmax-kernels`) and the execution model.
//!
//! A [`KernelDesc`] captures exactly what the performance model needs:
//! how many thread blocks, what resources each occupies (for the occupancy
//! calculation), how much work each performs on each hardware resource
//! (CUDA cores, tensor cores, DRAM), and which named buffers the kernel
//! touches (for the L2 residency model).

use serde::{Deserialize, Serialize};

/// Classification of a kernel for the paper's breakdown figures.
///
/// Fig. 2 groups time into MatMul-in-SDA / Softmax / FC / FeedForward / etc.;
/// Fig. 5 needs the decomposed softmax sub-layers separated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum KernelCategory {
    /// `Q·Kᵀ` attention-score MatMul inside the SDA block.
    MatMulQk,
    /// `P·V` attention-context MatMul inside the SDA block.
    MatMulPv,
    /// Monolithic (row-per-TB) softmax.
    Softmax,
    /// Decomposed softmax sub-layer: local softmax (LS).
    LocalSoftmax,
    /// Decomposed softmax sub-layer: inter-sub-vector reduction (IR).
    InterReduction,
    /// Decomposed softmax sub-layer: global scaling (GS).
    GlobalScaling,
    /// Fully connected layers of the MHA block (QKV projections + output).
    Fc,
    /// FeedForward block MatMuls.
    FeedForward,
    /// Elementwise scale (`1/√D_head`).
    Scale,
    /// Elementwise attention masking.
    Mask,
    /// Layer normalization.
    LayerNorm,
    /// Activation functions (GeLU / ReLU).
    Activation,
    /// A fully fused attention kernel (online-softmax / FlashAttention
    /// style): `Q·Kᵀ`, softmax and `P·V` in one launch.
    FusedAttention,
    /// Residual additions, bias adds, reshapes and other glue.
    Other,
}

impl KernelCategory {
    /// `true` for the categories that constitute the SDA block.
    pub fn in_sda(self) -> bool {
        matches!(
            self,
            KernelCategory::MatMulQk
                | KernelCategory::MatMulPv
                | KernelCategory::Softmax
                | KernelCategory::LocalSoftmax
                | KernelCategory::InterReduction
                | KernelCategory::GlobalScaling
                | KernelCategory::Scale
                | KernelCategory::Mask
                | KernelCategory::FusedAttention
        )
    }

    /// `true` for the softmax layer and its decomposed sub-layers.
    pub fn is_softmax_family(self) -> bool {
        matches!(
            self,
            KernelCategory::Softmax
                | KernelCategory::LocalSoftmax
                | KernelCategory::InterReduction
                | KernelCategory::GlobalScaling
        )
    }

    /// Display label used in reports (matches the paper's figure legends).
    pub fn label(self) -> &'static str {
        match self {
            KernelCategory::MatMulQk => "MatMul(QK)",
            KernelCategory::MatMulPv => "MatMul(PV)",
            KernelCategory::Softmax => "Softmax",
            KernelCategory::LocalSoftmax => "LS",
            KernelCategory::InterReduction => "IR",
            KernelCategory::GlobalScaling => "GS",
            KernelCategory::Fc => "FC",
            KernelCategory::FeedForward => "FeedForward",
            KernelCategory::Scale => "Scale",
            KernelCategory::Mask => "Mask",
            KernelCategory::LayerNorm => "LayerNorm",
            KernelCategory::Activation => "Activation",
            KernelCategory::FusedAttention => "FusedMHA",
            KernelCategory::Other => "etc.",
        }
    }
}

impl core::fmt::Display for KernelCategory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-thread-block resource footprint (identical for every TB of a kernel —
/// a real CUDA constraint the paper leans on in §5.1: the baseline sparse
/// softmax must size every TB for the worst-case row).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TbShape {
    /// Threads per block.
    pub threads: u32,
    /// Shared-memory bytes per block.
    pub shared_bytes: u32,
    /// Registers per thread.
    pub regs_per_thread: u32,
}

impl TbShape {
    /// Convenience constructor.
    pub fn new(threads: u32, shared_bytes: u32, regs_per_thread: u32) -> Self {
        TbShape {
            threads,
            shared_bytes,
            regs_per_thread,
        }
    }
}

/// Work performed by one thread block, per hardware resource.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TbWork {
    /// FP16 FLOPs executed on CUDA cores (exp, division, reductions, …).
    pub cuda_flops: f64,
    /// FP16 FLOPs executed on tensor cores (MMA).
    pub tensor_flops: f64,
    /// Bytes read from DRAM (before L2 filtering).
    pub dram_read_bytes: f64,
    /// Bytes written toward DRAM (before L2 filtering).
    pub dram_write_bytes: f64,
    /// Fraction of this TB's threads that actually issue memory instructions
    /// (< 1.0 when resources are allocated for a worst case that rarely
    /// occurs, e.g. the baseline sparse softmax, §5.1). Feeds the global
    /// bandwidth-utilization model.
    pub mem_active_fraction: f64,
    /// Achieved fraction of roofline rates for this block (≤ 1.0):
    /// implementation efficiency relative to peak — pipeline stalls, phase
    /// barriers, gather indirection. Scales compute and memory rates alike,
    /// independent of the machine-wide utilization model.
    pub efficiency: f64,
}

impl Default for TbWork {
    /// Zero work at full efficiency with all threads memory-active.
    fn default() -> Self {
        TbWork {
            cuda_flops: 0.0,
            tensor_flops: 0.0,
            dram_read_bytes: 0.0,
            dram_write_bytes: 0.0,
            mem_active_fraction: 1.0,
            efficiency: 1.0,
        }
    }
}

impl TbWork {
    /// A TB doing pure streaming memory work with all threads active.
    pub fn memory(read: f64, write: f64) -> Self {
        TbWork {
            dram_read_bytes: read,
            dram_write_bytes: write,
            ..Default::default()
        }
    }

    /// Total DRAM traffic of this TB.
    pub fn dram_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// A run of identical thread blocks inside a heterogeneous grid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TbGroup {
    /// Work per block in this group.
    pub work: TbWork,
    /// Number of identical blocks.
    pub count: u64,
}

impl TbGroup {
    /// Convenience constructor.
    pub fn new(work: TbWork, count: u64) -> Self {
        TbGroup { work, count }
    }
}

/// The set of thread blocks of one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TbSet {
    /// `count` identical blocks (dense kernels; simulated wave-analytically).
    Uniform {
        /// Number of thread blocks in the grid.
        count: u64,
        /// Work per block.
        work: TbWork,
    },
    /// Explicitly enumerated per-block work (block-sparse kernels with
    /// irregular rows; simulated with the event-driven fluid model to expose
    /// load imbalance).
    PerTb(Vec<TbWork>),
    /// Runs of identical blocks (e.g. one entry per block-sparse block-row,
    /// with `count` = rows per block-row × heads × batch). Semantically
    /// identical to the expanded [`TbSet::PerTb`], but simulated in
    /// O(groups) events instead of O(blocks).
    Grouped(Vec<TbGroup>),
}

impl TbSet {
    /// Number of thread blocks.
    pub fn count(&self) -> u64 {
        match self {
            TbSet::Uniform { count, .. } => *count,
            TbSet::PerTb(v) => v.len() as u64,
            TbSet::Grouped(v) => v.iter().map(|g| g.count).sum(),
        }
    }

    fn sum_over(&self, f: impl Fn(&TbWork) -> f64) -> f64 {
        match self {
            TbSet::Uniform { count, work } => *count as f64 * f(work),
            TbSet::PerTb(v) => v.iter().map(f).sum(),
            TbSet::Grouped(v) => v.iter().map(|g| g.count as f64 * f(&g.work)).sum(),
        }
    }

    /// Sum of DRAM bytes over all blocks (pre-L2).
    pub fn total_dram_bytes(&self) -> f64 {
        self.sum_over(TbWork::dram_bytes)
    }

    /// Sum of reads over all blocks (pre-L2).
    pub fn total_read_bytes(&self) -> f64 {
        self.sum_over(|w| w.dram_read_bytes)
    }

    /// Sum of writes over all blocks (pre-L2).
    pub fn total_write_bytes(&self) -> f64 {
        self.sum_over(|w| w.dram_write_bytes)
    }

    /// Sum of FLOPs (CUDA + tensor) over all blocks.
    pub fn total_flops(&self) -> f64 {
        self.sum_over(|w| w.cuda_flops + w.tensor_flops)
    }

    /// Sum of CUDA-core FLOPs over all blocks.
    pub fn total_cuda_flops(&self) -> f64 {
        self.sum_over(|w| w.cuda_flops)
    }

    /// Sum of tensor-core FLOPs over all blocks.
    pub fn total_tensor_flops(&self) -> f64 {
        self.sum_over(|w| w.tensor_flops)
    }
}

/// A named device buffer a kernel reads or writes, for L2 residency modeling.
///
/// Buffers are identified by string so producer and consumer kernels agree on
/// identity without shared ownership (e.g. `"attn/l3/h0"` or `"softmax/m'"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BufferUse {
    /// Stable buffer identity.
    pub id: String,
    /// Traffic volume: bytes of this buffer the kernel reads or writes,
    /// *including re-reads* (a `P·V` MatMul reads V once per row-tile).
    pub bytes: u64,
    /// Resident size of the buffer for cache-capacity purposes. Defaults to
    /// `bytes` in [`BufferUse::new`]; use [`BufferUse::with_footprint`] when
    /// traffic exceeds the buffer size.
    pub footprint: u64,
}

impl BufferUse {
    /// Buffer use where traffic equals the buffer size (touched once).
    pub fn new(id: impl Into<String>, bytes: u64) -> Self {
        BufferUse {
            id: id.into(),
            bytes,
            footprint: bytes,
        }
    }

    /// Buffer use with re-reads: `bytes` of traffic against a buffer whose
    /// resident size is `footprint`.
    pub fn with_footprint(id: impl Into<String>, bytes: u64, footprint: u64) -> Self {
        BufferUse {
            id: id.into(),
            bytes,
            footprint,
        }
    }
}

/// Structured metadata describing *how* a kernel's work was derived:
/// tiling, logical dimensions, and fusion decisions.
///
/// The cost generators populate this alongside the opaque work figures so
/// that downstream consumers (the static schedule analyzer in particular)
/// can re-derive the analytic traffic/shape formulas and cross-check them
/// against the declared [`TbSet`] and [`BufferUse`] numbers, instead of
/// parsing kernel names. Every field is optional; [`KernelMeta::default`]
/// (all `None`/`false`) means "no metadata" and is what hand-rolled
/// descriptions get.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct KernelMeta {
    /// Output-tile rows `m` of a MatMul-style kernel.
    pub tile_m: Option<usize>,
    /// Output-tile width `n` of a MatMul-style kernel (the paper's `T` when
    /// Local Softmax rides the epilogue).
    pub tile_n: Option<usize>,
    /// Softmax sub-vector length `T` governing the `m'`/`d'`/`r'`
    /// intermediates (LS/IR/GS kernels and fused epilogues/prologues).
    pub sub_vector: Option<usize>,
    /// Logical row count: `L` for attention kernels, the full row count for
    /// FC/LayerNorm kernels.
    pub rows: Option<usize>,
    /// Key/value-side length (attention-matrix columns).
    pub kv_len: Option<usize>,
    /// Per-head hidden size `D_head`.
    pub d_head: Option<usize>,
    /// Reduction depth of a MatMul (`d_in`).
    pub d_in: Option<usize>,
    /// Output width of a MatMul (`d_out`), or the row width of a LayerNorm.
    pub d_out: Option<usize>,
    /// Independent attention instances (`heads × batch`).
    pub instances: Option<u64>,
    /// Element count of an elementwise kernel.
    pub elems: Option<u64>,
    /// Number of operand streams an elementwise kernel reads per element.
    pub input_streams: Option<usize>,
    /// Scale + mask are fused into this kernel's epilogue.
    pub fused_scale_mask: bool,
    /// Local Softmax is fused into this kernel's epilogue (SDF `Q·Kᵀ`).
    pub fused_ls: bool,
    /// Global Scaling is fused into this kernel's prologue (SDF `P·V`).
    pub fused_gs: bool,
    /// Block-sparse kernels: the square block side.
    pub sparse_block: Option<usize>,
    /// The axis along which the kernel's work is split across thread blocks
    /// (and, on the host reference implementation, across worker threads).
    /// `None` means the generator did not declare one.
    pub split: Option<ParallelSplit>,
    /// Numeric format of the kernel's reduction accumulators (softmax sums,
    /// running rescales). `None` means the generator did not declare one;
    /// the numerics analysis assumes fp32 in that case and says so.
    pub accum: Option<AccumFormat>,
}

/// Numeric format a kernel accumulates partial reductions in.
///
/// Storage between kernels is always binary16 in this model (the paper's
/// setting); what varies is the in-register accumulator width, which the
/// analyzer's numerics pass turns into a per-addition rounding charge.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccumFormat {
    /// 32-bit accumulation (unit roundoff 2⁻²⁴) — the default everywhere.
    #[default]
    Fp32,
    /// 16-bit accumulation (unit roundoff 2⁻¹¹) — halves accumulator
    /// register pressure at a certified numeric cost.
    Fp16,
}

impl AccumFormat {
    /// Unit roundoff of one accumulation step in this format.
    pub fn unit_roundoff(self) -> f64 {
        match self {
            AccumFormat::Fp32 => (2.0f64).powi(-24),
            AccumFormat::Fp16 => (2.0f64).powi(-11),
        }
    }

    /// Display label (`"fp32"` / `"fp16"`).
    pub fn label(self) -> &'static str {
        match self {
            AccumFormat::Fp32 => "fp32",
            AccumFormat::Fp16 => "fp16",
        }
    }
}

/// How a kernel's work is divided into independently-schedulable units.
///
/// The host runtime (`resoftmax-parallel`) and the simulated grid both rely
/// on the same invariant: work may only be split along axes where every unit
/// owns a *disjoint* slice of the output, so the per-element accumulation
/// order — and therefore every FP16 rounding step — is identical at any
/// degree of parallelism. Splitting a reduction axis breaks that invariant
/// (partial sums combine in a parallelism-dependent order); the static
/// analyzer rejects any kernel that declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParallelSplit {
    /// Whole output rows (softmax / LayerNorm / fused-attention style).
    OutputRows,
    /// Rectangular output tiles of a MatMul.
    OutputTiles,
    /// Independent output elements (elementwise kernels).
    Elements,
    /// Sub-vector segments within a row (the paper's Local Softmax `T`).
    RowSegments,
    /// A reduction axis — never legal to parallelize; declared only to make
    /// the analyzer's negative tests expressible.
    ReductionAxis,
}

/// Complete description of one kernel launch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelDesc {
    /// Kernel name for traces, e.g. `"softmax_L4096_h16"`.
    pub name: String,
    /// Category for breakdown aggregation.
    pub category: KernelCategory,
    /// Per-TB resource footprint (uniform across the grid).
    pub shape: TbShape,
    /// The grid's work.
    pub tbs: TbSet,
    /// Buffers read (for L2 hit modeling). The byte totals here should cover
    /// the DRAM reads declared in [`TbSet`]; reads not attributed to a buffer
    /// are treated as always-miss.
    pub reads: Vec<BufferUse>,
    /// Buffers written.
    pub writes: Vec<BufferUse>,
    /// Structured derivation metadata (tiling, dimensions, fusion flags)
    /// for static analysis; [`KernelMeta::default`] when not provided.
    pub meta: KernelMeta,
}

impl KernelDesc {
    /// Starts building a kernel description.
    pub fn builder(name: impl Into<String>, category: KernelCategory) -> KernelDescBuilder {
        KernelDescBuilder {
            name: name.into(),
            category,
            shape: TbShape::new(128, 0, 32),
            tbs: TbSet::Uniform {
                count: 1,
                work: TbWork::default(),
            },
            reads: Vec::new(),
            writes: Vec::new(),
            meta: KernelMeta::default(),
        }
    }

    /// Total DRAM traffic in bytes before L2 filtering.
    pub fn total_dram_bytes(&self) -> f64 {
        self.tbs.total_dram_bytes()
    }

    /// Total FLOPs.
    pub fn total_flops(&self) -> f64 {
        self.tbs.total_flops()
    }
}

/// Builder for [`KernelDesc`]: `&mut self` setters, then one [`build`] that
/// moves the parts into the kernel.
///
/// [`build`]: KernelDescBuilder::build
#[derive(Debug, Clone)]
pub struct KernelDescBuilder {
    name: String,
    category: KernelCategory,
    shape: TbShape,
    tbs: TbSet,
    reads: Vec<BufferUse>,
    writes: Vec<BufferUse>,
    meta: KernelMeta,
}

impl KernelDescBuilder {
    /// Sets the per-TB resource footprint.
    pub fn shape(&mut self, shape: TbShape) -> &mut Self {
        self.shape = shape;
        self
    }

    /// Sets a uniform grid of `count` blocks each performing `work`.
    pub fn uniform(&mut self, count: u64, work: TbWork) -> &mut Self {
        self.tbs = TbSet::Uniform { count, work };
        self
    }

    /// Sets explicit per-block work.
    pub fn per_tb(&mut self, tbs: Vec<TbWork>) -> &mut Self {
        self.tbs = TbSet::PerTb(tbs);
        self
    }

    /// Sets grouped per-block work (runs of identical blocks).
    pub fn grouped(&mut self, groups: Vec<TbGroup>) -> &mut Self {
        self.tbs = TbSet::Grouped(groups);
        self
    }

    /// Declares a buffer read.
    pub fn reads(&mut self, id: impl Into<String>, bytes: u64) -> &mut Self {
        self.reads.push(BufferUse::new(id, bytes));
        self
    }

    /// Declares a buffer write.
    pub fn writes(&mut self, id: impl Into<String>, bytes: u64) -> &mut Self {
        self.writes.push(BufferUse::new(id, bytes));
        self
    }

    /// Attaches structured derivation metadata.
    pub fn meta(&mut self, meta: KernelMeta) -> &mut Self {
        self.meta = meta;
        self
    }

    /// Finishes the description, moving the name, grid, buffer lists and
    /// metadata into it instead of cloning them. Those fields of the builder
    /// are left empty (an empty name, an empty per-block grid, no buffers,
    /// default metadata), so build each kernel from its own builder.
    pub fn build(&mut self) -> KernelDesc {
        KernelDesc {
            name: std::mem::take(&mut self.name),
            category: self.category,
            shape: self.shape,
            tbs: std::mem::replace(&mut self.tbs, TbSet::PerTb(Vec::new())),
            reads: std::mem::take(&mut self.reads),
            writes: std::mem::take(&mut self.writes),
            meta: std::mem::take(&mut self.meta),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_partitions() {
        assert!(KernelCategory::Softmax.in_sda());
        assert!(KernelCategory::LocalSoftmax.is_softmax_family());
        assert!(!KernelCategory::Fc.in_sda());
        assert!(!KernelCategory::MatMulQk.is_softmax_family());
        assert!(KernelCategory::MatMulPv.in_sda());
        assert_eq!(KernelCategory::Softmax.label(), "Softmax");
        assert_eq!(format!("{}", KernelCategory::Other), "etc.");
    }

    #[test]
    fn tbset_totals_uniform() {
        let work = TbWork {
            cuda_flops: 10.0,
            tensor_flops: 20.0,
            dram_read_bytes: 100.0,
            dram_write_bytes: 50.0,
            ..Default::default()
        };
        let set = TbSet::Uniform { count: 4, work };
        assert_eq!(set.count(), 4);
        assert_eq!(set.total_dram_bytes(), 600.0);
        assert_eq!(set.total_read_bytes(), 400.0);
        assert_eq!(set.total_write_bytes(), 200.0);
        assert_eq!(set.total_flops(), 120.0);
    }

    #[test]
    fn tbset_totals_per_tb() {
        let set = TbSet::PerTb(vec![TbWork::memory(10.0, 0.0), TbWork::memory(0.0, 30.0)]);
        assert_eq!(set.count(), 2);
        assert_eq!(set.total_dram_bytes(), 40.0);
        assert_eq!(set.total_flops(), 0.0);
    }

    #[test]
    fn builder_builds() {
        let k = KernelDesc::builder("k", KernelCategory::Softmax)
            .shape(TbShape::new(256, 1024, 40))
            .uniform(8, TbWork::memory(64.0, 64.0))
            .reads("attn", 512)
            .writes("out", 512)
            .build();
        assert_eq!(k.name, "k");
        assert_eq!(k.shape.threads, 256);
        assert_eq!(k.tbs.count(), 8);
        assert_eq!(k.reads[0].id, "attn");
        assert_eq!(k.total_dram_bytes(), 1024.0);
    }

    #[test]
    fn serde_round_trip() {
        let k = KernelDesc::builder("k", KernelCategory::InterReduction)
            .per_tb(vec![TbWork::memory(1.0, 2.0)])
            .build();
        let json = serde_json::to_string(&k).unwrap();
        let back: KernelDesc = serde_json::from_str(&json).unwrap();
        assert_eq!(k, back);
    }
}
