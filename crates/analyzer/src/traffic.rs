//! Traffic conservation: declared DRAM totals vs. analytic formulas.
//!
//! Every cost generator derives a kernel's DRAM traffic from an analytic
//! formula over its shapes; the formula's inputs travel with the kernel as
//! [`KernelMeta`](resoftmax_gpusim::KernelMeta). This module re-evaluates
//! the formula from that metadata and compares it against the declared
//! [`TbSet`](resoftmax_gpusim::TbSet) byte totals, so a refactor that
//! changes one side without the other — or a schedule transformation that
//! corrupts work figures — is caught without running the simulator.
//!
//! Declared totals carry the library-overhead multipliers `build_schedule`
//! applies after generation (and the sparse gather penalty); the comparison
//! divides them back out via [`ScheduleSpec::work_overhead`].
//!
//! A second check guards the L2 model's input contract: per-buffer traffic
//! attribution must not exceed the declared DRAM totals. (Under-attribution
//! is legal — unattributed traffic is modeled as always-miss.)

use crate::diagnostic::{Diagnostic, Rule, Severity};
use crate::spec::{ScheduleSpec, SparseSpec};
use resoftmax_gpusim::{KernelCategory, KernelDesc};

const FP16_BYTES: f64 = 2.0;
/// Relative tolerance on the formula comparison; the mirrored formulas are
/// exact, so this only absorbs float rounding through the overhead scaling.
/// Tight enough that a padded-TB traffic overcount (a remainder thread
/// block charged for a full group) fails the check even at small grids.
const REL_TOL: f64 = 0.005;

/// Outcome of re-deriving a kernel's expected traffic.
enum Expected {
    /// Formula evaluated: expected (read, write) bytes before overheads.
    Bytes { read: f64, write: f64 },
    /// The kernel's category has a formula but the metadata to evaluate it
    /// is missing.
    Missing,
    /// No formula applies (glue without elementwise metadata).
    Skip,
}

/// Attention-shape metadata required by every SDA formula.
struct Attn {
    l: f64,
    l_u: usize,
    kv: f64,
    kv_u: usize,
    d_head: f64,
    d_head_u: usize,
    inst: f64,
}

impl Attn {
    fn from(k: &KernelDesc) -> Option<Attn> {
        let (l, kv, d, i) = (
            k.meta.rows?,
            k.meta.kv_len?,
            k.meta.d_head?,
            k.meta.instances?,
        );
        Some(Attn {
            l: l as f64,
            l_u: l,
            kv: kv as f64,
            kv_u: kv,
            d_head: d as f64,
            d_head_u: d,
            inst: i as f64,
        })
    }

    /// One Q-side activation plane: `L × D_head` FP16 per instance.
    fn q_bytes(&self) -> f64 {
        self.l * self.d_head * FP16_BYTES * self.inst
    }

    /// One KV-side activation plane: `KV × D_head` FP16 per instance.
    fn kv_bytes(&self) -> f64 {
        self.kv * self.d_head * FP16_BYTES * self.inst
    }
}

fn ceil_div(a: usize, b: usize) -> f64 {
    a.div_ceil(b.max(1)) as f64
}

/// Evaluates the analytic traffic formula for `k` from its metadata,
/// mirroring the cost generators in `resoftmax-kernels`.
fn expected(spec: &ScheduleSpec, k: &KernelDesc) -> Expected {
    match k.category {
        KernelCategory::MatMulQk
        | KernelCategory::MatMulPv
        | KernelCategory::Softmax
        | KernelCategory::LocalSoftmax
        | KernelCategory::InterReduction
        | KernelCategory::GlobalScaling
        | KernelCategory::FusedAttention => {
            if let Some(dec) = &spec.decode {
                return expected_decode_attn(spec, dec, k);
            }
            let Some(attn) = Attn::from(k) else {
                return Expected::Missing;
            };
            if k.meta.sparse_block.is_some() {
                let Some(sparse) = &spec.sparse else {
                    return Expected::Missing;
                };
                expected_sparse_attn(k, &attn, sparse)
            } else {
                expected_dense_attn(k, &attn)
            }
        }
        KernelCategory::Fc | KernelCategory::FeedForward => {
            let (Some(rows), Some(d_in), Some(d_out), Some(tm), Some(tn)) = (
                k.meta.rows,
                k.meta.d_in,
                k.meta.d_out,
                k.meta.tile_m,
                k.meta.tile_n,
            ) else {
                return Expected::Missing;
            };
            let grid = ceil_div(rows, tm) * ceil_div(d_out, tn);
            Expected::Bytes {
                read: (rows * d_in + d_in * d_out) as f64 * FP16_BYTES,
                write: grid * (tm * tn) as f64 * FP16_BYTES,
            }
        }
        KernelCategory::LayerNorm => {
            let (Some(rows), Some(d)) = (k.meta.rows, k.meta.d_out) else {
                return Expected::Missing;
            };
            let bytes = (rows * d) as f64 * FP16_BYTES;
            Expected::Bytes {
                read: bytes,
                write: bytes,
            }
        }
        KernelCategory::Scale
        | KernelCategory::Mask
        | KernelCategory::Activation
        | KernelCategory::Other => {
            let (Some(elems), Some(streams)) = (k.meta.elems, k.meta.input_streams) else {
                // Scale/Mask are part of the SDA block; glue without
                // elementwise metadata is simply not modeled.
                return if k.category.in_sda() {
                    Expected::Missing
                } else {
                    Expected::Skip
                };
            };
            let per_tb = 2048u64;
            let grid = elems.div_ceil(per_tb) as f64;
            Expected::Bytes {
                read: grid * (per_tb as usize * streams) as f64 * FP16_BYTES,
                write: grid * per_tb as f64 * FP16_BYTES,
            }
        }
    }
}

fn expected_dense_attn(k: &KernelDesc, a: &Attn) -> Expected {
    match k.category {
        KernelCategory::MatMulQk => {
            let (Some(m), Some(n)) = (k.meta.tile_m, k.meta.tile_n) else {
                return Expected::Missing;
            };
            let grid = a.inst * ceil_div(a.l_u, m) * ceil_div(a.kv_u, n);
            let extra = if k.meta.fused_ls {
                2.0 * m as f64 * FP16_BYTES
            } else {
                0.0
            };
            Expected::Bytes {
                read: a.q_bytes() + a.kv_bytes(),
                write: grid * ((m * n) as f64 * FP16_BYTES + extra),
            }
        }
        KernelCategory::MatMulPv => {
            let (Some(m), Some(n)) = (k.meta.tile_m, k.meta.tile_n) else {
                return Expected::Missing;
            };
            let grid = a.inst * ceil_div(a.l_u, m) * ceil_div(a.d_head_u, n);
            let gs_read = if k.meta.fused_gs {
                let Some(t) = k.meta.sub_vector else {
                    return Expected::Missing;
                };
                grid * (m * (a.kv_u / t.max(1)).max(1)) as f64 * FP16_BYTES
            } else {
                0.0
            };
            Expected::Bytes {
                read: grid * (m * a.kv_u) as f64 * FP16_BYTES + gs_read + a.kv_bytes(),
                write: grid * (m * n) as f64 * FP16_BYTES,
            }
        }
        KernelCategory::Softmax => {
            let bytes = a.l * a.inst * a.kv * FP16_BYTES;
            Expected::Bytes {
                read: bytes,
                write: bytes,
            }
        }
        KernelCategory::LocalSoftmax => {
            let Some(t) = k.meta.sub_vector else {
                return Expected::Missing;
            };
            let tiles = ceil_div(a.l_u, t) * ceil_div(a.kv_u, t) * a.inst;
            let tile_bytes = (t * t) as f64 * FP16_BYTES;
            Expected::Bytes {
                read: tiles * tile_bytes,
                write: tiles * (tile_bytes + 2.0 * t as f64 * FP16_BYTES),
            }
        }
        KernelCategory::InterReduction => {
            let Some(t) = k.meta.sub_vector else {
                return Expected::Missing;
            };
            let n_sv = (a.kv_u / t.max(1)).max(1) as f64;
            let rows_per_tb = 64.0;
            let grid = ((a.l * a.inst) / rows_per_tb).ceil();
            Expected::Bytes {
                read: grid * rows_per_tb * 2.0 * n_sv * FP16_BYTES,
                write: grid * rows_per_tb * n_sv * FP16_BYTES,
            }
        }
        KernelCategory::GlobalScaling => {
            let Some(t) = k.meta.sub_vector else {
                return Expected::Missing;
            };
            let per_tb = 2048usize;
            let grid = ((a.l * a.kv * a.inst) / per_tb as f64).ceil();
            Expected::Bytes {
                read: grid * (per_tb as f64 + (per_tb / t.max(1)) as f64) * FP16_BYTES,
                write: grid * per_tb as f64 * FP16_BYTES,
            }
        }
        KernelCategory::FusedAttention => {
            let Some(m) = k.meta.tile_m else {
                return Expected::Missing;
            };
            let grid = ceil_div(a.l_u, m) * a.inst;
            Expected::Bytes {
                read: a.q_bytes() + 2.0 * a.kv_bytes(),
                write: grid * (m * a.d_head_u) as f64 * FP16_BYTES,
            }
        }
        _ => unreachable!("dense dispatch covers only SDA categories"),
    }
}

/// Exact per-row sums for a batched-decode iteration, mirroring
/// `build_batched_decode_schedule`: each of the `ctxs.len()` rows runs
/// `heads` GEMV instances over its own context length.
fn expected_decode_attn(
    spec: &ScheduleSpec,
    dec: &crate::spec::DecodeSpec,
    k: &KernelDesc,
) -> Expected {
    let h = spec.heads as f64;
    let d_head = spec.d_head() as f64;
    let rows = dec.ctxs.len() as f64;
    let sum_ctx = dec.total_ctx() as f64;
    let sum_sv = dec.total_sub_vectors(spec.tile_n) as f64;
    match k.category {
        // Per instance: stream the K-cache slice plus one q row and one k
        // row; write the score (or x') row, plus m'/d' when LS is fused.
        KernelCategory::MatMulQk => Expected::Bytes {
            read: h * (sum_ctx + 2.0 * rows) * d_head * FP16_BYTES,
            write: h * (sum_ctx + if k.meta.fused_ls { 2.0 * sum_sv } else { 0.0 }) * FP16_BYTES,
        },
        // Monolithic softmax rewrites each score row in place.
        KernelCategory::Softmax => Expected::Bytes {
            read: h * sum_ctx * FP16_BYTES,
            write: h * sum_ctx * FP16_BYTES,
        },
        // IR folds each row's m'/d' pairs into one r' plane.
        KernelCategory::InterReduction => Expected::Bytes {
            read: h * 2.0 * sum_sv * FP16_BYTES,
            write: h * sum_sv * FP16_BYTES,
        },
        // Per instance: stream the V-cache slice plus the probability (or
        // x') row and one v row — and the r' plane under a GS prologue —
        // writing one d_head-wide output row.
        KernelCategory::MatMulPv => Expected::Bytes {
            read: h
                * (sum_ctx * d_head
                    + sum_ctx
                    + rows * d_head
                    + if k.meta.fused_gs { sum_sv } else { 0.0 })
                * FP16_BYTES,
            write: h * rows * d_head * FP16_BYTES,
        },
        // Decode schedules never emit these.
        _ => Expected::Missing,
    }
}

fn expected_sparse_attn(k: &KernelDesc, a: &Attn, s: &SparseSpec) -> Expected {
    let b = s.block;
    let bb = (b * b) as f64 * FP16_BYTES;
    let nnz_bytes = s.nnz_elements() as f64 * FP16_BYTES * a.inst;
    let intermediate_bytes = s.intermediate_elements() as f64 * FP16_BYTES * a.inst;
    match k.category {
        KernelCategory::MatMulQk => {
            let grid = s.nnz_blocks as f64 * a.inst;
            let extra = if k.meta.fused_ls {
                2.0 * b as f64 * FP16_BYTES
            } else {
                0.0
            };
            Expected::Bytes {
                read: 2.0 * a.q_bytes(),
                write: grid * (bb + extra),
            }
        }
        KernelCategory::Softmax => Expected::Bytes {
            read: nnz_bytes,
            write: nnz_bytes,
        },
        KernelCategory::LocalSoftmax => {
            let grid = s.nnz_blocks as f64 * a.inst;
            Expected::Bytes {
                read: grid * bb,
                write: grid * (bb + 2.0 * b as f64 * FP16_BYTES),
            }
        }
        KernelCategory::InterReduction => {
            let svs: f64 = s.row_counts.iter().map(|&c| c.max(1) as f64).sum();
            let plane = svs * b as f64 * FP16_BYTES * a.inst;
            Expected::Bytes {
                read: 2.0 * plane,
                write: plane,
            }
        }
        KernelCategory::GlobalScaling => {
            let grid = s.nnz_blocks as f64 * a.inst;
            Expected::Bytes {
                read: grid * (bb + b as f64 * FP16_BYTES),
                write: grid * bb,
            }
        }
        KernelCategory::MatMulPv => {
            let grid = s.row_counts.len() as f64 * a.inst;
            let gs_read = if k.meta.fused_gs {
                intermediate_bytes
            } else {
                0.0
            };
            Expected::Bytes {
                read: nnz_bytes + gs_read + a.q_bytes(),
                write: grid * (b * a.d_head_u) as f64 * FP16_BYTES,
            }
        }
        KernelCategory::FusedAttention => {
            let grid = s.row_counts.len() as f64 * a.inst;
            Expected::Bytes {
                read: 3.0 * a.q_bytes(),
                write: grid * (b * a.d_head_u) as f64 * FP16_BYTES,
            }
        }
        _ => unreachable!("sparse dispatch covers only SDA categories"),
    }
}

fn close(actual: f64, expected: f64) -> bool {
    (actual - expected).abs() <= REL_TOL * expected.max(1.0)
}

/// Runs the traffic-conservation and attribution checks.
pub fn check(spec: &ScheduleSpec, kernels: &[KernelDesc], diags: &mut Vec<Diagnostic>) {
    for (i, k) in kernels.iter().enumerate() {
        let overhead = spec.work_overhead(k);
        let declared_read = k.tbs.total_read_bytes() / overhead;
        let declared_write = k.tbs.total_write_bytes() / overhead;

        match expected(spec, k) {
            Expected::Bytes { read, write } => {
                if !close(declared_read, read) {
                    diags.push(Diagnostic::error(
                        Rule::TrafficFormula,
                        i,
                        format!(
                            "`{}` declares {declared_read:.0} B of DRAM reads (overhead \
                             removed) but its {} formula implies {read:.0} B",
                            k.name, k.category
                        ),
                    ));
                }
                if !close(declared_write, write) {
                    diags.push(Diagnostic::error(
                        Rule::TrafficFormula,
                        i,
                        format!(
                            "`{}` declares {declared_write:.0} B of DRAM writes (overhead \
                             removed) but its {} formula implies {write:.0} B",
                            k.name, k.category
                        ),
                    ));
                }
            }
            Expected::Missing => diags.push(Diagnostic {
                rule: Rule::TrafficFormula,
                severity: Severity::Warning,
                kernel: Some(i),
                message: format!(
                    "`{}` ({}) carries no shape metadata; its traffic cannot be checked",
                    k.name, k.category
                ),
            }),
            Expected::Skip => {}
        }

        // Attribution: the L2 model treats unattributed traffic as
        // always-miss, so under-attribution is legal — but attributing more
        // bytes to buffers than the kernel moves breaks the model's input
        // contract.
        let attr_read: u64 = k.reads.iter().map(|b| b.bytes).sum();
        let attr_write: u64 = k.writes.iter().map(|b| b.bytes).sum();
        if attr_read as f64 > declared_read * (1.0 + REL_TOL) {
            diags.push(Diagnostic::error(
                Rule::TrafficAttribution,
                i,
                format!(
                    "`{}` attributes {attr_read} B of reads to buffers but declares only \
                     {declared_read:.0} B of DRAM reads (overhead removed)",
                    k.name
                ),
            ));
        }
        if attr_write as f64 > declared_write * (1.0 + REL_TOL) {
            diags.push(Diagnostic::error(
                Rule::TrafficAttribution,
                i,
                format!(
                    "`{}` attributes {attr_write} B of writes to buffers but declares only \
                     {declared_write:.0} B of DRAM writes (overhead removed)",
                    k.name
                ),
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ScheduleSpec;
    use resoftmax_gpusim::{Scope, TbSet, TbWork};

    const L0: Scope = Scope::Layer(0);
    use resoftmax_kernels::costs::{common, dense, AttnDims, TileConfig};

    fn dims() -> AttnDims {
        AttnDims::new(1024, 64, 16, 1)
    }

    fn spec() -> ScheduleSpec {
        ScheduleSpec::dense_test(1024, 1)
    }

    #[test]
    fn generated_dense_kernels_satisfy_their_formulas() {
        let d = dims();
        let t = TileConfig::default();
        let ks = vec![
            dense::matmul_qk(&d, t, L0, dense::QkEpilogue::ScaleMaskLocalSoftmax),
            dense::matmul_pv(&d, t, L0, dense::PvPrologue::GlobalScaling),
            dense::softmax_monolithic(&d, L0, "scores"),
            dense::local_softmax(&d, 64, L0, "scores"),
            dense::inter_reduction(&d, 64, L0),
            dense::global_scaling(&d, 64, L0),
            dense::fused_mha_online(&d, t, L0),
            common::fc(
                1024,
                1024,
                1024,
                KernelCategory::Fc,
                L0.id("x"),
                L0.id("q"),
                false,
            ),
            common::layernorm(1024, 1024, L0.id("proj"), L0.id("ln1")),
        ];
        let mut diags = Vec::new();
        check(&spec(), &ks, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn overhead_scaled_totals_still_pass() {
        let mut k = dense::softmax_monolithic(&dims(), L0, "scores");
        let mut s = spec();
        s.softmax_overhead = 1.4;
        if let TbSet::Uniform { work, .. } = &mut k.tbs {
            work.dram_read_bytes *= 1.4;
            work.dram_write_bytes *= 1.4;
        }
        let mut diags = Vec::new();
        check(&s, &[k], &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn inflated_traffic_is_caught() {
        let mut k = dense::softmax_monolithic(&dims(), L0, "scores");
        if let TbSet::Uniform { work, .. } = &mut k.tbs {
            work.dram_read_bytes *= 1.5;
        }
        let mut diags = Vec::new();
        check(&spec(), &[k], &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::TrafficFormula && d.severity == Severity::Error));
    }

    #[test]
    fn over_attribution_is_caught() {
        let mut k = dense::softmax_monolithic(&dims(), L0, "scores");
        // attribute twice the attention matrix as reads
        k.reads[0].bytes *= 2;
        // keep the formula side quiet by inflating nothing else: the declared
        // totals stay correct, only the attribution exceeds them.
        let mut diags = Vec::new();
        check(&spec(), &[k], &mut diags);
        assert!(diags.iter().any(|d| d.rule == Rule::TrafficAttribution));
        assert!(!diags.iter().any(|d| d.rule == Rule::TrafficFormula));
    }

    #[test]
    fn missing_metadata_on_sda_kernel_warns() {
        let k = KernelDesc::builder("hand_rolled", KernelCategory::Softmax)
            .uniform(1, TbWork::memory(100.0, 100.0))
            .build();
        let mut diags = Vec::new();
        check(&spec(), &[k], &mut diags);
        assert!(diags
            .iter()
            .any(|d| d.rule == Rule::TrafficFormula && d.severity == Severity::Warning));
    }

    use resoftmax_gpusim::KernelCategory;
    use resoftmax_gpusim::KernelDesc;

    #[test]
    fn sparse_kernels_satisfy_their_formulas() {
        use resoftmax_kernels::costs::sparse;
        use resoftmax_sparse::{pattern, BigBirdConfig};
        let layout = pattern::bigbird(1024, &BigBirdConfig::default());
        let d = dims();
        let mut s = spec();
        s.sparse = Some(crate::SparseSpec {
            block: layout.block(),
            n_blocks: layout.n_blocks(),
            nnz_blocks: layout.nnz_blocks(),
            row_counts: layout.row_counts(),
        });
        let ks = vec![
            sparse::bs_matmul_qk(&layout, &d, L0, sparse::BsQkEpilogue::ScaleMaskLocalSoftmax),
            sparse::bs_softmax_baseline(&layout, &d, L0),
            sparse::bs_local_softmax(&layout, &d, L0),
            sparse::bs_inter_reduction(&layout, &d, L0),
            sparse::bs_global_scaling(&layout, &d, L0),
            sparse::bs_matmul_pv(&layout, &d, L0, sparse::BsPvPrologue::GlobalScaling),
            sparse::bs_fused_mha_online(&layout, &d, L0),
        ];
        let mut diags = Vec::new();
        check(&s, &ks, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }
}
