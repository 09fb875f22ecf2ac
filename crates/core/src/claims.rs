//! The claims as data: each number of Figs. 2/5/7/8/9 and §5.1 that this
//! repository reproduces, and each number EXPERIMENTS.md states for §6, the
//! ablations and the extensions, is written once, in [`CLAIMS`], with its
//! band. A [`Claim`] reads rows of `BENCH_figures.json`
//! ([`figure_rows`](crate::experiments::figure_rows)) by their `(bin,
//! config, metric)` key ([`Measure`]); [`check`] measures every claim on a
//! row set. The root crate's `paper_claims` tests, the bench driver's
//! `figures` subcommand (and so `reproduce`) and the generated tables of
//! `EXPERIMENTS.md` and `README.md` all read this one table.

use crate::experiments::BenchRow;
use crate::format::num;
use Measure::{Mean, MeanOfInverses, Ratio, Row};

/// A row's key in `BENCH_figures.json`: `(bin, config, metric)`.
pub type RowKey = (&'static str, &'static str, &'static str);

/// What a claim measures on the figure rows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Measure {
    /// One row's value.
    Row(RowKey),
    /// The first row's value over the second's.
    Ratio(RowKey, RowKey),
    /// The mean of the rows' values.
    Mean(&'static [RowKey]),
    /// The mean of one over each row's value: the mean normalized latency
    /// of a set of speedups.
    MeanOfInverses(&'static [RowKey]),
}

impl Measure {
    /// Its value on `rows`, or the first key `rows` lacks.
    pub fn value(&self, rows: &[BenchRow]) -> Result<f64, RowKey> {
        let get = |&key: &RowKey| {
            rows.iter()
                .find(|r| r.key() == key)
                .map(|r| r.value)
                .ok_or(key)
        };
        let mean = |keys: &[RowKey], f: fn(f64) -> f64| {
            let sum: Result<f64, RowKey> = keys.iter().map(|k| get(k).map(f)).sum();
            Ok(sum? / keys.len() as f64)
        };
        match self {
            Row(key) => get(key),
            Ratio(num, den) => Ok(get(num)? / get(den)?),
            Mean(keys) => mean(keys, |x| x),
            MeanOfInverses(keys) => mean(keys, f64::recip),
        }
    }
}

/// One claim of the paper, with the band this repository holds it to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Claim {
    /// The paper's figure or section (`"Fig. 8"`, `"§5.1"`), or
    /// `"Ablations"` or `"Extensions"`, the experiments beyond the paper.
    pub section: &'static str,
    /// What is claimed, in one line.
    pub statement: &'static str,
    /// The rows it reads and how it combines them.
    pub reads: Measure,
    /// The paper's value, where the paper gives one.
    pub paper: Option<f64>,
    /// The open interval the measured value must lie in; either end may be
    /// infinite.
    pub band: (f64, f64),
}

const fn claim(
    section: &'static str,
    statement: &'static str,
    reads: Measure,
    paper: Option<f64>,
    lo: f64,
    hi: f64,
) -> Claim {
    Claim {
        section,
        statement,
        reads,
        paper,
        band: (lo, hi),
    }
}

const INF: f64 = f64::INFINITY;
const F2: &str = "fig2_breakdown";
const F5: &str = "fig5_sublayers";
const F7: &str = "fig7_libraries";
const F8: &str = "fig8_sd_sdf";
const F9A: &str = "fig9_seq_sweep";
const F9B: &str = "fig9_batch_sweep";
const GPU: &str = "gpu_speedup_matrix";
const BERT: &str = "BERT-large";
const NEO: &str = "GPT-Neo-1.3B";
const BB: &str = "BigBird-large";
const LF: &str = "Longformer-large";
const SDF: &str = "sdf_speedup";
const SHARE: &str = "softmax_frac";
const STASH: &str = "training_stash";
const TILE: &str = "ablation_tile_size";
const L2: &str = "ablation_l2";
const UTIL: &str = "ablation_utilization";
const HEAD: &str = "ablation_head_dim";
const SENS: &str = "ablation_sensitivity";
const ONLINE: &str = "extension_online_softmax";
const TRAIN: &str = "extension_training";
const DECODE: &str = "extension_decode";
const S2S: &str = "extension_seq2seq";
const ROOF: &str = "roofline_report";
const SERVE: &str = "extension_serving";

/// Every claim, in the paper's order, then the ablations and the
/// extensions. All at the A100, L = 4096, batch 1, unless the statement
/// says otherwise. The measures: Fig. 2, Fig. 9 and decode shares are of
/// baseline time; Fig. 7 ratios are of latency; speedups are over the
/// baseline. None beyond §5.1 has a paper value.
#[rustfmt::skip]
pub const CLAIMS: &[Claim] = &[
    claim("Fig. 2", "BERT-large: softmax share of time", Row((F2, BERT, SHARE)), Some(0.36), 0.31, 0.41),
    claim("Fig. 2", "BERT-large: SDA-block share of time", Row((F2, BERT, "sda_frac")), Some(0.68), 0.60, 0.76),
    claim("Fig. 2", "GPT-Neo-1.3B: softmax share of time", Row((F2, NEO, SHARE)), Some(0.18), 0.10, 0.30),
    claim("Fig. 2", "BigBird-large: softmax share of time", Row((F2, BB, SHARE)), Some(0.40), 0.37, INF),
    claim("Fig. 2", "Longformer-large: softmax share of time", Row((F2, LF, SHARE)), Some(0.42), 0.37, INF),
    claim("Fig. 5", "BERT-large: IR < 12.5% of decomposed-softmax time", Row((F5, BERT, "ir_time_frac")), None, -INF, 0.125),
    claim("Fig. 5", "GPT-Neo-1.3B: IR < 12.5% of decomposed-softmax time", Row((F5, NEO, "ir_time_frac")), None, -INF, 0.125),
    claim("Fig. 5", "BigBird-large: IR < 12.5% of decomposed-softmax time", Row((F5, BB, "ir_time_frac")), None, -INF, 0.125),
    claim("Fig. 5", "Longformer-large: IR < 12.5% of decomposed-softmax time", Row((F5, LF, "ir_time_frac")), None, -INF, 0.125),
    claim("Fig. 5", "BERT-large: IR < 12.5% of decomposed-softmax traffic", Row((F5, BERT, "ir_dram_frac")), None, -INF, 0.125),
    claim("Fig. 5", "GPT-Neo-1.3B: IR < 12.5% of decomposed-softmax traffic", Row((F5, NEO, "ir_dram_frac")), None, -INF, 0.125),
    claim("Fig. 5", "BigBird-large: IR < 12.5% of decomposed-softmax traffic", Row((F5, BB, "ir_dram_frac")), None, -INF, 0.125),
    claim("Fig. 5", "Longformer-large: IR < 12.5% of decomposed-softmax traffic", Row((F5, LF, "ir_dram_frac")), None, -INF, 0.125),
    claim("Fig. 7", "BERT-large: HG over TRT (HG slower)", Ratio((F7, "HG/BERT-large", "total_ms"), (F7, "TRT/BERT-large", "total_ms")), None, 1.0, INF),
    claim("Fig. 7", "BERT-large: TRT over Ours-baseline (paper: < 1% apart)", Ratio((F7, "TRT/BERT-large", "total_ms"), (F7, "Ours-baseline/BERT-large", "total_ms")), None, 0.98, 1.02),
    claim("Fig. 7", "BERT-large: AutoTVM over Ours-baseline", Ratio((F7, "AutoTVM/BERT-large", "total_ms"), (F7, "Ours-baseline/BERT-large", "total_ms")), Some(1.49), 1.25, 1.8),
    claim("Fig. 7", "BigBird-large: DS over FT (DS faster)", Ratio((F7, "DS/BigBird-large", "total_ms"), (F7, "FT/BigBird-large", "total_ms")), None, -INF, 1.0),
    claim("Fig. 7", "BigBird-large: DS over TRT (DS faster)", Ratio((F7, "DS/BigBird-large", "total_ms"), (F7, "TRT/BigBird-large", "total_ms")), None, -INF, 1.0),
    claim("Fig. 7", "BigBird-large: Ours-baseline over DS (paper: within 8%)", Ratio((F7, "Ours-baseline/BigBird-large", "total_ms"), (F7, "DS/BigBird-large", "total_ms")), None, 0.90, 1.10),
    claim("Fig. 8", "BERT-large: SD speedup", Row((F8, BERT, "sd_speedup")), Some(0.94), 0.85, 1.0),
    claim("Fig. 8", "GPT-Neo-1.3B: SD speedup", Row((F8, NEO, "sd_speedup")), Some(0.99), 0.85, 1.0),
    claim("Fig. 8", "BigBird-large: SD speedup", Row((F8, BB, "sd_speedup")), Some(1.44), 1.3, 1.6),
    claim("Fig. 8", "Longformer-large: SD speedup", Row((F8, LF, "sd_speedup")), Some(1.49), 1.3, 1.6),
    claim("Fig. 8", "BERT-large: SDF speedup", Row((F8, BERT, SDF)), Some(1.25), 1.1, 1.4),
    claim("Fig. 8", "GPT-Neo-1.3B: SDF speedup", Row((F8, NEO, SDF)), Some(1.12), 1.02, 1.25),
    claim("Fig. 8", "BigBird-large: SDF speedup", Row((F8, BB, SDF)), Some(1.57), 1.4, 1.7584),
    claim("Fig. 8", "Longformer-large: SDF speedup", Row((F8, LF, SDF)), Some(1.65), 1.452, 1.8),
    claim("Fig. 8", "BERT-large: SD traffic over baseline", Row((F8, BERT, "sd_traffic")), None, 1.2, INF),
    claim("Fig. 8", "GPT-Neo-1.3B: SD traffic over baseline", Row((F8, NEO, "sd_traffic")), None, 1.2, INF),
    claim("Fig. 8", "BigBird-large: SD traffic over baseline", Row((F8, BB, "sd_traffic")), None, 1.2, INF),
    claim("Fig. 8", "Longformer-large: SD traffic over baseline", Row((F8, LF, "sd_traffic")), None, 1.2, INF),
    claim("Fig. 8", "BERT-large: SDF traffic over baseline", Row((F8, BERT, "sdf_traffic")), None, -INF, 0.75),
    claim("Fig. 8", "GPT-Neo-1.3B: SDF traffic over baseline", Row((F8, NEO, "sdf_traffic")), None, -INF, 0.8),
    claim("Fig. 8", "BigBird-large: SDF traffic over baseline", Row((F8, BB, "sdf_traffic")), None, -INF, 0.8),
    claim("Fig. 8", "Longformer-large: SDF traffic over baseline", Row((F8, LF, "sdf_traffic")), None, -INF, 0.8),
    claim("Fig. 8", "BERT-large: SDF off-chip energy over baseline", Row((F8, BERT, "sdf_energy")), None, -INF, 1.0),
    claim("Fig. 8", "GPT-Neo-1.3B: SDF off-chip energy over baseline", Row((F8, NEO, "sdf_energy")), None, -INF, 1.0),
    claim("Fig. 8", "BigBird-large: SDF off-chip energy over baseline", Row((F8, BB, "sdf_energy")), None, -INF, 1.0),
    claim("Fig. 8", "Longformer-large: SDF off-chip energy over baseline", Row((F8, LF, "sdf_energy")), None, -INF, 1.0),
    claim("Fig. 8", "BERT-large: SDF softmax-boundary traffic over baseline (paper: cut 1.58-2.51x)", Row((F8, BERT, "softmax_traffic_ratio")), None, 1.0 / 2.51, 1.0 / 1.58),
    claim("Fig. 8", "GPT-Neo-1.3B: SDF softmax-boundary traffic over baseline (paper: cut 1.58-2.51x)", Row((F8, NEO, "softmax_traffic_ratio")), None, 1.0 / 2.51, 1.0 / 1.58),
    claim("Fig. 8", "BigBird-large: SDF softmax-boundary traffic over baseline (paper: cut 1.58-2.51x)", Row((F8, BB, "softmax_traffic_ratio")), None, 1.0 / 2.51, 1.0 / 1.58),
    claim("Fig. 8", "Longformer-large: SDF softmax-boundary traffic over baseline (paper: cut 1.58-2.51x)", Row((F8, LF, "softmax_traffic_ratio")), None, 1.0 / 2.51, 1.0 / 1.58),
    claim("Fig. 8", "Mean SDF latency over baseline, four models (paper: -28%)", MeanOfInverses(&[(F8, BERT, SDF), (F8, NEO, SDF), (F8, BB, SDF), (F8, LF, SDF)]), Some(0.72), 0.66, 0.80),
    claim("Fig. 8", "Deviation: mean SDF off-chip energy over baseline, which is the SDF traffic cut (paper: -29%)", Mean(&[(F8, BERT, "sdf_energy"), (F8, NEO, "sdf_energy"), (F8, BB, "sdf_energy"), (F8, LF, "sdf_energy")]), Some(0.71), 0.55, 0.78),
    claim("Fig. 9(a)", "BERT-large: SDF speedup grows from L = 1024 to 2048", Ratio((F9A, "BERT-large/seq_len=2048/batch=1", SDF), (F9A, "BERT-large/seq_len=1024/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "BERT-large: SDF speedup grows from L = 2048 to 4096", Ratio((F9A, "BERT-large/seq_len=4096/batch=1", SDF), (F9A, "BERT-large/seq_len=2048/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "BERT-large: SDF speedup grows from L = 4096 to 8192", Ratio((F9A, "BERT-large/seq_len=8192/batch=1", SDF), (F9A, "BERT-large/seq_len=4096/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "GPT-Neo-1.3B: SDF speedup grows from L = 1024 to 2048", Ratio((F9A, "GPT-Neo-1.3B/seq_len=2048/batch=1", SDF), (F9A, "GPT-Neo-1.3B/seq_len=1024/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "GPT-Neo-1.3B: SDF speedup grows from L = 2048 to 4096", Ratio((F9A, "GPT-Neo-1.3B/seq_len=4096/batch=1", SDF), (F9A, "GPT-Neo-1.3B/seq_len=2048/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "GPT-Neo-1.3B: SDF speedup grows from L = 4096 to 8192", Ratio((F9A, "GPT-Neo-1.3B/seq_len=8192/batch=1", SDF), (F9A, "GPT-Neo-1.3B/seq_len=4096/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "BigBird-large: SDF speedup grows from L = 1024 to 2048", Ratio((F9A, "BigBird-large/seq_len=2048/batch=1", SDF), (F9A, "BigBird-large/seq_len=1024/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "BigBird-large: SDF speedup grows from L = 2048 to 4096", Ratio((F9A, "BigBird-large/seq_len=4096/batch=1", SDF), (F9A, "BigBird-large/seq_len=2048/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "BigBird-large: SDF speedup grows from L = 4096 to 8192", Ratio((F9A, "BigBird-large/seq_len=8192/batch=1", SDF), (F9A, "BigBird-large/seq_len=4096/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "Longformer-large: SDF speedup grows from L = 1024 to 2048", Ratio((F9A, "Longformer-large/seq_len=2048/batch=1", SDF), (F9A, "Longformer-large/seq_len=1024/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "Longformer-large: SDF speedup grows from L = 2048 to 4096", Ratio((F9A, "Longformer-large/seq_len=4096/batch=1", SDF), (F9A, "Longformer-large/seq_len=2048/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "Longformer-large: SDF speedup grows from L = 4096 to 8192", Ratio((F9A, "Longformer-large/seq_len=8192/batch=1", SDF), (F9A, "Longformer-large/seq_len=4096/batch=1", SDF)), None, 1.0, INF),
    claim("Fig. 9(a)", "BERT-large: softmax share grows from L = 1024 to 4096", Ratio((F9A, "BERT-large/seq_len=4096/batch=1", SHARE), (F9A, "BERT-large/seq_len=1024/batch=1", SHARE)), None, 1.0, INF),
    claim("Fig. 9(a)", "Deviation: GPT-Neo-1.3B's SDF speedup dips from L = 512 to 1024", Ratio((F9A, "GPT-Neo-1.3B/seq_len=1024/batch=1", SDF), (F9A, "GPT-Neo-1.3B/seq_len=512/batch=1", SDF)), None, 0.99, 1.0),
    claim("Fig. 9(b)", "BigBird-large: SDF speedup, batch 8 over batch 1", Ratio((F9B, "BigBird-large/seq_len=4096/batch=8", SDF), (F9B, "BigBird-large/seq_len=4096/batch=1", SDF)), None, 0.98, INF),
    claim("Fig. 9(b)", "Longformer-large: SDF speedup, batch 8 over batch 1", Ratio((F9B, "Longformer-large/seq_len=4096/batch=8", SDF), (F9B, "Longformer-large/seq_len=4096/batch=1", SDF)), None, 0.98, INF),
    claim("Fig. 9(b)", "Deviation: BigBird-large's softmax share, batch 8 over batch 1 (paper: 40% to 48%)", Ratio((F9B, "BigBird-large/seq_len=4096/batch=8", SHARE), (F9B, "BigBird-large/seq_len=4096/batch=1", SHARE)), Some(1.2), 1.0, 1.1),
    claim("§5.1", "RTX 3090, BERT-large: SDF speedup", Row((GPU, "RTX 3090/BERT-large", SDF)), Some(1.12), 1.0, 1.2544),
    claim("§5.1", "RTX 3090, GPT-Neo-1.3B: SDF speedup", Row((GPU, "RTX 3090/GPT-Neo-1.3B", SDF)), Some(1.05), 1.0, 1.176),
    claim("§5.1", "RTX 3090, BigBird-large: SDF speedup", Row((GPU, "RTX 3090/BigBird-large", SDF)), Some(1.32), 1.1616, 1.4784),
    claim("§5.1", "RTX 3090, Longformer-large: SDF speedup", Row((GPU, "RTX 3090/Longformer-large", SDF)), Some(1.36), 1.1968, 1.5232),
    claim("§5.1", "T4, BERT-large: SDF speedup", Row((GPU, "T4/BERT-large", SDF)), Some(1.22), 1.0736, 1.3664),
    claim("§5.1", "T4, GPT-Neo-1.3B: SDF speedup", Row((GPU, "T4/GPT-Neo-1.3B", SDF)), Some(1.08), 1.0, 1.2096),
    claim("§5.1", "Deviation: T4, BigBird-large: SDF speedup, short of the paper", Row((GPU, "T4/BigBird-large", SDF)), Some(1.77), 1.416, 1.77),
    claim("§5.1", "Deviation: T4, Longformer-large: SDF speedup, short of the paper", Row((GPU, "T4/Longformer-large", SDF)), Some(1.87), 1.496, 1.87),
    claim("§5.1", "A100: GPT-Neo-1.3B's SDF speedup over BERT-large's", Ratio((GPU, "A100/GPT-Neo-1.3B", SDF), (GPU, "A100/BERT-large", SDF)), None, -INF, 1.0),
    claim("§5.1", "RTX 3090: GPT-Neo-1.3B's SDF speedup over BERT-large's", Ratio((GPU, "RTX 3090/GPT-Neo-1.3B", SDF), (GPU, "RTX 3090/BERT-large", SDF)), None, -INF, 1.0),
    claim("§5.1", "T4: GPT-Neo-1.3B's SDF speedup over BERT-large's", Ratio((GPU, "T4/GPT-Neo-1.3B", SDF), (GPU, "T4/BERT-large", SDF)), None, -INF, 1.0),
    claim("§5.1", "A100: BigBird-large's SDF speedup over BERT-large's", Ratio((GPU, "A100/BigBird-large", SDF), (GPU, "A100/BERT-large", SDF)), None, 1.0, INF),
    claim("§5.1", "RTX 3090: BigBird-large's SDF speedup over BERT-large's", Ratio((GPU, "RTX 3090/BigBird-large", SDF), (GPU, "RTX 3090/BERT-large", SDF)), None, 1.0, INF),
    claim("§5.1", "T4: BigBird-large's SDF speedup over BERT-large's", Ratio((GPU, "T4/BigBird-large", SDF), (GPU, "T4/BERT-large", SDF)), None, 1.0, INF),
    claim("§5.1", "BERT-large: RTX 3090's SDF speedup over A100's", Ratio((GPU, "RTX 3090/BERT-large", SDF), (GPU, "A100/BERT-large", SDF)), None, -INF, 1.0),
    claim("§6", "BERT-large: softmax inputs a stashing forward pass writes, and its backward reads back, GB", Row((STASH, BERT, "stash_gb")), None, 12.8, 13.0),
    claim("Ablations", "BERT-large: SDF speedup at T = 16", Row((TILE, "BERT-large/A100/T16", SDF)), None, 1.10, 1.16),
    claim("Ablations", "BERT-large: SDF speedup at T = 64", Row((TILE, "BERT-large/A100/T64", SDF)), None, 1.23, 1.29),
    claim("Ablations", "BERT-large: SDF speedup at T = 256", Row((TILE, "BERT-large/A100/T256", SDF)), None, 1.25, 1.30),
    claim("Ablations", "BERT-large: SDF speedup at T = 256 over T = 64 (saturates at T >= 64)", Ratio((TILE, "BERT-large/A100/T256", SDF), (TILE, "BERT-large/A100/T64", SDF)), None, 1.0, 1.02),
    claim("Ablations", "BERT-large: SDF speedup with 256 MB of L2 over 4 MB (flat)", Ratio((L2, "BERT-large/l2_mb=256", SDF), (L2, "BERT-large/l2_mb=4", SDF)), None, 0.98, 1.03),
    claim("Ablations", "BERT-large: SDF speedup with 1 GB of L2", Row((L2, "BERT-large/l2_mb=1024", SDF)), None, 1.05, 1.15),
    claim("Ablations", "BERT-large: baseline traffic with 1 GB of L2 over 40 MB", Ratio((L2, "BERT-large/l2_mb=1024", "baseline_gb"), (L2, "BERT-large/l2_mb=40", "baseline_gb")), None, 0.45, 0.6),
    claim("Ablations", "BigBird-large: SD speedup, utilization modelled", Row((UTIL, BB, "sd_speedup")), None, 1.40, 1.55),
    claim("Ablations", "Longformer-large: SD speedup, utilization modelled", Row((UTIL, LF, "sd_speedup")), None, 1.33, 1.47),
    claim("Ablations", "BigBird-large: SD speedup at full bandwidth", Row((UTIL, BB, "sd_speedup_full_bandwidth")), None, 0.95, 1.0),
    claim("Ablations", "Longformer-large: SD speedup at full bandwidth", Row((UTIL, LF, "sd_speedup_full_bandwidth")), None, 0.95, 1.0),
    claim("Ablations", "D_head = 32 (32 heads at D_m = 1024): softmax share of time", Row((HEAD, "dense-32x32/seq_len=4096/batch=1", SHARE)), None, 0.38, 0.44),
    claim("Ablations", "D_head = 256 (4 heads at D_m = 1024): softmax share of time", Row((HEAD, "dense-4x256/seq_len=4096/batch=1", SHARE)), None, 0.14, 0.18),
    claim("Ablations", "D_head = 32 (32 heads at D_m = 1024): SDF speedup", Row((HEAD, "dense-32x32/seq_len=4096/batch=1", SDF)), None, 1.27, 1.34),
    claim("Ablations", "D_head = 256 (4 heads at D_m = 1024): SDF speedup", Row((HEAD, "dense-4x256/seq_len=4096/batch=1", SDF)), None, 1.0, 1.06),
    claim("Ablations", "Saturation threads x0.5: GPT-Neo-1.3B still gains", Row((SENS, "mem_saturation_threads x0.5/GPT-Neo-1.3B", SDF)), None, 1.0, INF),
    claim("Ablations", "Saturation threads x0.5: GPT-Neo-1.3B's SDF speedup over BERT-large's", Ratio((SENS, "mem_saturation_threads x0.5/GPT-Neo-1.3B", SDF), (SENS, "mem_saturation_threads x0.5/BERT-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Saturation threads x0.5: GPT-Neo-1.3B's SDF speedup over BigBird-large's", Ratio((SENS, "mem_saturation_threads x0.5/GPT-Neo-1.3B", SDF), (SENS, "mem_saturation_threads x0.5/BigBird-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Saturation threads x0.5: GPT-Neo-1.3B's SDF speedup over Longformer-large's", Ratio((SENS, "mem_saturation_threads x0.5/GPT-Neo-1.3B", SDF), (SENS, "mem_saturation_threads x0.5/Longformer-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Saturation threads x2: GPT-Neo-1.3B still gains", Row((SENS, "mem_saturation_threads x2/GPT-Neo-1.3B", SDF)), None, 1.0, INF),
    claim("Ablations", "Saturation threads x2: GPT-Neo-1.3B's SDF speedup over BERT-large's", Ratio((SENS, "mem_saturation_threads x2/GPT-Neo-1.3B", SDF), (SENS, "mem_saturation_threads x2/BERT-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Saturation threads x2: GPT-Neo-1.3B's SDF speedup over BigBird-large's", Ratio((SENS, "mem_saturation_threads x2/GPT-Neo-1.3B", SDF), (SENS, "mem_saturation_threads x2/BigBird-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Saturation threads x2: GPT-Neo-1.3B's SDF speedup over Longformer-large's", Ratio((SENS, "mem_saturation_threads x2/GPT-Neo-1.3B", SDF), (SENS, "mem_saturation_threads x2/Longformer-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Launch overhead 0 us: GPT-Neo-1.3B still gains", Row((SENS, "launch_overhead_us=0/GPT-Neo-1.3B", SDF)), None, 1.0, INF),
    claim("Ablations", "Launch overhead 0 us: GPT-Neo-1.3B's SDF speedup over BERT-large's", Ratio((SENS, "launch_overhead_us=0/GPT-Neo-1.3B", SDF), (SENS, "launch_overhead_us=0/BERT-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Launch overhead 0 us: GPT-Neo-1.3B's SDF speedup over BigBird-large's", Ratio((SENS, "launch_overhead_us=0/GPT-Neo-1.3B", SDF), (SENS, "launch_overhead_us=0/BigBird-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Launch overhead 0 us: GPT-Neo-1.3B's SDF speedup over Longformer-large's", Ratio((SENS, "launch_overhead_us=0/GPT-Neo-1.3B", SDF), (SENS, "launch_overhead_us=0/Longformer-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Launch overhead 16 us: GPT-Neo-1.3B still gains", Row((SENS, "launch_overhead_us=16/GPT-Neo-1.3B", SDF)), None, 1.0, INF),
    claim("Ablations", "Launch overhead 16 us: GPT-Neo-1.3B's SDF speedup over BERT-large's", Ratio((SENS, "launch_overhead_us=16/GPT-Neo-1.3B", SDF), (SENS, "launch_overhead_us=16/BERT-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Launch overhead 16 us: GPT-Neo-1.3B's SDF speedup over BigBird-large's", Ratio((SENS, "launch_overhead_us=16/GPT-Neo-1.3B", SDF), (SENS, "launch_overhead_us=16/BigBird-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "Launch overhead 16 us: GPT-Neo-1.3B's SDF speedup over Longformer-large's", Ratio((SENS, "launch_overhead_us=16/GPT-Neo-1.3B", SDF), (SENS, "launch_overhead_us=16/Longformer-large", SDF)), None, -INF, 1.0),
    claim("Ablations", "BigBird-large: SDF speedup, saturation threads x2 over x0.5 (tracks the constant)", Ratio((SENS, "mem_saturation_threads x2/BigBird-large", SDF), (SENS, "mem_saturation_threads x0.5/BigBird-large", SDF)), None, 1.0, INF),
    claim("Ablations", "Longformer-large: SDF speedup, saturation threads x2 over x0.5 (tracks the constant)", Ratio((SENS, "mem_saturation_threads x2/Longformer-large", SDF), (SENS, "mem_saturation_threads x0.5/Longformer-large", SDF)), None, 1.0, INF),
    claim("Extensions", "BERT-large: online-softmax speedup", Row((ONLINE, "BERT-large/seq_len=4096", "online_speedup")), None, 1.85, 2.05),
    claim("Extensions", "BERT-large: SDF speedup, next to online softmax", Row((ONLINE, "BERT-large/seq_len=4096", SDF)), None, 1.23, 1.29),
    claim("Extensions", "BERT-large: online-softmax traffic over baseline", Row((ONLINE, "BERT-large/seq_len=4096", "online_traffic")), None, 0.0, 0.08),
    claim("Extensions", "BERT-large at L = 1024: online-softmax speedup over SDF's (within 10%)", Ratio((ONLINE, "BERT-large/seq_len=1024", "online_speedup"), (ONLINE, "BERT-large/seq_len=1024", SDF)), None, 1.0, 1.1),
    claim("Extensions", "BERT-large: training speedup", Row((TRAIN, BERT, "train_speedup")), None, 1.08, 1.14),
    claim("Extensions", "GPT-Neo-1.3B: training speedup", Row((TRAIN, NEO, "train_speedup")), None, 1.03, 1.08),
    claim("Extensions", "BigBird-large: training speedup", Row((TRAIN, BB, "train_speedup")), None, 1.40, 1.52),
    claim("Extensions", "Longformer-large: training speedup", Row((TRAIN, LF, "train_speedup")), None, 1.37, 1.49),
    claim("Extensions", "BERT-large: training traffic saved per iteration, GB", Row((TRAIN, BERT, "traffic_saved_gb")), None, 23.0, 26.0),
    claim("Extensions", "GPT-Neo-1.3B: training traffic saved per iteration, GB", Row((TRAIN, NEO, "traffic_saved_gb")), None, 23.0, 26.0),
    claim("Extensions", "GPT-Neo-1.3B decode at context 512: softmax share of time", Row((DECODE, "GPT-Neo-1.3B/context=512", SHARE)), None, -INF, 0.01),
    claim("Extensions", "GPT-Neo-1.3B decode at context 2048: softmax share of time", Row((DECODE, "GPT-Neo-1.3B/context=2048", SHARE)), None, -INF, 0.01),
    claim("Extensions", "GPT-Neo-1.3B decode at context 8192: softmax share of time", Row((DECODE, "GPT-Neo-1.3B/context=8192", SHARE)), None, -INF, 0.01),
    claim("Extensions", "GPT-Neo-1.3B decode at context 512: SDF speedup (neutral)", Row((DECODE, "GPT-Neo-1.3B/context=512", SDF)), None, 0.99, 1.01),
    claim("Extensions", "GPT-Neo-1.3B decode at context 2048: SDF speedup (neutral)", Row((DECODE, "GPT-Neo-1.3B/context=2048", SDF)), None, 0.99, 1.01),
    claim("Extensions", "GPT-Neo-1.3B decode at context 8192: SDF speedup (neutral)", Row((DECODE, "GPT-Neo-1.3B/context=8192", SDF)), None, 0.99, 1.01),
    claim("Extensions", "Transformer-big at 4096/4096: SDF speedup", Row((S2S, "Transformer-big/src_len=4096/tgt_len=4096", SDF)), None, 1.24, 1.32),
    claim("Extensions", "Transformer-big at 4096/4096: online-softmax speedup", Row((S2S, "Transformer-big/src_len=4096/tgt_len=4096", "online_speedup")), None, 1.95, 2.15),
    claim("Extensions", "Transformer-big at 4096/4096: baseline latency, ms", Row((S2S, "Transformer-big/src_len=4096/tgt_len=4096", "baseline_ms")), None, 55.0, 58.0),
    claim("Extensions", "BERT-large baseline: memory-bound share of time", Row((ROOF, "BERT-large/Baseline", "memory_bound_frac")), None, 0.70, 0.78),
    claim("Extensions", "BERT-large SDF: memory-bound share of time", Row((ROOF, "BERT-large/SDF", "memory_bound_frac")), None, 0.63, 0.71),
    claim("Extensions", "GPT-Neo-1.3B baseline: memory-bound share of time", Row((ROOF, "GPT-Neo-1.3B/Baseline", "memory_bound_frac")), None, 0.18, 0.25),
    claim("Extensions", "GPT-Neo-1.3B SDF: memory-bound share of time", Row((ROOF, "GPT-Neo-1.3B/SDF", "memory_bound_frac")), None, 0.0, 0.03),
    claim("Extensions", "Corpus serving, baseline: padded time over bucketed", Ratio((SERVE, "BERT-large/batch=8/padded/Baseline", "corpus_s"), (SERVE, "BERT-large/batch=8/bucketed/Baseline", "corpus_s")), None, 2.1, 2.3),
    claim("Extensions", "Corpus serving: padded baseline time over bucketed SDF", Ratio((SERVE, "BERT-large/batch=8/padded/Baseline", "corpus_s"), (SERVE, "BERT-large/batch=8/bucketed/SDF", "corpus_s")), None, 2.7, 2.95),
];

/// A claim measured on a row set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outcome {
    /// The claim.
    pub claim: Claim,
    /// The measured value, or the first row the claim reads that is
    /// missing.
    pub measured: Result<f64, RowKey>,
}

impl Outcome {
    /// Whether the measured value lies strictly inside the claim's band;
    /// never when a row is missing.
    pub fn holds(&self) -> bool {
        let (lo, hi) = self.claim.band;
        matches!(self.measured, Ok(x) if lo < x && x < hi)
    }

    /// The cells of the outcome's table row, under [`HEADERS`].
    pub fn cells(&self) -> [String; 6] {
        let c = &self.claim;
        let (measured, verdict) = match self.measured {
            Ok(x) => (num(x), if self.holds() { "ok" } else { "OUT OF BAND" }),
            Err((bin, config, metric)) => (format!("no row {bin}/{config}/{metric}"), "MISSING"),
        };
        let band = match c.band {
            (lo, hi) if lo == -INF => format!("< {}", num(hi)),
            (lo, hi) if hi == INF => format!("> {}", num(lo)),
            (lo, hi) => format!("({}, {})", num(lo), num(hi)),
        };
        let paper = c.paper.map_or_else(|| "-".to_owned(), num);
        let [section, statement, verdict] = [c.section, c.statement, verdict].map(str::to_owned);
        [section, statement, paper, measured, band, verdict]
    }
}

/// The column headers of [`Outcome::cells`].
pub const HEADERS: [&str; 6] = ["section", "claim", "paper", "measured", "band", "verdict"];

/// Every claim of `claims` measured on `rows`, in table order.
pub fn check(claims: &[Claim], rows: &[BenchRow]) -> Vec<Outcome> {
    claims
        .iter()
        .map(|&claim| Outcome {
            claim,
            measured: claim.reads.value(rows),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The figure rows without the row `drop`, and with `moved` in place of
    /// its row's value.
    fn rows(drop: RowKey, moved: (RowKey, f64)) -> Vec<BenchRow> {
        static ROWS: std::sync::OnceLock<Vec<BenchRow>> = std::sync::OnceLock::new();
        let rows = ROWS.get_or_init(|| {
            crate::experiments::figure_rows(&crate::DeviceSpec::a100()).expect("figure rows")
        });
        let mut rows: Vec<BenchRow> = rows.iter().filter(|r| r.key() != drop).cloned().collect();
        for r in rows.iter_mut().filter(|r| r.key() == moved.0) {
            r.value = moved.1;
        }
        rows
    }

    fn failed(rows: &[BenchRow]) -> Vec<String> {
        check(CLAIMS, rows)
            .iter()
            .filter(|o| !o.holds())
            .map(|o| o.cells().join(" | "))
            .collect()
    }

    const NONE: RowKey = ("-", "-", "-");

    #[test]
    fn a_value_moved_out_of_its_band_fails_its_claim() {
        assert_eq!(failed(&rows(NONE, (NONE, 0.0))), Vec::<String>::new());
        // BERT-large's SDF speedup where a softmax-efficiency mutant puts it.
        let failed = failed(&rows(NONE, ((F8, BERT, SDF), 1.486)));
        assert_eq!(
            failed,
            ["Fig. 8 | BERT-large: SDF speedup | 1.25 | 1.486 | (1.1, 1.4) | OUT OF BAND"]
        );
    }

    #[test]
    fn a_missing_row_fails_every_claim_that_reads_it() {
        const GONE: RowKey = (F9A, "GPT-Neo-1.3B/seq_len=1024/batch=1", SDF);
        let rows = rows(GONE, (NONE, 0.0));
        // The 1024 → 2048 growth and the 512 → 1024 dip read it.
        let failed = failed(&rows);
        assert_eq!(failed.len(), 2, "{failed:?}");
        let gone = "no row fig9_seq_sweep/GPT-Neo-1.3B/seq_len=1024/batch=1/sdf_speedup";
        assert!(failed
            .iter()
            .all(|f| f.starts_with("Fig. 9(a)") && f.contains(gone) && f.ends_with("MISSING")));
        // A missing row never passes, whatever the band.
        let open = claim("-", "-", MeanOfInverses(&[GONE]), None, -INF, INF);
        assert_eq!(check(&[open], &rows)[0].measured, Err(GONE));
        assert!(!check(&[open], &rows)[0].holds());
    }
}
