//! The paper's claims as data: each number of Figs. 2/5/7/8/9 and §5.1
//! that this repository reproduces is written once, in [`CLAIMS`], with its
//! band. A [`Claim`] reads rows of `BENCH_figures.json`
//! ([`figure_rows`](crate::experiments::figure_rows)) by their `(bin,
//! config, metric)` key ([`Measure`]); [`check`] measures every claim on a
//! row set. The root crate's `paper_claims` tests, the bench driver's
//! `figures` subcommand (and so `reproduce`) and the generated tables of
//! `EXPERIMENTS.md` and `README.md` all read this one table.

use crate::experiments::BenchRow;
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
    /// The paper's figure or section (`"Fig. 8"`, `"§5.1"`).
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

/// Every claim, in the paper's order. All at the A100, L = 4096, batch 1,
/// unless the statement says otherwise. The measures: Fig. 2 and Fig. 9
/// shares are of baseline time; Fig. 7 ratios are of latency; speedups are
/// over the baseline.
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

/// A value with at most four decimals and no trailing zeros.
fn num(x: f64) -> String {
    let s = format!("{x:.4}");
    s.trim_end_matches('0').trim_end_matches('.').to_owned()
}

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
        let rows = ROWS.get_or_init(|| crate::experiments::figure_rows().expect("figure rows"));
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
