//! Experiment drivers: one function per table/figure of the paper.
//!
//! Each driver runs the simulated experiments and returns typed rows; the
//! `resoftmax-bench` driver's subcommands print them, and the integration
//! tests assert the paper's qualitative claims on them. See `EXPERIMENTS.md`
//! for the paper-vs-measured record.

use resoftmax_gpusim::{DeviceSpec, KernelCategory};
use resoftmax_model::{
    Error, LibraryProfile, ModelConfig, RunParams, RunReport, Session, SoftmaxStrategy,
};
use resoftmax_parallel::parallel_map;
use serde::{Deserialize, Serialize};

/// The paper's default evaluation point: L = 4096, batch 1 (§4).
pub const DEFAULT_SEQ_LEN: usize = 4096;

/// Simulates one inference iteration of `model` on `device`.
fn run(model: &ModelConfig, params: &RunParams, device: &DeviceSpec) -> Result<RunReport, Error> {
    Session::new(model, params, device)?.run()
}

/// One bar group of Fig. 2: a model's execution-time breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Model name.
    pub model: String,
    /// Total latency in milliseconds.
    pub total_ms: f64,
    /// Fraction of time in SDA MatMuls (`Q·Kᵀ` + `P·V`).
    pub matmul_sda_frac: f64,
    /// Fraction in the softmax family.
    pub softmax_frac: f64,
    /// Fraction in MHA FC layers.
    pub fc_frac: f64,
    /// Fraction in the FeedForward block.
    pub feedforward_frac: f64,
    /// Everything else (LayerNorm, elementwise, embedding).
    pub etc_frac: f64,
    /// Fraction in the whole SDA block.
    pub sda_frac: f64,
}

/// Fig. 2: execution-time breakdown of the four models on one device.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn fig2_breakdown(device: &DeviceSpec, seq_len: usize) -> Result<Vec<Fig2Row>, Error> {
    let models = ModelConfig::all_eval_models();
    parallel_map(&models, |_, model| {
        let r = run(model, &RunParams::new(seq_len), device)?;
        let b = r.breakdown();
        let total = b.total_time_s();
        let frac = |cats: &[KernelCategory]| -> f64 {
            cats.iter().map(|&c| b.time_of(c)).sum::<f64>() / total
        };
        Ok(Fig2Row {
            model: model.name.clone(),
            total_ms: total * 1e3,
            matmul_sda_frac: frac(&[KernelCategory::MatMulQk, KernelCategory::MatMulPv]),
            softmax_frac: r.softmax_time_fraction(),
            fc_frac: frac(&[KernelCategory::Fc]),
            feedforward_frac: frac(&[KernelCategory::FeedForward]),
            etc_frac: frac(&[
                KernelCategory::LayerNorm,
                KernelCategory::Scale,
                KernelCategory::Mask,
                KernelCategory::Activation,
                KernelCategory::Other,
            ]),
            sda_frac: r.sda_time_fraction(),
        })
    })
    .into_iter()
    .collect()
}

/// Fig. 5: time and traffic shares of the decomposed softmax sub-layers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig5Row {
    /// Model name.
    pub model: String,
    /// LS share of decomposed-softmax time.
    pub ls_time_frac: f64,
    /// IR share of time.
    pub ir_time_frac: f64,
    /// GS share of time.
    pub gs_time_frac: f64,
    /// LS share of decomposed-softmax off-chip traffic.
    pub ls_dram_frac: f64,
    /// IR share of traffic.
    pub ir_dram_frac: f64,
    /// GS share of traffic.
    pub gs_dram_frac: f64,
}

/// Fig. 5: runs each model under SD and splits the softmax sub-layer costs.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn fig5_sublayers(device: &DeviceSpec, seq_len: usize) -> Result<Vec<Fig5Row>, Error> {
    let models = ModelConfig::all_eval_models();
    parallel_map(&models, |_, model| {
        let r = run(
            model,
            &RunParams::new(seq_len).strategy(SoftmaxStrategy::Decomposed),
            device,
        )?;
        let b = r.breakdown();
        let (ls_t, ir_t, gs_t) = (
            b.time_of(KernelCategory::LocalSoftmax),
            b.time_of(KernelCategory::InterReduction),
            b.time_of(KernelCategory::GlobalScaling),
        );
        let (ls_d, ir_d, gs_d) = (
            b.dram_of(KernelCategory::LocalSoftmax),
            b.dram_of(KernelCategory::InterReduction),
            b.dram_of(KernelCategory::GlobalScaling),
        );
        let tt = ls_t + ir_t + gs_t;
        let td = ls_d + ir_d + gs_d;
        Ok(Fig5Row {
            model: model.name.clone(),
            ls_time_frac: ls_t / tt,
            ir_time_frac: ir_t / tt,
            gs_time_frac: gs_t / tt,
            ls_dram_frac: ls_d / td,
            ir_dram_frac: ir_d / td,
            gs_dram_frac: gs_d / td,
        })
    })
    .into_iter()
    .collect()
}

/// One bar of Fig. 7: a library's latency on a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Row {
    /// Library name (HG / FT / TRT / DS / Ours-baseline / AutoTVM).
    pub library: String,
    /// Model name.
    pub model: String,
    /// Per-iteration latency in milliseconds.
    pub total_ms: f64,
}

/// Fig. 7: library comparison on BERT-large and BigBird-large
/// (plus AutoTVM, reported in the §4 text).
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn fig7_libraries(device: &DeviceSpec, seq_len: usize) -> Result<Vec<Fig7Row>, Error> {
    let mut lineup = LibraryProfile::fig7_lineup();
    lineup.push(LibraryProfile::autotvm());
    let mut combos = Vec::new();
    for model in [ModelConfig::bert_large(), ModelConfig::bigbird_large()] {
        for profile in &lineup {
            combos.push((model.clone(), profile.clone()));
        }
    }
    parallel_map(&combos, |_, (model, profile)| {
        let r = run(
            model,
            &RunParams::new(seq_len).profile(profile.clone()),
            device,
        )?;
        Ok(Fig7Row {
            library: profile.name.clone(),
            model: model.name.clone(),
            total_ms: r.total_time_s() * 1e3,
        })
    })
    .into_iter()
    .collect()
}

/// One model's Fig. 8 measurements (normalized to the baseline).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Model name.
    pub model: String,
    /// Baseline latency in milliseconds.
    pub baseline_ms: f64,
    /// Baseline off-chip traffic in GB.
    pub baseline_gb: f64,
    /// SD speedup over baseline (>1 is faster).
    pub sd_speedup: f64,
    /// SDF speedup over baseline.
    pub sdf_speedup: f64,
    /// SD traffic normalized to baseline.
    pub sd_traffic: f64,
    /// SDF traffic normalized to baseline.
    pub sdf_traffic: f64,
    /// SDF *off-chip access* energy normalized to baseline (DRAM-access
    /// energy only — the quantity the paper's abstract reports at −29%).
    pub sdf_energy: f64,
    /// Off-chip accesses around the softmax layer under SDF, normalized to
    /// baseline: the attention matrix crosses the softmax boundary four
    /// times in the baseline (`Q·Kᵀ` write, softmax read+write, `P·V` read)
    /// and twice after fusion (`x'` write and read), plus the small IR /
    /// intermediate traffic. Paper §5.1: fusion reduces the softmax layer's
    /// off-chip accesses by 1.58–2.51×.
    pub softmax_traffic_ratio: f64,
}

/// Fig. 8: latency and traffic with SD and SDF applied, per model.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn fig8_sd_sdf(
    device: &DeviceSpec,
    seq_len: usize,
    batch: usize,
) -> Result<Vec<Fig8Row>, Error> {
    // Fan out over model × strategy (12 independent runs), then regroup the
    // three reports of each model into its row.
    let models = ModelConfig::all_eval_models();
    let strategies = [
        SoftmaxStrategy::Baseline,
        SoftmaxStrategy::Decomposed,
        SoftmaxStrategy::Recomposed,
    ];
    let combos: Vec<(ModelConfig, SoftmaxStrategy)> = models
        .iter()
        .flat_map(|m| strategies.iter().map(move |&s| (m.clone(), s)))
        .collect();
    let reports: Vec<RunReport> = parallel_map(&combos, |_, (model, s)| {
        run(
            model,
            &RunParams::new(seq_len).batch(batch).strategy(*s),
            device,
        )
    })
    .into_iter()
    .collect::<Result<_, _>>()?;

    let mut rows = Vec::new();
    for (model, runs) in models.iter().zip(reports.chunks_exact(strategies.len())) {
        let (base, sd, sdf) = (&runs[0], &runs[1], &runs[2]);
        // Softmax-boundary traffic: everything that crosses between the
        // softmax layer and its adjacent MatMuls — the QK output stream, the
        // softmax kernels' own traffic, and the PV input stream.
        let boundary = |r: &RunReport| -> f64 {
            r.timeline
                .kernels()
                .map(|k| match k.category {
                    c if c.is_softmax_family() => k.dram_read_bytes + k.dram_write_bytes,
                    KernelCategory::MatMulQk => k.dram_write_bytes,
                    KernelCategory::MatMulPv => k.dram_read_bytes,
                    _ => 0.0,
                })
                .sum()
        };
        let base_softmax_dram = boundary(base);
        let sdf_softmax_dram = boundary(sdf);
        // DRAM-access energy scales with traffic at a constant pJ/byte.
        let pj = device.dram_pj_per_byte;
        rows.push(Fig8Row {
            model: model.name.clone(),
            baseline_ms: base.total_time_s() * 1e3,
            baseline_gb: base.total_dram_bytes() / 1e9,
            sd_speedup: base.total_time_s() / sd.total_time_s(),
            sdf_speedup: base.total_time_s() / sdf.total_time_s(),
            sd_traffic: sd.total_dram_bytes() / base.total_dram_bytes(),
            sdf_traffic: sdf.total_dram_bytes() / base.total_dram_bytes(),
            sdf_energy: (sdf.total_dram_bytes() * pj) / (base.total_dram_bytes() * pj),
            softmax_traffic_ratio: sdf_softmax_dram / base_softmax_dram,
        });
    }
    Ok(rows)
}

/// One point of a Fig. 9 sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Model name.
    pub model: String,
    /// Sequence length of this point.
    pub seq_len: usize,
    /// Batch size of this point.
    pub batch: usize,
    /// SDF speedup over baseline at this point.
    pub sdf_speedup: f64,
    /// Softmax fraction of baseline time at this point.
    pub softmax_frac: f64,
}

/// Fig. 9(a): SDF speedup as a function of sequence length.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn fig9_seq_sweep(device: &DeviceSpec, seq_lens: &[usize]) -> Result<Vec<SweepPoint>, Error> {
    let combos: Vec<(ModelConfig, usize)> = ModelConfig::all_eval_models()
        .iter()
        .flat_map(|m| seq_lens.iter().map(move |&l| (m.clone(), l)))
        .collect();
    parallel_map(&combos, |_, (model, l)| sweep_point(device, model, *l, 1))
        .into_iter()
        .collect()
}

/// Fig. 9(b): SDF speedup as a function of batch size.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn fig9_batch_sweep(
    device: &DeviceSpec,
    seq_len: usize,
    batches: &[usize],
) -> Result<Vec<SweepPoint>, Error> {
    let combos: Vec<(ModelConfig, usize)> = ModelConfig::all_eval_models()
        .iter()
        .flat_map(|m| batches.iter().map(move |&b| (m.clone(), b)))
        .collect();
    parallel_map(&combos, |_, (model, b)| {
        sweep_point(device, model, seq_len, *b)
    })
    .into_iter()
    .collect()
}

fn sweep_point(
    device: &DeviceSpec,
    model: &ModelConfig,
    seq_len: usize,
    batch: usize,
) -> Result<SweepPoint, Error> {
    let base = run(model, &RunParams::new(seq_len).batch(batch), device)?;
    let sdf = run(
        model,
        &RunParams::new(seq_len)
            .batch(batch)
            .strategy(SoftmaxStrategy::Recomposed),
        device,
    )?;
    Ok(SweepPoint {
        model: model.name.clone(),
        seq_len,
        batch,
        sdf_speedup: base.total_time_s() / sdf.total_time_s(),
        softmax_frac: base.softmax_time_fraction(),
    })
}

/// One cell of the §5.1 per-GPU speedup comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuSpeedupRow {
    /// Device name.
    pub device: String,
    /// Model name.
    pub model: String,
    /// SDF speedup over baseline.
    pub sdf_speedup: f64,
    /// Softmax fraction of baseline time on this device.
    pub softmax_frac: f64,
}

/// §5.1: SDF speedups on all three GPUs for all four models.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn gpu_speedup_matrix(seq_len: usize) -> Result<Vec<GpuSpeedupRow>, Error> {
    let combos: Vec<(DeviceSpec, ModelConfig)> = DeviceSpec::all_presets()
        .iter()
        .flat_map(|d| {
            ModelConfig::all_eval_models()
                .into_iter()
                .map(move |m| (d.clone(), m))
        })
        .collect();
    parallel_map(&combos, |_, (device, model)| {
        let p = sweep_point(device, model, seq_len, 1)?;
        Ok(GpuSpeedupRow {
            device: device.name.clone(),
            model: model.name.clone(),
            sdf_speedup: p.sdf_speedup,
            softmax_frac: p.softmax_frac,
        })
    })
    .into_iter()
    .collect()
}

/// Table 1: the evaluation GPUs (returned, not hardcoded in the binary, so
/// custom devices show up too).
pub fn table1_devices() -> Vec<DeviceSpec> {
    DeviceSpec::all_presets()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a100() -> DeviceSpec {
        DeviceSpec::a100()
    }

    #[test]
    fn fig2_fractions_sum_to_one() {
        let rows = fig2_breakdown(&a100(), 1024).unwrap();
        assert_eq!(rows.len(), 4);
        for r in &rows {
            let sum =
                r.matmul_sda_frac + r.softmax_frac + r.fc_frac + r.feedforward_frac + r.etc_frac;
            assert!((sum - 1.0).abs() < 1e-9, "{}: {sum}", r.model);
            assert!(r.total_ms > 0.0);
        }
    }

    #[test]
    fn fig5_ir_is_small() {
        // Paper: "the proportion of IR is less than 12.5% in terms of time".
        let rows = fig5_sublayers(&a100(), DEFAULT_SEQ_LEN).unwrap();
        for r in &rows {
            assert!(r.ir_time_frac < 0.125, "{}: IR {}", r.model, r.ir_time_frac);
            assert!(
                r.ir_dram_frac < 0.125,
                "{}: IR dram {}",
                r.model,
                r.ir_dram_frac
            );
            let t = r.ls_time_frac + r.ir_time_frac + r.gs_time_frac;
            assert!((t - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fig7_ordering() {
        let rows = fig7_libraries(&a100(), DEFAULT_SEQ_LEN).unwrap();
        let get = |lib: &str, model: &str| -> f64 {
            rows.iter()
                .find(|r| r.library == lib && r.model == model)
                .unwrap()
                .total_ms
        };
        // Dense: HG slowest of the big four; TRT ≈ ours.
        assert!(get("HG", "BERT-large") > get("TRT", "BERT-large"));
        let trt = get("TRT", "BERT-large");
        let ours = get("Ours-baseline", "BERT-large");
        assert!((trt - ours).abs() / ours < 0.02, "§4: <1% difference");
        // AutoTVM ≈ 1.49× slower than ours on BERT (§4).
        let tvm_ratio = get("AutoTVM", "BERT-large") / ours;
        assert!(
            (1.25..1.8).contains(&tvm_ratio),
            "AutoTVM ratio {tvm_ratio}"
        );
        // Sparse: DS beats the dense fallbacks; ours ≈ DS.
        assert!(get("DS", "BigBird-large") < get("FT", "BigBird-large"));
        assert!(get("DS", "BigBird-large") < get("TRT", "BigBird-large"));
        let ds = get("DS", "BigBird-large");
        let ours_bb = get("Ours-baseline", "BigBird-large");
        assert!((ours_bb - ds).abs() / ds < 0.10, "§4: within 8%");
    }

    #[test]
    fn fig8_matches_paper_bands() {
        let rows = fig8_sd_sdf(&a100(), DEFAULT_SEQ_LEN, 1).unwrap();
        let by = |m: &str| rows.iter().find(|r| r.model.starts_with(m)).unwrap();
        // SD: hurts dense, helps sparse (paper 0.94 / 0.99 / 1.44 / 1.49)
        assert!((0.85..1.0).contains(&by("BERT").sd_speedup));
        assert!((0.85..1.05).contains(&by("GPT").sd_speedup));
        assert!(by("BigBird").sd_speedup > 1.25);
        assert!(by("Longformer").sd_speedup > 1.25);
        // SDF: all faster (paper 1.25 / 1.12 / 1.57 / 1.65)
        assert!((1.1..1.4).contains(&by("BERT").sdf_speedup));
        assert!((1.02..1.25).contains(&by("GPT").sdf_speedup));
        assert!((1.4..1.8).contains(&by("BigBird").sdf_speedup));
        assert!((1.4..1.8).contains(&by("Longformer").sdf_speedup));
        // Traffic: SD roughly doubles softmax traffic; SDF cuts total.
        for r in &rows {
            assert!(r.sd_traffic > 1.2, "{}: {}", r.model, r.sd_traffic);
            assert!(r.sdf_traffic < 0.8, "{}: {}", r.model, r.sdf_traffic);
            assert!(r.sdf_energy < 1.0);
            // paper: softmax traffic reduced 1.58–2.51x; ours is stronger
            // (only IR remains) — at least that band.
            assert!(
                r.softmax_traffic_ratio < 1.0 / 1.5,
                "{}: softmax traffic ratio {}",
                r.model,
                r.softmax_traffic_ratio
            );
        }
    }

    #[test]
    fn fig9_seq_monotone_for_dense() {
        let pts = fig9_seq_sweep(&a100(), &[1024, 2048, 4096]).unwrap();
        let bert: Vec<_> = pts.iter().filter(|p| p.model.starts_with("BERT")).collect();
        assert!(bert[0].sdf_speedup < bert[2].sdf_speedup, "{bert:?}");
        assert!(bert[0].softmax_frac < bert[2].softmax_frac);
    }

    #[test]
    fn fig9_batch_helps_sparse() {
        let pts = fig9_batch_sweep(&a100(), 4096, &[1, 8]).unwrap();
        let bb: Vec<_> = pts
            .iter()
            .filter(|p| p.model.starts_with("BigBird"))
            .collect();
        assert!(
            bb[1].sdf_speedup >= bb[0].sdf_speedup * 0.98,
            "batch should not hurt sparse speedup: {bb:?}"
        );
    }

    #[test]
    fn gpu_matrix_has_all_cells() {
        let rows = gpu_speedup_matrix(1024).unwrap();
        assert_eq!(rows.len(), 12);
        assert!(rows.iter().all(|r| r.sdf_speedup > 0.9));
    }

    #[test]
    fn grid_sweep_covers_the_space() {
        let pts = full_grid_sweep(
            &[DeviceSpec::a100()],
            &[512, 1024],
            &[1],
            &[SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed],
        )
        .unwrap();
        assert_eq!(pts.len(), 4 * 2 * 2);
        assert!(pts.iter().all(|p| p.total_ms > 0.0 && p.dram_gb > 0.0));
        // the grid is a function: no duplicate keys
        let mut keys: Vec<String> = pts
            .iter()
            .map(|p| {
                format!(
                    "{}|{}|{}|{}|{}",
                    p.device, p.model, p.strategy, p.seq_len, p.batch
                )
            })
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), pts.len());
    }

    #[test]
    fn table1_is_the_three_gpus() {
        let d = table1_devices();
        assert_eq!(d.len(), 3);
        assert_eq!(d[0].name, "A100");
    }
}

/// One cell of the full design-space grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridPoint {
    /// Device name.
    pub device: String,
    /// Model name.
    pub model: String,
    /// Strategy label (`Baseline` / `SD` / `SDF` / `Online`).
    pub strategy: String,
    /// Sequence length.
    pub seq_len: usize,
    /// Batch size.
    pub batch: usize,
    /// Per-iteration latency in milliseconds.
    pub total_ms: f64,
    /// Off-chip traffic in GB.
    pub dram_gb: f64,
    /// Off-chip access energy in joules.
    pub energy_j: f64,
    /// Softmax-family share of time.
    pub softmax_frac: f64,
}

/// Sweeps the full design space — every evaluation model × strategy on the
/// given devices, sequence lengths and batch sizes — returning one row per
/// cell, ready for row export and external plotting.
///
/// # Errors
///
/// Returns the [`Error`] of the first cell that fails.
pub fn full_grid_sweep(
    devices: &[DeviceSpec],
    seq_lens: &[usize],
    batches: &[usize],
    strategies: &[SoftmaxStrategy],
) -> Result<Vec<GridPoint>, Error> {
    let mut combos = Vec::new();
    for device in devices {
        for model in ModelConfig::all_eval_models() {
            for &l in seq_lens {
                for &b in batches {
                    for &s in strategies {
                        combos.push((device.clone(), model.clone(), l, b, s));
                    }
                }
            }
        }
    }
    parallel_map(&combos, |_, (device, model, l, b, s)| {
        let r = run(model, &RunParams::new(*l).batch(*b).strategy(*s), device)?;
        Ok(GridPoint {
            device: device.name.clone(),
            model: model.name.clone(),
            strategy: s.label().to_owned(),
            seq_len: *l,
            batch: *b,
            total_ms: r.total_time_s() * 1e3,
            dram_gb: r.total_dram_bytes() / 1e9,
            energy_j: r.total_energy_j(),
            softmax_frac: r.softmax_time_fraction(),
        })
    })
    .into_iter()
    .collect()
}
