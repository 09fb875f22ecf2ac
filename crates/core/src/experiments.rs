//! Experiment drivers: one function per simulated table — each figure of
//! the paper, §5.1 and §6, each ablation and each extension.
//!
//! Each driver runs the simulated experiments and returns typed records;
//! [`rows_of`] flattens records into the `{bin, config, metric, value}`
//! [`BenchRow`]s of every `BENCH_*.json`, and [`figure_rows`] gives every
//! driver's rows on one device, one `bin` per driver: on the A100, those of
//! `BENCH_figures.json`, which [`claims`](crate::claims) holds to the
//! paper's numbers and to the findings EXPERIMENTS.md states. The bench
//! driver's `figures` subcommand prints them, one table per bin.

use resoftmax_gpusim::roofline::classify_timeline;
use resoftmax_gpusim::{DeviceSpec, KernelCategory};
use resoftmax_kernels::costs::{AttnDims, TileConfig};
use resoftmax_model::{
    run_seq2seq, AttentionKind, Error, LibraryProfile, ModelConfig, RunParams, RunReport,
    Seq2SeqConfig, Session, SoftmaxStrategy, Workload, WorkloadConfig,
};
use resoftmax_parallel::parallel_map;
use serde::{Deserialize, Serialize, Value};

/// The paper's evaluation sequence length (§4; batch 1).
pub const PAPER_SEQ_LEN: usize = 4096;

/// The Fig. 9(a) sequence lengths.
pub const FIG9_SEQ_LENS: [usize; 5] = [512, 1024, 2048, 4096, 8192];

/// The Fig. 9(b) batch sizes.
pub const FIG9_BATCHES: [usize; 4] = [1, 2, 4, 8];

/// Simulates one inference iteration of `model` on `device`.
fn run(model: &ModelConfig, params: &RunParams, device: &DeviceSpec) -> Result<RunReport, Error> {
    Session::new(model, params, device)?.run()
}

/// A run's execution-time breakdown: one bar group of Fig. 2, or one stack
/// of Fig. 8(a).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Model name; a Fig. 8(a) stack's is `model/strategy`.
    pub model: String,
    /// Total latency in milliseconds, summed over the breakdown.
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

/// The time shares of run `r`, as the row labelled `model`.
fn time_shares(model: String, r: &RunReport) -> Fig2Row {
    let b = r.breakdown();
    let total = b.total_time_s();
    let frac = |cats: &[KernelCategory]| -> f64 {
        cats.iter().map(|&c| b.time_of(c)).sum::<f64>() / total
    };
    Fig2Row {
        model,
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
    }
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
        Ok(time_shares(model.name.clone(), &r))
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
    /// SDF *off-chip access* energy normalized to baseline: SDF's DRAM
    /// bytes × pJ/B over the baseline's bytes × pJ/B. One pJ/B on both
    /// sides makes it the SDF traffic cut, [`sdf_traffic`](Self::sdf_traffic),
    /// bit for bit; the per-FLOP energy is not in it.
    pub sdf_energy: f64,
    /// Off-chip accesses around the softmax layer under SDF, normalized to
    /// baseline: the attention matrix crosses the softmax boundary four
    /// times in the baseline (`Q·Kᵀ` write, softmax read+write, `P·V` read)
    /// and twice after fusion (`x'` write and read), plus the small IR /
    /// intermediate traffic.
    pub softmax_traffic_ratio: f64,
}

/// Fig. 8: latency and traffic with SD and SDF applied, per model, and
/// Fig. 8(a)'s stacks, the time shares of each (model, strategy) run, whose
/// `model` is `model/strategy`.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn fig8_sd_sdf(
    device: &DeviceSpec,
    seq_len: usize,
    batch: usize,
) -> Result<(Vec<Fig8Row>, Vec<Fig2Row>), Error> {
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
    let stacks = combos
        .iter()
        .zip(&reports)
        .map(|((model, s), r)| time_shares(format!("{}/{}", model.name, s.label()), r))
        .collect();
    Ok((rows, stacks))
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

/// One sweep point: `model`'s SDF speedup over the baseline, and the
/// baseline's softmax share, at `seq_len` and `batch` on `device`.
///
/// # Errors
///
/// Returns the [`Error`] of the first run that fails.
pub fn sweep_point(
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

/// `training_stash` (§6): the softmax inputs a BERT-large training forward
/// pass would stash for the backward pass, in binary16 at batch 1. Eq. 3
/// needs only the output `Y`, so the recomposed forward pass stores none.
#[derive(Serialize)]
struct StashRow {
    model: String,
    /// One attention matrix per layer, in GB: written by the forward pass
    /// and read back once by the backward pass.
    stash_gb: f64,
}

fn training_stash(seq_len: usize) -> StashRow {
    let m = ModelConfig::bert_large();
    let per_layer = AttnDims::new(seq_len, m.d_head(), m.heads, 1).attn_bytes() as f64;
    StashRow {
        stash_gb: per_layer * m.layers as f64 / 1e9,
        model: m.name,
    }
}

/// One line of `ablation_tile_size`: BERT-large under SDF at sub-vector
/// width `T` (`T{width}`), over the baseline. §3.3 makes `T` the MatMul
/// output-tile width; IR's intermediates scale as `1/T`. A width whose
/// thread block does not fit on the device's SMs (`T = 16` on the T4)
/// has no line.
#[derive(Serialize)]
struct TileRow {
    model: String,
    device: String,
    tile: String,
    sdf_speedup: f64,
    /// SDF's off-chip traffic over the baseline's.
    traffic_ratio: f64,
}

fn ablation_tile_size(device: &DeviceSpec, seq_len: usize) -> Result<Vec<TileRow>, Error> {
    let model = ModelConfig::bert_large();
    let base = run(&model, &RunParams::new(seq_len), device)?;
    let sdf = RunParams::new(seq_len).strategy(SoftmaxStrategy::Recomposed);
    let mut rows = Vec::new();
    for t in [16, 32, 64, 128, 256] {
        let r = match run(&model, &sdf.clone().tile(TileConfig::new(64, t)), device) {
            Err(Error::Launch(_)) => continue,
            r => r?,
        };
        rows.push(TileRow {
            model: model.name.clone(),
            device: device.name.clone(),
            tile: format!("T{t}"),
            sdf_speedup: base.total_time_s() / r.total_time_s(),
            traffic_ratio: r.total_dram_bytes() / base.total_dram_bytes(),
        });
    }
    Ok(rows)
}

/// `ablation_head_dim`: a 24-layer dense encoder at `D_m = 1024` split
/// into `heads × D_head` (model `dense-{heads}x{D_head}`). A larger head
/// gives the attention MatMuls more FLOPs per attention-matrix element,
/// which dilutes the softmax share: GPT-Neo's `D_head = 128`.
fn ablation_head_dim(device: &DeviceSpec, seq_len: usize) -> Result<Vec<SweepPoint>, Error> {
    [32, 16, 8, 4]
        .into_iter()
        .map(|heads| {
            let model = ModelConfig {
                name: format!("dense-{heads}x{}", 1024 / heads),
                layers: 24,
                d_model: 1024,
                heads,
                d_ff: 4096,
                attention: AttentionKind::Dense { causal: false },
            };
            sweep_point(device, &model, seq_len, 1)
        })
        .collect()
}

/// One line of `ablation_l2`: BERT-large on the device with `l2_mb` of
/// L2. §2.3's traffic argument holds while the attention matrix dwarfs
/// the L2.
#[derive(Serialize)]
struct L2Row {
    model: String,
    l2_mb: usize,
    /// The baseline's off-chip traffic in GB.
    baseline_gb: f64,
    sdf_speedup: f64,
}

fn ablation_l2(device: &DeviceSpec, seq_len: usize) -> Result<Vec<L2Row>, Error> {
    let model = ModelConfig::bert_large();
    [4, 40, 256, 1024]
        .into_iter()
        .map(|l2_mb| {
            let mut device = device.clone();
            device.l2_mb = l2_mb as f64;
            let base = run(&model, &RunParams::new(seq_len), &device)?;
            let sdf = run(
                &model,
                &RunParams::new(seq_len).strategy(SoftmaxStrategy::Recomposed),
                &device,
            )?;
            Ok(L2Row {
                model: model.name.clone(),
                l2_mb,
                baseline_gb: base.total_dram_bytes() / 1e9,
                sdf_speedup: base.total_time_s() / sdf.total_time_s(),
            })
        })
        .collect()
}

/// One line of `ablation_utilization`: a sparse model's SD speedup with
/// the bandwidth-utilization model (§5.1's mechanism) and without it, where
/// a saturation point of one thread gives every kernel full bandwidth.
#[derive(Serialize)]
struct UtilizationRow {
    model: String,
    sd_speedup: f64,
    sd_speedup_full_bandwidth: f64,
}

fn ablation_utilization(device: &DeviceSpec, seq_len: usize) -> Result<Vec<UtilizationRow>, Error> {
    let mut full = device.clone();
    full.mem_saturation_threads = 1.0;
    let sd_speedup = |model: &ModelConfig, device: &DeviceSpec| -> Result<f64, Error> {
        let base = run(model, &RunParams::new(seq_len), device)?;
        let sd = RunParams::new(seq_len).strategy(SoftmaxStrategy::Decomposed);
        Ok(base.total_time_s() / run(model, &sd, device)?.total_time_s())
    };
    [
        ModelConfig::bigbird_large(),
        ModelConfig::longformer_large(),
    ]
    .iter()
    .map(|model| {
        Ok(UtilizationRow {
            model: model.name.clone(),
            sd_speedup: sd_speedup(model, device)?,
            sd_speedup_full_bandwidth: sd_speedup(model, &full)?,
        })
    })
    .collect()
}

/// One line of `ablation_sensitivity`: a model's SDF speedup on the device
/// with one calibration constant perturbed, as the perturbation names it:
/// the fitted saturation point halved and doubled, the launch overhead
/// zeroed and at 16 µs.
#[derive(Serialize)]
struct SensitivityRow {
    perturbation: String,
    model: String,
    sdf_speedup: f64,
}

fn ablation_sensitivity(device: &DeviceSpec, seq_len: usize) -> Result<Vec<SensitivityRow>, Error> {
    let mut perturbed = Vec::new();
    for scale in [0.5, 2.0] {
        let mut d = device.clone();
        d.mem_saturation_threads *= scale;
        perturbed.push((format!("mem_saturation_threads x{scale}"), d));
    }
    for us in [0.0, 16.0] {
        let mut d = device.clone();
        d.kernel_launch_overhead_us = us;
        perturbed.push((format!("launch_overhead_us={us}"), d));
    }
    let mut rows = Vec::new();
    for (perturbation, device) in &perturbed {
        for model in ModelConfig::all_eval_models() {
            rows.push(SensitivityRow {
                perturbation: perturbation.clone(),
                sdf_speedup: sweep_point(device, &model, seq_len, 1)?.sdf_speedup,
                model: model.name,
            });
        }
    }
    Ok(rows)
}

/// One line of `roofline_report` (§3.1): the share of a run's time in
/// memory-bound kernels.
#[derive(Serialize)]
struct RooflineRow {
    model: String,
    strategy: &'static str,
    memory_bound_frac: f64,
}

fn roofline_report(device: &DeviceSpec, seq_len: usize) -> Result<Vec<RooflineRow>, Error> {
    let mut rows = Vec::new();
    for model in ModelConfig::all_eval_models() {
        for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            let r = run(&model, &RunParams::new(seq_len).strategy(strategy), device)?;
            rows.push(RooflineRow {
                model: model.name.clone(),
                strategy: strategy.label(),
                memory_bound_frac: classify_timeline(device, &r.timeline).memory_bound_fraction(),
            });
        }
    }
    Ok(rows)
}

/// One line of `extension_online_softmax`: SDF against fully fused online
/// softmax (later FlashAttention), which keeps the attention matrix on chip.
#[derive(Serialize)]
struct OnlineRow {
    model: String,
    seq_len: usize,
    sdf_speedup: f64,
    online_speedup: f64,
    /// Online softmax's off-chip traffic over the baseline's.
    online_traffic: f64,
}

fn extension_online_softmax(device: &DeviceSpec) -> Result<Vec<OnlineRow>, Error> {
    let mut rows = Vec::new();
    for model in ModelConfig::all_eval_models() {
        for seq_len in [1024, 4096, 8192] {
            let p = RunParams::new(seq_len);
            let base = run(&model, &p, device)?;
            let sdf = run(
                &model,
                &p.clone().strategy(SoftmaxStrategy::Recomposed),
                device,
            )?;
            let online = run(&model, &p.strategy(SoftmaxStrategy::OnlineFused), device)?;
            rows.push(OnlineRow {
                model: model.name.clone(),
                seq_len,
                sdf_speedup: base.total_time_s() / sdf.total_time_s(),
                online_speedup: base.total_time_s() / online.total_time_s(),
                online_traffic: online.total_dram_bytes() / base.total_dram_bytes(),
            });
        }
    }
    Ok(rows)
}

/// One line of `extension_training`: §6 carried to a full training
/// iteration (forward and backward), recomposed over baseline. The
/// backward's row dot is decomposed like the forward normalizer.
#[derive(Serialize)]
struct TrainingRow {
    model: String,
    train_speedup: f64,
    /// The off-chip traffic recomposition saves per iteration, in GB.
    traffic_saved_gb: f64,
}

fn extension_training(device: &DeviceSpec, seq_len: usize) -> Result<Vec<TrainingRow>, Error> {
    ModelConfig::all_eval_models()
        .into_iter()
        .map(|model| {
            let p = RunParams::new(seq_len);
            let base = Session::new(&model, &p, device)?.train()?;
            let sdf = p.strategy(SoftmaxStrategy::Recomposed);
            let sdf = Session::new(&model, &sdf, device)?.train()?;
            Ok(TrainingRow {
                train_speedup: base.total_time_s() / sdf.total_time_s(),
                traffic_saved_gb: (base.total_dram_bytes() - sdf.total_dram_bytes()) / 1e9,
                model: model.name,
            })
        })
        .collect()
}

/// One line of `extension_decode`: one GPT-Neo-1.3B decode step with a KV
/// cache of `context` tokens. Its attention is one L2-resident row per
/// head, so recomposition has no off-chip softmax traffic to remove.
#[derive(Serialize)]
struct DecodeRow {
    model: String,
    context: usize,
    /// The softmax share of the baseline step's time.
    softmax_frac: f64,
    sdf_speedup: f64,
}

fn extension_decode(device: &DeviceSpec) -> Result<Vec<DecodeRow>, Error> {
    let model = ModelConfig::gpt_neo_1_3b();
    [512, 2048, 8192]
        .into_iter()
        .map(|context| {
            let p = RunParams::new(context);
            let base = Session::new(&model, &p, device)?.decode_step(context)?;
            let sdf = p.strategy(SoftmaxStrategy::Recomposed);
            let sdf = Session::new(&model, &sdf, device)?.decode_step(context)?;
            Ok(DecodeRow {
                model: model.name.clone(),
                context,
                softmax_frac: base.softmax_time_fraction(),
                sdf_speedup: base.total_time_s() / sdf.total_time_s(),
            })
        })
        .collect()
}

/// One line of `extension_seq2seq`: an encoder–decoder transformer (§2.1),
/// whose decoder layers recompose both the causal self-attention and the
/// rectangular `tgt_len × src_len` cross-attention.
#[derive(Serialize)]
struct Seq2SeqRow {
    model: String,
    src_len: usize,
    tgt_len: usize,
    baseline_ms: f64,
    sdf_speedup: f64,
    online_speedup: f64,
}

fn extension_seq2seq(device: &DeviceSpec) -> Result<Vec<Seq2SeqRow>, Error> {
    let cfg = Seq2SeqConfig::vanilla_transformer_big();
    [(1024, 1024), (4096, 1024), (4096, 4096)]
        .into_iter()
        .map(|(src_len, tgt_len)| {
            let run = |strategy| {
                let p = RunParams::new(src_len).strategy(strategy);
                run_seq2seq(&cfg, src_len, tgt_len, &p, device.clone()).map(|r| r.total_time_s())
            };
            let base = run(SoftmaxStrategy::Baseline)?;
            Ok(Seq2SeqRow {
                model: cfg.name.clone(),
                src_len,
                tgt_len,
                baseline_ms: base * 1e3,
                sdf_speedup: base / run(SoftmaxStrategy::Recomposed)?,
                online_speedup: base / run(SoftmaxStrategy::OnlineFused)?,
            })
        })
        .collect()
}

/// One line of `extension_serving`: the simulated time to serve the
/// synthetic long-document corpus ([`Workload`]) in batches of 8 on
/// BERT-large, every batch `padded` to the longest bucket or `bucketed` by
/// length ([`Workload::bucketed_iterations`]), under a softmax strategy.
#[derive(Serialize)]
struct ServingRow {
    model: String,
    batch: usize,
    batching: &'static str,
    strategy: &'static str,
    corpus_s: f64,
}

fn extension_serving(device: &DeviceSpec) -> Result<Vec<ServingRow>, Error> {
    let corpus = Workload::generate(&WorkloadConfig::default());
    let model = ModelConfig::bert_large();
    let batch = 8;
    let buckets = [512, 1024, 2048, 4096, 8192];
    let padded = vec![(buckets[buckets.len() - 1], corpus.iterations(batch))];
    let bucketed = corpus.bucketed_iterations(&buckets, batch);
    let mut rows = Vec::new();
    for (batching, plan) in [("padded", &padded), ("bucketed", &bucketed)] {
        for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            let mut corpus_s = 0.0;
            for &(l, iterations) in plan {
                let p = RunParams::new(l).batch(batch).strategy(strategy);
                corpus_s += run(&model, &p, device)?.total_time_s() * iterations as f64;
            }
            rows.push(ServingRow {
                model: model.name.clone(),
                batch,
                batching,
                strategy: strategy.label(),
                corpus_s,
            });
        }
    }
    Ok(rows)
}

/// One row of a machine-readable benchmark report — the schema of every
/// `BENCH_*.json` file and of every `--out` report but a chrome trace, so
/// downstream tooling can concatenate them without per-experiment parsers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRow {
    /// The producing experiment (`"tune"`, `"ablation_tile_size"`, …).
    pub bin: String,
    /// The grid point, e.g. `"bert-large/A100/prefill/L4096/b1"`.
    pub config: String,
    /// The measured quantity, e.g. `"tuned_s"`, `"speedup"`.
    pub metric: String,
    /// The value, in the metric's unit.
    pub value: f64,
}

impl BenchRow {
    /// Constructs a row.
    pub fn new(
        bin: impl Into<String>,
        config: impl Into<String>,
        metric: impl Into<String>,
        value: f64,
    ) -> Self {
        BenchRow {
            bin: bin.into(),
            config: config.into(),
            metric: metric.into(),
            value,
        }
    }

    /// The row's `(bin, config, metric)` key.
    pub fn key(&self) -> (&str, &str, &str) {
        (&self.bin, &self.config, &self.metric)
    }
}

/// Flattens experiment records into rows, one per `f64` field. A record's
/// string and integer fields, in field order, form each of its rows'
/// `config` (integers as `name=value`); the float field's name is the
/// `metric`. Any other record shape is an [`Error::InvalidConfig`].
pub fn rows_of<T: Serialize>(bin: &str, records: &[T]) -> Result<Vec<BenchRow>, Error> {
    let invalid = |reason: String| Error::InvalidConfig { reason };
    let mut rows = Vec::new();
    for record in records {
        let value = record.to_value();
        let fields = value
            .as_object()
            .ok_or_else(|| invalid(format!("{bin}: a record is not a struct")))?;
        let mut config = Vec::new();
        let mut metrics = Vec::new();
        for (name, field) in fields {
            match field {
                Value::Str(s) => config.push(s.clone()),
                Value::U64(n) => config.push(format!("{name}={n}")),
                Value::I64(n) => config.push(format!("{name}={n}")),
                Value::F64(x) => metrics.push((name, *x)),
                _ => {
                    return Err(invalid(format!(
                        "{bin}: field `{name}` is not a string, an integer or a float"
                    )))
                }
            }
        }
        let config = config.join("/");
        rows.extend(
            metrics
                .into_iter()
                .map(|(metric, x)| BenchRow::new(bin, &config, metric.as_str(), x)),
        );
    }
    Ok(rows)
}

/// The rows of Figs. 2/5/7/8/9, §5.1, §6, the ablations and the extensions
/// on `device` at L = 4096 (the sweeps at [`FIG9_SEQ_LENS`] and
/// [`FIG9_BATCHES`]; §5.1 on every preset), flattened by [`rows_of`], one
/// `bin` per driver: the figures first, with Fig. 8(a)'s stacks last among
/// them as `fig8_stacks`, then `training_stash`, the five `ablation_*`
/// bins, `roofline_report` and the five `extension_*` bins; or the
/// [`Error`] of the first run that fails. On the A100 they are
/// `BENCH_figures.json`.
pub fn figure_rows(device: &DeviceSpec) -> Result<Vec<BenchRow>, Error> {
    let l = PAPER_SEQ_LEN;
    let (fig8, stacks) = fig8_sd_sdf(device, l, 1)?;
    Ok([
        rows_of("fig2_breakdown", &fig2_breakdown(device, l)?)?,
        rows_of("fig5_sublayers", &fig5_sublayers(device, l)?)?,
        rows_of("fig7_libraries", &fig7_libraries(device, l)?)?,
        rows_of("fig8_sd_sdf", &fig8)?,
        rows_of("fig9_seq_sweep", &fig9_seq_sweep(device, &FIG9_SEQ_LENS)?)?,
        rows_of(
            "fig9_batch_sweep",
            &fig9_batch_sweep(device, l, &FIG9_BATCHES)?,
        )?,
        rows_of("gpu_speedup_matrix", &gpu_speedup_matrix(l)?)?,
        rows_of("fig8_stacks", &stacks)?,
        rows_of("training_stash", &[training_stash(l)])?,
        rows_of("ablation_tile_size", &ablation_tile_size(device, l)?)?,
        rows_of("ablation_head_dim", &ablation_head_dim(device, l)?)?,
        rows_of("ablation_l2", &ablation_l2(device, l)?)?,
        rows_of("ablation_utilization", &ablation_utilization(device, l)?)?,
        rows_of("ablation_sensitivity", &ablation_sensitivity(device, l)?)?,
        rows_of("roofline_report", &roofline_report(device, l)?)?,
        rows_of(
            "extension_online_softmax",
            &extension_online_softmax(device)?,
        )?,
        rows_of("extension_training", &extension_training(device, l)?)?,
        rows_of("extension_decode", &extension_decode(device)?)?,
        rows_of("extension_seq2seq", &extension_seq2seq(device)?)?,
        rows_of("extension_serving", &extension_serving(device)?)?,
    ]
    .concat())
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

    /// Fig. 8(a)'s Baseline stack of each model is its Fig. 2 row, every
    /// metric bit for bit: one helper takes the shares of the same run.
    #[test]
    fn baseline_stacks_are_the_fig2_rows() {
        let bits = |rows: &[Fig2Row]| -> Vec<(String, String, u64)> {
            rows_of("-", rows)
                .unwrap()
                .into_iter()
                .map(|r| (r.config, r.metric, r.value.to_bits()))
                .collect()
        };
        let (_, stacks) = fig8_sd_sdf(&a100(), PAPER_SEQ_LEN, 1).unwrap();
        assert_eq!(stacks.len(), 12);
        let baseline: Vec<Fig2Row> = stacks
            .into_iter()
            .filter_map(|s| {
                let model = s.model.strip_suffix("/Baseline")?.to_owned();
                Some(Fig2Row { model, ..s })
            })
            .collect();
        let fig2 = bits(&fig2_breakdown(&a100(), PAPER_SEQ_LEN).unwrap());
        assert_eq!(fig2.len(), 4 * 7);
        assert_eq!(bits(&baseline), fig2);
    }

    #[test]
    fn fig5_shares_sum_to_one() {
        for r in &fig5_sublayers(&a100(), PAPER_SEQ_LEN).unwrap() {
            let time = r.ls_time_frac + r.ir_time_frac + r.gs_time_frac;
            let dram = r.ls_dram_frac + r.ir_dram_frac + r.gs_dram_frac;
            assert!((time - 1.0).abs() < 1e-9, "{}: {time}", r.model);
            assert!((dram - 1.0).abs() < 1e-9, "{}: {dram}", r.model);
        }
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
    fn records_flatten_to_one_row_per_float_field() {
        let point = SweepPoint {
            model: "BERT".into(),
            seq_len: 512,
            batch: 1,
            sdf_speedup: 1.5,
            softmax_frac: 0.25,
        };
        assert_eq!(
            rows_of("sweep", &[point]).expect("flat record"),
            [
                BenchRow::new("sweep", "BERT/seq_len=512/batch=1", "sdf_speedup", 1.5),
                BenchRow::new("sweep", "BERT/seq_len=512/batch=1", "softmax_frac", 0.25),
            ]
        );
        assert!(rows_of("nested", &[vec![1.0]]).is_err());
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
