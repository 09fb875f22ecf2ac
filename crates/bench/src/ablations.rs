//! Ablations: how the headline result depends on the tile width, the head
//! size, the L2 capacity, the bandwidth-utilization model and the
//! simulator's calibration.

use resoftmax_bench::{write_report, BenchArgs, Error};
use resoftmax_core::experiments::{BenchRow, PAPER_SEQ_LEN};
use resoftmax_core::format::{pct, render_table, speedup};
use resoftmax_gpusim::{bandwidth, DeviceSpec};
use resoftmax_kernels::costs::TileConfig;
use resoftmax_model::{AttentionKind, ModelConfig, RunParams, Session, SoftmaxStrategy};

/// Baseline over recomposed (SDF) total time for `model` at the paper's
/// sequence length.
fn sdf_speedup(model: &ModelConfig, device: &DeviceSpec) -> Result<f64, Error> {
    let base = Session::new(model, &RunParams::new(PAPER_SEQ_LEN), device)?.run()?;
    let sdf = Session::new(
        model,
        &RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Recomposed),
        device,
    )?
    .run()?;
    Ok(base.total_time_s() / sdf.total_time_s())
}

/// The sub-vector / tile width `T`.
///
/// The paper (§3.3) requires `T` to equal the MatMul output-tile width and
/// observes transformer MatMuls use `T ≥ 64`; the IR overhead scales as
/// `1/T`. This sweep shows the SDF speedup and the intermediate-tensor
/// traffic as `T` varies.
///
/// Every grid point is routed through the tuner's legality gate
/// (`resoftmax_tune::precheck`) before it is priced: illegal widths — the
/// grid deliberately includes `T = 48`, which does not divide `L = 4096` —
/// are reported as skipped with the analyzer's reason instead of failing
/// mid-sweep. Rows land in `BENCH_ablation_tile.json`.
pub fn ablation_tile_size(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let model = ModelConfig::bert_large();
    let widths: &[usize] = if args.smoke {
        &[32, 48, 64]
    } else {
        &[16, 32, 48, 64, 128, 256]
    };

    let base = Session::new(&model, &RunParams::new(PAPER_SEQ_LEN), &device)?.run()?;

    let mut rows = Vec::new();
    let mut report = Vec::new();
    for &t in widths {
        let params = RunParams::new(PAPER_SEQ_LEN)
            .strategy(SoftmaxStrategy::Recomposed)
            .tile(TileConfig::new(64, t));
        // Legality gate first: skip-with-reason instead of failing on
        // widths the schedule builder cannot honour.
        if let Err(skip) = resoftmax_tune::precheck(&model, &params) {
            rows.push(vec![
                format!("{t}"),
                "skipped".to_owned(),
                format!("{skip}"),
                "-".to_owned(),
            ]);
            continue;
        }
        let sdf = Session::new(&model, &params, &device)?.run()?;
        let intermediates_mb = {
            // m' + d' + r': 3 values per (row, sub-vector) per instance
            let n_sv = PAPER_SEQ_LEN / t;
            (3 * PAPER_SEQ_LEN * n_sv * 2 * 16) as f64 / 1e6
        };
        let ratio = base.total_time_s() / sdf.total_time_s();
        rows.push(vec![
            format!("{t}"),
            speedup(ratio),
            format!("{:.2}x", sdf.total_dram_bytes() / base.total_dram_bytes()),
            format!("{intermediates_mb:.0} MB"),
        ]);
        let config = format!("{}/{}/T{t}", model.name, device.name);
        report.push(BenchRow::new(
            "ablation_tile_size",
            &config,
            "sdf_speedup",
            ratio,
        ));
        report.push(BenchRow::new(
            "ablation_tile_size",
            &config,
            "traffic_ratio",
            sdf.total_dram_bytes() / base.total_dram_bytes(),
        ));
    }
    println!(
        "ABLATION: sub-vector length T on {} (BERT-large, L={PAPER_SEQ_LEN})",
        device.name
    );
    println!("Paper: T >= 64 in practice; m'/d'/r' overhead ~ 1/T\n");
    print!(
        "{}",
        render_table(
            &[
                "T",
                "SDF speedup",
                "SDF traffic vs base",
                "m'+d'+r' per layer"
            ],
            &rows
        )
    );
    write_report(&args.out_path("BENCH_ablation_tile.json"), &report)
}

/// Per-head hidden size `D_head`.
///
/// GPT-Neo (d_head 128) gains less from recomposition than BERT (d_head
/// 64): a larger head raises the MatMuls' arithmetic intensity (2·d FLOPs
/// per attention-matrix element), shrinking the softmax share. This sweep
/// holds `D_m = 1024` fixed and varies the head split.
pub fn ablation_head_dim(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;

    println!(
        "ABLATION: head size at fixed D_m=1024 on {} (L={PAPER_SEQ_LEN})\n",
        device.name
    );
    let mut rows = Vec::new();
    for heads in [32usize, 16, 8, 4] {
        let d_head = 1024 / heads;
        let model = ModelConfig {
            name: format!("dense-{heads}h"),
            layers: 24,
            d_model: 1024,
            heads,
            d_ff: 4096,
            attention: AttentionKind::Dense { causal: false },
        };
        let base = Session::new(&model, &RunParams::new(PAPER_SEQ_LEN), &device)?.run()?;
        let sdf = Session::new(
            &model,
            &RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Recomposed),
            &device,
        )?
        .run()?;
        rows.push(vec![
            format!("{d_head}"),
            format!("{heads}"),
            format!("{:.2} ms", base.total_time_s() * 1e3),
            pct(base.softmax_time_fraction()),
            speedup(base.total_time_s() / sdf.total_time_s()),
        ]);
    }
    print!(
        "{}",
        render_table(
            &["D_head", "heads", "baseline", "softmax frac", "SDF speedup"],
            &rows
        )
    );
    println!("\nLarger heads make the attention MatMuls more compute-intense per");
    println!("attention-matrix element, diluting the softmax share — the mechanism");
    println!("behind GPT-Neo's smaller gains (d_head = 128).");
    Ok(())
}

/// L2 capacity.
///
/// The paper's traffic argument (§2.3) hinges on the attention matrix
/// dwarfing on-chip storage. This sweep scales the A100's L2 and shows when
/// the argument would break down: once L2 approaches the attention-matrix
/// size, the baseline's inter-kernel traffic starts getting filtered and
/// recomposition's advantage narrows.
pub fn ablation_l2(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let model = ModelConfig::bert_large();
    let mut rows = Vec::new();
    for l2_mb in [4.0f64, 40.0, 256.0, 1024.0] {
        let mut device = DeviceSpec::a100();
        device.l2_mb = l2_mb;
        let base = Session::new(&model, &RunParams::new(PAPER_SEQ_LEN), &device)?.run()?;
        let sdf = Session::new(
            &model,
            &RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Recomposed),
            &device,
        )?
        .run()?;
        rows.push(vec![
            format!("{l2_mb:.0} MB"),
            format!("{:.2} GB", base.total_dram_bytes() / 1e9),
            format!("{:.2} GB", sdf.total_dram_bytes() / 1e9),
            speedup(base.total_time_s() / sdf.total_time_s()),
        ]);
    }
    println!("ABLATION: L2 capacity (A100 otherwise, BERT-large, L={PAPER_SEQ_LEN})");
    println!("Attention matrix: 512 MB — recomposition pays until L2 rivals it\n");
    print!(
        "{}",
        render_table(
            &["L2", "baseline traffic", "SDF traffic", "SDF speedup"],
            &rows
        )
    );
    Ok(())
}

/// The bandwidth-utilization mechanism behind SD's sparse gains.
///
/// §5.1 attributes SD's 1.44×/1.49× standalone speedup on
/// BigBird/Longformer to finer-grained thread-block allocation raising
/// memory-bandwidth utilization. This prints the utilization curve for each
/// device and the SD speedup with the utilization model disabled
/// (saturation point pushed to ~0), isolating that mechanism.
pub fn ablation_utilization(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    // 1. The curve itself.
    println!("Bandwidth utilization vs concurrently memory-active threads:\n");
    let mut rows = Vec::new();
    for threads in [2048u32, 8192, 16384, 32768, 65536, 131072, 262144] {
        let mut row = vec![format!("{threads}")];
        for d in DeviceSpec::all_presets() {
            row.push(format!(
                "{:.2}",
                bandwidth::utilization(&d, f64::from(threads))
            ));
        }
        rows.push(row);
    }
    print!(
        "{}",
        render_table(&["threads", "A100", "RTX 3090", "T4"], &rows)
    );

    // 2. SD speedup with and without the utilization mechanism.
    println!("\nSD speedup on sparse models, with the utilization model on/off:\n");
    let mut rows = Vec::new();
    for model in [
        ModelConfig::bigbird_large(),
        ModelConfig::longformer_large(),
    ] {
        let mut cells = vec![model.name.clone()];
        for disable in [false, true] {
            let mut device = DeviceSpec::a100();
            if disable {
                // Saturation at ~1 thread: every kernel sees full bandwidth,
                // removing the allocation-granularity effect.
                device.mem_saturation_threads = 1.0;
            }
            let base = Session::new(&model, &RunParams::new(PAPER_SEQ_LEN), &device)?.run()?;
            let sd = Session::new(
                &model,
                &RunParams::new(PAPER_SEQ_LEN).strategy(SoftmaxStrategy::Decomposed),
                &device,
            )?
            .run()?;
            cells.push(speedup(base.total_time_s() / sd.total_time_s()));
        }
        rows.push(cells);
    }
    print!(
        "{}",
        render_table(
            &["model", "SD speedup (model on)", "SD speedup (off)"],
            &rows
        )
    );
    println!("\nPaper §5.1: the sparse SD gain comes from utilization, not traffic —");
    println!("with the mechanism disabled, SD only adds traffic and the gain collapses.");
    Ok(())
}

/// Sensitivity of the headline result to the calibration.
///
/// EXPERIMENTS.md fits one per-device constant (`mem_saturation_threads`)
/// and a handful of kernel-class efficiencies. This sweep perturbs the
/// device-level constant ±2× and the launch overhead 0–16 µs, showing that
/// the qualitative result (SDF speedup ordering across the four models) is
/// not an artifact of the fit.
pub fn ablation_sensitivity(args: &BenchArgs) -> Result<(), Error> {
    let base_device = args.device()?;
    let models = ModelConfig::all_eval_models();

    println!(
        "ABLATION: calibration sensitivity on {} (L={PAPER_SEQ_LEN})\n",
        base_device.name
    );

    println!("SDF speedup vs mem_saturation_threads (×0.5 / fitted / ×2):");
    let mut rows = Vec::new();
    for scale in [0.5f64, 1.0, 2.0] {
        let mut device = base_device.clone();
        device.mem_saturation_threads *= scale;
        let mut cells = vec![format!("x{scale}")];
        for m in &models {
            cells.push(speedup(sdf_speedup(m, &device)?));
        }
        rows.push(cells);
    }
    let headers: Vec<String> = std::iter::once("saturation".to_owned())
        .chain(models.iter().map(|m| m.name.clone()))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    print!("{}", render_table(&header_refs, &rows));

    println!("\nSDF speedup vs kernel-launch overhead (0 / 4 / 16 µs):");
    let mut rows = Vec::new();
    for overhead in [0.0f64, 4.0, 16.0] {
        let mut device = base_device.clone();
        device.kernel_launch_overhead_us = overhead;
        let mut cells = vec![format!("{overhead} us")];
        for m in &models {
            cells.push(speedup(sdf_speedup(m, &device)?));
        }
        rows.push(cells);
    }
    print!("{}", render_table(&header_refs, &rows));

    println!("\nIn every perturbation, every model still gains and GPT-Neo gains least;");
    println!("the sparse models' margin over BERT tracks the saturation constant (it IS");
    println!("the §5.1 utilization mechanism) but never inverts the headline conclusion.");
    Ok(())
}
