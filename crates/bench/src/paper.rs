//! The paper's own evidence: Table 1, Figs. 2/5/7/8/9, §5.1 and §6, the
//! numeric verification of Eq. 1/2/3, and `BENCH_figures.json`, which pins
//! the figures' numbers bit for bit.

use resoftmax_bench::{
    determinism_gate, rows_of, write_report, BenchArgs, BenchRow, Error, FIG9_BATCHES,
    FIG9_SEQ_LENS, PAPER_SEQ_LEN,
};
use resoftmax_core::experiments::{self as exp, SweepPoint};
use resoftmax_core::format::{gb, ms, pct, render_table, speedup};
use resoftmax_core::verify::{verify_backward, verify_decomposition, verify_fusion, verify_online};
use resoftmax_gpusim::{DeviceSpec, KernelCategory};
use resoftmax_kernels::costs::AttnDims;
use resoftmax_model::{ModelConfig, RunParams, Session, SoftmaxStrategy};

/// Numeric verification of the decomposition (Eq. 1/2), the fused
/// pipeline (Fig. 6), the backward pass (Eq. 3) and online softmax against
/// their references.
pub fn verify(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let eq = verify_decomposition(16, 1024, 64, 2026);
    println!(
        "decomposed vs monolithic softmax: f64 |Δ|max {:.1e}, f32 {:.1e}, fp16 {:.1e} ({} ULP)",
        eq.max_abs_f64, eq.max_abs_f32, eq.max_abs_fp16, eq.max_ulp_fp16
    );
    let fu = verify_fusion(256, 64, 64, 2027);
    println!(
        "fused pipeline vs unfused attention: f64 |Δ|max {:.1e}, fp16 {:.1e}",
        fu.max_abs_f64, fu.max_abs_fp16
    );
    println!(
        "Eq. 3 backward vs finite differences: |Δ|max {:.1e}",
        verify_backward(4, 64, 2028)
    );
    let online = verify_online(256, 64, 64, 2029);
    println!(
        "online softmax vs references: dense |Δ|max {:.1e}, block-sparse {:.1e}",
        online.dense_max_abs, online.sparse_max_abs
    );
    Ok(())
}

/// Table 1: specifications of the GPUs used in the evaluation.
pub fn table1_specs(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let devices = exp::table1_devices();
    let mut rows = Vec::new();
    let spec_row = |label: &str, f: &dyn Fn(&DeviceSpec) -> String| {
        let mut row = vec![label.to_owned()];
        row.extend(devices.iter().map(f));
        row
    };
    rows.push(spec_row("Memory Bandwidth (GB/s)", &|d| {
        format!("{:.1}", d.mem_bandwidth_gbps)
    }));
    rows.push(spec_row("TFLOPS (FP16 CUDA)*", &|d| {
        format!("{:.1}", d.fp16_cuda_tflops)
    }));
    rows.push(spec_row("TFLOPS (FP16 Tensor)*", &|d| {
        format!("{:.0}", d.fp16_tensor_tflops)
    }));
    rows.push(spec_row("L1 D$ per SM (KB)**", &|d| {
        format!("{}", d.l1_kb_per_sm)
    }));
    rows.push(spec_row("L2 (MB)", &|d| format!("{:.0}", d.l2_mb)));
    rows.push(spec_row("SMs", &|d| format!("{}", d.num_sms)));
    rows.push(spec_row("Tensor FLOP/Byte ratio", &|d| {
        format!("{:.0}", d.tensor_flops_per_byte())
    }));

    let mut headers = vec![""];
    let names: Vec<String> = devices.iter().map(|d| d.name.clone()).collect();
    headers.extend(names.iter().map(String::as_str));

    println!("TABLE 1: Specifications of the GPUs used in the evaluation");
    println!("(*peak rates at base clock; **combined L1/shared memory block)\n");
    print!("{}", render_table(&headers, &rows));
    Ok(())
}

/// Fig. 2: execution-time breakdown of BERT, GPT-Neo, BigBird and
/// Longformer (L = 4096, or the given L; batch 1). Paper reference points:
/// softmax uses 36% / 18% / 40% / 42% of total time; BERT's SDA block uses
/// 68%. `--out PATH` also writes the numbers as rows.
pub fn fig2_breakdown(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device_and(|a| a.parse::<usize>().is_ok())?;
    let seq_len = args
        .positionals
        .iter()
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(PAPER_SEQ_LEN);

    let rows = exp::fig2_breakdown(&device, seq_len)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                ms(r.total_ms),
                pct(r.matmul_sda_frac),
                pct(r.softmax_frac),
                pct(r.fc_frac),
                pct(r.feedforward_frac),
                pct(r.etc_frac),
                pct(r.sda_frac),
            ]
        })
        .collect();

    println!(
        "FIG 2: Execution time breakdown on {} (L={seq_len}, batch=1)",
        device.name
    );
    println!("Paper (A100, L=4096): softmax 36%/18%/40%/42%; BERT SDA 68%\n");
    print!(
        "{}",
        render_table(
            &[
                "model",
                "total",
                "MatMul(SDA)",
                "Softmax",
                "FC",
                "FeedForward",
                "etc.",
                "[SDA total]"
            ],
            &table
        )
    );
    args.write_rows("fig2_breakdown", &rows)
}

/// Fig. 5: (a) execution-time and (b) off-chip-traffic breakdown of the
/// decomposed softmax into LS / IR / GS. Paper: IR stays below 12.5% of
/// decomposed-softmax time; LS and GS dominate.
pub fn fig5_sublayers(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let rows = exp::fig5_sublayers(&device, PAPER_SEQ_LEN)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                pct(r.ls_time_frac),
                pct(r.ir_time_frac),
                pct(r.gs_time_frac),
                pct(r.ls_dram_frac),
                pct(r.ir_dram_frac),
                pct(r.gs_dram_frac),
            ]
        })
        .collect();

    println!(
        "FIG 5: Decomposed-softmax sub-layer shares on {} (L={PAPER_SEQ_LEN})",
        device.name
    );
    println!("Paper: IR < 12.5% of time; LS and GS dominate both charts\n");
    print!(
        "{}",
        render_table(
            &["model", "LS time", "IR time", "GS time", "LS dram", "IR dram", "GS dram"],
            &table
        )
    );
    Ok(())
}

/// Fig. 7: average execution time of existing GPU libraries vs the paper's
/// baseline, on BERT-large (dense) and BigBird-large (sparse), L = 4096.
/// Paper: TensorRT is the best dense library (< 1% from the baseline),
/// DeepSpeed the best sparse one (within ~8%); AutoTVM is 1.49× slower
/// than the baseline on BERT-large.
pub fn fig7_libraries(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let rows = exp::fig7_libraries(&device, PAPER_SEQ_LEN)?;
    for model in ["BERT-large", "BigBird-large"] {
        let ours = rows
            .iter()
            .find(|r| r.model == model && r.library == "Ours-baseline")
            .ok_or_else(|| Error::failed(format!("fig7: no Ours-baseline row for {model}")))?
            .total_ms;
        let table: Vec<Vec<String>> = rows
            .iter()
            .filter(|r| r.model == model)
            .map(|r| {
                vec![
                    r.library.clone(),
                    ms(r.total_ms),
                    speedup(r.total_ms / ours),
                ]
            })
            .collect();
        println!(
            "\nFIG 7: {model} on {} (L={PAPER_SEQ_LEN}, batch=1)",
            device.name
        );
        print!(
            "{}",
            render_table(&["library", "latency", "vs ours"], &table)
        );
    }
    Ok(())
}

/// Fig. 8: (a) execution time and (b) off-chip memory accesses per
/// iteration with softmax decomposition (SD) and decomposition+fusion (SDF)
/// applied. Paper (A100, L=4096, batch 1): SD 0.94× / 0.99× / 1.44× /
/// 1.49×; SDF 1.25× / 1.12× / 1.57× / 1.65×; softmax off-chip traffic
/// reduced 1.58–2.51×; average latency −28% and off-chip access energy
/// −29%. `--out PATH` also writes the headline table as rows.
pub fn fig8_sd_sdf(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let rows = exp::fig8_sd_sdf(&device, PAPER_SEQ_LEN, 1)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.model.clone(),
                ms(r.baseline_ms),
                gb(r.baseline_gb * 1e9),
                speedup(r.sd_speedup),
                speedup(r.sdf_speedup),
                format!("{:.2}x", r.sd_traffic),
                format!("{:.2}x", r.sdf_traffic),
                format!("{:.2}x", r.sdf_energy),
                format!("{:.2}x less", 1.0 / r.softmax_traffic_ratio),
            ]
        })
        .collect();

    println!(
        "FIG 8: SD / SDF vs baseline on {} (L={PAPER_SEQ_LEN}, batch=1)",
        device.name
    );
    println!("Paper: SD 0.94/0.99/1.44/1.49x; SDF 1.25/1.12/1.57/1.65x\n");
    print!(
        "{}",
        render_table(
            &[
                "model",
                "baseline",
                "base traffic",
                "SD speedup",
                "SDF speedup",
                "SD traffic",
                "SDF traffic",
                "SDF energy",
                "softmax traffic cut"
            ],
            &table
        )
    );

    let avg_latency: f64 =
        rows.iter().map(|r| 1.0 - 1.0 / r.sdf_speedup).sum::<f64>() / rows.len() as f64;
    let avg_energy: f64 = rows.iter().map(|r| 1.0 - r.sdf_energy).sum::<f64>() / rows.len() as f64;
    println!(
        "\nAverages: per-inference latency -{:.0}%, off-chip access energy -{:.0}%",
        avg_latency * 100.0,
        avg_energy * 100.0
    );
    println!("Paper abstract: latency -28%, off-chip access energy -29%");

    // Fig. 8(a)'s stacked bars: the per-category composition per strategy.
    println!("\nPer-strategy composition (Fig. 8(a) stacks):\n");
    let mut stack_rows = Vec::new();
    for model in ModelConfig::all_eval_models() {
        for strategy in [
            SoftmaxStrategy::Baseline,
            SoftmaxStrategy::Decomposed,
            SoftmaxStrategy::Recomposed,
        ] {
            let r = Session::new(
                &model,
                &RunParams::new(PAPER_SEQ_LEN).strategy(strategy),
                &device,
            )?
            .run()?;
            let b = r.breakdown();
            let total = b.total_time_s();
            let frac = |cats: &[KernelCategory]| -> String {
                pct(cats.iter().map(|&c| b.time_of(c)).sum::<f64>() / total)
            };
            stack_rows.push(vec![
                model.name.clone(),
                strategy.label().to_owned(),
                ms(total * 1e3),
                frac(&[KernelCategory::MatMulQk, KernelCategory::MatMulPv]),
                pct(b.softmax_time_s() / total),
                frac(&[KernelCategory::Fc]),
                frac(&[KernelCategory::FeedForward]),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &[
                "model",
                "strategy",
                "total",
                "MatMul(SDA)",
                "Softmax",
                "FC",
                "FeedForward"
            ],
            &stack_rows
        )
    );
    args.write_rows("fig8_sd_sdf", &rows)
}

fn print_sweep(
    title: &str,
    key: &str,
    points: &[SweepPoint],
    key_of: impl Fn(&SweepPoint) -> usize,
) {
    println!("\n{title}");
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.model.clone(),
                format!("{}", key_of(p)),
                speedup(p.sdf_speedup),
                pct(p.softmax_frac),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(&["model", key, "SDF speedup", "softmax frac"], &table)
    );
}

/// Fig. 9: SDF speedup (a) over sequence length and (b) over batch size.
/// Paper: speedup grows with L for all four models; larger batches raise
/// the sparse models' speedup (at batch 8, softmax grows from 40% to 48% of
/// BigBird's time while MatMul shrinks from 17% to 10%).
pub fn fig9_sweeps(args: &BenchArgs) -> Result<(), Error> {
    let is_mode = |a: &str| matches!(a, "seq" | "batch" | "all");
    let device = args.device_and(is_mode)?;
    let mode = args
        .positionals
        .iter()
        .map(String::as_str)
        .find(|a| is_mode(a))
        .unwrap_or("all");

    if mode == "seq" || mode == "all" {
        let points = exp::fig9_seq_sweep(&device, &FIG9_SEQ_LENS)?;
        print_sweep(
            &format!(
                "FIG 9(a): SDF speedup vs sequence length on {}",
                device.name
            ),
            "L",
            &points,
            |p| p.seq_len,
        );
    }
    if mode == "batch" || mode == "all" {
        let points = exp::fig9_batch_sweep(&device, PAPER_SEQ_LEN, &FIG9_BATCHES)?;
        print_sweep(
            &format!(
                "FIG 9(b): SDF speedup vs batch size on {} (L={PAPER_SEQ_LEN})",
                device.name
            ),
            "batch",
            &points,
            |p| p.batch,
        );
    }
    Ok(())
}

/// §5.1: SDF speedups across all three evaluation GPUs.
/// Paper: A100 1.25/1.12/1.57/1.65×; RTX 3090 1.12/1.05/1.32/1.36×;
/// T4 1.22/1.08/1.77/1.87× (BERT / GPT-Neo / BigBird / Longformer).
/// `--out PATH` also writes the numbers as rows.
pub fn gpu_speedups(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let rows = exp::gpu_speedup_matrix(PAPER_SEQ_LEN)?;
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.device.clone(),
                r.model.clone(),
                speedup(r.sdf_speedup),
                pct(r.softmax_frac),
            ]
        })
        .collect();
    println!("§5.1: SDF speedup per GPU (L={PAPER_SEQ_LEN}, batch=1)");
    println!("Paper: A100 1.25/1.12/1.57/1.65; 3090 1.12/1.05/1.32/1.36; T4 1.22/1.08/1.77/1.87\n");
    print!(
        "{}",
        render_table(
            &["device", "model", "SDF speedup", "baseline softmax frac"],
            &table
        )
    );
    args.write_rows("gpu_speedup_matrix", &rows)
}

/// §6 (Discussion): applying softmax recomposition to training.
///
/// The paper's argument: Eq. 3 expresses the softmax backward pass purely
/// in terms of the *output* `Y`, so the forward pass never needs to store
/// the softmax *input* off-chip — recomposition (which avoids exactly that
/// store) stays legal in training. This demonstrates both halves: the
/// gradient check, and the traffic a naive input-stashing forward pass
/// would have added.
pub fn training_backward(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    println!("§6: Softmax recomposition in training\n");

    // 1. Eq. 3 is correct: backward-from-output matches finite differences.
    let worst = verify_backward(4, 64, 2026);
    println!(
        "Eq. 3 gradient check (backward from Y only) max |Δ| vs finite differences: {worst:.2e}"
    );
    assert!(worst < 1e-5, "gradient check failed");
    println!("=> the softmax input is never needed by the backward pass\n");

    // 2. What that saves: a forward pass that stashed softmax inputs would
    // write (and the backward re-read) one attention matrix per layer.
    let mut rows = Vec::new();
    for (model, layers, d_head, heads) in [
        ("BERT-large", 24usize, 64usize, 16usize),
        ("GPT-Neo-1.3B", 24, 128, 16),
    ] {
        let dims = AttnDims::new(PAPER_SEQ_LEN, d_head, heads, 1);
        let per_layer = dims.attn_bytes() as f64;
        let stash = per_layer * layers as f64;
        rows.push(vec![
            model.to_owned(),
            gb(per_layer),
            gb(stash),
            gb(2.0 * stash),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "model",
                "softmax input / layer",
                "stash per fwd pass",
                "fwd write + bwd read avoided"
            ],
            &rows
        )
    );
    println!(
        "\n(L=4096, batch 1, FP16 — the storage the recomposed forward pass never materializes)"
    );
    Ok(())
}

/// The seven `core::experiments` drivers behind Figs. 2/5/7/8/9 and §5.1
/// at the A100 / L = 4096 point, flattened into rows.
fn figure_rows() -> Result<Vec<BenchRow>, Error> {
    let a100 = DeviceSpec::a100();
    let mut rows = rows_of(
        "fig2_breakdown",
        &exp::fig2_breakdown(&a100, PAPER_SEQ_LEN)?,
    )?;
    rows.extend(rows_of(
        "fig5_sublayers",
        &exp::fig5_sublayers(&a100, PAPER_SEQ_LEN)?,
    )?);
    rows.extend(rows_of(
        "fig7_libraries",
        &exp::fig7_libraries(&a100, PAPER_SEQ_LEN)?,
    )?);
    rows.extend(rows_of(
        "fig8_sd_sdf",
        &exp::fig8_sd_sdf(&a100, PAPER_SEQ_LEN, 1)?,
    )?);
    rows.extend(rows_of(
        "fig9_seq_sweep",
        &exp::fig9_seq_sweep(&a100, &FIG9_SEQ_LENS)?,
    )?);
    rows.extend(rows_of(
        "fig9_batch_sweep",
        &exp::fig9_batch_sweep(&a100, PAPER_SEQ_LEN, &FIG9_BATCHES)?,
    )?);
    rows.extend(rows_of(
        "gpu_speedup_matrix",
        &exp::gpu_speedup_matrix(PAPER_SEQ_LEN)?,
    )?);
    Ok(rows)
}

/// Writes the figures' numbers to `BENCH_figures.json`, one row per
/// number, so a `git diff` after `reproduce` pins every figure bit for bit.
/// Under `--smoke` the rows must also be identical at 1 and 4 worker
/// threads, with a warm pricing memo, and with tracing on: instrumentation
/// observes, it never perturbs.
pub fn figures(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let rows = if args.smoke {
        let rows = determinism_gate("figure", figure_rows)?;
        resoftmax_obs::set_trace_enabled(Some(true));
        let observed = figure_rows();
        resoftmax_obs::set_trace_enabled(None);
        assert_eq!(
            serde_json::to_string(&observed?)?,
            serde_json::to_string(&rows)?,
            "figure rows must be identical with tracing on"
        );
        println!("smoke: rows bit-identical with tracing on");
        rows
    } else {
        figure_rows()?
    };
    write_report(&args.out_path("BENCH_figures.json"), &rows)
}
