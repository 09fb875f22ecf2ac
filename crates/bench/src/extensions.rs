//! Extensions beyond the paper's evaluation: the roofline view, online
//! softmax, training, decode, encoder–decoder models and corpus serving.

use resoftmax_bench::{BenchArgs, Error, PAPER_SEQ_LEN};
use resoftmax_core::format::{ms, pct, render_table, speedup};
use resoftmax_gpusim::roofline::classify_timeline;
use resoftmax_model::{
    run_seq2seq, ModelConfig, RunParams, Seq2SeqConfig, Session, SoftmaxStrategy, Workload,
    WorkloadConfig,
};

/// Roofline report: how much of each model's schedule is memory-bound —
/// the paper's §3.1 motivating statistic, per strategy.
pub fn roofline_report(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;

    println!(
        "ROOFLINE: memory- vs compute-bound time on {} (L={PAPER_SEQ_LEN})\n",
        device.name
    );
    let mut rows = Vec::new();
    for model in ModelConfig::all_eval_models() {
        for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            let r = Session::new(
                &model,
                &RunParams::new(PAPER_SEQ_LEN).strategy(strategy),
                &device,
            )?
            .run()?;
            let report = classify_timeline(&device, &r.timeline);
            rows.push(vec![
                model.name.clone(),
                strategy.label().to_owned(),
                pct(report.memory_bound_fraction()),
                pct(report.compute_bound_time_s
                    / (report.memory_bound_time_s
                        + report.compute_bound_time_s
                        + report.launch_bound_time_s)),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &["model", "strategy", "memory-bound", "compute-bound"],
            &rows
        )
    );
    println!("\n§3.1: softmax's ~2.5 Op/B sits far below the >25 FLOP/B machine");
    println!("balance; recomposition moves that memory-bound time into the");
    println!("compute-side MatMuls, shifting the schedule toward compute-bound.");
    Ok(())
}

/// The paper's SDF vs fully fused online-softmax attention (the
/// §7-adjacent approach that later became FlashAttention).
///
/// SDF eliminates the softmax layer's attention-matrix traffic but the
/// `x'` matrix still crosses DRAM twice (fused-QK write, fused-PV read).
/// Online softmax eliminates the attention matrix entirely. This quantifies
/// how much headroom the paper's approach left on the table — and where
/// SDF remains competitive (short sequences, where the matrix is small and
/// the fused kernel's occupancy cost dominates).
pub fn extension_online_softmax(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;

    println!(
        "EXTENSION: SDF vs fully fused online softmax on {} (batch 1)\n",
        device.name
    );
    let mut rows = Vec::new();
    for model in ModelConfig::all_eval_models() {
        for l in [1024usize, 4096, 8192] {
            let p = RunParams::new(l);
            let base = Session::new(&model, &p, &device)?.run()?;
            let sdf = Session::new(
                &model,
                &p.clone().strategy(SoftmaxStrategy::Recomposed),
                &device,
            )?
            .run()?;
            let online =
                Session::new(&model, &p.strategy(SoftmaxStrategy::OnlineFused), &device)?.run()?;
            rows.push(vec![
                model.name.clone(),
                format!("{l}"),
                speedup(base.total_time_s() / sdf.total_time_s()),
                speedup(base.total_time_s() / online.total_time_s()),
                format!("{:.2}x", sdf.total_dram_bytes() / base.total_dram_bytes()),
                format!(
                    "{:.2}x",
                    online.total_dram_bytes() / base.total_dram_bytes()
                ),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &[
                "model",
                "L",
                "SDF speedup",
                "Online speedup",
                "SDF traffic",
                "Online traffic"
            ],
            &rows
        )
    );
    println!("\nSDF halves the attention-matrix traffic; online softmax removes it.");
    println!("The gap is the headroom FlashAttention later claimed.");
    Ok(())
}

/// §6 carried to a full *training* iteration (forward + backward) of the
/// dense and sparse models.
///
/// The backward pass contains its own row-wise softmax kernel (Eq. 3's row
/// dot); decomposing that dot the same way the forward normalizer is
/// decomposed turns `dS` into an elementwise kernel and removes the last
/// barrier-bound row kernel from the training step.
pub fn extension_training(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;

    println!(
        "EXTENSION (§6): training iteration, baseline vs recomposed, on {} (L={PAPER_SEQ_LEN})\n",
        device.name
    );
    let mut rows = Vec::new();
    for model in [
        ModelConfig::bert_large(),
        ModelConfig::gpt_neo_1_3b(),
        ModelConfig::bigbird_large(),
        ModelConfig::longformer_large(),
    ] {
        let p = RunParams::new(PAPER_SEQ_LEN);
        let base = Session::new(&model, &p, &device)?.train()?;
        let sdf = Session::new(
            &model,
            &p.clone().strategy(SoftmaxStrategy::Recomposed),
            &device,
        )?
        .train()?;
        let inf_base = Session::new(&model, &p, &device)?.run()?;
        let inf_sdf =
            Session::new(&model, &p.strategy(SoftmaxStrategy::Recomposed), &device)?.run()?;
        rows.push(vec![
            model.name.clone(),
            ms(base.total_time_s() * 1e3),
            ms(sdf.total_time_s() * 1e3),
            speedup(base.total_time_s() / sdf.total_time_s()),
            speedup(inf_base.total_time_s() / inf_sdf.total_time_s()),
            format!(
                "{:.1} GB",
                (base.total_dram_bytes() - sdf.total_dram_bytes()) / 1e9
            ),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "model",
                "train baseline",
                "train recomposed",
                "train speedup",
                "(inference speedup)",
                "traffic saved/iter"
            ],
            &rows
        )
    );
    println!("\nDense: the gain shrinks vs inference (backward adds matmul-heavy work)");
    println!("but the barrier-bound row kernels disappear. Sparse: the backward softmax");
    println!("has the forward's §5.1 utilization pathology too, so training gains stay");
    println!("large. Eq. 3 needs only Y — nothing new is stored in either case.");
    Ok(())
}

/// Autoregressive decode — where recomposition does NOT help (a measured
/// scope boundary of the paper).
///
/// In token-by-token generation the attention "matrix" is one row per
/// head; it fits in L2 between kernels, so there is no off-chip softmax
/// traffic for recomposition to remove. Decode time is weight/KV-cache
/// streaming.
pub fn extension_decode(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let model = ModelConfig::gpt_neo_1_3b();

    println!(
        "EXTENSION: autoregressive decode (one token, KV cache) on {} — {}\n",
        device.name, model.name
    );
    let mut rows = Vec::new();
    for ctx in [512usize, 2048, 8192] {
        let p = RunParams::new(ctx);
        let base = Session::new(&model, &p, &device)?.decode_step(ctx)?;
        let sdf = Session::new(&model, &p.strategy(SoftmaxStrategy::Recomposed), &device)?
            .decode_step(ctx)?;
        rows.push(vec![
            format!("{ctx}"),
            format!("{:.2} ms", base.total_time_s() * 1e3),
            format!("{:.1} tok/s", 1.0 / base.total_time_s()),
            pct(base.softmax_time_fraction()),
            speedup(base.total_time_s() / sdf.total_time_s()),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "context",
                "latency/token",
                "throughput",
                "softmax frac",
                "SDF speedup"
            ],
            &rows
        )
    );
    println!("\nThe paper's mechanism needs an attention matrix too big for on-chip");
    println!("memory; decode's single-row attention never leaves L2 — recomposition");
    println!("is neutral here, and the softmax share is already negligible.");
    Ok(())
}

/// Softmax recomposition on an encoder–decoder (vanilla) transformer — the
/// §2.1 model class the paper's evaluation omits. A decoder layer has two
/// softmax layers (causal self-attention and rectangular cross-attention);
/// both recompose unchanged.
pub fn extension_seq2seq(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let cfg = Seq2SeqConfig::vanilla_transformer_big();

    println!(
        "EXTENSION: encoder–decoder ({}) on {} — recomposition on self- and cross-attention\n",
        cfg.name, device.name
    );
    let mut rows = Vec::new();
    for (src, tgt) in [(1024usize, 1024usize), (4096, 1024), (4096, 4096)] {
        let p = RunParams::new(src);
        let base = run_seq2seq(&cfg, src, tgt, &p, device.clone())?;
        let sdf = run_seq2seq(
            &cfg,
            src,
            tgt,
            &p.clone().strategy(SoftmaxStrategy::Recomposed),
            device.clone(),
        )?;
        let online = run_seq2seq(
            &cfg,
            src,
            tgt,
            &p.strategy(SoftmaxStrategy::OnlineFused),
            device.clone(),
        )?;
        rows.push(vec![
            format!("{src}"),
            format!("{tgt}"),
            format!("{:.2} ms", base.total_time_s() * 1e3),
            pct(base.softmax_time_fraction()),
            speedup(base.total_time_s() / sdf.total_time_s()),
            speedup(base.total_time_s() / online.total_time_s()),
        ]);
    }
    print!(
        "{}",
        render_table(
            &[
                "src L",
                "tgt L",
                "baseline",
                "softmax frac",
                "SDF",
                "Online"
            ],
            &rows
        )
    );
    println!("\nCross-attention's rectangular L_tgt × L_src matrix recomposes exactly");
    println!("like the square case: LS tiling only sees tiles, not squareness.");
    Ok(())
}

/// Serving a long-document corpus — max-length padding vs length-bucketed
/// batching, with and without recomposition.
///
/// §2.2 motivates long `L` by document coverage; in *serving*, padding
/// every document to the model maximum wastes quadratic attention work on
/// the short ones. Length bucketing recovers that waste, and recomposition
/// stacks on top (its speedup grows with the bucket length, Fig. 9(a)).
pub fn extension_serving(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let corpus = Workload::generate(&WorkloadConfig::default());
    let model = ModelConfig::bert_large();
    let batch = 8usize;
    let buckets = [512usize, 1024, 2048, 4096, 8192];
    let max_len = buckets[buckets.len() - 1];

    println!(
        "EXTENSION: serving {} documents on {} ({}, batch {batch})\n",
        corpus.len(),
        device.name,
        model.name
    );

    let corpus_time = |plan: &[(usize, usize)], strategy: SoftmaxStrategy| -> Result<f64, Error> {
        let mut total = 0.0;
        for &(l, iters) in plan {
            let r = Session::new(
                &model,
                &RunParams::new(l).batch(batch).strategy(strategy),
                &device,
            )?
            .run()?;
            total += r.total_time_s() * iters as f64;
        }
        Ok(total)
    };

    let flat_plan = vec![(max_len, corpus.iterations(batch))];
    let bucket_plan = corpus.bucketed_iterations(&buckets, batch);

    let mut rows = Vec::new();
    let mut flat_base = 0.0;
    for (plan_name, plan) in [("pad to max", &flat_plan), ("bucketed", &bucket_plan)] {
        for strategy in [SoftmaxStrategy::Baseline, SoftmaxStrategy::Recomposed] {
            let t = corpus_time(plan, strategy)?;
            if flat_base == 0.0 {
                flat_base = t;
            }
            rows.push(vec![
                plan_name.to_owned(),
                strategy.label().to_owned(),
                format!("{t:.1} s"),
                format!("{:.2}x", flat_base / t),
            ]);
        }
    }
    print!(
        "{}",
        render_table(
            &["batching", "softmax", "corpus time", "vs padded baseline"],
            &rows
        )
    );

    println!("\nbucket plan: {bucket_plan:?} (length, iterations)");
    println!("Bucketing removes quadratic padding waste; recomposition compounds on");
    println!("top — largest on the big buckets where the softmax share peaks.");
    Ok(())
}
