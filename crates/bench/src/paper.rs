//! The paper's own evidence: Table 1, the numeric verification of Eq.
//! 1/2/3, and `figures`, the one view of every simulated table: Figs.
//! 2/5/7/8/9, §5.1, §6, the ablations and the extensions, whose numbers
//! `BENCH_figures.json` pins bit for bit.

use resoftmax_bench::{determinism_gate, write_file, write_report, BenchArgs, Error};
use resoftmax_core::claims::{self, Outcome};
use resoftmax_core::experiments::{figure_rows, PAPER_SEQ_LEN};
use resoftmax_core::format::{bin_tables, render_table};
use resoftmax_core::verify::{
    derived_fp16_tolerances, derived_fusion_tolerance, verify_backward, verify_decomposition,
    verify_fusion, verify_online,
};
use resoftmax_gpusim::DeviceSpec;

/// Numeric verification of the decomposition (Eq. 1/2), the fused
/// pipeline (Fig. 6), the backward pass (Eq. 3) and online softmax against
/// their references: prints each measured error with its bound, the bound
/// `core::verify`'s tests hold it to (the binary16 ones derived from the
/// certified error bound), and fails when one exceeds its bound.
pub fn verify(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let (l, t) = (1024, 64);
    let eq = verify_decomposition(16, l, t, 2026);
    let fp16 = derived_fp16_tolerances(l, t);
    let fu = verify_fusion(256, 64, 64, 2027);
    let online = verify_online(256, 64, 64, 2029);
    let checks = [
        ("decomposed softmax, f64", eq.max_abs_f64, 1e-13),
        ("decomposed softmax, f32", eq.max_abs_f32, 1e-6),
        ("decomposed softmax, fp16", eq.max_abs_fp16, fp16.abs),
        (
            "decomposed softmax, fp16 ULP",
            f64::from(eq.max_ulp_fp16),
            f64::from(fp16.ulps),
        ),
        (
            "decomposed softmax, fp16 |row sum - 1|",
            eq.max_row_sum_err_fp16,
            fp16.row_sum,
        ),
        ("fused pipeline, f64", fu.max_abs_f64, 1e-5),
        (
            "fused pipeline, fp16",
            fu.max_abs_fp16,
            derived_fusion_tolerance(256, 64),
        ),
        (
            "Eq. 3 backward vs finite differences",
            verify_backward(4, 64, 2028),
            1e-5,
        ),
        ("online softmax, dense", online.dense_max_abs, 1e-5),
        ("online softmax, block-sparse", online.sparse_max_abs, 1e-5),
    ];
    // Errors in scientific notation, ULP counts as integers.
    let show = |x: f64| {
        if x >= 1.0 {
            x.to_string()
        } else {
            format!("{x:.1e}")
        }
    };
    let table: Vec<Vec<String>> = checks
        .iter()
        .map(|&(what, measured, bound)| {
            let verdict = if measured <= bound {
                "ok"
            } else {
                "OVER BOUND"
            };
            vec![
                what.to_owned(),
                show(measured),
                show(bound),
                verdict.to_owned(),
            ]
        })
        .collect();
    println!("The largest error of each pipeline against its reference, and its bound:\n");
    print!(
        "{}",
        render_table(&["check", "measured", "bound", "verdict"], &table)
    );
    let over = checks
        .iter()
        .filter(|(_, measured, bound)| measured > bound);
    match over.count() {
        0 => Ok(()),
        n => Err(Error::failed(format!(
            "{n} of {} measured errors exceed their bounds",
            checks.len()
        ))),
    }
}

/// Table 1: specifications of the GPUs used in the evaluation.
pub fn table1_specs(args: &BenchArgs) -> Result<(), Error> {
    args.accept_positionals(|_| false)?;
    let devices = DeviceSpec::all_presets();
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

/// Figs. 2/5/7/8/9, §5.1, §6, the ablations and the extensions on the
/// device named (the A100 when none is): writes their rows, one per
/// number, by the output rule, so a `git diff` after `reproduce` pins
/// every table bit for bit, and prints them as one table per `bin`. The
/// claims in `core::claims` are the A100's, so
/// only an A100 run goes on: it prints the paper and the measured value of
/// every claim, and fails when a claim is out of its band or reads a row
/// that does not exist. The run that writes the checked-in file (full
/// scale, no `--out`) also rewrites the claim tables of EXPERIMENTS.md and
/// README.md. Under `--smoke` the rows must also be identical at 1 and 4
/// worker threads, with a warm pricing memo, and with tracing on:
/// instrumentation observes, it never perturbs.
pub fn figures(args: &BenchArgs) -> Result<(), Error> {
    let device = args.device()?;
    let rows = if args.smoke {
        let rows = determinism_gate("figure", || Ok(figure_rows(&device)?))?;
        resoftmax_obs::set_trace_enabled(Some(true));
        let observed = figure_rows(&device);
        resoftmax_obs::set_trace_enabled(None);
        assert_eq!(
            serde_json::to_string(&observed?)?,
            serde_json::to_string(&rows)?,
            "figure rows must be identical with tracing on"
        );
        println!("smoke: rows bit-identical with tracing on");
        rows
    } else {
        figure_rows(&device)?
    };
    write_report(&args.out_path("BENCH_figures.json"), &rows)?;
    println!(
        "\nThe tables on the {} (L={PAPER_SEQ_LEN}, batch 1, unless a config says otherwise):",
        device.name
    );
    print!("{}", bin_tables(&rows));
    if device != DeviceSpec::a100() {
        println!(
            "\nThe claims (core::claims) are the A100's: none is checked on the {}.",
            device.name
        );
        return Ok(());
    }

    let outcomes = claims::check(claims::CLAIMS, &rows);
    let table: Vec<Vec<String>> = outcomes.iter().map(|o| o.cells().to_vec()).collect();
    println!("\nThe claims on these rows (core::claims):\n");
    print!("{}", render_table(&claims::HEADERS, &table));
    if args.out.is_none() && !args.smoke {
        for doc in ["EXPERIMENTS.md", "README.md"] {
            write_claim_tables(doc, &outcomes)?;
        }
    }
    match outcomes.iter().filter(|o| !o.holds()).count() {
        0 => Ok(()),
        failed => Err(Error::failed(format!(
            "{failed} of {} claims do not hold",
            outcomes.len()
        ))),
    }
}

/// Rewrites the claim tables of the markdown file `path`: the text between
/// `<!-- claims: NAME -->` and the next `<!-- end claims -->` becomes a
/// table of the claims NAME selects, a section of `core::claims` (`Fig. 8`)
/// or, for `paper values`, every claim the paper gives a value for. A file
/// with no table, a table left open or a name that selects no claim is an
/// error.
fn write_claim_tables(path: &str, outcomes: &[Outcome]) -> Result<(), Error> {
    const BEGIN: &str = "<!-- claims: ";
    const END: &str = "<!-- end claims -->";
    let text = std::fs::read_to_string(path).map_err(|e| Error::failed(format!("{path}: {e}")))?;
    let mut blocks = text.split(BEGIN);
    let mut out = vec![blocks.next().unwrap_or_default().to_owned()];
    for block in blocks {
        let (name, rest) = block.split_once(" -->").unwrap_or_default();
        let paper_values = name == "paper values";
        let cells: Vec<[String; 6]> = outcomes
            .iter()
            .filter(|o| {
                if paper_values {
                    o.claim.paper.is_some()
                } else {
                    o.claim.section == name
                }
            })
            .map(Outcome::cells)
            .collect();
        let (Some((_, rest)), false) = (rest.split_once(END), cells.is_empty()) else {
            return Err(Error::failed(format!("{path}: bad claim table `{name}`")));
        };
        // Only the paper-values table spans sections, so only it shows them.
        let skip = usize::from(!paper_values);
        let header = &claims::HEADERS[skip..];
        out.push(format!(
            "{BEGIN}{name} -->\n\n| {} |\n|{}\n",
            header.join(" | "),
            "---|".repeat(header.len())
        ));
        out.extend(
            cells
                .iter()
                .map(|c| format!("| {} |\n", c[skip..].join(" | "))),
        );
        out.push(format!("\n{END}{rest}"));
    }
    if out.len() == 1 {
        return Err(Error::failed(format!("{path}: no claim table")));
    }
    write_file(path, &out.concat())?;
    println!("claim tables written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_core::format::{num, pivot};

    /// On every preset, `figures` prints each bin once, in row order, and
    /// every row of `figure_rows` as one cell: on its config's line, under
    /// its metric.
    #[test]
    fn every_figure_row_is_one_printed_cell() {
        for device in DeviceSpec::all_presets() {
            let rows = figure_rows(&device).expect("figure rows");
            let mut bins = Vec::new();
            let mut cells = 0;
            for bin in rows.chunk_by(|a, b| a.bin == b.bin) {
                bins.push(bin[0].bin.as_str());
                let (headers, table) = pivot(bin);
                for r in bin {
                    let line = table.iter().find(|l| l[0] == r.config).expect("a line");
                    let column = headers
                        .iter()
                        .position(|&h| h == r.metric)
                        .expect("a column");
                    assert_eq!(line[column], num(r.value), "{:?}", r.key());
                }
                cells += table.iter().map(|line| line.len() - 1).sum::<usize>();
            }
            assert_eq!(cells, rows.len());
            assert_eq!(bins, BINS, "{}", device.name);
        }
    }

    /// The bins of `figure_rows`, in order.
    const BINS: [&str; 20] = [
        "fig2_breakdown",
        "fig5_sublayers",
        "fig7_libraries",
        "fig8_sd_sdf",
        "fig9_seq_sweep",
        "fig9_batch_sweep",
        "gpu_speedup_matrix",
        "fig8_stacks",
        "training_stash",
        "ablation_tile_size",
        "ablation_head_dim",
        "ablation_l2",
        "ablation_utilization",
        "ablation_sensitivity",
        "roofline_report",
        "extension_online_softmax",
        "extension_training",
        "extension_decode",
        "extension_seq2seq",
        "extension_serving",
    ];
}
