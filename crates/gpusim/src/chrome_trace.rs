//! Chrome-trace (about://tracing / Perfetto) export of a [`Timeline`].
//!
//! Each kernel becomes a complete ("X") event on a per-category track, with
//! traffic/energy/grid details in `args`, so a simulated schedule can be
//! inspected visually: softmax stretches shrinking under SDF, the IR sliver,
//! fused MatMuls widening.

use crate::trace::Timeline;

/// Serializes a timeline as a Chrome Trace Event Format JSON array.
///
/// Kernels are laid out back-to-back from t = 0 (the simulator executes them
/// sequentially), one thread id per category so the viewer groups them into
/// swim lanes. Times are microseconds, as the format requires.
///
/// # Example
///
/// ```
/// use resoftmax_gpusim::{chrome_trace, DeviceSpec, Gpu, KernelCategory, KernelDesc, TbShape, TbWork};
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let k = KernelDesc::builder("k", KernelCategory::Softmax)
///     .shape(TbShape::new(128, 0, 32))
///     .uniform(8, TbWork::memory(1024.0, 1024.0))
///     .build();
/// gpu.launch(&k)?;
/// let json = chrome_trace::to_chrome_trace(gpu.timeline());
/// assert!(json.starts_with('['));
/// assert!(json.contains("\"ph\":\"X\""));
/// # Ok::<(), resoftmax_gpusim::LaunchError>(())
/// ```
pub fn to_chrome_trace(timeline: &Timeline) -> String {
    let mut out = String::from("[\n");
    let mut now_us = 0.0f64;
    for (i, k) in timeline.kernels().enumerate() {
        let dur_us = k.time_s * 1e6;
        if i > 0 {
            out.push_str(",\n");
        }
        // tid per category keeps one swim lane per kernel class.
        let tid = k.category as usize + 1;
        out.push_str(&format!(
            concat!(
                "  {{\"name\":{name},\"cat\":{cat},\"ph\":\"X\",\"pid\":1,",
                "\"tid\":{tid},\"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{",
                "\"dram_read_mb\":{rd:.2},\"dram_write_mb\":{wr:.2},",
                "\"l2_hit_mb\":{hit:.2},\"gflops\":{gf:.2},\"thread_blocks\":{tb},",
                "\"tbs_per_sm\":{occ},\"bw_fraction\":{bw:.3},\"energy_mj\":{e:.4}}}}}"
            ),
            name = json_string(&k.name),
            cat = json_string(k.category.label()),
            tid = tid,
            ts = now_us,
            dur = dur_us,
            rd = k.dram_read_bytes / 1e6,
            wr = k.dram_write_bytes / 1e6,
            hit = k.l2_hit_bytes / 1e6,
            gf = k.flops / 1e9,
            tb = k.tb_count,
            occ = k.tbs_per_sm,
            bw = k.achieved_bw_fraction,
            e = k.energy_j * 1e3,
        ));
        now_us += dur_us;
    }
    out.push_str("\n]\n");
    out
}

/// Converts a timeline into observability [`SimEvent`](resoftmax_obs::SimEvent)s, laid out
/// back-to-back from t = 0 exactly like [`to_chrome_trace`], with the same
/// accounting `args`. The caller hands the result to
/// [`Recorder::add_sim_stream`](resoftmax_obs::Recorder::add_sim_stream)
/// together with a wall-clock anchor, so the merged trace shows the virtual
/// kernel sequence nested under the real span of the run that produced it.
pub fn to_obs_events(timeline: &Timeline) -> Vec<resoftmax_obs::SimEvent> {
    let mut now_us = 0.0f64;
    timeline
        .kernels()
        .map(|k| {
            let dur_us = k.time_s * 1e6;
            let ev = resoftmax_obs::SimEvent {
                name: k.name.clone(),
                category: k.category.label().to_owned(),
                track: k.category as u32,
                start_us: now_us,
                dur_us,
                args: vec![
                    ("dram_read_mb", k.dram_read_bytes / 1e6),
                    ("dram_write_mb", k.dram_write_bytes / 1e6),
                    ("l2_hit_mb", k.l2_hit_bytes / 1e6),
                    ("gflops", k.flops / 1e9),
                    ("bw_fraction", k.achieved_bw_fraction),
                    ("energy_mj", k.energy_j * 1e3),
                ],
            };
            now_us += dur_us;
            ev
        })
        .collect()
}

/// Minimal JSON string escaping for kernel names.
fn json_string(s: &str) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::kernel::{KernelCategory, KernelDesc, TbShape, TbWork};
    use crate::sim::Gpu;

    fn sample_timeline() -> Timeline {
        let mut gpu = Gpu::new(DeviceSpec::a100());
        for (name, cat) in [
            ("matmul_qk", KernelCategory::MatMulQk),
            ("softmax", KernelCategory::Softmax),
            ("matmul_pv", KernelCategory::MatMulPv),
        ] {
            let k = KernelDesc::builder(name, cat)
                .shape(TbShape::new(128, 0, 32))
                .uniform(100, TbWork::memory(10_000.0, 10_000.0))
                .build();
            gpu.launch(&k).unwrap();
        }
        gpu.into_timeline()
    }

    #[test]
    fn is_valid_json_with_expected_events() {
        let json = to_chrome_trace(&sample_timeline());
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
        let events = parsed.as_array().unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0]["name"], "matmul_qk");
        assert_eq!(events[1]["cat"], "Softmax");
        assert_eq!(events[0]["ph"], "X");
        assert!(events[0]["dur"].as_f64().unwrap() > 0.0);
        // events are back-to-back
        let end0 = events[0]["ts"].as_f64().unwrap() + events[0]["dur"].as_f64().unwrap();
        let start1 = events[1]["ts"].as_f64().unwrap();
        assert!((end0 - start1).abs() < 1e-6);
        // args carry the accounting
        assert!(events[0]["args"]["dram_read_mb"].as_f64().unwrap() > 0.0);
    }

    #[test]
    fn empty_timeline_is_empty_array() {
        let json = to_chrome_trace(&Timeline::new());
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 0);
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(json_string("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_string("plain"), "\"plain\"");
    }
}
