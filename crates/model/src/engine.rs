//! The inference engine: builds a schedule, executes it on a simulated GPU,
//! and packages the results for the reporting layer.

use crate::schedule::RunParams;
use resoftmax_gpusim::{
    Breakdown, DeviceSpec, Gpu, KernelCategory, LaunchError, Schedule, Timeline,
};
use serde::{Deserialize, Serialize};

/// The result of simulating one inference iteration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Model name.
    pub model: String,
    /// Device name.
    pub device: String,
    /// Run parameters used.
    pub params: RunParams,
    /// Per-kernel execution record.
    pub timeline: Timeline,
}

impl RunReport {
    /// Total simulated latency in seconds.
    pub fn total_time_s(&self) -> f64 {
        self.timeline.total_time_s()
    }

    /// Total off-chip traffic in bytes.
    pub fn total_dram_bytes(&self) -> f64 {
        self.timeline.total_dram_bytes()
    }

    /// Total off-chip access energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        self.timeline.total_energy_j()
    }

    /// Per-category aggregation (Fig. 2 / Fig. 5 / Fig. 8 style).
    pub fn breakdown(&self) -> Breakdown {
        self.timeline.breakdown()
    }

    /// Fraction of total time spent in the softmax family
    /// (monolithic + LS + IR + GS).
    pub fn softmax_time_fraction(&self) -> f64 {
        let b = self.breakdown();
        let total = b.total_time_s();
        if total > 0.0 {
            b.softmax_time_s() / total
        } else {
            0.0
        }
    }

    /// Fraction of total time spent in the SDA block.
    pub fn sda_time_fraction(&self) -> f64 {
        let b = self.breakdown();
        let total = b.total_time_s();
        if total > 0.0 {
            b.sda_time_s() / total
        } else {
            0.0
        }
    }

    /// Time spent in a specific category.
    pub fn time_of(&self, category: KernelCategory) -> f64 {
        self.breakdown().time_of(category)
    }
}

/// The execution path of every simulated run ([`Session`](crate::Session)
/// and [`run_seq2seq`](crate::run_seq2seq)): executes `schedule` on a fresh
/// GPU and packages the report for the model called `name`, recording
/// trace state when enabled — a `"model"`-category span around the run and
/// the simulated kernel timeline as a [`resoftmax_obs::SimStream`] anchored
/// at the run's wall-clock start.
pub(crate) fn simulate_schedule(
    kind: &'static str,
    name: &str,
    params: &RunParams,
    device: DeviceSpec,
    schedule: &Schedule,
) -> Result<RunReport, LaunchError> {
    let mut stream: Option<(String, f64)> = None;
    let _span = if resoftmax_obs::trace_enabled() {
        let label = format!(
            "{}/{}/L{}b{}",
            name,
            params.strategy.label(),
            params.seq_len,
            params.batch
        );
        stream = Some((label.clone(), resoftmax_obs::recorder().now_us()));
        Some(resoftmax_obs::span(format!("{kind} {label}"), "model"))
    } else {
        None
    };
    let device_name = device.name.clone();
    let mut gpu = Gpu::new(device);
    gpu.run(schedule)?;
    let timeline = gpu.into_timeline();
    if let Some((label, anchor_us)) = stream {
        resoftmax_obs::recorder().add_sim_stream(
            label,
            anchor_us,
            resoftmax_gpusim::chrome_trace::to_obs_events(&timeline),
        );
    }
    Ok(RunReport {
        model: name.to_owned(),
        device: device_name,
        params: params.clone(),
        timeline,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ModelConfig, Session, SoftmaxStrategy};

    fn run(model: &ModelConfig, params: &RunParams) -> RunReport {
        Session::new(model, params, &DeviceSpec::a100())
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn bert_baseline_runs() {
        let r = run(&ModelConfig::bert_large(), &RunParams::new(4096));
        assert!(r.total_time_s() > 0.0);
        assert!(r.total_dram_bytes() > 0.0);
        assert!(r.total_energy_j() > 0.0);
        assert!(!r.timeline.is_empty());
    }

    #[test]
    fn sdf_reduces_energy() {
        let base = run(&ModelConfig::bert_large(), &RunParams::new(4096));
        let sdf = run(
            &ModelConfig::bert_large(),
            &RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed),
        );
        assert!(sdf.total_energy_j() < base.total_energy_j());
    }
}
