//! Roofline classification of executed kernels.
//!
//! The paper's §3.1 argument is a roofline argument: softmax runs at
//! 2.5 Op/B against machines whose balance point exceeds 25 FLOP/B, so it is
//! memory-bound by an order of magnitude. This module makes that analysis a
//! first-class report over any [`Timeline`].

use crate::device::DeviceSpec;
use crate::trace::{KernelStats, Timeline};
use serde::{Deserialize, Serialize};

/// Which resource bounds a kernel at the roofline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bound {
    /// DRAM bandwidth bound (operational intensity below machine balance).
    Memory,
    /// Compute (tensor or CUDA FLOPS) bound.
    Compute,
    /// Dominated by the fixed kernel-launch overhead (tiny kernels).
    LaunchOverhead,
}

/// Roofline analysis of one kernel on one device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflinePoint {
    /// Kernel name.
    pub name: String,
    /// Operational intensity in FLOP/byte (FLOPs / DRAM bytes).
    pub intensity: f64,
    /// The machine balance point in FLOP/byte (peak FLOPS / peak bandwidth,
    /// using the larger of the CUDA/tensor peaks, matching how the kernel's
    /// FLOPs split).
    pub machine_balance: f64,
    /// What bounds this kernel.
    pub bound: Bound,
    /// Fraction of the binding roofline actually achieved.
    pub achieved_fraction: f64,
}

/// Classifies one kernel against a device's roofline, pricing CUDA and
/// tensor FLOPs against their respective peaks.
pub fn classify(device: &DeviceSpec, k: &KernelStats) -> RooflinePoint {
    let bytes = k.dram_bytes().max(1.0);
    let intensity = k.flops / bytes;
    let machine_balance = device.cuda_flops_per_s() / device.mem_bandwidth_bytes_per_s();

    let mem_time = bytes / device.mem_bandwidth_bytes_per_s();
    let compute_time = (k.cuda_flops / device.cuda_flops_per_s().max(1.0))
        .max(k.tensor_flops / device.tensor_flops_per_s().max(1.0));
    let launch = device.kernel_launch_overhead_us * 1e-6;

    let (bound, ideal) = if launch > mem_time.max(compute_time) {
        (Bound::LaunchOverhead, launch)
    } else if mem_time >= compute_time {
        (Bound::Memory, mem_time)
    } else {
        (Bound::Compute, compute_time)
    };
    RooflinePoint {
        name: k.name.clone(),
        intensity,
        machine_balance,
        bound,
        achieved_fraction: if k.time_s > 0.0 {
            ideal / k.time_s
        } else {
            0.0
        },
    }
}

/// Classifies every kernel of a timeline; the aggregate answers "how much of
/// this schedule is memory-bound?" — the paper's motivating statistic.
pub fn classify_timeline(device: &DeviceSpec, timeline: &Timeline) -> RooflineReport {
    let points: Vec<RooflinePoint> = timeline.kernels().map(|k| classify(device, k)).collect();
    let time_of = |b: Bound| -> f64 {
        timeline
            .kernels()
            .zip(&points)
            .filter(|(_, p)| p.bound == b)
            .map(|(k, _)| k.time_s)
            .sum()
    };
    RooflineReport {
        memory_bound_time_s: time_of(Bound::Memory),
        compute_bound_time_s: time_of(Bound::Compute),
        launch_bound_time_s: time_of(Bound::LaunchOverhead),
        points,
    }
}

/// Aggregate roofline report over a schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RooflineReport {
    /// Per-kernel classifications, in execution order.
    pub points: Vec<RooflinePoint>,
    /// Total time in memory-bound kernels.
    pub memory_bound_time_s: f64,
    /// Total time in compute-bound kernels.
    pub compute_bound_time_s: f64,
    /// Total time in launch-overhead-dominated kernels.
    pub launch_bound_time_s: f64,
}

impl RooflineReport {
    /// Fraction of total time spent in memory-bound kernels.
    pub fn memory_bound_fraction(&self) -> f64 {
        let total = self.memory_bound_time_s + self.compute_bound_time_s + self.launch_bound_time_s;
        if total > 0.0 {
            self.memory_bound_time_s / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelCategory, KernelDesc, TbShape, TbWork};
    use crate::sim::Gpu;

    #[test]
    fn softmax_like_kernel_is_memory_bound() {
        let d = DeviceSpec::a100();
        let mut gpu = Gpu::new(d.clone());
        // paper §3.1: softmax ≈ 2.5 Op/B << 25+ FLOP/B balance
        let k = KernelDesc::builder("softmax", KernelCategory::Softmax)
            .shape(TbShape::new(1024, 8192, 32))
            .uniform(
                4096,
                TbWork {
                    cuda_flops: 2.5 * 16384.0,
                    dram_read_bytes: 8192.0,
                    dram_write_bytes: 8192.0,
                    ..Default::default()
                },
            )
            .build();
        let s = gpu.launch(&k).unwrap();
        let p = classify(&d, &s);
        assert_eq!(p.bound, Bound::Memory);
        assert!((p.intensity - 2.5).abs() < 1e-9);
        assert!(p.machine_balance > 25.0, "paper: >25 FLOP/B");
    }

    #[test]
    fn flop_heavy_kernel_is_compute_bound() {
        let d = DeviceSpec::a100();
        let mut gpu = Gpu::new(d.clone());
        let k = KernelDesc::builder("mma", KernelCategory::MatMulQk)
            .shape(TbShape::new(256, 0, 64))
            .uniform(
                1000,
                TbWork {
                    cuda_flops: 1e9,
                    dram_read_bytes: 1000.0,
                    dram_write_bytes: 0.0,
                    ..Default::default()
                },
            )
            .build();
        let s = gpu.launch(&k).unwrap();
        assert_eq!(classify(&d, &s).bound, Bound::Compute);
    }

    #[test]
    fn tiny_kernel_is_launch_bound() {
        let d = DeviceSpec::a100();
        let mut gpu = Gpu::new(d.clone());
        let k = KernelDesc::builder("tiny", KernelCategory::Other)
            .shape(TbShape::new(32, 0, 16))
            .uniform(1, TbWork::memory(128.0, 128.0))
            .build();
        let s = gpu.launch(&k).unwrap();
        assert_eq!(classify(&d, &s).bound, Bound::LaunchOverhead);
    }

    #[test]
    fn report_partitions_time() {
        let d = DeviceSpec::a100();
        let mut gpu = Gpu::new(d.clone());
        for _ in 0..3 {
            let k = KernelDesc::builder("s", KernelCategory::Softmax)
                .shape(TbShape::new(256, 0, 32))
                .uniform(5000, TbWork::memory(50_000.0, 50_000.0))
                .build();
            gpu.launch(&k).unwrap();
        }
        let t = gpu.into_timeline();
        let r = classify_timeline(&d, &t);
        let sum = r.memory_bound_time_s + r.compute_bound_time_s + r.launch_bound_time_s;
        assert!((sum - t.total_time_s()).abs() < 1e-12);
        assert!(r.memory_bound_fraction() > 0.99);
        assert_eq!(r.points.len(), 3);
        // achieved fraction is a fraction
        for p in &r.points {
            assert!(p.achieved_fraction > 0.0 && p.achieved_fraction <= 1.0 + 1e-9);
        }
    }
}
