//! GPU device specifications (Table 1 of the paper, plus the microarchitectural
//! parameters the execution model needs).

use serde::{Deserialize, Serialize};

/// Specification of a simulated GPU.
///
/// The first five fields are Table 1 of the paper verbatim; the rest are
/// public microarchitectural constants (SM counts, occupancy limits) and
/// calibration parameters documented inline.
///
/// Construct presets with [`DeviceSpec::a100`], [`DeviceSpec::rtx3090`],
/// [`DeviceSpec::t4`], or build a custom device and [`DeviceSpec::validate`]
/// it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"A100"`.
    pub name: String,
    /// Peak off-chip memory bandwidth in GB/s (Table 1).
    pub mem_bandwidth_gbps: f64,
    /// Peak FP16 throughput on CUDA cores in TFLOPS at base clock (Table 1).
    pub fp16_cuda_tflops: f64,
    /// Peak FP16 throughput on tensor cores in TFLOPS at base clock (Table 1).
    pub fp16_tensor_tflops: f64,
    /// L1 data cache / shared memory per SM in KB (Table 1).
    pub l1_kb_per_sm: u32,
    /// L2 cache size in MB (Table 1).
    pub l2_mb: f64,
    /// Off-chip memory (HBM/GDDR) capacity in GB — bounds model weights plus
    /// the KV-cache pool in serving simulations.
    pub hbm_gb: f64,

    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident threads per SM.
    pub max_threads_per_sm: u32,
    /// Maximum resident thread blocks per SM.
    pub max_tbs_per_sm: u32,
    /// 32-bit registers per SM.
    pub regs_per_sm: u32,
    /// Fraction of L1 usable as shared memory by one kernel (the rest is
    /// reserved as cache); e.g. A100 allows 164 of 192 KB.
    pub shared_fraction: f64,

    /// Fixed serialized cost of launching one kernel, in microseconds.
    /// Fusion wins partly by eliminating these.
    pub kernel_launch_overhead_us: f64,
    /// Concurrent memory-issuing threads required to saturate DRAM bandwidth
    /// (Little's-law calibration: `bandwidth × latency / bytes-per-access`).
    /// Below this, effective bandwidth degrades linearly — the mechanism
    /// behind §5.1's "SD improves bandwidth utilization in sparse attention".
    pub mem_saturation_threads: f64,
    /// DRAM access energy in picojoules per byte (HBM2e ≈ 30–40, GDDR6/6X ≈
    /// 55–65). Used for the paper's off-chip access-energy claims.
    pub dram_pj_per_byte: f64,
    /// Core energy per FP16 FLOP in picojoules (small next to DRAM).
    pub flop_pj: f64,
}

/// Error returned by [`DeviceSpec::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidDeviceError(String);

impl core::fmt::Display for InvalidDeviceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "invalid device spec: {}", self.0)
    }
}

impl std::error::Error for InvalidDeviceError {}

impl DeviceSpec {
    /// NVIDIA A100 (SXM4 80GB-class, Table 1 column 1).
    pub fn a100() -> Self {
        DeviceSpec {
            name: "A100".to_owned(),
            mem_bandwidth_gbps: 1555.0,
            fp16_cuda_tflops: 42.3,
            fp16_tensor_tflops: 169.0,
            l1_kb_per_sm: 192,
            l2_mb: 40.0,
            hbm_gb: 80.0,
            num_sms: 108,
            max_threads_per_sm: 2048,
            max_tbs_per_sm: 32,
            regs_per_sm: 65536,
            shared_fraction: 164.0 / 192.0,
            kernel_launch_overhead_us: 4.0,
            mem_saturation_threads: 65536.0,
            dram_pj_per_byte: 35.0,
            flop_pj: 0.5,
        }
    }

    /// NVIDIA GeForce RTX 3090 (Table 1 column 2).
    pub fn rtx3090() -> Self {
        DeviceSpec {
            name: "RTX 3090".to_owned(),
            mem_bandwidth_gbps: 936.2,
            fp16_cuda_tflops: 29.3,
            fp16_tensor_tflops: 58.0,
            l1_kb_per_sm: 128,
            l2_mb: 6.0,
            hbm_gb: 24.0,
            num_sms: 82,
            max_threads_per_sm: 1536,
            max_tbs_per_sm: 16,
            regs_per_sm: 65536,
            shared_fraction: 100.0 / 128.0,
            kernel_launch_overhead_us: 4.0,
            mem_saturation_threads: 49152.0,
            dram_pj_per_byte: 60.0,
            flop_pj: 0.6,
        }
    }

    /// NVIDIA Tesla T4 (Table 1 column 3).
    pub fn t4() -> Self {
        DeviceSpec {
            name: "T4".to_owned(),
            mem_bandwidth_gbps: 320.0,
            fp16_cuda_tflops: 24.0,
            fp16_tensor_tflops: 24.0,
            l1_kb_per_sm: 64,
            l2_mb: 4.0,
            hbm_gb: 16.0,
            num_sms: 40,
            max_threads_per_sm: 1024,
            max_tbs_per_sm: 16,
            regs_per_sm: 65536,
            shared_fraction: 48.0 / 64.0,
            kernel_launch_overhead_us: 4.0,
            // GDDR6 latency (~550 ns) is well above HBM2e, so saturation
            // needs more threads in flight — and T4 has the fewest resident
            // threads of the three GPUs (40 SMs × 1024), making it the most
            // utilization-sensitive device. This is why the paper sees the
            // biggest sparse-model speedups here (§5.1).
            mem_saturation_threads: 32768.0,
            dram_pj_per_byte: 55.0,
            flop_pj: 0.7,
        }
    }

    /// All three evaluation GPUs in the paper's order.
    pub fn all_presets() -> Vec<DeviceSpec> {
        vec![Self::a100(), Self::rtx3090(), Self::t4()]
    }

    /// Peak memory bandwidth in bytes/second.
    #[inline]
    pub fn mem_bandwidth_bytes_per_s(&self) -> f64 {
        self.mem_bandwidth_gbps * 1e9
    }

    /// Peak CUDA-core FP16 rate in FLOP/s.
    #[inline]
    pub fn cuda_flops_per_s(&self) -> f64 {
        self.fp16_cuda_tflops * 1e12
    }

    /// Peak tensor-core FP16 rate in FLOP/s.
    #[inline]
    pub fn tensor_flops_per_s(&self) -> f64 {
        self.fp16_tensor_tflops * 1e12
    }

    /// Per-SM CUDA-core FP16 rate in FLOP/s.
    #[inline]
    pub fn cuda_flops_per_sm(&self) -> f64 {
        self.cuda_flops_per_s() / self.num_sms as f64
    }

    /// Per-SM tensor-core FP16 rate in FLOP/s.
    #[inline]
    pub fn tensor_flops_per_sm(&self) -> f64 {
        self.tensor_flops_per_s() / self.num_sms as f64
    }

    /// Shared-memory bytes available to one kernel per SM.
    #[inline]
    pub fn shared_bytes_per_sm(&self) -> u64 {
        (self.l1_kb_per_sm as f64 * 1024.0 * self.shared_fraction) as u64
    }

    /// L2 capacity in bytes.
    #[inline]
    pub fn l2_bytes(&self) -> u64 {
        (self.l2_mb * 1024.0 * 1024.0) as u64
    }

    /// Off-chip memory capacity in bytes.
    #[inline]
    pub fn hbm_bytes(&self) -> u64 {
        (self.hbm_gb * 1024.0 * 1024.0 * 1024.0) as u64
    }

    /// Ratio of tensor-core FLOPS to memory bandwidth (FLOP per byte).
    ///
    /// The paper uses this ratio to explain why A100 benefits most from
    /// recomposition (§5.1): a higher ratio means MatMuls finish relatively
    /// faster, leaving softmax a bigger share of the total.
    pub fn tensor_flops_per_byte(&self) -> f64 {
        self.tensor_flops_per_s() / self.mem_bandwidth_bytes_per_s()
    }

    /// Checks internal consistency of a (possibly user-built) spec.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidDeviceError`] naming the offending field if any
    /// capacity or rate is non-positive, or a fraction is out of range.
    pub fn validate(&self) -> Result<(), InvalidDeviceError> {
        fn pos(v: f64, what: &str) -> Result<(), InvalidDeviceError> {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(InvalidDeviceError(format!(
                    "{what} must be positive, got {v}"
                )))
            }
        }
        pos(self.mem_bandwidth_gbps, "mem_bandwidth_gbps")?;
        pos(self.fp16_cuda_tflops, "fp16_cuda_tflops")?;
        pos(self.fp16_tensor_tflops, "fp16_tensor_tflops")?;
        pos(self.l1_kb_per_sm as f64, "l1_kb_per_sm")?;
        pos(self.l2_mb, "l2_mb")?;
        pos(self.hbm_gb, "hbm_gb")?;
        pos(self.num_sms as f64, "num_sms")?;
        pos(self.max_threads_per_sm as f64, "max_threads_per_sm")?;
        pos(self.max_tbs_per_sm as f64, "max_tbs_per_sm")?;
        pos(self.regs_per_sm as f64, "regs_per_sm")?;
        pos(self.mem_saturation_threads, "mem_saturation_threads")?;
        pos(self.dram_pj_per_byte, "dram_pj_per_byte")?;
        if !(0.0..=1.0).contains(&self.shared_fraction) {
            return Err(InvalidDeviceError(format!(
                "shared_fraction must be in [0,1], got {}",
                self.shared_fraction
            )));
        }
        if self.kernel_launch_overhead_us < 0.0 {
            return Err(InvalidDeviceError(
                "kernel_launch_overhead_us must be non-negative".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let a100 = DeviceSpec::a100();
        assert_eq!(a100.mem_bandwidth_gbps, 1555.0);
        assert_eq!(a100.fp16_cuda_tflops, 42.3);
        assert_eq!(a100.fp16_tensor_tflops, 169.0);
        assert_eq!(a100.l1_kb_per_sm, 192);
        assert_eq!(a100.l2_mb, 40.0);
        assert_eq!(a100.hbm_gb, 80.0);
        assert_eq!(a100.hbm_bytes(), 80 * 1024 * 1024 * 1024);

        let r = DeviceSpec::rtx3090();
        assert_eq!(r.mem_bandwidth_gbps, 936.2);
        assert_eq!(r.fp16_tensor_tflops, 58.0);
        assert_eq!(r.l2_mb, 6.0);

        let t4 = DeviceSpec::t4();
        assert_eq!(t4.mem_bandwidth_gbps, 320.0);
        assert_eq!(t4.fp16_cuda_tflops, 24.0);
        assert_eq!(t4.fp16_tensor_tflops, 24.0);
        assert_eq!(t4.l1_kb_per_sm, 64);
        assert_eq!(t4.l2_mb, 4.0);
    }

    #[test]
    fn presets_validate() {
        let presets = DeviceSpec::all_presets();
        // Table 1's three GPUs, the A100 first.
        let names: Vec<&str> = presets.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, ["A100", "RTX 3090", "T4"]);
        for d in presets {
            d.validate().unwrap_or_else(|e| panic!("{}: {e}", d.name));
        }
    }

    #[test]
    fn derived_rates() {
        let a = DeviceSpec::a100();
        assert_eq!(a.mem_bandwidth_bytes_per_s(), 1.555e12);
        assert_eq!(a.tensor_flops_per_s(), 1.69e14);
        assert!((a.cuda_flops_per_sm() - 42.3e12 / 108.0).abs() < 1.0);
        assert_eq!(a.l2_bytes(), 40 * 1024 * 1024);
        assert!(a.shared_bytes_per_sm() > 160 * 1024);
    }

    #[test]
    fn flops_per_byte_ordering_explains_gpu_differences() {
        // Paper §5.1: A100 has the highest tensor-FLOPS:bandwidth ratio,
        // so softmax occupies the largest share there.
        let a = DeviceSpec::a100().tensor_flops_per_byte();
        let r = DeviceSpec::rtx3090().tensor_flops_per_byte();
        assert!(a > r, "A100 {a} > 3090 {r}");
        assert!(a > 25.0, "paper: >25 FLOP/B on modern GPUs");
    }

    #[test]
    fn validate_rejects_bad_specs() {
        let mut d = DeviceSpec::a100();
        d.mem_bandwidth_gbps = 0.0;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::a100();
        d.shared_fraction = 1.5;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::a100();
        d.kernel_launch_overhead_us = -1.0;
        assert!(d.validate().is_err());

        let mut d = DeviceSpec::a100();
        d.num_sms = 0;
        let err = d.validate().unwrap_err();
        assert!(err.to_string().contains("num_sms"));
    }

    #[test]
    fn serde_round_trip() {
        let d = DeviceSpec::t4();
        let json = serde_json::to_string(&d).unwrap();
        let back: DeviceSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
