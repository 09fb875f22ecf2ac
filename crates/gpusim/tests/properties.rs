//! Property-based tests of the execution model: monotonicity, conservation,
//! and bound properties that must hold for any kernel.

#![cfg(not(miri))] // event-driven sims are far too slow under miri

use proptest::prelude::*;
use resoftmax_gpusim::{
    occupancy, BufferId, DeviceSpec, Gpu, KernelCategory, KernelDesc, Scope, TbGroup, TbShape,
    TbWork,
};

fn quiet_a100() -> DeviceSpec {
    let mut d = DeviceSpec::a100();
    d.kernel_launch_overhead_us = 0.0;
    d
}

fn work_strategy() -> impl Strategy<Value = TbWork> {
    (
        0.0f64..1e9,
        0.0f64..1e9,
        0.0f64..1e6,
        0.0f64..1e6,
        0.05f64..1.0,
        0.1f64..1.0,
    )
        .prop_map(|(cuda, tensor, rd, wr, frac, eff)| TbWork {
            cuda_flops: cuda,
            tensor_flops: tensor,
            dram_read_bytes: rd,
            dram_write_bytes: wr,
            mem_active_fraction: frac,
            efficiency: eff,
        })
}

fn uniform_kernel(count: u64, work: TbWork, threads: u32) -> KernelDesc {
    KernelDesc::builder("k", KernelCategory::Other)
        .shape(TbShape::new(threads, 4096, 32))
        .uniform(count, work)
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Simulated time is finite and non-negative for arbitrary work.
    #[test]
    fn time_is_finite(work in work_strategy(), count in 1u64..5000, threads in 32u32..1024) {
        let mut gpu = Gpu::new(quiet_a100());
        let s = gpu.launch(&uniform_kernel(count, work, threads)).unwrap();
        prop_assert!(s.time_s.is_finite());
        prop_assert!(s.time_s >= 0.0);
        prop_assert!(s.energy_j >= 0.0);
    }

    /// Time never beats the machine-wide roofline bound.
    #[test]
    fn time_respects_roofline(work in work_strategy(), count in 1u64..5000) {
        let d = quiet_a100();
        let mut gpu = Gpu::new(d.clone());
        let s = gpu.launch(&uniform_kernel(count, work, 256)).unwrap();
        let n = count as f64;
        let bound = (n * work.cuda_flops / d.cuda_flops_per_s())
            .max(n * work.tensor_flops / d.tensor_flops_per_s())
            .max(n * work.dram_bytes() / d.mem_bandwidth_bytes_per_s());
        prop_assert!(
            s.time_s >= bound * 0.999,
            "time {} below roofline {}",
            s.time_s,
            bound
        );
    }

    /// Adding blocks never makes a kernel faster.
    #[test]
    fn time_monotone_in_count(work in work_strategy(), count in 1u64..2000, extra in 1u64..2000) {
        let mut gpu = Gpu::new(quiet_a100());
        let t1 = gpu.launch(&uniform_kernel(count, work, 256)).unwrap().time_s;
        let t2 = gpu.launch(&uniform_kernel(count + extra, work, 256)).unwrap().time_s;
        prop_assert!(t2 >= t1 * 0.999, "{t2} < {t1}");
    }

    /// Scaling all per-block work by a factor scales uniform-kernel time by
    /// at least that factor's sub-linear floor (never super-proportionally
    /// cheaper).
    #[test]
    fn time_monotone_in_work(work in work_strategy(), count in 1u64..2000) {
        let mut gpu = Gpu::new(quiet_a100());
        let t1 = gpu.launch(&uniform_kernel(count, work, 256)).unwrap().time_s;
        let double = TbWork {
            cuda_flops: work.cuda_flops * 2.0,
            tensor_flops: work.tensor_flops * 2.0,
            dram_read_bytes: work.dram_read_bytes * 2.0,
            dram_write_bytes: work.dram_write_bytes * 2.0,
            ..work
        };
        let t2 = gpu.launch(&uniform_kernel(count, double, 256)).unwrap().time_s;
        prop_assert!(t2 >= t1 * 1.999, "doubling work: {t1} -> {t2}");
    }

    /// Lower efficiency never speeds a kernel up.
    #[test]
    fn efficiency_monotone(work in work_strategy(), count in 1u64..2000) {
        let mut gpu = Gpu::new(quiet_a100());
        let t_full = gpu
            .launch(&uniform_kernel(count, TbWork { efficiency: 1.0, ..work }, 256))
            .unwrap()
            .time_s;
        let t_half = gpu
            .launch(&uniform_kernel(count, TbWork { efficiency: 0.5, ..work }, 256))
            .unwrap()
            .time_s;
        prop_assert!(t_half >= t_full * 0.999);
    }

    /// Grouped and expanded per-TB representations agree.
    #[test]
    fn grouped_equals_per_tb(
        works in proptest::collection::vec(work_strategy(), 1..6),
        reps in 1u64..40,
    ) {
        let mut expanded = Vec::new();
        let mut groups = Vec::new();
        for w in &works {
            groups.push(TbGroup::new(*w, reps));
            for _ in 0..reps {
                expanded.push(*w);
            }
        }
        let shape = TbShape::new(256, 4096, 32);
        let g = KernelDesc::builder("g", KernelCategory::Other)
            .shape(shape)
            .grouped(groups)
            .build();
        let p = KernelDesc::builder("p", KernelCategory::Other)
            .shape(shape)
            .per_tb(expanded)
            .build();
        let mut gpu = Gpu::new(quiet_a100());
        let tg = gpu.launch(&g).unwrap().time_s;
        let tp = gpu.launch(&p).unwrap().time_s;
        prop_assert!(
            (tg - tp).abs() <= tg.max(tp) * 1e-9 + 1e-15,
            "grouped {tg} vs per-tb {tp}"
        );
        // summation order differs (count×bytes vs repeated adds): allow ulps
        let (gb, pb) = (g.total_dram_bytes(), p.total_dram_bytes());
        prop_assert!((gb - pb).abs() <= gb.max(pb) * 1e-12);
    }

    /// Traffic accounting is exact for uniform kernels with no L2 reuse.
    #[test]
    fn traffic_conservation(work in work_strategy(), count in 1u64..3000) {
        let mut gpu = Gpu::new(quiet_a100());
        let s = gpu.launch(&uniform_kernel(count, work, 256)).unwrap();
        let expected = count as f64 * work.dram_bytes();
        prop_assert!((s.dram_bytes() - expected).abs() < expected * 1e-12 + 1e-9);
    }

    /// Occupancy is monotone: more shared memory per block never raises it.
    #[test]
    fn occupancy_monotone_in_shared(threads in 32u32..1024, s1 in 0u32..100_000, extra in 1u32..100_000) {
        let d = DeviceSpec::a100();
        let o1 = occupancy(&d, &TbShape::new(threads, s1, 32));
        let o2 = occupancy(&d, &TbShape::new(threads, s1 + extra, 32));
        match (o1, o2) {
            (Ok(a), Ok(b)) => prop_assert!(b.tbs_per_sm <= a.tbs_per_sm),
            (Err(_), Ok(_)) => prop_assert!(false, "bigger block fits when smaller failed"),
            _ => {}
        }
    }

    /// A faster device (uniformly scaled) is never slower.
    #[test]
    fn device_scaling_monotone(work in work_strategy(), count in 1u64..2000, scale in 1.1f64..4.0) {
        let slow = quiet_a100();
        let mut fast = slow.clone();
        fast.mem_bandwidth_gbps *= scale;
        fast.fp16_cuda_tflops *= scale;
        fast.fp16_tensor_tflops *= scale;
        let t_slow = Gpu::new(slow).launch(&uniform_kernel(count, work, 256)).unwrap().time_s;
        let t_fast = Gpu::new(fast).launch(&uniform_kernel(count, work, 256)).unwrap().time_s;
        prop_assert!(t_fast <= t_slow * 1.001, "fast {t_fast} > slow {t_slow}");
    }
}

/// A kernel over buffers of a shared pool: it reads the pool entries
/// `reads` and writes `writes`, spreading their bytes over `count` blocks.
fn pool_kernel(
    ids: &[BufferId],
    sizes: &[u64],
    reads: &[usize],
    writes: &[usize],
    count: u64,
) -> KernelDesc {
    let total = |bufs: &[usize]| bufs.iter().map(|&b| sizes[b]).sum::<u64>() as f64;
    let mut b = KernelDesc::builder("pool", KernelCategory::Other);
    b.shape(TbShape::new(256, 4096, 32)).uniform(
        count,
        TbWork::memory(total(reads) / count as f64, total(writes) / count as f64),
    );
    for &r in reads {
        b.reads(ids[r], sizes[r]);
    }
    for &w in writes {
        b.writes(ids[w], sizes[w]);
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Renaming every buffer id injectively changes nothing the simulator
    /// reports: each kernel's L2-filtered traffic and the whole timeline
    /// stay bit-identical. The L2 model compares ids only for equality —
    /// the premise of pricing a decode step's repeated layers once.
    #[test]
    fn injective_renaming_is_invisible(
        sizes in proptest::collection::vec(1u64..(96 << 20), 6),
        program in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..6, 0..4),
                proptest::collection::vec(0usize..6, 0..3),
                1u64..4096,
            ),
            1..12,
        ),
    ) {
        let ids: Vec<BufferId> = (0..6).map(|i| Scope::layer(i).id("buf")).collect();
        let renamed: Vec<BufferId> = (0..6).map(|i| Scope::encoder(5 - i).id("other")).collect();
        let (mut a, mut b) = (Gpu::new(DeviceSpec::a100()), Gpu::new(DeviceSpec::a100()));
        for (reads, writes, count) in &program {
            let ka = pool_kernel(&ids, &sizes, reads, writes, *count);
            let kb = pool_kernel(&renamed, &sizes, reads, writes, *count);
            let (ta, tb) = (a.peek_traffic(&ka), b.peek_traffic(&kb));
            prop_assert_eq!(format!("{ta:?}"), format!("{tb:?}"));
            a.launch(&ka).unwrap();
            b.launch(&kb).unwrap();
        }
        prop_assert_eq!(format!("{:?}", a.timeline()), format!("{:?}", b.timeline()));
    }
}
