//! Bit-identity tests for the execution shortcuts: `Gpu::launch` must
//! produce exactly the same `KernelStats` as `Gpu::reference`, which steps
//! every event and never touches the pricing memo — with the memo cold and
//! warm, for homogeneous grids, heterogeneous tails, zero-work blocks, and
//! mixed compute/memory work. Homogeneous grids are built as single-group
//! `.grouped(..)` grids: a `.uniform(..)` grid is priced by its closed form
//! on both sides and would reach neither shortcut.

#![cfg(not(miri))] // event-driven sims are far too slow under miri

use resoftmax_gpusim::{
    DeviceSpec, Gpu, KernelCategory, KernelDesc, KernelStats, TbGroup, TbShape, TbWork,
};

/// Launches `kernels` in order on `gpu`, returning per-kernel stats and the
/// timeline total.
fn run(mut gpu: Gpu, kernels: &[KernelDesc]) -> (Vec<KernelStats>, f64) {
    let stats = kernels
        .iter()
        .map(|k| gpu.launch(k).expect("launch"))
        .collect();
    let total = gpu.timeline().total_time_s();
    (stats, total)
}

/// Prices `kernels` on `Gpu::new` twice and asserts every per-kernel stat
/// and timeline total is bit-identical to `Gpu::reference`. No other test
/// launches these kernels, so the first leg simulates them (taking the fast
/// path) and the second answers from the memo the first one filled.
fn assert_paths_identical(device: &DeviceSpec, kernels: &[KernelDesc]) {
    let (ref_stats, ref_total) = run(Gpu::reference(device.clone()), kernels);
    for leg in ["fast path", "warm memo"] {
        let (stats, total) = run(Gpu::new(device.clone()), kernels);
        for (s, r) in stats.iter().zip(&ref_stats) {
            assert_eq!(s, r, "stats diverge on {leg} for kernel {:?}", r.name);
        }
        assert_eq!(
            total.to_bits(),
            ref_total.to_bits(),
            "timeline totals diverge on {leg}"
        );
    }
}

fn memory_kernel(name: &str, count: u64, bytes: f64) -> KernelDesc {
    KernelDesc::builder(name, KernelCategory::Softmax)
        .shape(TbShape::new(256, 0, 32))
        .grouped(vec![TbGroup::new(
            TbWork::memory(bytes, bytes / 4.0),
            count,
        )])
        .build()
}

/// Homogeneous grid far larger than the machine: many full waves replayed.
#[test]
fn homogeneous_many_waves() {
    resoftmax_obs::set_metrics_enabled(Some(true));
    let replayed = resoftmax_obs::counter("sim.wave_fast_path_waves");
    let before = replayed.get();
    for count in [1, 7, 216, 217, 5000, 100_000] {
        assert_paths_identical(
            &DeviceSpec::a100(),
            &[memory_kernel("homogeneous", count, 64_000.0)],
        );
    }
    // The replay was really taken: 100,000 blocks alone fill the A100's 864
    // slots (108 SMs × 8 blocks of 256 threads) 115 times.
    assert!(replayed.get() - before >= 100_000 / 864);
}

/// Compute-bound and mixed compute/memory homogeneous grids.
#[test]
fn homogeneous_compute_and_mixed() {
    let mixed = TbWork {
        cuda_flops: 2e6,
        tensor_flops: 5e7,
        dram_read_bytes: 100_000.0,
        dram_write_bytes: 20_000.0,
        mem_active_fraction: 0.5,
        efficiency: 0.8,
    };
    let k = KernelDesc::builder("mixed", KernelCategory::FusedAttention)
        .shape(TbShape::new(512, 48 * 1024, 32))
        .grouped(vec![TbGroup::new(mixed, 10_000)])
        .build();
    assert_paths_identical(&DeviceSpec::a100(), &[k]);
}

/// Heterogeneous per-TB grids never qualify for the fast path as a whole,
/// but runs of identical blocks inside them do once coalesced.
#[test]
fn heterogeneous_tail() {
    let mut tbs = vec![TbWork::memory(100_000.0, 10_000.0); 4000];
    for i in 0..300 {
        tbs.push(TbWork::memory((i % 9 + 1) as f64 * 37_000.0, 5_000.0));
    }
    let k = KernelDesc::builder("het", KernelCategory::MatMulPv)
        .shape(TbShape::new(1024, 0, 32))
        .per_tb(tbs)
        .build();
    assert_paths_identical(&DeviceSpec::a100(), &[k]);
}

/// Zero-work blocks interleaved with real work retire instantly on both paths.
#[test]
fn zero_work_groups() {
    let mut tbs = vec![TbWork::default(); 3000];
    tbs.extend(vec![TbWork::memory(50_000.0, 0.0); 3000]);
    tbs.extend(vec![TbWork::default(); 500]);
    let k = KernelDesc::builder("zeros", KernelCategory::Other)
        .shape(TbShape::new(128, 0, 16))
        .per_tb(tbs)
        .build();
    assert_paths_identical(&DeviceSpec::a100(), &[k]);

    let all_zero = KernelDesc::builder("all-zero", KernelCategory::Other)
        .shape(TbShape::new(128, 0, 16))
        .per_tb(vec![TbWork::default(); 5000])
        .build();
    assert_paths_identical(&DeviceSpec::a100(), &[all_zero]);
}

/// A sequence of kernels with L2 reuse between them: the shared cache state
/// must evolve identically on both paths.
#[test]
fn l2_interaction_sequence() {
    let small = 8 * 1024 * 1024u64;
    let producer = KernelDesc::builder("p", KernelCategory::InterReduction)
        .shape(TbShape::new(256, 0, 32))
        .grouped(vec![TbGroup::new(
            TbWork::memory(0.0, small as f64 / 20_000.0),
            20_000,
        )])
        .writes("r'", small)
        .build();
    let consumer = KernelDesc::builder("c", KernelCategory::GlobalScaling)
        .shape(TbShape::new(256, 0, 32))
        .grouped(vec![TbGroup::new(
            TbWork::memory(small as f64 / 20_000.0, 0.0),
            20_000,
        )])
        .reads("r'", small)
        .build();
    assert_paths_identical(&DeviceSpec::a100(), &[producer, consumer]);
}

/// The equivalence holds across device specs (different slot counts).
#[test]
fn across_devices() {
    for device in [DeviceSpec::a100(), DeviceSpec::t4(), DeviceSpec::rtx3090()] {
        assert_paths_identical(&device, &[memory_kernel("dev", 12_345, 80_000.0)]);
    }
}
