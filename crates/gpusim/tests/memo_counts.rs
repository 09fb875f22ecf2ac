//! The pricing memo's counts when several threads price the same kernels at
//! once: each distinct key priced is one miss and every other lookup one
//! hit, however the threads interleave, so the counts of a run do not
//! depend on its worker count. Kept in its own test binary: the memo and
//! its counters are process-global, and other tests would add to them.

use resoftmax_gpusim::{
    clear_sim_cache, sim_cache_stats, DeviceSpec, Gpu, KernelCategory, KernelDesc, TbShape, TbWork,
};
use std::sync::Barrier;

/// Heterogeneous grid `i`: the fluid simulation prices it, so the memo
/// keeps its price.
fn grid(i: u32) -> KernelDesc {
    KernelDesc::builder(format!("grid{i}"), KernelCategory::Other)
        .shape(TbShape::new(256, 0, 32))
        .per_tb(
            (0..2_000)
                .map(|b| TbWork::memory(f64::from(b % 7 + 1 + i) * 4_096.0, 1_024.0))
                .collect(),
        )
        .build()
}

#[test]
#[cfg_attr(
    miri,
    ignore = "fluid-simulates on eight threads — too slow under miri"
)]
fn every_thread_pricing_at_once_counts_each_key_once() {
    let grids: Vec<KernelDesc> = (0..3).map(grid).collect();
    for threads in [1, 2, 4, 8] {
        clear_sim_cache();
        let start = Barrier::new(threads);
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    let mut gpu = Gpu::new(DeviceSpec::a100());
                    start.wait();
                    for k in &grids {
                        gpu.launch(k).expect("launches");
                    }
                });
            }
        });
        let stats = sim_cache_stats();
        let lookups = (threads * grids.len()) as u64;
        assert_eq!(
            (stats.misses, stats.hits, stats.kernel_entries),
            (3, lookups - 3, 3),
            "{threads} threads: {stats:?}"
        );
    }
}
