//! Cross-run memo of fluid-simulated kernel prices.
//!
//! The execution model is a pure function: a kernel's simulated duration is
//! fully determined by the device, the block shape (through occupancy), the
//! canonical thread-block work sequence, and the L2-derived `read_scale`.
//! A uniform grid is priced by its closed form, which costs less than
//! hashing its key, so only the grids the event-driven fluid simulation
//! prices — `Grouped`, and `PerTb` after coalescing — are memoized. This
//! module content-addresses that pricing problem with a 128-bit FNV-1a
//! fingerprint over every input and keeps the price in one process-global
//! map shared by every [`crate::Gpu`] except [`crate::Gpu::reference`],
//! which never reads or writes it.
//!
//! Keys never need invalidation: everything the answer depends on is inside
//! the fingerprint, so a changed input is simply a different key. The map is
//! bounded ([`MAX_KERNEL_ENTRIES`]); at capacity new results are computed
//! but not stored (counted on `sim.cache.dropped`). It is a `HashMap`, but
//! it is never iterated, so its order cannot reach a report.

use crate::device::DeviceSpec;
use crate::kernel::{TbGroup, TbShape};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

/// Capacity bound of the kernel-price map (entries are ~24 bytes).
pub const MAX_KERNEL_ENTRIES: usize = 1 << 17;

// ---------------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------------

/// FNV-1a, 128-bit variant. 64 bits would make accidental collisions across
/// a fleet-scale search (billions of distinct pricing problems) plausible;
/// at 128 bits they are not a practical concern.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fnv128(u128);

impl Fnv128 {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;

    pub(crate) fn new() -> Self {
        Fnv128(Self::OFFSET)
    }

    fn byte(&mut self, b: u8) {
        self.0 = (self.0 ^ u128::from(b)).wrapping_mul(Self::PRIME);
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u128(&mut self, v: u128) {
        self.bytes(&v.to_le_bytes());
    }

    /// Hashes the exact bit pattern: two inputs price identically only if
    /// they are bit-equal (`-0.0` and `0.0` hash apart, which merely costs a
    /// duplicate entry, never a wrong answer).
    pub(crate) fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub(crate) fn finish(self) -> u128 {
        self.0
    }
}

/// Fingerprint of every [`DeviceSpec`] field the execution model reads.
/// Computed once per [`crate::Gpu`] and mixed into every key.
pub(crate) fn device_fingerprint(d: &DeviceSpec) -> u128 {
    let mut h = Fnv128::new();
    h.bytes(d.name.as_bytes());
    h.byte(0); // terminator: name is variable-length
    for v in [
        d.mem_bandwidth_gbps,
        d.fp16_cuda_tflops,
        d.fp16_tensor_tflops,
        d.l2_mb,
        d.hbm_gb,
        d.shared_fraction,
        d.kernel_launch_overhead_us,
        d.mem_saturation_threads,
        d.dram_pj_per_byte,
        d.flop_pj,
    ] {
        h.f64(v);
    }
    for v in [
        d.l1_kb_per_sm,
        d.num_sms,
        d.max_threads_per_sm,
        d.max_tbs_per_sm,
        d.regs_per_sm,
    ] {
        h.u32(v);
    }
    h.finish()
}

/// Fingerprint of one fluid-simulation pricing problem. Covers everything
/// [`crate::Gpu::launch`] feeds into the duration: device, per-block shape,
/// the occupancy it implies, the L2-derived read scale, and the coalesced
/// group sequence.
pub(crate) fn kernel_key(
    device_fp: u128,
    shape: &TbShape,
    tbs_per_sm: u32,
    read_scale: f64,
    groups: &[TbGroup],
) -> u128 {
    let mut h = Fnv128::new();
    h.u128(device_fp);
    h.u32(shape.threads);
    h.u32(shape.shared_bytes);
    h.u32(shape.regs_per_thread);
    h.u32(tbs_per_sm);
    h.f64(read_scale);
    h.u64(groups.len() as u64);
    for g in groups {
        let w = &g.work;
        h.u64(g.count);
        h.f64(w.cuda_flops);
        h.f64(w.tensor_flops);
        h.f64(w.dram_read_bytes);
        h.f64(w.dram_write_bytes);
        h.f64(w.mem_active_fraction);
        h.f64(w.efficiency);
    }
    h.finish()
}

// ---------------------------------------------------------------------------
// The global memo
// ---------------------------------------------------------------------------

/// Kernel prices in seconds, excluding launch overhead.
fn kernel_map() -> &'static RwLock<HashMap<u128, f64>> {
    static MAP: OnceLock<RwLock<HashMap<u128, f64>>> = OnceLock::new();
    MAP.get_or_init(|| RwLock::new(HashMap::new()))
}

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static DROPPED: AtomicU64 = AtomicU64::new(0);

pub(crate) fn lookup_kernel(key: u128) -> Option<f64> {
    let price = kernel_map()
        .read()
        .expect("sim cache poisoned")
        .get(&key)
        .copied();
    let (stat, counter) = if price.is_some() {
        (&HITS, "sim.cache.hits")
    } else {
        (&MISSES, "sim.cache.misses")
    };
    stat.fetch_add(1, Ordering::Relaxed);
    if resoftmax_obs::metrics_enabled() {
        resoftmax_obs::counter(counter).incr();
    }
    price
}

pub(crate) fn insert_kernel(key: u128, time_s: f64) {
    let mut map = kernel_map().write().expect("sim cache poisoned");
    if map.len() >= MAX_KERNEL_ENTRIES && !map.contains_key(&key) {
        drop(map);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        if resoftmax_obs::metrics_enabled() {
            resoftmax_obs::counter("sim.cache.dropped").incr();
        }
        return;
    }
    map.entry(key).or_insert(time_s);
}

/// Empties the memo and zeroes the [`sim_cache_stats`] counters.
/// Concurrent simulations are unaffected beyond re-pricing (values are pure
/// functions of their keys, so a racing insert can never store a different
/// answer for the same key).
pub fn clear_sim_cache() {
    kernel_map().write().expect("sim cache poisoned").clear();
    for c in [&HITS, &MISSES, &DROPPED] {
        c.store(0, Ordering::Relaxed);
    }
}

/// A snapshot of the process-global pricing-memo counters. Mirrored on the
/// observability counters `sim.cache.{hits,misses,dropped}` when metrics are
/// enabled; this snapshot is always maintained so benches and tests need no
/// metrics setup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheStats {
    /// Entries in the kernel-price map.
    pub kernel_entries: usize,
    /// Kernel-price lookups answered from the memo.
    pub hits: u64,
    /// Kernel-price lookups that fell through to fresh simulation.
    pub misses: u64,
    /// Always 0: nothing is counted here. Kept only until its last reader
    /// (the `benchmark/` package) stops reading it; then it is removed.
    pub class_hits: u64,
    /// Always 0, like [`Self::class_hits`].
    pub class_misses: u64,
    /// Results not stored because the map was at capacity.
    pub dropped: u64,
}

/// Reads the current [`SimCacheStats`].
pub fn sim_cache_stats() -> SimCacheStats {
    SimCacheStats {
        kernel_entries: kernel_map().read().expect("sim cache poisoned").len(),
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        dropped: DROPPED.load(Ordering::Relaxed),
        ..SimCacheStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::TbWork;

    #[test]
    fn fnv128_matches_reference_vectors() {
        // Published FNV-1a 128-bit test vectors.
        let mut h = Fnv128::new();
        h.bytes(b"");
        assert_eq!(h.finish(), 0x6c62272e07bb014262b821756295c58d);
        let mut h = Fnv128::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xd228cb696f1a8caf78912b704e4a8964);
    }

    #[test]
    fn kernel_key_distinguishes_every_input() {
        let dev = device_fingerprint(&DeviceSpec::a100());
        let shape = TbShape::new(256, 0, 32);
        let work = TbWork::memory(1024.0, 1024.0);
        let grid = [TbGroup::new(work, 100)];
        let base = kernel_key(dev, &shape, 8, 1.0, &grid);
        let keys = [
            kernel_key(device_fingerprint(&DeviceSpec::t4()), &shape, 8, 1.0, &grid),
            kernel_key(dev, &TbShape::new(128, 0, 32), 8, 1.0, &grid),
            kernel_key(dev, &shape, 4, 1.0, &grid),
            kernel_key(dev, &shape, 8, 0.5, &grid),
            kernel_key(dev, &shape, 8, 1.0, &[TbGroup::new(work, 101)]),
            kernel_key(
                dev,
                &shape,
                8,
                1.0,
                &[TbGroup::new(TbWork::memory(1024.0, 1023.0), 100)],
            ),
        ];
        for (i, k) in keys.iter().enumerate() {
            assert_ne!(base, *k, "variant {i} must not collide with base");
        }
        // Same inputs, same key.
        assert_eq!(base, kernel_key(dev, &shape, 8, 1.0, &grid));
    }

    #[test]
    fn group_order_and_split_are_significant() {
        let dev = device_fingerprint(&DeviceSpec::a100());
        let shape = TbShape::new(256, 0, 32);
        let a = TbWork::memory(1.0, 0.0);
        let b = TbWork::memory(2.0, 0.0);
        let ab = kernel_key(
            dev,
            &shape,
            8,
            1.0,
            &[TbGroup::new(a, 3), TbGroup::new(b, 5)],
        );
        let ba = kernel_key(
            dev,
            &shape,
            8,
            1.0,
            &[TbGroup::new(b, 5), TbGroup::new(a, 3)],
        );
        assert_ne!(ab, ba, "dispatch order affects the timeline");
        // Splitting one group into two of the same total must change the key:
        // the fluid simulation dispatches and retires them differently.
        let split = kernel_key(
            dev,
            &shape,
            8,
            1.0,
            &[TbGroup::new(a, 3), TbGroup::new(a, 0), TbGroup::new(b, 5)],
        );
        assert_ne!(ab, split);
    }

    #[test]
    #[cfg_attr(miri, ignore = "fills the whole map — too slow under miri")]
    fn capacity_backstop_stops_inserting() {
        // Synthetic keys: the backstop only looks at map size.
        for i in 0..(MAX_KERNEL_ENTRIES as u128 + 8) {
            insert_kernel(u128::MAX - i, 1.0);
        }
        let stats = sim_cache_stats();
        assert!(stats.kernel_entries <= MAX_KERNEL_ENTRIES);
        assert!(stats.dropped >= 8);
        // Leave the global map empty for other tests in this process.
        clear_sim_cache();
        assert_eq!(sim_cache_stats().kernel_entries, 0);
    }
}
