//! Cross-run memo of fluid-simulated kernel prices.
//!
//! The execution model is a pure function: a kernel's simulated duration is
//! fully determined by the device, the block shape (through occupancy), the
//! canonical thread-block work sequence, and the L2-derived `read_scale`.
//! A uniform grid is priced by its closed form, which costs less than
//! hashing its key, so only the grids the event-driven fluid simulation
//! prices — `Grouped`, and `PerTb` after coalescing — are memoized. This
//! module content-addresses that pricing problem with a 128-bit word-wise
//! hash over every input and keeps the price in one process-global
//! map shared by every [`crate::Gpu`] except [`crate::Gpu::reference`],
//! which never reads or writes it.
//!
//! Keys never need invalidation: everything the answer depends on is inside
//! the fingerprint, so a changed input is simply a different key. The map is
//! bounded ([`MAX_KERNEL_ENTRIES`]); at capacity new results are computed
//! but not stored (counted in [`SimCacheStats::dropped`]). It is a
//! `HashMap`, but it is never iterated, so its order cannot reach a report.

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

/// A 128-bit hash that takes one `u64` word per step: MurmurHash3
/// x64-128's block mix (seed 0), each pair of words one 16-byte block and
/// an odd last word the tail, then its `fmix64` finalizer, under which
/// every input bit reaches every output bit. A byte-wise hash takes eight
/// steps per word. 64 bits would make accidental collisions across a
/// fleet-scale search (billions of distinct pricing problems) plausible;
/// at 128 bits they are not a practical concern.
#[derive(Debug, Clone, Copy)]
struct Hash128 {
    h1: u64,
    h2: u64,
    /// The first word of an unfinished block.
    pending: Option<u64>,
    words: u64,
}

impl Hash128 {
    const C1: u64 = 0x87c3_7b91_1142_53d5;
    const C2: u64 = 0x4cf5_ad43_2745_937f;

    fn new() -> Self {
        Hash128 {
            h1: 0,
            h2: 0,
            pending: None,
            words: 0,
        }
    }

    fn mix_k1(k1: u64) -> u64 {
        k1.wrapping_mul(Self::C1)
            .rotate_left(31)
            .wrapping_mul(Self::C2)
    }

    fn mix_k2(k2: u64) -> u64 {
        k2.wrapping_mul(Self::C2)
            .rotate_left(33)
            .wrapping_mul(Self::C1)
    }

    fn fmix64(mut k: u64) -> u64 {
        k ^= k >> 33;
        k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
        k ^= k >> 33;
        k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        k ^ (k >> 33)
    }

    fn u64(&mut self, v: u64) {
        if let Some(k1) = self.pending.take() {
            self.h1 ^= Self::mix_k1(k1);
            self.h1 = self
                .h1
                .rotate_left(27)
                .wrapping_add(self.h2)
                .wrapping_mul(5)
                .wrapping_add(0x52dc_e729);
            self.h2 ^= Self::mix_k2(v);
            self.h2 = self
                .h2
                .rotate_left(31)
                .wrapping_add(self.h1)
                .wrapping_mul(5)
                .wrapping_add(0x3849_5ab5);
        } else {
            self.pending = Some(v);
        }
        self.words += 1;
    }

    fn u32(&mut self, v: u32) {
        self.u64(u64::from(v));
    }

    fn u128(&mut self, v: u128) {
        self.u64(v as u64);
        self.u64((v >> 64) as u64);
    }

    /// Hashes the exact bit pattern: two inputs price identically only if
    /// they are bit-equal (`-0.0` and `0.0` hash apart, which merely costs a
    /// duplicate entry, never a wrong answer).
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Variable-length bytes: their length, then the bytes eight to a
    /// word, zero-padded.
    fn bytes(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.u64(u64::from_le_bytes(word));
        }
    }

    fn finish(self) -> u128 {
        let (mut h1, mut h2) = (self.h1, self.h2);
        if let Some(k1) = self.pending {
            h1 ^= Self::mix_k1(k1);
        }
        let len = self.words * 8;
        h1 ^= len;
        h2 ^= len;
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        h1 = Self::fmix64(h1);
        h2 = Self::fmix64(h2);
        h1 = h1.wrapping_add(h2);
        h2 = h2.wrapping_add(h1);
        (u128::from(h2) << 64) | u128::from(h1)
    }
}

/// Fingerprint of every [`DeviceSpec`] field the execution model reads.
/// Computed once per [`crate::Gpu`] and mixed into every key.
pub(crate) fn device_fingerprint(d: &DeviceSpec) -> u128 {
    let mut h = Hash128::new();
    h.bytes(d.name.as_bytes());
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
    let mut h = Hash128::new();
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

/// The stored price of `key`, counted as a hit. A key not stored yet is
/// counted by [`insert_kernel`] once it is priced.
pub(crate) fn lookup_kernel(key: u128) -> Option<f64> {
    let price = kernel_map()
        .read()
        .expect("sim cache poisoned")
        .get(&key)
        .copied();
    if price.is_some() {
        HITS.fetch_add(1, Ordering::Relaxed);
    }
    price
}

/// Stores the price of a key [`lookup_kernel`] did not find. Storing a new
/// entry counts a miss, and so does a price dropped at capacity; a key
/// another thread stored in the meantime counts as a hit. So hits plus
/// misses are the lookups, and the misses the keys priced, whatever the
/// number of threads pricing at once.
pub(crate) fn insert_kernel(key: u128, time_s: f64) {
    let mut map = kernel_map().write().expect("sim cache poisoned");
    let stat = if map.contains_key(&key) {
        &HITS
    } else {
        if map.len() < MAX_KERNEL_ENTRIES {
            map.insert(key, time_s);
        } else {
            DROPPED.fetch_add(1, Ordering::Relaxed);
        }
        &MISSES
    };
    drop(map);
    stat.fetch_add(1, Ordering::Relaxed);
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

/// A snapshot of the process-global pricing-memo counters, the memo's only
/// count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCacheStats {
    /// Entries in the kernel-price map.
    pub kernel_entries: usize,
    /// Kernel-price lookups answered from the memo, or whose price
    /// another thread stored while this one simulated it.
    pub hits: u64,
    /// Kernel prices simulated and stored (or dropped at capacity): one per
    /// distinct key, however many threads priced it at once.
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

    /// ~100,000 distinct decode-shaped grids (1 to 300 groups of 16
    /// blocks, contexts 1 to 4,096), as the fleets price them, get distinct
    /// keys, and distinct low 64 bits too.
    #[test]
    #[cfg_attr(miri, ignore = "hashes ~100,000 grids — too slow under miri")]
    fn decode_shaped_grids_get_distinct_keys() {
        let dev = device_fingerprint(&DeviceSpec::a100());
        let shape = TbShape::new(256, 16 * 1024, 64);
        let gemv = |ctx: u64| {
            let ctx = ctx as f64;
            TbWork {
                cuda_flops: 130.0 * ctx,
                tensor_flops: 0.0,
                dram_read_bytes: (ctx + 2.0) * 128.0,
                dram_write_bytes: 2.0 * ctx,
                mem_active_fraction: 1.0,
                efficiency: 0.93,
            }
        };
        // SplitMix64: a fixed stream of contexts.
        let mut state = 0x5eed_u64;
        let mut next = || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let n = 100_000u64;
        let mut keys = HashMap::new();
        let mut low = HashMap::new();
        let mut groups = Vec::new();
        for i in 0..n {
            // The length and the first context spell `i`, so the grids are
            // distinct by construction; the other contexts are random.
            groups.clear();
            let len = 1 + i % 300;
            groups.push(TbGroup::new(gemv(1 + i / 300), 16));
            groups.extend((1..len).map(|_| TbGroup::new(gemv(1 + next() % 4_096), 16)));
            let key = kernel_key(dev, &shape, 4, 1.0, &groups);
            assert_eq!(keys.insert(key, i), None, "grid {i} collides");
            assert_eq!(
                low.insert(key as u64, i),
                None,
                "grid {i}'s low 64 bits collide"
            );
        }
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
