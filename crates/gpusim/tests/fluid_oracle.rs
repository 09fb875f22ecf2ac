//! The fluid simulation pinned to a frozen copy of itself.
//!
//! `Gpu::reference` steps every event through the same event loop as
//! `Gpu::new`, so comparing the two checks the memo but not the loop. This file keeps its own copy of the event loop as it
//! stood before the loop was restructured for speed (class runs, the
//! bandwidth memo, one advance-and-retire pass) and asserts that every
//! heterogeneous kernel `Gpu::new` (memo cold, then warm) and
//! `Gpu::reference` price lasts exactly the copy's `time_s` plus the launch
//! overhead, bit for bit.

use resoftmax_gpusim::bandwidth::effective_bandwidth;
use resoftmax_gpusim::{
    occupancy, DeviceSpec, Gpu, KernelCategory, KernelDesc, Occupancy, TbGroup, TbSet, TbShape,
    TbWork,
};

// ---------------------------------------------------------------------------
// The frozen event loop: `Active`, `fluid_time` and `event_step` as they
// were, `fluid_time` stepping every event, with `self.device` passed in. Do not edit it to follow the simulator.
// ---------------------------------------------------------------------------

const EPS: f64 = 1e-18;

#[derive(Debug, Clone, Copy)]
struct Active {
    count: f64,
    cuda: f64,
    tensor: f64,
    mem: f64,
    mem_threads_per_tb: f64,
    efficiency: f64,
}

impl Active {
    fn from_work(work: &TbWork, threads: f64, read_scale: f64) -> Option<Active> {
        let mem = work.dram_read_bytes * read_scale + work.dram_write_bytes;
        if work.cuda_flops <= EPS && work.tensor_flops <= EPS && mem <= EPS {
            return None;
        }
        Some(Active {
            count: 1.0,
            cuda: work.cuda_flops,
            tensor: work.tensor_flops,
            mem,
            mem_threads_per_tb: threads * work.mem_active_fraction,
            efficiency: work.efficiency.clamp(1e-6, 1.0),
        })
    }

    fn with_count(self, count: f64) -> Active {
        Active { count, ..self }
    }
}

fn fluid_time(
    device: &DeviceSpec,
    groups: &[TbGroup],
    threads: u32,
    read_scale: f64,
    occ: Occupancy,
) -> f64 {
    let threads = f64::from(threads);
    let slots = (device.num_sms as u64 * occ.tbs_per_sm as u64).max(1);

    let mut queue: std::collections::VecDeque<TbGroup> =
        groups.iter().filter(|g| g.count > 0).copied().collect();
    let mut active: Vec<Active> = Vec::new();
    let mut in_flight: u64 = 0;
    let mut now = 0.0f64;

    loop {
        // Refill free slots from the queue, splitting groups as needed.
        while in_flight < slots {
            let Some(front) = queue.front_mut() else {
                break;
            };
            let take = front.count.min(slots - in_flight);
            front.count -= take;
            let work = front.work;
            if front.count == 0 {
                queue.pop_front();
            }
            let Some(tb) = Active::from_work(&work, threads, read_scale) else {
                continue; // zero-work blocks retire instantly
            };
            in_flight += take;
            active.push(tb.with_count(take as f64));
        }
        if active.is_empty() {
            break;
        }
        now += event_step(device, &mut active, &mut in_flight);
    }
    now
}

fn event_step(device: &DeviceSpec, active: &mut Vec<Active>, in_flight: &mut u64) -> f64 {
    let sm_cuda = device.cuda_flops_per_sm();
    let sm_tensor = device.tensor_flops_per_sm();
    let total_cuda = device.cuda_flops_per_s();
    let total_tensor = device.tensor_flops_per_s();

    // Demand per resource.
    let mut cuda_tbs = 0.0;
    let mut tensor_tbs = 0.0;
    let mut mem_threads_total = 0.0;
    let mut mem_weight_total = 0.0;
    for a in active.iter() {
        if a.cuda > EPS {
            cuda_tbs += a.count;
        }
        if a.tensor > EPS {
            tensor_tbs += a.count;
        }
        if a.mem > EPS {
            mem_threads_total += a.count * a.mem_threads_per_tb;
            mem_weight_total += a.count * a.mem_threads_per_tb.max(1.0);
        }
    }
    let bw = effective_bandwidth(device, mem_threads_total);

    // Per-block rates and earliest stream completion.
    let mut dt = f64::INFINITY;
    let rates: Vec<(f64, f64, f64)> = active
        .iter()
        .map(|a| {
            let rc = if a.cuda > EPS {
                (total_cuda / cuda_tbs).min(sm_cuda) * a.efficiency
            } else {
                0.0
            };
            let rt = if a.tensor > EPS {
                (total_tensor / tensor_tbs).min(sm_tensor) * a.efficiency
            } else {
                0.0
            };
            let rm = if a.mem > EPS && mem_weight_total > 0.0 {
                bw * a.mem_threads_per_tb.max(1.0) / mem_weight_total * a.efficiency
            } else {
                0.0
            };
            if rc > 0.0 {
                dt = dt.min(a.cuda / rc);
            }
            if rt > 0.0 {
                dt = dt.min(a.tensor / rt);
            }
            if rm > 0.0 {
                dt = dt.min(a.mem / rm);
            }
            (rc, rt, rm)
        })
        .collect();

    debug_assert!(dt.is_finite(), "active nonempty implies progress");
    for (a, &(rc, rt, rm)) in active.iter_mut().zip(&rates) {
        a.cuda = (a.cuda - rc * dt).max(0.0);
        a.tensor = (a.tensor - rt * dt).max(0.0);
        a.mem = (a.mem - rm * dt).max(0.0);
    }
    let mut idx = 0;
    while idx < active.len() {
        let a = &active[idx];
        if a.cuda <= EPS && a.tensor <= EPS && a.mem <= EPS {
            *in_flight -= active[idx].count as u64;
            active.swap_remove(idx);
        } else {
            idx += 1;
        }
    }
    dt
}

/// Merges consecutive identical per-TB work entries into groups, as
/// `Gpu::launch` does before pricing a `PerTb` grid.
fn coalesce(tbs: &[TbWork]) -> Vec<TbGroup> {
    let mut groups: Vec<TbGroup> = Vec::new();
    for &w in tbs {
        match groups.last_mut() {
            Some(g) if g.work == w => g.count += 1,
            _ => groups.push(TbGroup::new(w, 1)),
        }
    }
    groups
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// The frozen loop's `time_s` for `kernel` launched on `gpu` as it stands:
/// the L2-derived read scale, the occupancy, the coalesced grid, plus the
/// launch overhead.
fn oracle_time_s(gpu: &Gpu, kernel: &KernelDesc) -> f64 {
    let device = gpu.device();
    let occ = occupancy(device, &kernel.shape).expect("launchable shape");
    let declared_read = kernel.tbs.total_read_bytes();
    let read_scale = if declared_read > 0.0 {
        gpu.peek_traffic(kernel).dram_read_bytes / declared_read
    } else {
        1.0
    };
    let groups = match &kernel.tbs {
        TbSet::PerTb(tbs) => coalesce(tbs),
        TbSet::Grouped(groups) => groups.clone(),
        TbSet::Uniform { .. } => panic!("uniform grids never reach the fluid simulation"),
    };
    fluid_time(device, &groups, kernel.shape.threads, read_scale, occ)
        + device.kernel_launch_overhead_us * 1e-6
}

/// Launches `kernels` in order on `Gpu::new` (memo cold, then warm) and on
/// `Gpu::reference`; every heterogeneous kernel must take the frozen loop's
/// time to the bit. Returns how many kernels were compared per leg.
fn assert_matches_oracle(device: &DeviceSpec, kernels: &[KernelDesc]) -> usize {
    let mut compared = 0;
    for (leg, mut gpu) in [
        ("memo cold", Gpu::new(device.clone())),
        ("memo warm", Gpu::new(device.clone())),
        ("reference", Gpu::reference(device.clone())),
    ] {
        compared = 0;
        for kernel in kernels {
            let expected =
                (!matches!(kernel.tbs, TbSet::Uniform { .. })).then(|| oracle_time_s(&gpu, kernel));
            let stats = gpu.launch(kernel).expect("launch");
            if let Some(expected) = expected {
                assert_eq!(
                    stats.time_s.to_bits(),
                    expected.to_bits(),
                    "{leg} on {}: kernel {:?} took {:e} s, the frozen loop {:e} s",
                    device.name,
                    kernel.name,
                    stats.time_s,
                    expected
                );
                compared += 1;
            }
        }
    }
    compared
}

/// The grid the fleets price most: one prefill chunk of 256 positions
/// (contexts 1 to 256) plus 30 decode rows, one 16-block group per row
/// (one block per head), each block a decode q·Kᵀ GEMV over its row's
/// context. Small enough for miri, where it runs the loop under IEEE
/// float semantics.
#[test]
fn fleet_prefill_chunk_grid_matches_the_frozen_loop() {
    let d_head = 64.0;
    let gemv = |ctx: f64| TbWork {
        cuda_flops: 2.0 * ctx * d_head + 2.0 * ctx,
        tensor_flops: 0.0,
        dram_read_bytes: (ctx + 2.0) * d_head * 2.0,
        dram_write_bytes: ctx * 2.0,
        mem_active_fraction: 1.0,
        efficiency: 0.93,
    };
    let decode_ctxs = (0..30u32).map(|i| f64::from(300 + (i * 977) % 3_800));
    let groups: Vec<TbGroup> = (1..=256u32)
        .map(f64::from)
        .chain(decode_ctxs)
        .map(|ctx| TbGroup::new(gemv(ctx), 16))
        .collect();
    assert_eq!(groups.len(), 286);
    let kernel = KernelDesc::builder("decode_qk", KernelCategory::MatMulQk)
        .shape(TbShape::new(256, 16 * 1024, 64))
        .grouped(groups)
        .build();
    assert_eq!(assert_matches_oracle(&DeviceSpec::a100(), &[kernel]), 1);
}

mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The two block shapes every case runs under on every device.
    fn shapes() -> [TbShape; 2] {
        [TbShape::new(256, 0, 32), TbShape::new(128, 16 * 1024, 64)]
    }

    /// A group's work class: efficiency and memory-active fraction. The
    /// efficiencies repeat often, so classes that differ only in their
    /// bandwidth weight meet; some fractions leave a block under one
    /// memory-active thread, where its bandwidth weight (`max(1, threads)`)
    /// and its thread count differ.
    fn class() -> impl Strategy<Value = (f64, f64)> {
        (
            prop_oneof![Just(0.93), Just(0.6), 0.05f64..1.0],
            prop_oneof![0.0005f64..0.004, 0.05f64..1.0, Just(1.0)],
        )
    }

    /// A block's CUDA flops, tensor flops, DRAM read and write bytes:
    /// compute-only, tensor-only, memory-only, all three, or none at all.
    fn work() -> impl Strategy<Value = [f64; 4]> {
        prop_oneof![
            (1e3f64..1e8).prop_map(|c| [c, 0.0, 0.0, 0.0]),
            (1e3f64..1e9).prop_map(|t| [0.0, t, 0.0, 0.0]),
            (1.0f64..1e6, 0.0f64..1e5).prop_map(|(r, w)| [0.0, 0.0, r, w]),
            (1e3f64..1e8, 1e3f64..1e9, 1.0f64..1e6, 0.0f64..1e5)
                .prop_map(|(c, t, r, w)| [c, t, r, w]),
            Just([0.0; 4]),
        ]
    }

    /// Blocks in a group: none, a few, or at least one full wave on every
    /// device and shape here.
    fn count() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..3, 1u64..64, 1u64..200, 900u64..2_500]
    }

    /// A grid: a palette of classes, and groups that each pick a class,
    /// so classes interleave and repeat.
    fn grid() -> impl Strategy<Value = Vec<TbGroup>> {
        (
            proptest::collection::vec(class(), 1..4),
            proptest::collection::vec((0usize..4, work(), count()), 1..14),
        )
            .prop_map(|(palette, groups)| {
                groups
                    .into_iter()
                    .map(|(pick, [cuda, tensor, read, write], count)| {
                        let (efficiency, mem_active_fraction) = palette[pick % palette.len()];
                        let work = TbWork {
                            cuda_flops: cuda,
                            tensor_flops: tensor,
                            dram_read_bytes: read,
                            dram_write_bytes: write,
                            mem_active_fraction,
                            efficiency,
                        };
                        TbGroup::new(work, count)
                    })
                    .collect()
            })
    }

    /// The kernels of one case: optionally a producer that leaves a buffer
    /// in L2 which the grid then reads (a read scale below 1), and the grid
    /// as a `Grouped` or an expanded `PerTb` kernel.
    fn stream(groups: &[TbGroup], shape: TbShape, per_tb: bool, hit: f64) -> Vec<KernelDesc> {
        let mut b = KernelDesc::builder("grid", KernelCategory::Other);
        b.shape(shape);
        if per_tb {
            b.per_tb(
                groups
                    .iter()
                    .flat_map(|g| std::iter::repeat_n(g.work, g.count as usize))
                    .collect::<Vec<_>>(),
            );
        } else {
            b.grouped(groups.to_vec());
        }
        let total_read: f64 = groups
            .iter()
            .map(|g| g.work.dram_read_bytes * g.count as f64)
            .sum();
        // At most 1 MiB, so the buffer fits every device's L2.
        let hit_bytes = (total_read * hit).min(1_048_576.0) as u64;
        if hit_bytes == 0 {
            return vec![b.build()];
        }
        b.reads("h", hit_bytes);
        let producer = KernelDesc::builder("producer", KernelCategory::Other)
            .shape(TbShape::new(256, 0, 32))
            .uniform(64, TbWork::memory(0.0, hit_bytes as f64 / 64.0))
            .writes("h", hit_bytes)
            .build();
        vec![producer, b.build()]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]

        /// Generated `Grouped` and `PerTb` grids on the A100, T4 and
        /// RTX 3090, each under two block shapes, price exactly as the
        /// frozen loop does.
        #[test]
        #[cfg_attr(miri, ignore = "event-driven sims are far too slow under miri")]
        fn generated_grids_match_the_frozen_loop(
            groups in grid(),
            per_tb in prop_oneof![Just(false), Just(true)],
            hit in prop_oneof![Just(0.0), 0.05f64..0.9],
        ) {
            for device in [DeviceSpec::a100(), DeviceSpec::t4(), DeviceSpec::rtx3090()] {
                for shape in shapes() {
                    assert_matches_oracle(&device, &stream(&groups, shape, per_tb, hit));
                }
            }
        }
    }
}
