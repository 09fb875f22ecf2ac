//! The kernel execution model.
//!
//! Two paths share one fluid-rate philosophy (every active thread block
//! progresses simultaneously on three resources — CUDA cores, tensor cores,
//! DRAM — and completes when all three of its work streams finish):
//!
//! * **Uniform grids** (dense kernels) are solved wave-analytically: all
//!   resident blocks are identical, so each wave's duration is closed-form
//!   and a kernel is `full_waves × t_full + t_tail`. This keeps 65 536-block
//!   elementwise kernels O(1).
//! * **Heterogeneous grids** ([`TbSet::PerTb`], [`TbSet::Grouped`],
//!   block-sparse kernels) run an event-driven fluid simulation: blocks are
//!   dispatched breadth-first to the least-loaded SM, SM compute is shared
//!   between resident blocks, global DRAM bandwidth is shared between
//!   memory-active blocks (scaled by the utilization model), and the makespan
//!   naturally exposes the load-imbalance / tail-wave effects the paper
//!   discusses for sparse attention (§5.2: larger batches → more TBs → less
//!   imbalance). Its results are memoized across runs (see `pricing`).

use crate::bandwidth::{effective_bandwidth, utilization};
use crate::buffer::{BufferId, Scope};
use crate::device::DeviceSpec;
use crate::kernel::{KernelDesc, TbGroup, TbSet, TbShape, TbWork};
use crate::l2::{FilteredTraffic, L2Cache};
use crate::occupancy::{occupancy, LaunchError, Occupancy};
use crate::pricing;
use crate::schedule::Schedule;
use crate::trace::{KernelStats, Timeline};

/// Residual work below this is treated as finished (guards FP residues left
/// by the `(work - rate * dt).max(0.0)` decrements).
const EPS: f64 = 1e-18;

/// A group of in-flight thread blocks with identical remaining work, tracked
/// per work stream by the fluid simulation.
#[derive(Debug, Clone, Copy)]
struct Active {
    count: f64,
    /// Remaining work per block in the group.
    cuda: f64,
    tensor: f64,
    mem: f64,
    mem_threads_per_tb: f64,
    efficiency: f64,
}

impl Active {
    /// Builds the per-block work streams for one thread block, or `None` if
    /// the block has no work at all (such blocks retire instantly).
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

    /// What a block's per-stream rates depend on besides the event's
    /// totals: its efficiency and its DRAM bandwidth weight.
    fn class(&self) -> (f64, f64) {
        (self.efficiency, self.mem_threads_per_tb.max(1.0))
    }
}

/// Per-block rates of one class in one event, per work stream.
#[derive(Debug, Clone, Copy)]
struct Rates {
    cuda: f64,
    tensor: f64,
    mem: f64,
}

/// One fluid simulation's device constants and its bandwidth memo. Both are
/// host-side savings only: every value is computed by the same expression
/// the event loop would otherwise repeat.
struct Fluid<'d> {
    device: &'d DeviceSpec,
    sm_cuda: f64,
    sm_tensor: f64,
    total_cuda: f64,
    total_tensor: f64,
    /// The bits of the last memory-active thread count priced, and the
    /// effective bandwidth it gave. Most events keep the previous event's
    /// count, so one entry catches nearly every repeat.
    bandwidth: Option<(u64, f64)>,
}

/// A simulated GPU: device spec + L2 state + an execution timeline.
///
/// # Example
///
/// ```
/// use resoftmax_gpusim::{DeviceSpec, Gpu, KernelDesc, KernelCategory, TbWork, TbShape};
///
/// let mut gpu = Gpu::new(DeviceSpec::a100());
/// let kernel = KernelDesc::builder("stream", KernelCategory::Other)
///     .shape(TbShape::new(256, 0, 32))
///     .uniform(10_000, TbWork::memory(64_000.0, 64_000.0))
///     .build();
/// let stats = gpu.launch(&kernel)?;
/// assert!(stats.time_s > 0.0);
/// # Ok::<(), resoftmax_gpusim::LaunchError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Gpu {
    device: DeviceSpec,
    device_fp: u128,
    l2: L2Cache,
    timeline: Timeline,
    /// Set by [`Gpu::reference`]: launch every kernel, bypass the memo.
    reference: bool,
}

impl Gpu {
    /// Creates a GPU with cold caches and an empty timeline.
    pub fn new(device: DeviceSpec) -> Self {
        let l2 = L2Cache::new(device.l2_bytes());
        let device_fp = pricing::device_fingerprint(&device);
        Gpu {
            device,
            device_fp,
            l2,
            timeline: Timeline::new(),
            reference: false,
        }
    }

    /// Creates a GPU that prices the plain way: it launches every kernel,
    /// with no pricing memo (the process-global memo is never read or
    /// written) and no layer shortcut in [`Gpu::run`], which launches every
    /// kernel of the expanded schedule. Its results are bit-identical to
    /// [`Gpu::new`]'s; it exists so tests can check that they stay so.
    pub fn reference(device: DeviceSpec) -> Self {
        Gpu {
            reference: true,
            ..Gpu::new(device)
        }
    }

    /// The device being simulated.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The current L2 state (read-only).
    pub fn l2(&self) -> &L2Cache {
        &self.l2
    }

    /// The execution record so far.
    pub fn timeline(&self) -> &Timeline {
        &self.timeline
    }

    /// Consumes the GPU, returning its timeline.
    pub fn into_timeline(self) -> Timeline {
        self.timeline
    }

    /// Finishes the current run: returns its timeline and resets the
    /// execution state (caches flushed, fresh empty timeline) so the same
    /// `Gpu` can host the next run. This is the multi-run entry point the
    /// serving engine iterates on — one `Gpu`, one timeline per iteration.
    pub fn take_timeline(&mut self) -> Timeline {
        self.l2.flush();
        std::mem::replace(&mut self.timeline, Timeline::new())
    }

    /// Clears timeline and caches (new measurement iteration).
    pub fn reset(&mut self) {
        self.l2.flush();
        self.timeline = Timeline::new();
    }

    /// Executes one kernel, appending its stats to the timeline.
    ///
    /// # Errors
    ///
    /// Returns [`LaunchError`] if a single thread block exceeds SM resources.
    pub fn launch(&mut self, kernel: &KernelDesc) -> Result<KernelStats, LaunchError> {
        let stats = self.execute(kernel, 0)?;
        self.timeline.push(stats.clone());
        Ok(stats)
    }

    /// Executes a schedule: its prologue, then its layer at offsets 0, 1,
    /// 2, … (the L2 reads each id advanced by the offset, so no layer is
    /// copied) until the L2 residency repeats under the layer renaming.
    ///
    /// After each layer the residency (ids and bytes, in LRU order) is
    /// compared with the residency the layer started from, every id
    /// advanced a layer. Once they match, the next layer starts from this
    /// one's start state renamed and is this layer renamed. The L2 model
    /// compares ids only for equality, pricing never reads them, and kernel
    /// names carry no layer index, so each remaining layer yields this
    /// layer's stats and leaves its end state renamed once more. Those
    /// layers are recorded as a repeat count of this layer's stats
    /// ([`Timeline::repeats`]), not simulated, and the resident ids are
    /// advanced by their number. The renaming must be one to one on every
    /// id the run meets, so where a layer index could reach `u32::MAX`
    /// (where [`BufferId::next_layer`] stops advancing) every layer is
    /// simulated.
    ///
    /// The timeline, its total's bits and the L2 end state equal launching
    /// every kernel of [`Schedule::expand`], which is what
    /// [`Gpu::reference`] does. Debug builds assert that against a
    /// kernel-by-kernel run on a clone.
    ///
    /// # Errors
    ///
    /// Returns the first [`LaunchError`], as launching every kernel would.
    pub fn run(&mut self, schedule: &Schedule) -> Result<(), LaunchError> {
        let _span = resoftmax_obs::span!("Gpu::run", "gpusim");
        if self.reference {
            return self.run_every_kernel(schedule);
        }
        #[cfg(debug_assertions)]
        let mut every = self.clone();
        let result = schedule
            .prologue()
            .iter()
            .try_for_each(|k| self.run_kernel(k, 0))
            .and_then(|()| self.run_layers(schedule.layer(), schedule.layers()));
        #[cfg(debug_assertions)]
        {
            let expected = every.run_every_kernel(schedule);
            assert!(
                result == expected
                    && self.timeline == every.timeline
                    && self.timeline.total_time_s().to_bits()
                        == every.timeline.total_time_s().to_bits()
                    && self.l2.resident().eq(every.l2.resident()),
                "the layered run diverged from launching every kernel"
            );
        }
        result
    }

    /// Launches every kernel of `schedule`'s expansion in turn.
    fn run_every_kernel(&mut self, schedule: &Schedule) -> Result<(), LaunchError> {
        schedule
            .expand()
            .iter()
            .try_for_each(|k| self.run_kernel(k, 0))
    }

    /// Runs `layers` layers of `layer` from offset 0, as [`Gpu::run`]
    /// describes.
    fn run_layers(&mut self, layer: &[KernelDesc], layers: usize) -> Result<(), LaunchError> {
        let renamed = |l2: &L2Cache| -> Vec<(BufferId, u64)> {
            l2.resident()
                .map(|(id, bytes)| (id.next_layer(), bytes))
                .collect()
        };
        let shortcut = {
            let uses = layer.iter().flat_map(|k| k.reads.iter().chain(&k.writes));
            let resident = self.l2.resident().map(|(id, _)| id);
            can_advance(resident.chain(uses.map(|b| b.id)), layers)
        };
        // The residency this layer starts from, ids already advanced a layer.
        let mut start = renamed(&self.l2);
        for offset in 0..layers {
            for k in layer {
                self.run_kernel(k, offset)?;
            }
            let remaining = layers - offset - 1;
            if remaining == 0 || (shortcut && self.l2.resident().eq(start.iter().copied())) {
                self.l2.advance_layers(remaining);
                self.timeline.repeat_last(layer.len(), remaining);
                return Ok(());
            }
            start = renamed(&self.l2);
        }
        Ok(())
    }

    /// Executes `kernel` run `layers` layers on and appends its stats.
    fn run_kernel(&mut self, kernel: &KernelDesc, layers: usize) -> Result<(), LaunchError> {
        let stats = self.execute(kernel, layers)?;
        self.timeline.push(stats);
        Ok(())
    }

    /// Prices one kernel, run `layers` layers on, against the current L2
    /// state (which it updates).
    fn execute(&mut self, kernel: &KernelDesc, layers: usize) -> Result<KernelStats, LaunchError> {
        let occ = occupancy(&self.device, &kernel.shape)?;
        // Span only the heterogeneous kernels: uniform grids are O(1)
        // closed-form and would flood the trace with sub-µs events.
        let _span =
            if matches!(kernel.tbs, TbSet::Uniform { .. }) || !resoftmax_obs::trace_enabled() {
                None
            } else {
                Some(resoftmax_obs::span(kernel.name.clone(), "gpusim"))
            };
        let traffic = self.l2.access_at(kernel, layers);

        // Scale per-TB DRAM reads by the kernel-wide L2 hit ratio.
        let declared_read = kernel.tbs.total_read_bytes();
        let read_scale = if declared_read > 0.0 {
            traffic.dram_read_bytes / declared_read
        } else {
            1.0
        };

        // `PerTb` coalesces to the exact group sequence the fluid simulation
        // walks, so it shares memo entries with its equivalent `Grouped` form.
        let exec_s = match &kernel.tbs {
            TbSet::Uniform { count, work } => {
                self.uniform_time(*count, work, kernel.shape.threads, read_scale, occ)
            }
            TbSet::PerTb(tbs) => self.groups_time(&coalesce(tbs), &kernel.shape, read_scale, occ),
            TbSet::Grouped(groups) => self.groups_time(groups, &kernel.shape, read_scale, occ),
        };
        let time_s = exec_s + self.device.kernel_launch_overhead_us * 1e-6;

        let flops = kernel.tbs.total_flops();
        let dram_bytes = traffic.dram_read_bytes + traffic.dram_write_bytes;
        Ok(KernelStats {
            name: kernel.name.clone(),
            category: kernel.category,
            time_s,
            dram_read_bytes: traffic.dram_read_bytes,
            dram_write_bytes: traffic.dram_write_bytes,
            l2_hit_bytes: traffic.l2_hit_bytes,
            flops,
            cuda_flops: kernel.tbs.total_cuda_flops(),
            tensor_flops: kernel.tbs.total_tensor_flops(),
            tb_count: kernel.tbs.count(),
            tbs_per_sm: occ.tbs_per_sm,
            achieved_bw_fraction: if time_s > 0.0 {
                (dram_bytes / time_s) / self.device.mem_bandwidth_bytes_per_s()
            } else {
                0.0
            },
            energy_j: (dram_bytes * self.device.dram_pj_per_byte + flops * self.device.flop_pj)
                * 1e-12,
        })
    }

    /// Duration of a heterogeneous grid (excluding launch overhead): the
    /// memoized price if there is one, else the fluid simulation's, stored
    /// for next time. The reference GPU always simulates.
    fn groups_time(
        &self,
        groups: &[TbGroup],
        shape: &TbShape,
        read_scale: f64,
        occ: Occupancy,
    ) -> f64 {
        if self.reference {
            return self.fluid_time(groups, shape.threads, read_scale, occ);
        }
        let key = pricing::kernel_key(self.device_fp, shape, occ.tbs_per_sm, read_scale, groups);
        if let Some(t) = pricing::lookup_kernel(key) {
            return t;
        }
        let t = self.fluid_time(groups, shape.threads, read_scale, occ);
        pricing::insert_kernel(key, t);
        t
    }

    /// Wave-analytic duration of a uniform grid (excluding launch overhead).
    fn uniform_time(
        &self,
        count: u64,
        work: &TbWork,
        threads: u32,
        read_scale: f64,
        occ: Occupancy,
    ) -> f64 {
        if count == 0 {
            return 0.0;
        }
        let slots = (self.device.num_sms as u64 * occ.tbs_per_sm as u64).max(1);
        let full_waves = count / slots;
        let tail = count % slots;
        let mut t = full_waves as f64 * self.wave_time(slots, work, threads, read_scale);
        if tail > 0 {
            t += self.wave_time(tail, work, threads, read_scale);
        }
        t
    }

    /// Duration of one wave of `n` identical blocks.
    fn wave_time(&self, n: u64, work: &TbWork, threads: u32, read_scale: f64) -> f64 {
        let n_f = n as f64;
        let sms = self.device.num_sms as f64;
        let eff = work.efficiency.clamp(1e-6, 1.0);
        // Breadth-first dispatch: blocks per SM in this wave.
        let per_sm = (n_f / sms).ceil().max(1.0);

        let cuda_rate = self.device.cuda_flops_per_sm() / per_sm * eff;
        let tensor_rate = self.device.tensor_flops_per_sm() / per_sm * eff;

        let dram_bytes = work.dram_read_bytes * read_scale + work.dram_write_bytes;
        let mem_threads = work.mem_active_fraction * f64::from(threads);
        let bw = effective_bandwidth(&self.device, n_f * mem_threads);
        let mem_rate = bw / n_f * eff;

        let mut t: f64 = 0.0;
        if work.cuda_flops > 0.0 {
            t = t.max(work.cuda_flops / cuda_rate);
        }
        if work.tensor_flops > 0.0 {
            t = t.max(work.tensor_flops / tensor_rate);
        }
        if dram_bytes > 0.0 && mem_rate > 0.0 {
            t = t.max(dram_bytes / mem_rate);
        }
        t
    }

    /// Event-driven fluid simulation for heterogeneous grids
    /// (excluding launch overhead).
    ///
    /// Blocks are processed as *groups* of identical blocks that were
    /// dispatched together and therefore finish together; this keeps the event
    /// count O(groups × waves) instead of O(blocks). Compute capacity is
    /// shared fluidly: each block's compute rate is
    /// `min(per-SM rate, total rate / active blocks)` — the breadth-first
    /// dispatch limit without tracking individual SMs. DRAM bandwidth is a
    /// global pool split proportionally to each block's memory-active thread
    /// count and scaled by the utilization model.
    fn fluid_time(&self, groups: &[TbGroup], threads: u32, read_scale: f64, occ: Occupancy) -> f64 {
        let threads = f64::from(threads);
        let slots = (self.device.num_sms as u64 * occ.tbs_per_sm as u64).max(1);

        let mut queue: std::collections::VecDeque<TbGroup> =
            groups.iter().filter(|g| g.count > 0).copied().collect();
        let mut active: Vec<Active> = Vec::new();
        let mut in_flight: u64 = 0;
        let mut now = 0.0f64;
        let mut fluid = Fluid::new(&self.device);

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
            now += fluid.step(&mut active, &mut in_flight);
        }
        now
    }

    /// Achieved utilization for a hypothetical thread count (exposed for
    /// ablation benches).
    pub fn bandwidth_utilization(&self, active_mem_threads: f64) -> f64 {
        utilization(&self.device, active_mem_threads)
    }

    /// Reports the DRAM traffic one kernel would generate *without* executing
    /// it (no L2/timeline mutation) — used by tests and what-if analyses.
    pub fn peek_traffic(&self, kernel: &KernelDesc) -> FilteredTraffic {
        self.l2.clone().access(kernel)
    }
}

impl<'d> Fluid<'d> {
    fn new(device: &'d DeviceSpec) -> Self {
        Fluid {
            device,
            sm_cuda: device.cuda_flops_per_sm(),
            sm_tensor: device.tensor_flops_per_sm(),
            total_cuda: device.cuda_flops_per_s(),
            total_tensor: device.tensor_flops_per_s(),
            bandwidth: None,
        }
    }

    /// [`effective_bandwidth`] at `mem_threads`, answered from the memo
    /// when the count's bits repeat the last one priced.
    fn bandwidth(&mut self, mem_threads: f64) -> f64 {
        let bits = mem_threads.to_bits();
        match self.bandwidth {
            Some((b, bw)) if b == bits => bw,
            _ => {
                let bw = effective_bandwidth(self.device, mem_threads);
                self.bandwidth = Some((bits, bw));
                bw
            }
        }
    }

    /// One event of the fluid simulation: computes per-block rates for the
    /// current active set, advances every work stream to the earliest stream
    /// completion, retires finished groups, and returns the elapsed `dt`.
    ///
    /// Rates are computed once per run of adjacent groups of one
    /// [`Active::class`], and a run's earliest completion per stream is its
    /// least remaining work divided by the rate: correctly rounded division
    /// by a positive rate is monotone, so that quotient is the least of the
    /// per-group quotients, bit for bit. Groups are advanced and retired in
    /// one pass in index order, and a retired group is `swap_remove`d, so
    /// the active order, and with it every later demand sum, is the same
    /// as advancing all groups first and retiring them after.
    fn step(&mut self, active: &mut Vec<Active>, in_flight: &mut u64) -> f64 {
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
        let bw = self.bandwidth(mem_threads_total);
        let cuda_share = (self.total_cuda / cuda_tbs).min(self.sm_cuda);
        let tensor_share = (self.total_tensor / tensor_tbs).min(self.sm_tensor);
        // A stream's rate for a block that still has work in it.
        let rates = |(efficiency, weight): (f64, f64)| Rates {
            cuda: cuda_share * efficiency,
            tensor: tensor_share * efficiency,
            mem: if mem_weight_total > 0.0 {
                bw * weight / mem_weight_total * efficiency
            } else {
                0.0
            },
        };

        // Earliest stream completion, one class run at a time.
        let mut dt = f64::INFINITY;
        let mut start = 0;
        while let Some(head) = active.get(start) {
            let class = head.class();
            let mut least = [f64::INFINITY; 3];
            let run = active[start..].iter().take_while(|a| a.class() == class);
            let mut len = 0;
            for a in run {
                for (least, work) in least.iter_mut().zip([a.cuda, a.tensor, a.mem]) {
                    if work > EPS {
                        *least = least.min(work);
                    }
                }
                len += 1;
            }
            let r = rates(class);
            for (work, rate) in least.into_iter().zip([r.cuda, r.tensor, r.mem]) {
                if rate > 0.0 {
                    dt = dt.min(work / rate);
                }
            }
            start += len;
        }
        debug_assert!(dt.is_finite(), "active nonempty implies progress");

        // Advance and retire.
        let mut class_rates: Option<((f64, f64), Rates)> = None;
        let mut idx = 0;
        while let Some(a) = active.get_mut(idx) {
            let class = a.class();
            let r = match class_rates {
                Some((c, r)) if c == class => r,
                _ => {
                    let r = rates(class);
                    class_rates = Some((class, r));
                    r
                }
            };
            let stream = |work: f64, rate: f64| {
                let rate = if work > EPS { rate } else { 0.0 };
                (work - rate * dt).max(0.0)
            };
            a.cuda = stream(a.cuda, r.cuda);
            a.tensor = stream(a.tensor, r.tensor);
            a.mem = stream(a.mem, r.mem);
            if a.cuda <= EPS && a.tensor <= EPS && a.mem <= EPS {
                *in_flight -= a.count as u64;
                active.swap_remove(idx);
            } else {
                idx += 1;
            }
        }
        dt
    }
}

/// `true` when every layer index among `ids` is at most
/// `u32::MAX − layers`, so that advancing them layer by layer over a run of
/// `layers` layers never reaches `u32::MAX`, where
/// [`BufferId::next_layer`] stops advancing: the renaming is one to one on
/// every id such a run meets.
fn can_advance(mut ids: impl Iterator<Item = BufferId>, layers: usize) -> bool {
    ids.all(|id| match id.scope() {
        Scope::Layer(k) => (u32::MAX - k) as usize >= layers,
        _ => true,
    })
}

/// Merges consecutive identical per-TB work entries into groups.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelCategory, TbWork};

    /// A kernel launched after a layered run follows the repeated layers:
    /// its stats, the timeline and the L2 state equal launching every
    /// kernel.
    #[test]
    fn launch_after_a_layered_run() {
        // `b` streams past the L2, so each layer leaves the residency its
        // predecessor left, renamed.
        let kernel = |name: &str, read: &'static str, write: &'static str, streamed: f64| {
            KernelDesc::builder(name, KernelCategory::Other)
                .uniform(64, TbWork::memory(4096.0 + streamed, 4096.0))
                .reads(read, 1 << 18)
                .writes(write, 1 << 18)
                .build()
        };
        let schedule = Schedule::new(
            vec![kernel("embed", "tokens", "l0.x", 0.0)],
            vec![
                kernel("a", "l0.x", "l0.y", 0.0),
                kernel("b", "l0.y", "l1.x", 1e9),
            ],
            6,
        );
        let after = kernel("head", "l6.x", "logits", 0.0);
        let mut layered = Gpu::new(DeviceSpec::a100());
        layered.run(&schedule).unwrap();
        assert!(layered.timeline().repeats() > 0, "no layer was repeated");
        let mut every = Gpu::reference(DeviceSpec::a100());
        for k in &schedule.expand() {
            every.launch(k).unwrap();
        }
        assert_eq!(layered.launch(&after), every.launch(&after));
        assert_eq!(layered.timeline(), every.timeline());
        assert_eq!(layered.timeline().len(), 14);
        assert_eq!(
            format!("{:?}", layered.timeline()),
            format!("{:?}", every.timeline())
        );
        assert!(layered.l2().resident().eq(every.l2().resident()));
    }

    #[test]
    fn coalesce_merges_runs() {
        let a = TbWork::memory(1.0, 0.0);
        let b = TbWork::memory(2.0, 0.0);
        let groups = coalesce(&[a, a, a, b, a]);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].count, 3);
        assert_eq!(groups[1].count, 1);
        assert_eq!(groups[2].count, 1);
        assert!(coalesce(&[]).is_empty());
    }
}
