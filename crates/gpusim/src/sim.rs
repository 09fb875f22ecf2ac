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
use crate::device::DeviceSpec;
use crate::kernel::{KernelDesc, TbGroup, TbSet, TbShape, TbWork};
use crate::l2::{FilteredTraffic, L2Cache};
use crate::occupancy::{occupancy, LaunchError, Occupancy};
use crate::pricing;
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
    /// Set by [`Gpu::reference`]: step every event, bypass the memo.
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

    /// Creates a GPU that prices the plain way: the fluid simulation steps
    /// every event (no wave replay) and the process-global pricing memo is
    /// never read or written. Its results are bit-identical to
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
        self.execute(kernel)?;
        Ok(self
            .timeline
            .kernels()
            .last()
            .expect("execute appended this kernel's stats")
            .clone())
    }

    /// Executes a sequence of kernels in order.
    ///
    /// # Errors
    ///
    /// Returns the first [`LaunchError`] encountered.
    pub fn run(&mut self, kernels: &[KernelDesc]) -> Result<(), LaunchError> {
        let _span = resoftmax_obs::span!("Gpu::run", "gpusim");
        for k in kernels {
            self.execute(k)?;
        }
        Ok(())
    }

    /// Prices one kernel against the current L2 state and appends its stats
    /// to the timeline.
    fn execute(&mut self, kernel: &KernelDesc) -> Result<(), LaunchError> {
        let occ = occupancy(&self.device, &kernel.shape)?;
        if resoftmax_obs::metrics_enabled() {
            resoftmax_obs::counter("sim.kernels_launched").incr();
        }
        // Span only the heterogeneous kernels: uniform grids are O(1)
        // closed-form and would flood the trace with sub-µs events.
        let _span =
            if matches!(kernel.tbs, TbSet::Uniform { .. }) || !resoftmax_obs::trace_enabled() {
                None
            } else {
                Some(resoftmax_obs::span(kernel.name.clone(), "gpusim"))
            };
        let traffic = self.l2.access(kernel);

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
        self.timeline.push(KernelStats {
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
        });
        Ok(())
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
        // Instrumentation totals, accumulated locally and flushed once per
        // kernel so the event loop never touches shared atomics.
        let mut event_steps: u64 = 0;
        let mut fast_path_waves: u64 = 0;

        loop {
            // Wave-class fast path: with the machine idle and the front group
            // large enough to fill every slot by itself, each full wave is a
            // grid-independent repetition of the same event sequence. Step
            // one wave exactly (through the shared `event_step`), then replay
            // its per-event time deltas for the remaining full waves — the
            // same `now += dt` additions, in the same order, the event loop
            // would perform. Cost becomes O(distinct TB classes), not
            // O(blocks); the heterogeneous tail still takes the event loop.
            while !self.reference && active.is_empty() && in_flight == 0 {
                let Some(&front) = queue.front() else {
                    break;
                };
                match Active::from_work(&front.work, threads, read_scale) {
                    // Zero-work blocks retire instantly regardless of count.
                    None => {
                        queue.pop_front();
                    }
                    Some(wave_tb) => {
                        let full_waves = front.count / slots;
                        if full_waves == 0 {
                            break;
                        }
                        let mut wave = vec![wave_tb.with_count(slots as f64)];
                        let mut wave_in_flight = slots;
                        let mut dts = Vec::new();
                        while !wave.is_empty() {
                            dts.push(self.event_step(&mut wave, &mut wave_in_flight));
                        }
                        event_steps += dts.len() as u64;
                        fast_path_waves += full_waves;
                        for _ in 0..full_waves {
                            for &dt in &dts {
                                now += dt;
                            }
                        }
                        let rem = front.count % slots;
                        if rem == 0 {
                            queue.pop_front();
                        } else {
                            queue.front_mut().expect("front exists").count = rem;
                        }
                    }
                }
            }

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
            now += self.event_step(&mut active, &mut in_flight);
            event_steps += 1;
        }
        if resoftmax_obs::metrics_enabled() {
            resoftmax_obs::counter("sim.event_steps").add(event_steps);
            resoftmax_obs::counter("sim.wave_fast_path_waves").add(fast_path_waves);
        }
        now
    }

    /// One event of the fluid simulation: computes per-block rates for the
    /// current active set, advances every work stream to the earliest stream
    /// completion, retires finished groups, and returns the elapsed `dt`.
    ///
    /// Both the event loop and the wave-class fast path call this — sharing
    /// the arithmetic is what makes the fast path bit-identical.
    fn event_step(&self, active: &mut Vec<Active>, in_flight: &mut u64) -> f64 {
        let sm_cuda = self.device.cuda_flops_per_sm();
        let sm_tensor = self.device.tensor_flops_per_sm();
        let total_cuda = self.device.cuda_flops_per_s();
        let total_tensor = self.device.tensor_flops_per_s();

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
        let bw = effective_bandwidth(&self.device, mem_threads_total);

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
    use crate::kernel::TbWork;

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
