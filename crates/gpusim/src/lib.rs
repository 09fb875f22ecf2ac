//! An event-driven GPU performance and energy simulator.
//!
//! This crate substitutes for the A100 / RTX 3090 / T4 hardware used in the
//! paper (see `DESIGN.md` at the repository root). It models exactly the
//! mechanisms the paper's results depend on:
//!
//! * **Occupancy** ([`occupancy`]): resident thread blocks per SM limited by
//!   threads / shared memory / registers — the resource-allocation argument
//!   behind the sparse-softmax inefficiency in §5.1.
//! * **Bandwidth utilization** ([`bandwidth`]): achieved DRAM bandwidth as a
//!   saturating function of concurrently memory-active threads.
//! * **L2 residency** ([`L2Cache`]): whole-buffer LRU over typed
//!   [`BufferId`]s determining which inter-kernel transfers (e.g. the
//!   decomposed softmax's `m'`,`d'`,`r'`) avoid DRAM.
//! * **Execution** ([`Gpu::launch`]): wave-analytic for uniform grids,
//!   event-driven fluid simulation for heterogeneous (block-sparse) grids,
//!   exposing load imbalance and tail waves.
//! * **Schedules** ([`Schedule`], [`Gpu::run`]): a transformer schedule is
//!   a prologue and one layer repeated, each copy with every buffer id
//!   advanced a layer, and a [`Schedule`] keeps that form. [`Gpu::run`]
//!   runs the layer at offsets 0, 1, 2, … (the L2 reads each id advanced by
//!   the offset) only until the L2 residency repeats under that renaming,
//!   and the [`Timeline`] records the remaining layers as a repeat count.
//!   The timeline, its total's bits and the L2 end state equal launching
//!   every kernel.
//! * **Accounting** ([`Timeline`] / [`Breakdown`]): per-kernel time, traffic
//!   and energy aggregated per category, mirroring the paper's figures.
//! * **Pricing memo** ([`sim_cache_stats`] / [`clear_sim_cache`]): a
//!   process-global, content-addressed memo of fluid-simulated kernel
//!   durations — a repeated heterogeneous kernel anywhere (tuner candidates,
//!   serve iterations, sweeps) prices in O(lookup) with a bit-identical
//!   timeline. Uniform grids skip it: their closed form is cheaper than the
//!   lookup. [`Gpu::reference`] bypasses it and the layer shortcut,
//!   launching every kernel, for equivalence tests.
//!
//! # Example
//!
//! ```
//! use resoftmax_gpusim::{DeviceSpec, Gpu, KernelCategory, KernelDesc, TbShape, TbWork};
//!
//! // A memory-bound softmax-like kernel on an A100.
//! let mut gpu = Gpu::new(DeviceSpec::a100());
//! let kernel = KernelDesc::builder("softmax", KernelCategory::Softmax)
//!     .shape(TbShape::new(1024, 8192, 32))
//!     .uniform(4096, TbWork::memory(8192.0, 8192.0))
//!     .build();
//! let stats = gpu.launch(&kernel)?;
//! // Memory-bound: the achieved bandwidth should be near peak.
//! assert!(stats.achieved_bw_fraction > 0.5);
//! # Ok::<(), resoftmax_gpusim::LaunchError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bandwidth;
mod buffer;
pub mod chrome_trace;
mod device;
mod kernel;
mod l2;
mod occupancy;
mod pricing;
pub mod roofline;
mod schedule;
mod sim;
mod trace;

pub use buffer::{BufferId, Scope};
pub use device::{DeviceSpec, InvalidDeviceError};
pub use kernel::{
    AccumFormat, BufferUse, KernelCategory, KernelDesc, KernelDescBuilder, KernelMeta,
    ParallelSplit, TbGroup, TbSet, TbShape, TbWork,
};
pub use l2::{FilteredTraffic, L2Cache};
pub use occupancy::{occupancy, LaunchError, Occupancy, OccupancyLimiter};
pub use pricing::{clear_sim_cache, sim_cache_stats, SimCacheStats, MAX_KERNEL_ENTRIES};
pub use schedule::Schedule;
pub use sim::Gpu;
pub use trace::{Breakdown, CategoryTotals, KernelStats, Timeline};
