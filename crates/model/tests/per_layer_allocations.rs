//! Pricing a schedule allocates nothing per layer.
//!
//! A schedule is built, checked and priced from its prologue and layer 0:
//! no layer is expanded, copied or renamed in place, and the layers the
//! residency repeat skips are a count in the timeline. So the number of
//! heap allocations must not change when only `ModelConfig::layers` does,
//! here from 24 to 48, for a fleet step (`price_batched_decode` on a
//! GPT-Neo decode mix beside a 256-position prefill chunk) and for what the
//! benchmark's `paper_pipeline` does per schedule (`build_schedule`,
//! `check_schedule` and `Gpu::run` on BERT-large SDF at L = 4096).
//! Allocations are counted per thread by a counting global allocator, with
//! one pool worker, each measurement after emptying the pricing memo.

// Debug builds expand every layer on purpose, for their checks.
#![cfg(not(debug_assertions))]
// The counting allocator forwards every call to `System`.
#![allow(unsafe_code)]

use resoftmax_gpusim::{clear_sim_cache, DeviceSpec, Gpu};
use resoftmax_model::{
    build_schedule, check_schedule, price_batched_decode, ModelConfig, RunParams, SoftmaxStrategy,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method hands its caller's arguments to `System` unchanged,
// so `System`'s implementation upholds the `GlobalAlloc` contract; the
// count touches only a const-initialized thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's `layout` meets `alloc`'s requirements.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, that is from `System`,
        // with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: as for `dealloc`, and the caller's `new_size` meets
        // `realloc`'s requirements.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// The allocations `f` makes on this thread, the pricing memo emptied first.
fn allocations(f: impl FnOnce()) -> usize {
    clear_sim_cache();
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// `allocations(|| run(model))` at 24 and at 48 layers, after one warm-up
/// run that builds whatever is built once per process.
fn at_24_and_48_layers(model: &ModelConfig, run: impl Fn(&ModelConfig)) -> [usize; 2] {
    run(model);
    [24, 48].map(|layers| {
        let model = ModelConfig {
            layers,
            ..model.clone()
        };
        allocations(|| run(&model))
    })
}

#[test]
fn pricing_allocates_nothing_per_layer() {
    resoftmax_parallel::set_thread_override(Some(1));
    let device = DeviceSpec::a100();

    let params = RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed);
    let ctxs: Vec<usize> = [260, 1000, 1000, 4096]
        .into_iter()
        .chain((1..=256).map(|t| 512 + t))
        .collect();
    let step = at_24_and_48_layers(&ModelConfig::gpt_neo_1_3b(), |model| {
        let mut gpu = Gpu::new(device.clone());
        let timeline = price_batched_decode(&mut gpu, model, &ctxs, &params).unwrap();
        assert_eq!(timeline.len(), 11 * model.layers);
    });
    assert_eq!(step[0], step[1], "a fleet step at 24 and at 48 layers");

    let params = RunParams::new(4096).strategy(SoftmaxStrategy::Recomposed);
    let pipeline = at_24_and_48_layers(&ModelConfig::bert_large(), |model| {
        let schedule = build_schedule(model, &params);
        let report = check_schedule(model, &params, &schedule);
        assert!(!report.has_errors(), "{}", report.render());
        let mut gpu = Gpu::new(device.clone());
        gpu.run(&schedule).unwrap();
        assert_eq!(gpu.timeline().len(), schedule.len());
    });
    assert_eq!(
        pipeline[0], pipeline[1],
        "build, check and run at 24 and at 48 layers"
    );
    resoftmax_parallel::set_thread_override(None);
}
