//! A fixed reference job, timed next to every measured unit.
//!
//! The job is the benchmark's own code, so no change to the program can
//! make it faster or slower; its time tracks only how fast the machine is
//! at that moment. It does what dominates the simulator's host time —
//! probing an ordered map, formatting short strings and churning small
//! allocations — so interference from other tenants slows it and the units
//! alike, and a unit's time divided by the reference time next to it
//! cancels most of that interference.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::rng::Rng;

const ENTRIES: u64 = 60_000;

/// Runs the reference job once and returns its wall time, seconds.
pub fn time_s() -> f64 {
    let t0 = Instant::now();
    let mut rng = Rng::new(0, 0);
    let map: BTreeMap<u64, String> = (0..ENTRIES)
        .map(|i| (rng.next_u64(), format!("kernel.{i}")))
        .collect();
    let mut rng = Rng::new(0, 0);
    let mut acc = 0usize;
    for _ in 0..4 {
        for _ in 0..ENTRIES {
            acc += map.get(&rng.next_u64()).map_or(0, String::len);
        }
        rng = Rng::new(0, 0);
    }
    let blocks: Vec<Vec<u64>> = (0..ENTRIES as usize)
        .map(|i| vec![i as u64; 4 + i % 32])
        .collect();
    acc += blocks.iter().map(Vec::len).sum::<usize>();
    black_box(acc);
    t0.elapsed().as_secs_f64()
}
