//! Process-wide atomic counters.
//!
//! Two registries keyed by name: integer counters ([`counter`]) and
//! floating-point accumulators ([`float_counter`], bit-packed into an
//! `AtomicU64` with a CAS loop). Handles are `Copy` references to leaked
//! atomics, so hot paths can look a counter up once and update it lock-free
//! thereafter. The set of distinct names is small and long-lived by design
//! (the leak is bounded by the name vocabulary, not by update volume).
//!
//! Each [`counter`] call locks the registry and searches it by name, so
//! callers gate every update on [`crate::metrics_enabled`]; [`Counter::add`]
//! itself is always safe to call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

struct Registry {
    ints: Mutex<BTreeMap<String, &'static AtomicU64>>,
    floats: Mutex<BTreeMap<String, &'static AtomicU64>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        ints: Mutex::new(BTreeMap::new()),
        floats: Mutex::new(BTreeMap::new()),
    })
}

fn slot(map: &Mutex<BTreeMap<String, &'static AtomicU64>>, name: &str) -> &'static AtomicU64 {
    let mut m = map.lock().expect("metrics registry poisoned");
    if let Some(a) = m.get(name) {
        return a;
    }
    let a: &'static AtomicU64 = Box::leak(Box::new(AtomicU64::new(0)));
    m.insert(name.to_owned(), a);
    a
}

/// A process-wide monotonic integer counter.
#[derive(Clone, Copy)]
pub struct Counter(&'static AtomicU64);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn incr(self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A process-wide floating-point accumulator (e.g. DRAM bytes, which the
/// simulator models as `f64` after L2 filtering).
#[derive(Clone, Copy)]
pub struct FloatCounter(&'static AtomicU64);

impl FloatCounter {
    /// Adds `x` (compare-and-swap loop on the bit pattern).
    pub fn add(self, x: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + x).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Looks up (creating on first use) the integer counter `name`.
pub fn counter(name: &str) -> Counter {
    Counter(slot(&registry().ints, name))
}

/// Looks up (creating on first use) the float accumulator `name`.
pub fn float_counter(name: &str) -> FloatCounter {
    FloatCounter(slot(&registry().floats, name))
}

/// A point-in-time copy of every registered counter.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Integer counters, sorted by name.
    pub counts: Vec<(String, u64)>,
    /// Float accumulators, sorted by name.
    pub values: Vec<(String, f64)>,
}

impl MetricsSnapshot {
    /// The integer counter `name`, or 0 if never registered.
    pub fn count(&self, name: &str) -> u64 {
        self.counts
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The float accumulator `name`, or 0.0 if never registered.
    pub fn value(&self, name: &str) -> f64 {
        self.values
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Snapshots every registered counter (sorted by name).
pub fn metrics_snapshot() -> MetricsSnapshot {
    let reg = registry();
    let counts = reg
        .ints
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(n, a)| (n.clone(), a.load(Ordering::Relaxed)))
        .collect();
    let values = reg
        .floats
        .lock()
        .expect("metrics registry poisoned")
        .iter()
        .map(|(n, a)| (n.clone(), f64::from_bits(a.load(Ordering::Relaxed))))
        .collect();
    MetricsSnapshot { counts, values }
}

/// Zeroes every registered counter (names stay registered).
pub fn reset_metrics() {
    let reg = registry();
    for a in reg.ints.lock().expect("metrics registry poisoned").values() {
        a.store(0, Ordering::Relaxed);
    }
    for a in reg
        .floats
        .lock()
        .expect("metrics registry poisoned")
        .values()
    {
        a.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_counters_accumulate_across_threads() {
        let c = counter("test.metrics.int");
        let base = c.get();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        counter("test.metrics.int").incr();
                    }
                });
            }
        });
        assert_eq!(c.get() - base, 4000);
    }

    #[test]
    fn float_counters_accumulate_exactly_on_one_thread() {
        let c = float_counter("test.metrics.float");
        let base = c.get();
        let mut expect = base;
        for i in 1..=100 {
            let x = f64::from(i) * 0.125;
            c.add(x);
            expect += x;
        }
        assert_eq!(c.get(), expect, "same add sequence => bit-identical");
    }

    #[test]
    fn snapshot_sees_both_kinds() {
        counter("test.metrics.snap_i").add(7);
        float_counter("test.metrics.snap_f").add(1.5);
        let s = metrics_snapshot();
        assert!(s.count("test.metrics.snap_i") >= 7);
        assert!(s.value("test.metrics.snap_f") >= 1.5);
        assert_eq!(s.count("test.metrics.never_registered"), 0);
    }
}
