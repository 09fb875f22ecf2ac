//! Execution traces and breakdown aggregation.
//!
//! [`Timeline`] records per-kernel [`KernelStats`]; [`Breakdown`] aggregates
//! them by [`KernelCategory`] the way the paper's figures do (Fig. 2 and
//! Fig. 5 are breakdowns of time and of off-chip traffic; Fig. 8 compares
//! totals across strategies).

use crate::kernel::KernelCategory;
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Statistics of one executed kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KernelStats {
    /// Kernel name.
    pub name: String,
    /// Breakdown category.
    pub category: KernelCategory,
    /// Simulated duration in seconds (including launch overhead).
    pub time_s: f64,
    /// DRAM read traffic in bytes (after L2 filtering).
    pub dram_read_bytes: f64,
    /// DRAM write traffic in bytes.
    pub dram_write_bytes: f64,
    /// Read bytes served by L2.
    pub l2_hit_bytes: f64,
    /// Total FLOPs executed.
    pub flops: f64,
    /// CUDA-core FLOPs (exp, reductions, elementwise).
    pub cuda_flops: f64,
    /// Tensor-core FLOPs (MMA).
    pub tensor_flops: f64,
    /// Grid size.
    pub tb_count: u64,
    /// Occupancy achieved.
    pub tbs_per_sm: u32,
    /// Fraction of peak DRAM bandwidth achieved over the kernel's lifetime.
    pub achieved_bw_fraction: f64,
    /// Energy in joules (DRAM traffic + core energy).
    pub energy_j: f64,
}

impl KernelStats {
    /// Total DRAM traffic (read + write).
    pub fn dram_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// Ordered record of executed kernels.
///
/// A layered run ([`Gpu::run`](crate::Gpu::run)) records the layers it
/// does not simulate as a repeat count of the last simulated layer's
/// stats, not as copies. Everything a timeline answers (its totals,
/// [`Self::breakdown`], [`Self::len`], [`Self::kernels`], `==`, `Debug`
/// and serde) walks the expanded sequence, repeats in place, so each sum
/// adds the same values in the same order as a kernel-by-kernel run.
#[derive(Clone, Default)]
pub struct Timeline {
    /// The stats of every kernel simulated, in execution order.
    simulated: Vec<KernelStats>,
    /// Where the expanded sequence repeats simulated stats, in order.
    repeats: Vec<Repeat>,
}

/// After `simulated[..end]`, its last `period` stats run `times` more
/// times.
#[derive(Debug, Clone, Copy)]
struct Repeat {
    end: usize,
    period: usize,
    times: usize,
}

impl Timeline {
    /// Creates an empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Appends one kernel record.
    pub fn push(&mut self, stats: KernelStats) {
        self.simulated.push(stats);
    }

    /// All kernel records in execution order, repeats included.
    pub fn kernels(&self) -> impl Iterator<Item = &KernelStats> {
        let mut from = 0;
        let tail = self.repeats.last().map_or(0, |r| r.end);
        self.repeats
            .iter()
            .flat_map(move |r| {
                let head = &self.simulated[from..r.end];
                from = r.end;
                let period = &self.simulated[r.end - r.period..r.end];
                head.iter()
                    .chain(std::iter::repeat_n(period, r.times).flatten())
            })
            .chain(&self.simulated[tail..])
    }

    /// Number of kernels executed, repeats included.
    pub fn len(&self) -> usize {
        self.simulated.len()
            + self
                .repeats
                .iter()
                .map(|r| r.period * r.times)
                .sum::<usize>()
    }

    /// `true` if nothing ran.
    pub fn is_empty(&self) -> bool {
        self.simulated.is_empty()
    }

    /// How many times a run of stats repeats without being simulated: for
    /// one layered run, its layers less the ones it simulated.
    pub fn repeats(&self) -> usize {
        self.repeats.iter().map(|r| r.times).sum()
    }

    /// Total simulated time in seconds.
    pub fn total_time_s(&self) -> f64 {
        sum(self.kernels().map(|k| k.time_s))
    }

    /// Total DRAM traffic in bytes.
    pub fn total_dram_bytes(&self) -> f64 {
        sum(self.kernels().map(KernelStats::dram_bytes))
    }

    /// Total energy in joules.
    pub fn total_energy_j(&self) -> f64 {
        sum(self.kernels().map(|k| k.energy_j))
    }

    /// Records the last `period` records `times` more times, without
    /// copying them.
    pub(crate) fn repeat_last(&mut self, period: usize, times: usize) {
        if period > 0 && times > 0 {
            self.repeats.push(Repeat {
                end: self.simulated.len(),
                period,
                times,
            });
        }
    }

    /// Aggregates by category.
    pub fn breakdown(&self) -> Breakdown {
        let mut agg: BTreeMap<&'static str, CategoryTotals> = BTreeMap::new();
        for k in self.kernels() {
            let entry = agg
                .entry(k.category.label())
                .or_insert_with(|| CategoryTotals {
                    category: k.category,
                    ..Default::default()
                });
            entry.time_s += k.time_s;
            entry.dram_read_bytes += k.dram_read_bytes;
            entry.dram_write_bytes += k.dram_write_bytes;
            entry.energy_j += k.energy_j;
            entry.kernel_count += 1;
        }
        Breakdown {
            categories: agg.into_values().collect(),
        }
    }

    /// Merges another timeline into this one (e.g. combining per-layer
    /// runs); its repeats stay repeats.
    pub fn extend_from(&mut self, other: &Timeline) {
        let offset = self.simulated.len();
        self.simulated.extend_from_slice(&other.simulated);
        self.repeats.extend(other.repeats.iter().map(|r| Repeat {
            end: r.end + offset,
            ..*r
        }));
    }
}

impl PartialEq for Timeline {
    fn eq(&self, other: &Timeline) -> bool {
        self.len() == other.len() && self.kernels().eq(other.kernels())
    }
}

impl fmt::Debug for Timeline {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Timeline")
            .field("kernels", &self.kernels().collect::<Vec<_>>())
            .finish()
    }
}

impl Serialize for Timeline {
    fn to_value(&self) -> Value {
        let kernels = self.kernels().map(Serialize::to_value).collect();
        Value::Object(vec![("kernels".to_owned(), Value::Array(kernels))])
    }
}

impl Deserialize for Timeline {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let object = v
            .as_object()
            .ok_or_else(|| DeError::new("expected object for Timeline"))?;
        Ok(Timeline {
            simulated: Vec::from_value(serde::field(object, "kernels")?)?,
            repeats: Vec::new(),
        })
    }
}

/// Aggregated totals of one category.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CategoryTotals {
    /// Which category.
    pub category: KernelCategory,
    /// Total time in seconds.
    pub time_s: f64,
    /// DRAM reads in bytes.
    pub dram_read_bytes: f64,
    /// DRAM writes in bytes.
    pub dram_write_bytes: f64,
    /// Total energy in joules.
    pub energy_j: f64,
    /// How many kernels contributed.
    pub kernel_count: usize,
}

impl Default for CategoryTotals {
    fn default() -> Self {
        CategoryTotals {
            category: KernelCategory::Other,
            time_s: 0.0,
            dram_read_bytes: 0.0,
            dram_write_bytes: 0.0,
            energy_j: 0.0,
            kernel_count: 0,
        }
    }
}

impl CategoryTotals {
    /// Total DRAM traffic.
    pub fn dram_bytes(&self) -> f64 {
        self.dram_read_bytes + self.dram_write_bytes
    }
}

/// The sum of `xs`, from `+0.0`: [`Iterator::sum`] starts from `−0.0`, so
/// an empty sum, such as the softmax time of a run with no softmax kernel
/// or the total of an empty timeline, would read `−0.0`.
fn sum(xs: impl Iterator<Item = f64>) -> f64 {
    xs.fold(0.0, |total, x| total + x)
}

/// A per-category aggregation of a [`Timeline`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Breakdown {
    /// One entry per category present, ordered by label.
    pub categories: Vec<CategoryTotals>,
}

impl Breakdown {
    /// Total time over all categories.
    pub fn total_time_s(&self) -> f64 {
        sum(self.categories.iter().map(|c| c.time_s))
    }

    /// Total DRAM traffic over all categories.
    pub fn total_dram_bytes(&self) -> f64 {
        sum(self.categories.iter().map(CategoryTotals::dram_bytes))
    }

    /// Time attributed to one category (0 if absent).
    pub fn time_of(&self, category: KernelCategory) -> f64 {
        sum(self
            .categories
            .iter()
            .filter(|c| c.category == category)
            .map(|c| c.time_s))
    }

    /// DRAM traffic attributed to one category.
    pub fn dram_of(&self, category: KernelCategory) -> f64 {
        sum(self
            .categories
            .iter()
            .filter(|c| c.category == category)
            .map(CategoryTotals::dram_bytes))
    }

    /// Time attributed to the softmax family (monolithic + LS/IR/GS).
    pub fn softmax_time_s(&self) -> f64 {
        sum(self
            .categories
            .iter()
            .filter(|c| c.category.is_softmax_family())
            .map(|c| c.time_s))
    }

    /// DRAM traffic of the softmax family.
    pub fn softmax_dram_bytes(&self) -> f64 {
        sum(self
            .categories
            .iter()
            .filter(|c| c.category.is_softmax_family())
            .map(CategoryTotals::dram_bytes))
    }

    /// Time attributed to the SDA block.
    pub fn sda_time_s(&self) -> f64 {
        sum(self
            .categories
            .iter()
            .filter(|c| c.category.in_sda())
            .map(|c| c.time_s))
    }

    /// Fraction of total time used by one category.
    pub fn time_fraction(&self, category: KernelCategory) -> f64 {
        let total = self.total_time_s();
        if total > 0.0 {
            self.time_of(category) / total
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(name: &str, cat: KernelCategory, time: f64, read: f64, write: f64) -> KernelStats {
        KernelStats {
            name: name.into(),
            category: cat,
            time_s: time,
            dram_read_bytes: read,
            dram_write_bytes: write,
            l2_hit_bytes: 0.0,
            flops: 0.0,
            cuda_flops: 0.0,
            tensor_flops: 0.0,
            tb_count: 1,
            tbs_per_sm: 1,
            achieved_bw_fraction: 0.5,
            energy_j: 1.0,
        }
    }

    #[test]
    fn timeline_totals() {
        let mut t = Timeline::new();
        assert!(t.is_empty());
        t.push(stat("a", KernelCategory::Softmax, 1.0, 10.0, 5.0));
        t.push(stat("b", KernelCategory::MatMulQk, 2.0, 20.0, 10.0));
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_time_s(), 3.0);
        assert_eq!(t.total_dram_bytes(), 45.0);
        assert_eq!(t.total_energy_j(), 2.0);
    }

    #[test]
    fn breakdown_groups_by_category() {
        let mut t = Timeline::new();
        t.push(stat("s1", KernelCategory::Softmax, 1.0, 10.0, 0.0));
        t.push(stat("s2", KernelCategory::Softmax, 2.0, 0.0, 10.0));
        t.push(stat("m", KernelCategory::MatMulQk, 4.0, 20.0, 0.0));
        let b = t.breakdown();
        assert_eq!(b.categories.len(), 2);
        assert_eq!(b.time_of(KernelCategory::Softmax), 3.0);
        assert_eq!(b.dram_of(KernelCategory::Softmax), 20.0);
        assert_eq!(b.time_of(KernelCategory::MatMulQk), 4.0);
        assert_eq!(b.time_of(KernelCategory::Fc), 0.0);
        assert!((b.time_fraction(KernelCategory::Softmax) - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn softmax_family_and_sda_rollups() {
        let mut t = Timeline::new();
        t.push(stat("ls", KernelCategory::LocalSoftmax, 1.0, 1.0, 0.0));
        t.push(stat("ir", KernelCategory::InterReduction, 0.5, 1.0, 0.0));
        t.push(stat("gs", KernelCategory::GlobalScaling, 1.5, 1.0, 0.0));
        t.push(stat("qk", KernelCategory::MatMulQk, 2.0, 1.0, 0.0));
        t.push(stat("fc", KernelCategory::Fc, 10.0, 1.0, 0.0));
        let b = t.breakdown();
        assert_eq!(b.softmax_time_s(), 3.0);
        assert_eq!(b.softmax_dram_bytes(), 3.0);
        assert_eq!(b.sda_time_s(), 5.0);
    }

    #[test]
    fn extend_from_merges() {
        let mut a = Timeline::new();
        a.push(stat("x", KernelCategory::Other, 1.0, 0.0, 0.0));
        let mut b = Timeline::new();
        b.push(stat("y", KernelCategory::Other, 2.0, 0.0, 0.0));
        a.extend_from(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.total_time_s(), 3.0);
    }

    #[test]
    fn empty_breakdown_fraction_is_zero() {
        let t = Timeline::new();
        assert_eq!(t.breakdown().time_fraction(KernelCategory::Softmax), 0.0);
    }

    /// A timeline with repeats and the same timeline pushed stat by stat.
    fn compact_and_flat() -> (Timeline, Timeline) {
        let stats = [
            stat("embed", KernelCategory::Other, 0.1, 3.0, 1.0),
            stat("qk", KernelCategory::MatMulQk, 0.7, 10.0, 5.0),
            stat("ls", KernelCategory::LocalSoftmax, 0.3, 0.1, 0.2),
            stat("tail", KernelCategory::Fc, 1e-7, 0.7, 0.3),
        ];
        let mut compact = Timeline::new();
        let mut flat = Timeline::new();
        for k in &stats[..3] {
            compact.push(k.clone());
        }
        compact.repeat_last(2, 3);
        compact.push(stats[3].clone());
        for i in [0, 1, 2, 1, 2, 1, 2, 1, 2, 3] {
            flat.push(stats[i].clone());
        }
        (compact, flat)
    }

    /// Asserts that `a` and `b` answer alike, every sum to the bit.
    fn assert_alike(a: &Timeline, b: &Timeline) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.is_empty(), b.is_empty());
        assert!(a.kernels().eq(b.kernels()));
        assert_eq!(a.total_time_s().to_bits(), b.total_time_s().to_bits());
        assert_eq!(
            a.total_dram_bytes().to_bits(),
            b.total_dram_bytes().to_bits()
        );
        assert_eq!(a.total_energy_j().to_bits(), b.total_energy_j().to_bits());
        assert_eq!(a.breakdown(), b.breakdown());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(
            serde_json::to_string(a).unwrap(),
            serde_json::to_string(b).unwrap()
        );
    }

    #[test]
    fn repeats_read_as_the_expanded_sequence() {
        let (compact, flat) = compact_and_flat();
        assert_eq!((compact.len(), compact.repeats()), (10, 3));
        assert_eq!(flat.repeats(), 0);
        assert_alike(&compact, &flat);
        let names: Vec<&str> = compact.kernels().map(|k| k.name.as_str()).collect();
        assert_eq!(
            names,
            ["embed", "qk", "ls", "qk", "ls", "qk", "ls", "qk", "ls", "tail"]
        );
        assert_eq!(compact.breakdown().categories[1].kernel_count, 4);
        let back: Timeline =
            serde_json::from_str(&serde_json::to_string(&compact).unwrap()).unwrap();
        assert_alike(&back, &flat);
        // One stat apart is unequal, whichever side is compact.
        let mut longer = flat.clone();
        longer.push(stat("x", KernelCategory::Other, 0.0, 0.0, 0.0));
        assert_ne!(compact, longer);
        assert_ne!(longer, compact);
    }

    /// A repeated timeline merged into another (the traced replica path)
    /// keeps its repeats where they were, whatever came before it.
    #[test]
    fn extend_from_keeps_repeats_in_place() {
        let (compact, flat) = compact_and_flat();
        let mut merged = Timeline::new();
        let mut expected = Timeline::new();
        for (into, part) in [(&mut merged, &compact), (&mut expected, &flat)] {
            into.push(stat("first", KernelCategory::Other, 2.0, 1.0, 1.0));
            into.extend_from(part);
            into.extend_from(part);
        }
        assert_eq!((merged.len(), merged.repeats()), (21, 6));
        assert_alike(&merged, &expected);
        assert_alike(&Timeline::new(), &Timeline::new());
        let mut onto_empty = Timeline::new();
        onto_empty.extend_from(&compact);
        assert_alike(&onto_empty, &flat);
    }

    #[test]
    fn a_repeat_of_nothing_records_nothing() {
        let (mut compact, flat) = compact_and_flat();
        compact.repeat_last(0, 5);
        compact.repeat_last(2, 0);
        assert_eq!(compact.repeats(), 3);
        assert_alike(&compact, &flat);
    }

    #[test]
    fn serde_round_trip() {
        let mut t = Timeline::new();
        t.push(stat("a", KernelCategory::GlobalScaling, 1.0, 2.0, 3.0));
        let json = serde_json::to_string(&t).unwrap();
        let back: Timeline = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
