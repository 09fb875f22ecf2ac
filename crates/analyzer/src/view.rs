//! A schedule's kernels in launch order, read in place.

use resoftmax_gpusim::KernelDesc;

/// The kernels the rule families check, borrowed: `prologue`, then `layer`
/// `layers` times, the copy of layer `l` with every buffer id `l` layers
/// later ([`BufferId::layers_later`](resoftmax_gpusim::BufferId::layers_later)).
/// A flat sequence is all prologue.
///
/// Kernels are numbered by launch position, as in the expanded sequence,
/// and each comes with its layer offset, the number of layers its buffer
/// ids are advanced: a rule family applies the offset where it reads an id,
/// so the same diagnostics come out without a layer being copied.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ScheduleView<'a> {
    prologue: &'a [KernelDesc],
    layer: &'a [KernelDesc],
    layers: usize,
}

impl<'a> ScheduleView<'a> {
    /// `prologue`, then `layer` (layer 0) `layers` times.
    pub(crate) fn new(prologue: &'a [KernelDesc], layer: &'a [KernelDesc], layers: usize) -> Self {
        ScheduleView {
            prologue,
            layer,
            layers,
        }
    }

    /// A flat sequence: every kernel at layer offset 0.
    pub(crate) fn flat(kernels: &'a [KernelDesc]) -> Self {
        ScheduleView::new(kernels, &[], 0)
    }

    /// The number of kernels, every layer counted.
    pub(crate) fn len(&self) -> usize {
        self.prologue.len() + self.layers * self.layer.len()
    }

    /// `true` if there are no kernels.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Each kernel with its layer offset, in launch order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, &'a KernelDesc)> + 'a {
        let layer = self.layer;
        let layers = (0..self.layers).flat_map(move |l| layer.iter().map(move |k| (l, k)));
        self.prologue.iter().map(|k| (0, k)).chain(layers)
    }

    /// Kernel `i` of the launch order with its layer offset.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub(crate) fn get(&self, i: usize) -> (usize, &'a KernelDesc) {
        match i.checked_sub(self.prologue.len()) {
            None => (0, &self.prologue[i]),
            Some(j) => {
                assert!(i < self.len(), "kernel {i} of {}", self.len());
                (j / self.layer.len(), &self.layer[j % self.layer.len()])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_gpusim::{KernelCategory, Schedule, TbWork};

    #[test]
    fn iter_and_get_follow_the_expanded_order() {
        let kernel = |name: &str, read: &'static str, write: &'static str| {
            KernelDesc::builder(name, KernelCategory::Other)
                .uniform(1, TbWork::memory(8.0, 8.0))
                .reads(read, 8)
                .writes(write, 8)
                .build()
        };
        let schedule = Schedule::new(
            vec![kernel("embed", "tokens", "l0.x")],
            vec![kernel("a", "l0.x", "l0.y"), kernel("b", "l0.y", "l1.x")],
            3,
        );
        let flat = schedule.expand();
        let view = ScheduleView::new(schedule.prologue(), schedule.layer(), 3);
        assert_eq!(view.len(), flat.len());
        let advanced = |(offset, k): (usize, &KernelDesc)| {
            let mut k = k.clone();
            for b in k.reads.iter_mut().chain(k.writes.iter_mut()) {
                b.id = b.id.layers_later(offset);
            }
            k
        };
        let viewed: Vec<KernelDesc> = view.iter().map(advanced).collect();
        assert_eq!(viewed, flat);
        for (i, k) in flat.iter().enumerate() {
            assert_eq!(&advanced(view.get(i)), k, "kernel {i}");
        }
        let flat_view = ScheduleView::flat(&flat);
        assert!(flat_view.iter().all(|(offset, _)| offset == 0));
        assert_eq!(flat_view.get(6).1, &flat[6]);
        assert!(ScheduleView::flat(&[]).is_empty());
    }
}
