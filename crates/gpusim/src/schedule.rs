//! Schedules: a prologue, then one layer's kernels repeated.
//!
//! A transformer schedule is a prologue (a prefill's embedding kernel,
//! nothing for a decode iteration) and then one layer's kernels `layers`
//! times over, each copy with every buffer id advanced one layer
//! ([`BufferId::next_layer`](crate::BufferId::next_layer): `l3.q` → `l4.q`,
//! other scopes unchanged). A [`Schedule`] keeps that form as it is built:
//! the prologue, layer 0 and the layer count. [`Gpu::run`](crate::Gpu::run)
//! prices it from its first layers, and [`Schedule::expand`] gives the flat
//! kernels it stands for to the callers that want them. A sequence with no
//! layers is all prologue ([`Schedule::from`]): encoder–decoder and
//! training schedules and hand-made streams take that form, and every
//! kernel of it is launched.

use crate::kernel::KernelDesc;

/// A kernel schedule: [`Self::prologue`], then [`Self::layer`] run
/// [`Self::layers`] times, the `l`-th copy with every buffer id advanced
/// `l` layers. Two schedules are equal when their forms are.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    prologue: Vec<KernelDesc>,
    layer: Vec<KernelDesc>,
    layers: usize,
}

impl Schedule {
    /// `prologue`, then `layer` (layer 0) run `layers` times.
    pub fn new(prologue: Vec<KernelDesc>, layer: Vec<KernelDesc>, layers: usize) -> Self {
        Schedule {
            prologue,
            layer,
            layers,
        }
    }

    /// The kernels before the first layer.
    pub fn prologue(&self) -> &[KernelDesc] {
        &self.prologue
    }

    /// Layer 0's kernels.
    pub fn layer(&self) -> &[KernelDesc] {
        &self.layer
    }

    /// How many times the layer runs.
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// The number of kernels the schedule launches, every layer counted.
    pub fn len(&self) -> usize {
        self.prologue.len() + self.layers * self.layer.len()
    }

    /// `true` if the schedule launches nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The flat kernels: the prologue, then each layer with its ids
    /// advanced.
    pub fn expand(&self) -> Vec<KernelDesc> {
        let mut kernels = Vec::with_capacity(self.len());
        kernels.extend_from_slice(&self.prologue);
        for l in 0..self.layers {
            let start = kernels.len();
            kernels.extend_from_slice(&self.layer);
            for k in &mut kernels[start..] {
                for b in k.reads.iter_mut().chain(k.writes.iter_mut()) {
                    b.id = b.id.layers_later(l);
                }
            }
        }
        kernels
    }
}

impl From<Vec<KernelDesc>> for Schedule {
    /// A schedule of no layers: every kernel is prologue.
    fn from(kernels: Vec<KernelDesc>) -> Self {
        Schedule::new(kernels, Vec::new(), 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{KernelCategory, TbWork};

    fn kernel(name: &str, read: &'static str, write: &'static str) -> KernelDesc {
        KernelDesc::builder(name, KernelCategory::Other)
            .uniform(1, TbWork::memory(8.0, 8.0))
            .reads(read, 8)
            .writes(write, 8)
            .build()
    }

    #[test]
    fn expand_advances_each_layer_and_counts_every_kernel() {
        let schedule = Schedule::new(
            vec![kernel("embed", "tokens", "l0.x")],
            vec![kernel("a", "l0.x", "l0.y"), kernel("b", "l0.y", "l1.x")],
            3,
        );
        let flat = schedule.expand();
        assert_eq!((schedule.len(), flat.len()), (7, 7));
        let ids: Vec<String> = flat
            .iter()
            .map(|k| format!("{}>{}", k.reads[0].id, k.writes[0].id))
            .collect();
        assert_eq!(
            ids,
            [
                "tokens>l0.x",
                "l0.x>l0.y",
                "l0.y>l1.x",
                "l1.x>l1.y",
                "l1.y>l2.x",
                "l2.x>l2.y",
                "l2.y>l3.x"
            ]
        );
    }

    #[test]
    fn a_sequence_is_all_prologue() {
        let kernels = vec![kernel("a", "l0.x", "l0.y"), kernel("b", "l0.y", "l1.x")];
        let schedule = Schedule::from(kernels.clone());
        assert_eq!((schedule.len(), schedule.layers()), (2, 0));
        assert!(schedule.layer().is_empty());
        assert_eq!(schedule.expand(), kernels);
        assert!(Schedule::from(Vec::new()).is_empty());
    }
}
