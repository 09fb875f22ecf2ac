//! Layer-periodic schedules: a prologue (a prefill's embedding kernel,
//! nothing for a decode iteration), then one layer's kernels repeated, each
//! copy with every buffer id advanced one layer ([`BufferId::next_layer`]:
//! `l3.q` → `l4.q`, other scopes unchanged).
//!
//! [`periodic_layer`] is the one rule for recognizing that form in a flat
//! schedule: every kernel after the first layer equals the kernel one layer
//! earlier with every id advanced, compared field by field. The flat
//! schedule checks of `resoftmax-model` and [`Gpu::run`](crate::Gpu::run)
//! both use it, and [`Gpu::run_layers`](crate::Gpu::run_layers) prices the
//! form from its first layers.

use crate::buffer::{BufferId, Scope};
use crate::kernel::{BufferUse, KernelDesc};

/// Advances every buffer id of `kernels` one layer, in place: `l3.q`
/// becomes `l4.q`.
pub fn next_layer(kernels: &mut [KernelDesc]) {
    for k in kernels {
        for b in k.reads.iter_mut().chain(k.writes.iter_mut()) {
            b.id = b.id.next_layer();
        }
    }
}

/// `true` when `next` is `prev` one layer later: every field equal, except
/// that each read's and write's id is `prev`'s advanced one layer. Both
/// structs are destructured so that a new field cannot be left out.
fn is_next_layer(prev: &KernelDesc, next: &KernelDesc) -> bool {
    let advanced = |prev: &[BufferUse], next: &[BufferUse]| {
        prev.len() == next.len()
            && prev.iter().zip(next).all(|(p, n)| {
                let BufferUse { id, bytes } = n;
                *bytes == p.bytes && *id == p.id.next_layer()
            })
    };
    let KernelDesc {
        name,
        category,
        shape,
        tbs,
        reads,
        writes,
        meta,
    } = next;
    *category == prev.category
        && *name == prev.name
        && *shape == prev.shape
        && *meta == prev.meta
        && advanced(&prev.reads, reads)
        && advanced(&prev.writes, writes)
        && *tbs == prev.tbs
}

/// Layer 0 of `kernels`, when the kernels after the first `prologue` are
/// `layers` layers of equal length, each equal to the one before with every
/// buffer id's layer advanced by one. Kernels are compared field by field,
/// so nothing is copied.
pub fn periodic_layer(
    kernels: &[KernelDesc],
    prologue: usize,
    layers: usize,
) -> Option<&[KernelDesc]> {
    let body = kernels.get(prologue..)?;
    if layers == 0 || body.is_empty() || !body.len().is_multiple_of(layers) {
        return None;
    }
    let per_layer = body.len() / layers;
    let copies = body
        .iter()
        .zip(&body[per_layer..])
        .all(|(prev, next)| is_next_layer(prev, next));
    copies.then(|| &body[..per_layer])
}

/// The form [`Gpu::run`](crate::Gpu::run) prices from its first layers:
/// `(prologue, layers)` when `kernels` is a prologue of at most one kernel,
/// then at least three layers [`periodic_layer`] accepts. The layer length
/// is taken where the first kernel's copy one layer later first appears, so
/// a slice is compared whole at most twice, once per prologue length.
pub(crate) fn flat_form(kernels: &[KernelDesc]) -> Option<(usize, usize)> {
    (0..=1).find_map(|prologue| {
        let body = kernels.get(prologue..)?;
        let first = body.first()?;
        let per_layer = (1..=body.len() / 3).find(|&per_layer| {
            body.len().is_multiple_of(per_layer) && is_next_layer(first, &body[per_layer])
        })?;
        let layers = body.len() / per_layer;
        periodic_layer(kernels, prologue, layers).map(|_| (prologue, layers))
    })
}

/// `true` when every layer index among `ids` is at most
/// `u32::MAX − layers`, so that advancing them layer by layer over a run of
/// `layers` layers never reaches `u32::MAX`, where
/// [`BufferId::next_layer`] stops advancing: the renaming is one to one on
/// every id such a run meets.
pub(crate) fn can_advance(mut ids: impl Iterator<Item = BufferId>, layers: usize) -> bool {
    ids.all(|id| match id.scope() {
        Scope::Layer(k) => (u32::MAX - k) as usize >= layers,
        _ => true,
    })
}
