//! Layer-periodic construction and pricing: a transformer schedule is one
//! layer's kernels `model.layers` times over, each copy with every buffer
//! id's layer advanced by one ([`BufferId::next_layer`]). One renaming
//! serves both.
//!
//! [`stack_layers`] builds on it: a builder emits its first layer and every
//! later layer is appended as a copy of the one before with its ids
//! advanced. [`price_layers`] prices on it: once the L2 state repeats under
//! the renaming, every later layer prices exactly like the last one
//! simulated. The serving engine hands the pricer the decode builder's
//! first layer, advanced in place for each later one
//! ([`price_batched_decode`](crate::price_batched_decode)); the tuner hands
//! it the per-layer slices of a schedule it already built and analyzed
//! ([`price_schedule`]). Both return a [`PeriodicTimeline`], whose total is
//! read without expanding the repeated layers.

use crate::config::ModelConfig;
use crate::schedule::RunParams;
use resoftmax_gpusim::{BufferId, Gpu, KernelDesc, KernelStats, LaunchError, Timeline};

/// A priced schedule in compact form: the kernels actually simulated, the
/// last `period` of which repeat `repeats` more times in the full run.
#[derive(Debug, Clone)]
pub struct PeriodicTimeline {
    simulated: Timeline,
    period: usize,
    repeats: usize,
}

impl PeriodicTimeline {
    /// Every kernel's stats in execution order, repeats included.
    fn kernels(&self) -> impl Iterator<Item = &KernelStats> {
        let simulated = self.simulated.kernels();
        let period = &simulated[simulated.len() - self.period..];
        simulated
            .iter()
            .chain(std::iter::repeat_n(period, self.repeats).flatten())
    }

    /// Total simulated time in seconds: the same `time_s` values summed in
    /// the same order as the expanded timeline's
    /// [`Timeline::total_time_s`], so the two agree bit for bit (a period
    /// total times the repeat count would not).
    pub fn total_time_s(&self) -> f64 {
        self.kernels().map(|k| k.time_s).sum()
    }

    /// How many layers repeat the last simulated one without being
    /// simulated.
    pub fn repeats(&self) -> usize {
        self.repeats
    }

    /// The full timeline, each repeated layer's stats cloned from the last
    /// simulated one.
    pub fn into_timeline(self) -> Timeline {
        let mut timeline = Timeline::new();
        for stats in self.kernels() {
            timeline.push(stats.clone());
        }
        timeline
    }
}

/// Advances every buffer id of `kernels` one layer, in place: `l3.q`
/// becomes `l4.q` ([`BufferId::next_layer`]).
pub(crate) fn next_layer(kernels: &mut [KernelDesc]) {
    for k in kernels {
        for b in k.reads.iter_mut().chain(k.writes.iter_mut()) {
            b.id = b.id.next_layer();
        }
    }
}

/// Appends `layers` layers to `kernels`. `emit(l, kernels)` pushes layer
/// `l`'s kernels as its builder makes them; it runs for layer 0 only, and
/// each later layer is a copy of the one before with every id's layer
/// advanced by one. That is what emitting every layer gives, because a
/// builder's layer `l + 1` is its layer `l` renamed: its ids are all in
/// scope `l{l}` (the closing LayerNorm writes `l{l+1}.x`) and nothing else
/// in a kernel depends on the layer index. Debug builds emit every layer
/// and assert that it equals its copy.
pub(crate) fn stack_layers(
    kernels: &mut Vec<KernelDesc>,
    layers: usize,
    emit: impl Fn(usize, &mut Vec<KernelDesc>),
) {
    if layers == 0 {
        return;
    }
    let start = kernels.len();
    emit(0, kernels);
    let per_layer = kernels.len() - start;
    kernels.reserve((layers - 1) * per_layer);
    for _ in 1..layers {
        let previous = kernels.len() - per_layer;
        kernels.extend_from_within(previous..);
        next_layer(&mut kernels[previous + per_layer..]);
    }
    #[cfg(debug_assertions)]
    for l in 0..layers {
        let mut built = Vec::with_capacity(per_layer);
        emit(l, &mut built);
        assert!(
            built == kernels[start + l * per_layer..][..per_layer],
            "layer {l} copied from layer 0 differs from the layer its builder emits"
        );
    }
}

/// Prices `layers` layers on `gpu`, one layer at a time, and drains the
/// timeline (flushing L2, as [`Gpu::take_timeline`] does). `run_layer(gpu,
/// l)` launches layer `l`, for `l = 0, 1, …` in turn: the first layer's
/// kernels with every id's layer advanced `l` times. Whatever `gpu` ran
/// before, such as an embedding kernel, heads the timeline.
///
/// After each layer the L2 residency (ids and bytes, in LRU order) is
/// compared with the residency the layer started from, every id's layer
/// advanced by one. Once they match, the state the next layer starts from
/// is the state this one started from under that renaming. Layer `l + 1`
/// is layer `l` with its ids renamed, the L2 model compares typed ids only
/// for equality, and kernel names carry no layer index, so every remaining
/// layer yields this layer's stats: they are counted, not simulated.
pub(crate) fn price_layers(
    gpu: &mut Gpu,
    layers: usize,
    mut run_layer: impl FnMut(&mut Gpu, usize) -> Result<(), LaunchError>,
) -> Result<PeriodicTimeline, LaunchError> {
    let residency = |gpu: &Gpu| -> Vec<(BufferId, u64)> {
        gpu.l2()
            .resident()
            .map(|(id, bytes)| (id.next_layer(), bytes))
            .collect()
    };
    // The residency this layer starts from, ids already advanced a layer.
    let mut start = residency(gpu);
    for l in 0..layers {
        let first = gpu.timeline().len();
        run_layer(gpu, l)?;
        let repeats = gpu.l2().resident().eq(start.iter().copied());
        if repeats {
            let period = gpu.timeline().len() - first;
            return Ok(PeriodicTimeline {
                simulated: gpu.take_timeline(),
                period,
                repeats: layers - l - 1,
            });
        }
        start = residency(gpu);
    }
    Ok(PeriodicTimeline {
        simulated: gpu.take_timeline(),
        period: 0,
        repeats: 0,
    })
}

/// Prices a schedule the caller already built: `build_schedule(model,
/// params)` when `ctxs` is `None`, `build_batched_decode_schedule(model,
/// ctxs, params)` when it is `Some`. The result equals running `schedule`
/// on `gpu` and calling [`Gpu::take_timeline`], every `f64` bit for bit,
/// but layers are simulated one at a time and only until the L2 state
/// repeats under the layer renaming, as in
/// [`price_batched_decode`](crate::price_batched_decode). Each layer is
/// launched from its own slice of `schedule`, so nothing is copied; the
/// shortcut holds because each builder makes its layer `l + 1` by copying
/// its layer `l` with every id's layer advanced by one.
///
/// Debug builds rebuild the schedule from the inputs, assert that
/// `schedule` is that builder's output, and assert the result against a
/// full run on a clone of `gpu`.
///
/// # Errors
///
/// Returns [`LaunchError`] if a kernel cannot launch, as the full run
/// would.
// Only the debug check rebuilds the schedule, so only it reads `params`.
#[cfg_attr(not(debug_assertions), allow(unused_variables))]
pub fn price_schedule(
    gpu: &mut Gpu,
    model: &ModelConfig,
    ctxs: Option<&[usize]>,
    params: &RunParams,
    schedule: &[KernelDesc],
) -> Result<PeriodicTimeline, LaunchError> {
    #[cfg(debug_assertions)]
    let start = {
        let built = match ctxs {
            Some(ctxs) => crate::decode::build_batched_decode_schedule(model, ctxs, params),
            None => crate::schedule::build_schedule(model, params),
        };
        assert!(
            schedule == built,
            "price_schedule was handed a schedule its builder inputs do not produce"
        );
        gpu.clone()
    };
    // A full-sequence schedule opens with the embedding kernel.
    let (prologue, layers) = schedule.split_at(usize::from(ctxs.is_none()));
    let per_layer = layers.len() / model.layers.max(1);
    let priced = gpu.run(prologue).and_then(|()| {
        price_layers(gpu, model.layers, |gpu, l| {
            gpu.run(&layers[l * per_layer..][..per_layer])
        })
    });
    #[cfg(debug_assertions)]
    assert_full_run(start, schedule, &priced);
    priced
}

/// Debug builds' check of a layer-periodic result: running `schedule` whole
/// on `gpu` (the state pricing started from) must give the same expanded
/// timeline, and a total with the same bits.
#[cfg(debug_assertions)]
pub(crate) fn assert_full_run(
    mut gpu: Gpu,
    schedule: &[KernelDesc],
    priced: &Result<PeriodicTimeline, LaunchError>,
) {
    let reference = gpu
        .run(schedule)
        .map(|()| gpu.take_timeline())
        .map(|full| (full.total_time_s().to_bits(), full));
    let priced = (priced.clone()).map(|p| (p.total_time_s().to_bits(), p.into_timeline()));
    assert!(
        priced == reference,
        "layer-periodic pricing diverged from the full run of the schedule"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::LibraryProfile;
    use crate::schedule::{build_schedule, prefill_layer, sparse_layout, SoftmaxStrategy};
    use crate::session::validate_prefill;
    use resoftmax_gpusim::ParallelSplit;
    use resoftmax_kernels::costs::TileConfig;

    #[test]
    fn shift_layer_advances_canonical_prefixes_only() {
        for (id, next) in [
            ("l0.x", "l1.x"),
            ("l9.ff2.w", "l10.ff2.w"),
            ("l23.k_cache", "l24.k_cache"),
        ] {
            let shifted = BufferId::from(id).next_layer();
            assert_eq!(shifted, BufferId::from(next));
            assert_eq!(shifted.to_string(), next);
        }
        for unchanged in [
            "x",
            "ln1",
            "l.x",
            "l03.x",
            "lx.3",
            "l7",
            "enc0.x",
            "dec3.self.q",
        ] {
            let shifted = BufferId::from(unchanged).next_layer();
            assert_eq!(shifted, BufferId::from(unchanged));
            assert_eq!(shifted.to_string(), unchanged);
        }
    }

    /// A full-sequence schedule is the embedding kernel and then
    /// `model.layers` equal slices, each copied from the one before with
    /// every buffer id's layer advanced by one. The first, a middle and the
    /// last slice must be what the cost builders emit for that layer: the
    /// premise of `stack_layers` and of `price_schedule`'s shortcut, on
    /// every model, strategy and Fig. 7 library profile.
    #[test]
    fn prefill_layers_are_shifted_copies() {
        let mut models = ModelConfig::all_eval_models();
        models.push(ModelConfig::bert_base());
        models.push(ModelConfig::sparse_transformer());
        let strategies = [
            SoftmaxStrategy::Baseline,
            SoftmaxStrategy::Decomposed,
            SoftmaxStrategy::Recomposed,
            SoftmaxStrategy::RecomposedFp16,
            SoftmaxStrategy::OnlineFused,
        ];
        let mut checked = 0;
        for model in &models {
            for strategy in strategies {
                for profile in LibraryProfile::fig7_lineup() {
                    for ls_split in [None, Some(ParallelSplit::RowSegments)] {
                        let params = RunParams::new(512)
                            .strategy(strategy)
                            .tile(TileConfig::new(64, 16))
                            .profile(profile.clone())
                            .ls_split(ls_split);
                        // SDF16 has no block-sparse implementation.
                        if validate_prefill(model, &params).is_err() {
                            continue;
                        }
                        let schedule = build_schedule(model, &params);
                        let per_layer = (schedule.len() - 1) / model.layers;
                        assert_eq!(schedule.len(), 1 + model.layers * per_layer);
                        assert_eq!(schedule[0].name, "embedding");
                        let layout = sparse_layout(model, &params);
                        for l in [0, model.layers / 2, model.layers - 1] {
                            let mut built = Vec::new();
                            prefill_layer(model, &params, layout.as_ref(), l, &mut built);
                            assert_eq!(
                                schedule[1 + l * per_layer..][..per_layer],
                                built,
                                "{} {strategy:?} {} {ls_split:?} layer {l}",
                                model.name,
                                profile.name
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 200, "{checked} schedules checked");
    }
}
