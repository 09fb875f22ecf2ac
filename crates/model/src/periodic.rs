//! Layer-periodic construction, analysis and pricing: a transformer
//! schedule is a prologue (a prefill's embedding kernel) and then one
//! layer's kernels `model.layers` times over, each copy with every buffer
//! id's layer advanced by one
//! ([`BufferId::next_layer`](resoftmax_gpusim::BufferId::next_layer)). One
//! renaming builds, checks and prices.
//!
//! A builder emits its prologue and layer 0, a [`PeriodicSchedule`]. The
//! analyzer checks that form from its first two layers
//! ([`resoftmax_analyzer::analyze_periodic`]); the flat check functions
//! recognize a flat schedule of that form first ([`analyze_flat`], through
//! [`periodic_layer`], the rule [`Gpu::run`] also recognizes it by).
//! [`stack_layers`] expands the form into the flat schedule, each later
//! layer a copy of the one before with its ids advanced.
//! [`Gpu::run_layers`] prices it: once the L2 state repeats under the
//! renaming, every later layer prices exactly like the last one simulated.
//! A fleet step ([`price_batched_decode`](crate::price_batched_decode)) and
//! a tuner candidate ([`price_schedule`]) both price the form, layer 0
//! advanced in place for each later layer, and get a [`PeriodicTimeline`],
//! whose total is read without expanding the repeated layers.

use crate::config::ModelConfig;
use crate::schedule::RunParams;
use resoftmax_analyzer::periodic::append_layers;
use resoftmax_analyzer::{analyze_certified, analyze_periodic, Report, ScheduleSpec};
use resoftmax_gpusim::{periodic_layer, Gpu, KernelDesc, KernelStats, LaunchError, Timeline};

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

/// A schedule in layer-periodic form: its prologue, then layer 0, which
/// runs `model.layers` times, each copy with every buffer id's layer
/// advanced by one. [`Self::expand`] gives the flat schedule it stands for.
#[derive(Debug, Clone, PartialEq)]
pub struct PeriodicSchedule {
    /// The prologue, then layer 0.
    kernels: Vec<KernelDesc>,
    prologue: usize,
    layers: usize,
}

impl PeriodicSchedule {
    /// `prologue`, then layer 0 as `emit` pushes it (nothing when `layers`
    /// is 0).
    pub(crate) fn build(
        prologue: Vec<KernelDesc>,
        layers: usize,
        emit: impl FnOnce(&mut Vec<KernelDesc>),
    ) -> Self {
        let mut kernels = prologue;
        let prologue = kernels.len();
        if layers > 0 {
            emit(&mut kernels);
        }
        PeriodicSchedule {
            kernels,
            prologue,
            layers,
        }
    }

    /// The kernels before the first layer: a prefill's embedding kernel,
    /// nothing for a decode iteration.
    pub fn prologue(&self) -> &[KernelDesc] {
        &self.kernels[..self.prologue]
    }

    /// Layer 0's kernels.
    pub fn layer(&self) -> &[KernelDesc] {
        &self.kernels[self.prologue..]
    }

    /// Analyzes the schedule against `spec` ([`analyze_periodic`]): the
    /// report [`analyze_certified`] gives on the expanded schedule.
    pub(crate) fn analyze(&self, spec: &ScheduleSpec) -> Report {
        analyze_periodic(spec, self.prologue(), self.layer())
    }

    /// The flat schedule: the prologue, layer 0, and each later layer a
    /// copy of the one before with every id's layer advanced.
    pub fn expand(mut self) -> Vec<KernelDesc> {
        let per_layer = self.kernels.len() - self.prologue;
        append_layers(&mut self.kernels, per_layer, self.layers);
        self.kernels
    }

    /// Runs the prologue on `gpu`, then prices the layers through
    /// [`Gpu::run_layers`], which advances layer 0's ids in place before
    /// each later launch, and drains the timeline (flushing L2, as
    /// [`Gpu::take_timeline`] does). Nothing is copied. Whatever `gpu` ran
    /// before heads the timeline.
    pub(crate) fn price(mut self, gpu: &mut Gpu) -> Result<PeriodicTimeline, LaunchError> {
        let (prologue, layer) = self.kernels.split_at_mut(self.prologue);
        if !prologue.is_empty() {
            gpu.run(prologue)?;
        }
        let repeats = gpu.run_layers(layer, self.layers)?;
        Ok(PeriodicTimeline {
            simulated: gpu.take_timeline(),
            period: layer.len(),
            repeats,
        })
    }
}

/// The flat schedule of `schedule`, whose layer is layer 0 as `emit(0, …)`
/// pushes it ([`PeriodicSchedule::expand`]). That is what emitting every
/// layer gives, because a builder's layer `l + 1` is its layer `l` renamed:
/// its ids are all in scope `l{l}` (the closing LayerNorm writes
/// `l{l+1}.x`) and nothing else in a kernel depends on the layer index.
/// Debug builds emit every layer and assert that it equals its copy.
#[cfg_attr(not(debug_assertions), allow(unused_variables))]
pub(crate) fn stack_layers(
    schedule: PeriodicSchedule,
    emit: impl Fn(usize, &mut Vec<KernelDesc>),
) -> Vec<KernelDesc> {
    #[cfg(debug_assertions)]
    let (start, per_layer) = (schedule.prologue, schedule.layer().len());
    let kernels = schedule.expand();
    #[cfg(debug_assertions)]
    for (l, copy) in kernels[start..].chunks(per_layer.max(1)).enumerate() {
        let mut built = Vec::with_capacity(per_layer);
        emit(l, &mut built);
        assert!(
            built == copy,
            "layer {l} copied from layer 0 differs from the layer its builder emits"
        );
    }
    kernels
}

/// Analyzes a flat schedule against `spec`: through [`analyze_periodic`]
/// from its first `prologue` kernels and layer 0 when it has that form
/// (`spec.layers` layers, each its predecessor renamed), else with
/// [`analyze_certified`] over every kernel. The report is the same either
/// way.
pub(crate) fn analyze_flat(spec: &ScheduleSpec, kernels: &[KernelDesc], prologue: usize) -> Report {
    match periodic_layer(kernels, prologue, spec.layers) {
        Some(layer) => analyze_periodic(spec, &kernels[..prologue], layer),
        None => analyze_certified(spec, kernels),
    }
}

/// Prices a schedule in layer-periodic form on `gpu`, as a precheck built
/// it from `(model, ctxs, params)`: the prefill schedule of
/// [`build_and_check_periodic`](crate::build_and_check_periodic) when
/// `ctxs` is `None`, the batched-decode schedule of
/// [`build_and_check_periodic_decode`](crate::build_and_check_periodic_decode)
/// when it is `Some`. The result equals running the expanded schedule on
/// `gpu` and calling [`Gpu::take_timeline`], every `f64` bit for bit, but
/// the prologue runs, then layer 0, then layer 0 with its ids advanced in
/// place, and so on, only until the L2 state repeats under the layer
/// renaming, as in [`price_batched_decode`](crate::price_batched_decode).
///
/// Debug builds assert the result against a full run of the builder's
/// flat output (`build_schedule` or `build_batched_decode_schedule` on the
/// same inputs) on a clone of `gpu`.
///
/// # Errors
///
/// Returns [`LaunchError`] if a kernel cannot launch, as the full run
/// would.
// Only the debug check rebuilds the schedule, so only it reads the inputs.
#[cfg_attr(not(debug_assertions), allow(unused_variables))]
pub fn price_schedule(
    gpu: &mut Gpu,
    model: &ModelConfig,
    ctxs: Option<&[usize]>,
    params: &RunParams,
    schedule: PeriodicSchedule,
) -> Result<PeriodicTimeline, LaunchError> {
    #[cfg(debug_assertions)]
    let start = gpu.clone();
    let priced = schedule.price(gpu);
    #[cfg(debug_assertions)]
    assert_full_run(
        start,
        &match ctxs {
            Some(ctxs) => crate::decode::build_batched_decode_schedule(model, ctxs, params),
            None => crate::schedule::build_schedule(model, params),
        },
        &priced,
    );
    priced
}

/// Debug builds' check of a layer-periodic result: launching every kernel
/// of `schedule` on `gpu` (the state pricing started from) must give the
/// same expanded timeline, and a total with the same bits.
#[cfg(debug_assertions)]
pub(crate) fn assert_full_run(
    mut gpu: Gpu,
    schedule: &[KernelDesc],
    priced: &Result<PeriodicTimeline, LaunchError>,
) {
    let reference = schedule
        .iter()
        .try_for_each(|k| gpu.launch(k).map(drop))
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
    use resoftmax_gpusim::{BufferId, ParallelSplit};
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
