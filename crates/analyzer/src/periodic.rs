//! Layer-periodic analysis: two layers decide the rest.
//!
//! A transformer schedule is a *prologue* (the embedding kernel of a
//! prefill, nothing for a decode iteration) and then one layer's kernels
//! `spec.layers` times over, each copy with every buffer id advanced one
//! layer ([`BufferId::next_layer`](resoftmax_gpusim::BufferId::next_layer):
//! `l3.q` → `l4.q`, other scopes unchanged), which a [`Schedule`] holds as
//! built. [`analyze_periodic`] takes that form and returns exactly the
//! [`Report`] [`analyze_certified`] gives on the expanded schedule
//! ([`Schedule::expand`]), while running the rule families over the
//! prologue and the first two layers only, under `layers: 2`. It returns
//! that two-layer report when five premises hold:
//!
//! 0. the schedule runs its layer `spec.layers` times;
//! 1. the prologue touches only non-layer and `l0` ids;
//! 2. the layer touches only non-layer, `l0` and `l1` ids;
//! 3. the prologue holds no SDA kernel (the sequence grammar's count is
//!    schedule-wide: `a + 2b = 2p` SDA kernels in two layers implies
//!    `a + Lb = Lp` in `L` only when the prologue's `a` is zero);
//! 4. the two-layer report has no diagnostic of any severity.
//!
//! Otherwise it expands the schedule and runs every rule family over every
//! kernel, as [`analyze_certified`] does. A schedule of no layers
//! ([`Schedule::from`] a flat sequence) always takes that path.
//!
//! Why the premises suffice, for `L > 2` layers. Under 1 and 2, buffer
//! `l{m}` with `1 ≤ m < L` sees the events of layer `m − 1` then layer `m`,
//! which are `l1`'s events in the two-layer slice, renamed; `l{L}` sees
//! only layer `L − 1`'s, which are `l2`'s, so the sink
//! `Scope::layer(spec.layers).id("x")` carries over; `l0` sees the same
//! events in both. A non-layer buffer sees the prologue's events and then
//! one per-layer pattern repeated, and the slice holds that pattern once
//! after the prologue and once after itself, so the events before its first
//! write, the events after its last write, every pair of adjacent events
//! (all that the def-use, dead-store and write-after-write rules read) and
//! every declared size occur in both. The per-kernel
//! rules — fusion tile widths, traffic formulas, parallel splits — see the
//! same kernels. The sequence grammar sees the same per-layer pattern, and
//! by premise 3 the same count per layer. The tile width a `Q·Kᵀ` carries
//! forward into the next Local Softmax is the prologue's at layer 0 and
//! the previous layer's after that, and layer 1 of the slice sees the
//! latter. The numerics pass sees the same worst format per role. So a
//! clean slice means a clean schedule with the same certified bound.

use crate::report::Report;
use crate::spec::ScheduleSpec;
use crate::{analyze_certified, fsm};
use resoftmax_gpusim::{KernelDesc, Schedule, Scope};

/// `true` when every buffer id of `kernels` is outside the layer scopes or
/// in layer `max` or below.
fn touches_layers_up_to(kernels: &[KernelDesc], max: u32) -> bool {
    kernels
        .iter()
        .flat_map(|k| k.reads.iter().chain(&k.writes))
        .all(|b| match b.id.scope() {
            Scope::Layer(l) => l <= max,
            _ => true,
        })
}

/// Analyzes `schedule` against `spec`: the same [`Report`] as
/// [`analyze_certified`] on [`Schedule::expand`], from the prologue and
/// two layers where the module's premises hold.
pub fn analyze_periodic(spec: &ScheduleSpec, schedule: &Schedule) -> Report {
    let (prologue, layer) = (schedule.prologue(), schedule.layer());
    if spec.layers > 2
        && schedule.layers() == spec.layers
        && touches_layers_up_to(prologue, 0)
        && touches_layers_up_to(layer, 1)
        && prologue.iter().all(|k| fsm::classify(k).is_none())
    {
        let two = ScheduleSpec {
            layers: 2,
            ..spec.clone()
        };
        let report = analyze_certified(&two, &schedule.expand_to(2));
        if report.diagnostics.is_empty() {
            return report;
        }
    }
    analyze_certified(spec, &schedule.expand())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::StrategyKind;
    use crate::{Rule, Severity};
    use resoftmax_gpusim::{AccumFormat, KernelCategory, KernelMeta, TbWork};

    /// BERT-large-like dimensions at L = 1024 over four layers, one fused
    /// online-softmax kernel per layer.
    fn spec() -> ScheduleSpec {
        ScheduleSpec {
            strategy: StrategyKind::OnlineFused,
            ..ScheduleSpec::dense_test(1024, 4)
        }
    }

    /// Bytes of one `L × D_m` FP16 activation.
    const ROW: u64 = 1024 * 1024 * 2;

    /// A glue kernel moving `read`/`write` bytes, with the buffer uses given.
    fn glue(reads: &[(&'static str, u64)], writes: &[(&'static str, u64)]) -> KernelDesc {
        let mut b = KernelDesc::builder("glue", KernelCategory::Other);
        let read: u64 = reads.iter().map(|r| r.1).sum();
        let write: u64 = writes.iter().map(|w| w.1).sum();
        b.uniform(1, TbWork::memory(read as f64, write as f64));
        for &(id, bytes) in reads {
            b.reads(id, bytes);
        }
        for &(id, bytes) in writes {
            b.writes(id, bytes);
        }
        b.build()
    }

    /// A fused online-softmax attention kernel whose traffic matches its
    /// formula under [`spec`].
    fn fused(reads: &[(&'static str, u64)], writes: &[(&'static str, u64)]) -> KernelDesc {
        let mut b = KernelDesc::builder("fused_mha", KernelCategory::FusedAttention);
        b.uniform(1, TbWork::memory(3.0 * ROW as f64, ROW as f64))
            .meta(KernelMeta {
                rows: Some(1024),
                kv_len: Some(1024),
                d_head: Some(64),
                instances: Some(16),
                tile_m: Some(64),
                accum: Some(AccumFormat::Fp32),
                ..KernelMeta::default()
            });
        for &(id, bytes) in reads {
            b.reads(id, bytes);
        }
        for &(id, bytes) in writes {
            b.writes(id, bytes);
        }
        b.build()
    }

    /// `prologue`, then `layer` run as many times as [`spec`] says.
    fn schedule(prologue: &[KernelDesc], layer: &[KernelDesc]) -> Schedule {
        Schedule::new(prologue.to_vec(), layer.to_vec(), spec().layers)
    }

    /// The expanded schedule's report: the reference every case compares
    /// against.
    fn full(schedule: &Schedule) -> Report {
        analyze_certified(&spec(), &schedule.expand())
    }

    fn has_shape_error(report: &Report) -> bool {
        report
            .diagnostics
            .iter()
            .any(|d| d.rule == Rule::DataflowShape && d.severity == Severity::Error)
    }

    #[test]
    fn clean_layers_analyze_from_two() {
        let prologue = [glue(&[], &[("l0.x", ROW)])];
        let layer = [fused(&[("l0.x", ROW), ("l0.w", 1024)], &[("l1.x", ROW)])];
        let schedule = schedule(&prologue, &layer);
        let report = analyze_periodic(&spec(), &schedule);
        assert!(report.diagnostics.is_empty(), "{}", report.render());
        assert!(report.error_bound.is_some());
        assert_eq!(report, full(&schedule));
    }

    /// Premise 1: a prologue use of `l3.w` meets layer 3's, at another
    /// size, only in the expanded schedule; the two-layer slice is clean.
    #[test]
    fn prologue_reaching_past_layer_0_falls_back() {
        let prologue = [glue(&[("l3.w", 2048)], &[("l0.x", ROW)])];
        let layer = [fused(&[("l0.x", ROW), ("l0.w", 1024)], &[("l1.x", ROW)])];
        let schedule = schedule(&prologue, &layer);
        let report = analyze_periodic(&spec(), &schedule);
        assert!(has_shape_error(&report), "{}", report.render());
        assert_eq!(report, full(&schedule));
    }

    /// Premise 2: layer `m`'s use of `l{m+2}.w` meets layer `m + 2`'s, at
    /// another size, only past the two-layer slice.
    #[test]
    fn layer_reaching_past_layer_1_falls_back() {
        let prologue = [glue(&[], &[("l0.x", ROW)])];
        let layer = [fused(
            &[("l0.x", ROW), ("l0.w", 1024), ("l2.w", 2048)],
            &[("l1.x", ROW)],
        )];
        let schedule = schedule(&prologue, &layer);
        let report = analyze_periodic(&spec(), &schedule);
        assert!(has_shape_error(&report), "{}", report.render());
        assert_eq!(report, full(&schedule));
    }

    /// Premise 3: two attention kernels in the prologue and none per layer
    /// fill the grammar's count for two layers, not for four.
    #[test]
    fn attention_in_the_prologue_falls_back() {
        let prologue = [
            glue(&[], &[("l0.x", ROW)]),
            fused(&[("l0.x", ROW)], &[("l0.y", ROW)]),
            fused(&[("l0.y", ROW)], &[("l0.x", ROW)]),
        ];
        let layer = [glue(&[("l0.x", ROW)], &[("l1.x", ROW)])];
        let schedule = schedule(&prologue, &layer);
        let report = analyze_periodic(&spec(), &schedule);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.rule == Rule::FusionSequence),
            "{}",
            report.render()
        );
        assert_eq!(report, full(&schedule));
    }

    /// Premise 0: the spec's layer count is the schedule's. Three layers
    /// checked against four miss an attention kernel and the `l4.x` sink,
    /// and a flat copy of the four (no layers, all prologue) is analyzed
    /// kernel by kernel; both give the every-kernel report.
    #[test]
    fn another_layer_count_falls_back() {
        let prologue = [glue(&[], &[("l0.x", ROW)])];
        let layer = [fused(&[("l0.x", ROW), ("l0.w", 1024)], &[("l1.x", ROW)])];
        let short = Schedule::new(prologue.to_vec(), layer.to_vec(), spec().layers - 1);
        let report = analyze_periodic(&spec(), &short);
        assert!(report.has_errors(), "{}", report.render());
        assert_eq!(report, full(&short));
        let flat = Schedule::from(schedule(&prologue, &layer).expand());
        let report = analyze_periodic(&spec(), &flat);
        assert!(report.diagnostics.is_empty(), "{}", report.render());
        assert_eq!(report, full(&flat));
    }

    /// Up to two layers the form is analyzed whole.
    #[test]
    fn short_stacks_analyze_whole() {
        let prologue = [glue(&[], &[("l0.x", ROW)])];
        let layer = [fused(&[("l0.x", ROW)], &[("l1.x", ROW)])];
        for layers in 0..=2 {
            let spec = ScheduleSpec { layers, ..spec() };
            let schedule = Schedule::new(prologue.to_vec(), layer.to_vec(), layers);
            let kernels = schedule.expand();
            assert_eq!(kernels.len(), 1 + layers);
            assert_eq!(
                analyze_periodic(&spec, &schedule),
                analyze_certified(&spec, &kernels),
                "{layers} layers"
            );
        }
    }
}
