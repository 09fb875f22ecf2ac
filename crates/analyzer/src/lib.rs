//! Static analysis of kernel schedules.
//!
//! A schedule produced by the model layer is a `Vec<KernelDesc>` — an opaque
//! list of launches whose work figures were derived from analytic formulas.
//! Nothing in the type system stops a generator bug (or a refactor of the
//! cost layer) from emitting a schedule whose kernels are individually
//! plausible but jointly wrong: a Local Softmax whose sub-vector length no
//! longer matches the MatMul tile that produced its input (§3.3 of the
//! paper makes that equality the fusion-legality condition), a `P·V` MatMul
//! reading probabilities nobody wrote, or declared DRAM traffic that drifted
//! from the formula its category implies.
//!
//! This crate checks those invariants *statically* — no simulation — in
//! five rule families:
//!
//! * **Fusion legality** ([`fusion`], [`fsm`]): the LS sub-vector length `T`
//!   must equal the `Q·Kᵀ` MatMul output-tile width; Global Scaling must be
//!   an elementwise prologue on the `P·V` LHS operand; and each layer's SDA
//!   kernel sequence must follow the category grammar of the configured
//!   [`StrategyKind`].
//! * **Buffer dataflow** ([`dataflow`]): def-use analysis over the named
//!   [`BufferUse`](resoftmax_gpusim::BufferUse) declarations — use before
//!   def, dead stores, write-after-write hazards, and footprint/shape
//!   mismatches against the sizes implied by `L`, `N_sv` and the FP16
//!   element width.
//! * **Traffic conservation** ([`traffic`]): every kernel's declared DRAM
//!   byte totals must match the analytic formula implied by its category and
//!   shape metadata (within tolerance), and per-buffer traffic attribution
//!   must not exceed the DRAM totals.
//! * **Parallel-split legality** ([`parallel`]): a kernel's declared
//!   [`ParallelSplit`](resoftmax_gpusim::ParallelSplit) must not cross the
//!   reduction axis its category implies, or results would depend on the
//!   degree of parallelism.
//! * **Numerics** ([`numerics`], [`error_model`]): abstract interpretation
//!   of the softmax kernel sequence — max-subtraction, `exp`, LS partial
//!   sums, IR rescaling, GS renormalization — into a certified worst-case
//!   error bound, parameterized by each kernel's declared accumulator
//!   format, the tile width `T`, and the context length. The bound must
//!   imply the equivalence harness's verify tolerance.
//!
//! The entry point is [`analyze`]; inputs are the schedule plus a
//! [`ScheduleSpec`] describing the run (dimensions, strategy, library
//! overhead factors, block-sparse layout). [`analyze_certified`] adds the
//! certified numeric bound. A transformer schedule repeats one layer with
//! its buffer ids advanced a layer per copy, and [`analyze_periodic`] takes
//! it in that form, a [`Schedule`](resoftmax_gpusim::Schedule): the
//! prologue, one layer and the layer count. It returns the report
//! [`analyze_certified`] gives on the expanded schedule, but where the
//! [`periodic`] module's premises hold it analyzes the first two layers
//! only. The model crate checks every schedule through that entry: a
//! debug-mode assertion on every build, `check_schedule`, the report of
//! `build_and_check_schedule`, and the tuner's gate on every candidate.
//! `cargo run -p resoftmax-bench -- analyze` sweeps the full evaluation
//! grid in CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataflow;
pub mod diagnostic;
pub mod error_model;
pub mod fsm;
pub mod fusion;
pub mod numerics;
pub mod parallel;
pub mod periodic;
pub mod report;
pub mod spec;
pub mod traffic;

pub use diagnostic::{Diagnostic, Rule, Severity};
pub use error_model::{ErrorBound, CERT_BUDGET_REL};
pub use periodic::analyze_periodic;
pub use report::Report;
pub use spec::{DecodeSpec, ScheduleSpec, SparseSpec, StrategyKind};

use resoftmax_gpusim::KernelDesc;

/// Runs all five rule families over a schedule.
///
/// Diagnostics are returned sorted by severity (errors first), then by
/// kernel index. An empty vector means the schedule passed every check.
pub fn analyze(spec: &ScheduleSpec, kernels: &[KernelDesc]) -> Vec<Diagnostic> {
    let _span = resoftmax_obs::span!("analyze", "analyzer");
    let mut diags = Vec::new();
    fsm::check(spec, kernels, &mut diags);
    fusion::check(spec, kernels, &mut diags);
    dataflow::check(spec, kernels, &mut diags);
    traffic::check(spec, kernels, &mut diags);
    parallel::check(kernels, &mut diags);
    numerics::check(spec, kernels, &mut diags);
    diags.sort_by_key(|d| {
        (
            std::cmp::Reverse(d.severity),
            d.kernel.unwrap_or(usize::MAX),
        )
    });
    diags
}

/// Runs [`analyze`] and attaches the certified numeric bound to the report:
/// the every-kernel pass, which [`analyze_periodic`] falls back to and
/// equals.
pub fn analyze_certified(spec: &ScheduleSpec, kernels: &[KernelDesc]) -> Report {
    let diags = analyze(spec, kernels);
    Report::new(diags).with_bound(numerics::certified_bound(spec, kernels))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_clean_except_sequence() {
        // An empty schedule trivially satisfies dataflow/traffic, but a spec
        // promising N layers of SDA kernels must flag the missing sequence.
        let spec = ScheduleSpec::dense_test(1024, 1);
        let diags = analyze(&spec, &[]);
        assert!(diags.iter().all(|d| d.rule == Rule::FusionSequence));
        assert!(diags.iter().any(|d| d.severity == Severity::Error));
    }
}
