//! The iteration-planner hook: how each engine iteration is priced.

use resoftmax_model::RunParams;

/// Chooses the run parameters used to price one fused engine iteration.
///
/// Every engine iteration is one batched GPU schedule mixing chunked-prefill
/// rows with single-token decode rows; `ctxs` lists the context length of
/// each row in that schedule. A planner may pick a different strategy, tile,
/// or split per iteration shape, or only observe the iterations it is asked
/// to plan (a recording planner that returns `base` unchanged).
///
/// Implementations must be deterministic in `ctxs` and `base` (the serving
/// report is asserted bit-identical across host thread counts).
pub trait IterationPlanner {
    /// Returns the parameters for pricing the iteration over `ctxs`. The
    /// returned configuration must be decode-legal (dense attention, not
    /// [`resoftmax_model::SoftmaxStrategy::OnlineFused`]).
    fn plan(&self, ctxs: &[usize], base: &RunParams) -> RunParams;
}

/// The pre-tuner behavior: every iteration is priced with the base
/// parameters unchanged.
pub struct BaselinePlanner;

impl IterationPlanner for BaselinePlanner {
    fn plan(&self, _ctxs: &[usize], base: &RunParams) -> RunParams {
        base.clone()
    }
}
