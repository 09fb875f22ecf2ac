//! [`Session`] — the one way to simulate a [`ModelConfig`] — and the
//! legality rules every simulated run is held to.
//!
//! A session bundles a validated `(model, params, device)` triple.
//! [`Session::new`] applies the prefill rules ([`validate_prefill`]:
//! sequence length vs block size, tile divisibility, zero batch, the
//! certified numerics budget), the decode entry points apply the decode
//! rules ([`validate_decode`]), and every inference run routes its schedule
//! through the static analyzer before it reaches the simulator — so every
//! failure mode surfaces as a typed [`Error`] instead of a panic or a silent
//! bad schedule. The serving fleet and the tuner call the same two rule
//! functions, so each rule is written once.

use crate::config::{AttentionKind, ModelConfig};
use crate::decode::{build_batched_decode_schedule, check_decode_schedule, decode_error_bound};
use crate::engine::{simulate_schedule, RunReport};
use crate::error::Error;
use crate::schedule::{
    build_and_check_schedule, static_error_bound, uses_sparse_kernels, RunParams, SoftmaxStrategy,
};
use crate::training::build_training_schedule;
use resoftmax_analyzer::{ErrorBound, Report, Severity, CERT_BUDGET_REL};
use resoftmax_gpusim::{DeviceSpec, Schedule};

/// A validated, ready-to-run simulation of one model on one device.
///
/// ```
/// use resoftmax_model::{ModelConfig, RunParams, Session, SoftmaxStrategy};
/// use resoftmax_gpusim::DeviceSpec;
///
/// let params = RunParams::new(1024).strategy(SoftmaxStrategy::Recomposed);
/// let session = Session::new(&ModelConfig::bert_large(), &params, &DeviceSpec::a100())?;
/// let report = session.run()?;
/// assert!(report.total_time_s() > 0.0);
/// # Ok::<(), resoftmax_model::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    model: ModelConfig,
    device: DeviceSpec,
    params: RunParams,
}

fn invalid<T>(reason: String) -> Result<T, Error> {
    Err(Error::InvalidConfig { reason })
}

/// The architecture rule both phases share: `ModelConfig`'s fields are
/// public, and every builder divides by `heads` and sizes kernels by
/// `d_model` and `d_ff`.
fn validate_architecture(model: &ModelConfig) -> Result<(), Error> {
    let ModelConfig {
        layers,
        d_model,
        heads,
        d_ff,
        ..
    } = *model;
    if layers == 0 || d_model == 0 || heads == 0 || d_ff == 0 {
        return invalid(format!(
            "model '{}' needs nonzero layers, d_model, heads and d_ff \
             (got {layers}, {d_model}, {heads}, {d_ff})",
            model.name
        ));
    }
    if !d_model.is_multiple_of(heads) {
        return invalid(format!(
            "model '{}': heads {heads} must divide d_model {d_model}",
            model.name
        ));
    }
    Ok(())
}

/// The prefill legality rules: whether `(model, params)` can build and
/// certify a full-sequence schedule. [`Session::new`] applies them; the
/// serving fleet and the tuner call them directly.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for a zero layer count, hidden size, head count
/// or FeedForward size, a head count that does not divide the hidden size,
/// a zero batch or sequence length, a sequence length that is not a
/// multiple of a sparse model's block size, a zero tile height, a tile
/// width that does not divide the sequence length, SDF16 on block-sparse
/// kernels, or a certified error bound over the budget.
pub fn validate_prefill(model: &ModelConfig, params: &RunParams) -> Result<(), Error> {
    validate_architecture(model)?;
    if params.batch == 0 {
        return invalid("batch must be nonzero".to_owned());
    }
    if params.seq_len == 0 {
        return invalid("sequence length must be nonzero".to_owned());
    }
    if model.attention.is_sparse() {
        let block = model.attention.block_size();
        if !params.seq_len.is_multiple_of(block) {
            return invalid(format!(
                "sequence length {} must be a multiple of model '{}' block size {block}",
                params.seq_len, model.name
            ));
        }
    }
    if params.tile.m == 0 {
        return invalid("tile height must be nonzero".to_owned());
    }
    if params.tile.n == 0 || !params.seq_len.is_multiple_of(params.tile.n) {
        return invalid(format!(
            "tile width {} must divide sequence length {}",
            params.tile.n, params.seq_len
        ));
    }
    if params.strategy == SoftmaxStrategy::RecomposedFp16
        && uses_sparse_kernels(model, &params.profile)
    {
        return invalid(format!(
            "strategy SDF16 has no block-sparse implementation (no certified \
             bound exists for it); model '{}' needs a dense-fallback profile \
             or an fp32-accumulation strategy",
            model.name
        ));
    }
    // Checked statically — `build_schedule` debug-asserts its own analysis,
    // so an uncertifiable point must never reach the builder.
    certify(static_error_bound(model, params), params, "L=")
}

/// The decode legality rules: whether `(model, params)` can build and
/// certify one batched-decode iteration over the contexts `ctxs`.
/// [`Session::decode_batch`] applies them; the serving fleet (at its
/// workload's worst context) and the tuner call them directly.
///
/// # Errors
///
/// [`Error::InvalidConfig`] for the architectures [`validate_prefill`]
/// rejects, for the combinations the decode cost model does not cover
/// (sparse attention, the online-fused strategy, an empty batch, a zero
/// context, a zero tile width) and for a certified error bound over the
/// budget at the longest context. The bound is independent of the
/// session's sequence length: decode contexts are not bounded by it.
pub fn validate_decode(
    model: &ModelConfig,
    ctxs: &[usize],
    params: &RunParams,
) -> Result<(), Error> {
    validate_architecture(model)?;
    if !matches!(model.attention, AttentionKind::Dense { .. }) {
        return invalid(format!(
            "decode cost model covers dense attention only; model '{}' is sparse",
            model.name
        ));
    }
    if params.strategy == SoftmaxStrategy::OnlineFused {
        return invalid(
            "decode attention is a single row; online fusion is the GEMV itself".to_owned(),
        );
    }
    if ctxs.is_empty() {
        return invalid("decode batch must contain at least one row".to_owned());
    }
    if ctxs.contains(&0) {
        return invalid("decode context length must be nonzero".to_owned());
    }
    if params.tile.n == 0 {
        return invalid("tile width must be nonzero".to_owned());
    }
    // Applied statically, like the prefill gate: the decode builder
    // debug-asserts its own analysis.
    certify(decode_error_bound(ctxs, params), params, "decode context ")
}

/// The numerics gate: rejects a certified worst-case softmax error over the
/// budget the verify tolerances are derived from. `over` names the row the
/// bound was taken over; the bound's context length follows it.
pub(crate) fn certify(
    bound: Option<ErrorBound>,
    params: &RunParams,
    over: &str,
) -> Result<(), Error> {
    match bound {
        Some(bound) if !bound.certifies(CERT_BUDGET_REL) => invalid(format!(
            "strategy {} at T={} over {over}{} has certified relative error \
             bound {:.3e}, exceeding the {:.1e} budget; use a narrower tile \
             or an fp32-accumulation strategy",
            params.strategy.label(),
            params.tile.n,
            bound.ctx,
            bound.rel,
            CERT_BUDGET_REL,
        )),
        _ => Ok(()),
    }
}

/// Turns an analyzer report with errors into [`Error::Analysis`].
fn analyzer_gate(report: &Report) -> Result<(), Error> {
    if report.has_errors() {
        return Err(Error::Analysis {
            errors: report.count(Severity::Error),
            report: report.render(),
        });
    }
    Ok(())
}

impl Session {
    /// Validates `(model, params)` against the prefill rules
    /// ([`validate_prefill`]) and builds the session.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the combination cannot run; see
    /// [`validate_prefill`].
    pub fn new(
        model: &ModelConfig,
        params: &RunParams,
        device: &DeviceSpec,
    ) -> Result<Session, Error> {
        validate_prefill(model, params)?;
        Ok(Session {
            model: model.clone(),
            device: device.clone(),
            params: params.clone(),
        })
    }

    /// The model this session runs.
    pub fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The simulated device.
    pub fn device(&self) -> &DeviceSpec {
        &self.device
    }

    /// The run parameters.
    pub fn params(&self) -> &RunParams {
        &self.params
    }

    /// Simulates one full-sequence inference iteration.
    ///
    /// # Errors
    ///
    /// [`Error::Analysis`] if the built schedule fails static analysis,
    /// [`Error::Launch`] if a kernel cannot launch on the device.
    pub fn run(&self) -> Result<RunReport, Error> {
        let (schedule, report) = build_and_check_schedule(&self.model, &self.params);
        analyzer_gate(&report)?;
        self.simulate("Session::run", &schedule)
    }

    /// Simulates generating one token per sequence of the batch at context
    /// length `ctx` (KV cache already populated).
    ///
    /// # Errors
    ///
    /// As [`Session::decode_batch`].
    pub fn decode_step(&self, ctx: usize) -> Result<RunReport, Error> {
        self.decode_batch(&vec![ctx; self.params.batch])
    }

    /// Simulates one continuous-batching engine iteration: one token is
    /// generated per entry of `ctxs`, each row attending a KV cache of that
    /// (possibly different) length. `ctxs.len()` overrides the session batch
    /// size.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the decode rules reject the iteration
    /// (see [`validate_decode`]); [`Error::Analysis`] if the schedule fails
    /// static analysis; [`Error::Launch`] if a kernel cannot launch.
    pub fn decode_batch(&self, ctxs: &[usize]) -> Result<RunReport, Error> {
        validate_decode(&self.model, ctxs, &self.params)?;
        let schedule = build_batched_decode_schedule(&self.model, ctxs, &self.params);
        analyzer_gate(&check_decode_schedule(
            &self.model,
            ctxs,
            &self.params,
            &schedule,
        ))?;
        self.simulate("Session::decode_step", &schedule)
    }

    /// Simulates one training iteration: the forward pass plus the backward
    /// pass of [`build_training_schedule`] (§6).
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for the online-fused strategy (its backward
    /// would be a recompute-based FlashAttention backward, out of scope);
    /// [`Error::Launch`] if a kernel cannot launch.
    pub fn train(&self) -> Result<RunReport, Error> {
        if self.params.strategy == SoftmaxStrategy::OnlineFused {
            return invalid(
                "training covers the baseline, SD, SDF and SDF16 strategies; the \
                 online-fused backward is out of scope"
                    .to_owned(),
            );
        }
        let schedule = Schedule::from(build_training_schedule(&self.model, &self.params));
        self.simulate("Session::train", &schedule)
    }

    fn simulate(&self, kind: &'static str, schedule: &Schedule) -> Result<RunReport, Error> {
        Ok(simulate_schedule(
            kind,
            &self.model.name,
            &self.params,
            self.device.clone(),
            schedule,
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use resoftmax_kernels::costs::TileConfig;

    fn session(model: &ModelConfig, params: &RunParams) -> Result<Session, Error> {
        Session::new(model, params, &DeviceSpec::a100())
    }

    #[test]
    fn new_rejects_bad_combinations() {
        // Sequence length incompatible with BigBird's block size.
        let e = session(&ModelConfig::bigbird_large(), &RunParams::new(1000)).unwrap_err();
        assert!(e.to_string().contains("block size"), "{e}");

        // Tile width not dividing the sequence length.
        let mut p = RunParams::new(1024);
        p.tile.n = 192;
        let e = session(&ModelConfig::bert_large(), &p).unwrap_err();
        assert!(e.to_string().contains("tile width"), "{e}");

        // Zero batch.
        let p = RunParams::new(1024).batch(0);
        let e = session(&ModelConfig::bert_large(), &p).unwrap_err();
        assert!(e.to_string().contains("batch"), "{e}");

        // Zero tile height or width (the fields are public, so
        // `TileConfig::new`'s own check can be bypassed).
        for (m, n) in [(0, 64), (64, 0)] {
            let p = RunParams::new(512).tile(TileConfig { m, n });
            let e = session(&ModelConfig::bert_large(), &p).unwrap_err();
            assert!(matches!(e, Error::InvalidConfig { .. }), "{m}x{n}: {e}");
        }
    }

    /// GPT-Neo with each architecture rule broken once: a zero layer count,
    /// hidden size, head count or FeedForward size, and 3 heads over 2,048.
    fn malformed_models() -> Vec<ModelConfig> {
        let base = ModelConfig::gpt_neo_1_3b();
        vec![
            ModelConfig {
                layers: 0,
                ..base.clone()
            },
            ModelConfig {
                d_model: 0,
                ..base.clone()
            },
            ModelConfig {
                heads: 0,
                ..base.clone()
            },
            ModelConfig {
                d_ff: 0,
                ..base.clone()
            },
            ModelConfig { heads: 3, ..base },
        ]
    }

    #[test]
    fn new_rejects_malformed_architectures() {
        for model in malformed_models() {
            let e = session(&model, &RunParams::new(1024)).unwrap_err();
            assert!(matches!(e, Error::InvalidConfig { .. }), "{model:?}: {e}");
        }
    }

    #[test]
    fn decode_rules_reject_malformed_architectures() {
        let mut gpu = resoftmax_gpusim::Gpu::new(DeviceSpec::a100());
        let params = RunParams::new(1024);
        for model in malformed_models() {
            let e = validate_decode(&model, &[1024], &params).unwrap_err();
            assert!(matches!(e, Error::InvalidConfig { .. }), "{model:?}: {e}");
            let e = crate::price_batched_decode(&mut gpu, &model, &[1024], &params).unwrap_err();
            assert!(matches!(e, Error::InvalidConfig { .. }), "{model:?}: {e}");
        }
    }

    #[test]
    fn decode_rejects_unsupported_combinations() {
        let sparse = session(&ModelConfig::bigbird_large(), &RunParams::new(1024)).unwrap();
        assert!(matches!(
            sparse.decode_step(1024),
            Err(Error::InvalidConfig { .. })
        ));

        let online = RunParams::new(1024).strategy(SoftmaxStrategy::OnlineFused);
        let online = session(&ModelConfig::gpt_neo_1_3b(), &online).unwrap();
        assert!(matches!(
            online.decode_step(1024),
            Err(Error::InvalidConfig { .. })
        ));

        let dense = session(&ModelConfig::gpt_neo_1_3b(), &RunParams::new(1024)).unwrap();
        assert!(dense.decode_step(1024).is_ok());
        assert!(matches!(
            dense.decode_step(0),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            dense.decode_batch(&[]),
            Err(Error::InvalidConfig { .. })
        ));
        assert!(matches!(
            dense.decode_batch(&[512, 0]),
            Err(Error::InvalidConfig { .. })
        ));

        // Zero tile width, which no session could carry (the prefill rules
        // reject it), through the decode rules and the decode pricer.
        let zero_width = RunParams::new(512)
            .strategy(SoftmaxStrategy::Recomposed)
            .tile(TileConfig { m: 64, n: 0 });
        let model = ModelConfig::gpt_neo_1_3b();
        let e = validate_decode(&model, &[512], &zero_width).unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }), "{e}");
        let mut gpu = resoftmax_gpusim::Gpu::new(DeviceSpec::a100());
        let e = crate::price_batched_decode(&mut gpu, &model, &[512], &zero_width).unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }), "{e}");
    }

    #[test]
    fn training_rejects_online_fusion() {
        let online = RunParams::new(1024).strategy(SoftmaxStrategy::OnlineFused);
        let e = session(&ModelConfig::bert_large(), &online)
            .unwrap()
            .train()
            .unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }), "{e}");
        assert!(e.to_string().contains("out of scope"), "{e}");
    }

    #[test]
    fn fp16_recomposition_gated_by_certified_bound() {
        // Uncertifiable at the default 64-wide tile: typed rejection.
        let wide = RunParams::new(4096).strategy(SoftmaxStrategy::RecomposedFp16);
        let e = session(&ModelConfig::bert_large(), &wide).unwrap_err();
        assert!(e.to_string().contains("certified"), "{e}");

        // Certifiable at T=16: builds and runs.
        let narrow = wide.tile(TileConfig::new(64, 16));
        let s = session(&ModelConfig::bert_large(), &narrow).unwrap();
        assert!(s.run().unwrap().total_time_s() > 0.0);

        // No block-sparse implementation exists: typed rejection, not the
        // builder's panic.
        let e = session(&ModelConfig::bigbird_large(), &narrow).unwrap_err();
        assert!(e.to_string().contains("block-sparse"), "{e}");
    }

    #[test]
    fn decode_numerics_gate_is_independent_of_session_length() {
        // T=32 certifies at the session's own length (bound ~1.90e-2)...
        let params = RunParams::new(1024)
            .tile(TileConfig::new(64, 32))
            .strategy(SoftmaxStrategy::RecomposedFp16);
        let s = session(&ModelConfig::gpt_neo_1_3b(), &params).unwrap();
        assert!(s.decode_batch(&[1024]).is_ok());
        // ...but a decode context long enough to push the inter-reduction
        // term over budget is rejected before any schedule is built.
        let e = s.decode_batch(&[1 << 24]).unwrap_err();
        assert!(matches!(e, Error::InvalidConfig { .. }));
        assert!(e.to_string().contains("certified"), "{e}");
    }

    #[test]
    fn decode_batch_accepts_heterogeneous_contexts() {
        let s = session(&ModelConfig::gpt_neo_1_3b(), &RunParams::new(1024)).unwrap();
        let r = s.decode_batch(&[260, 1000, 4096]).unwrap();
        assert!(r.total_time_s() > 0.0);
    }
}
