//! The serving crate's unified error type.

use std::fmt;

/// Everything that can go wrong when configuring or running a serving
/// simulation through the [`FleetBuilder`](crate::FleetBuilder) API.
///
/// Marked `#[non_exhaustive]`: future versions may add variants (match with
/// a wildcard arm).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// The fleet configuration is invalid (caught at
    /// [`FleetBuilder::build`](crate::FleetBuilder::build), before any
    /// simulation runs): no replicas, a bad workload range, an invalid
    /// device spec, a router/link parameter out of range, a disaggregated
    /// fleet with prefill replicas but zero decode-capable replicas (or no
    /// prefill-capable replica at all), scripted faults leaving a phase
    /// with no surviving replica, or a planner count that does not match
    /// the declared replica roles.
    Config {
        /// What is wrong and, where possible, what would fix it.
        reason: String,
    },
    /// A replica's KV pool cannot admit the workload: the model weights
    /// exceed the device memory, or the post-weights remainder cannot hold
    /// one worst-case request end-to-end (the head of the line could then
    /// stall forever).
    Admission {
        /// Which replica and which capacity is short.
        reason: String,
    },
    /// A schedule failed static analysis (fusion legality, buffer dataflow,
    /// traffic conservation, or the certified-numerics gate — see
    /// `resoftmax-analyzer`).
    Analysis {
        /// Number of error-severity diagnostics.
        errors: usize,
        /// The rendered diagnostic report.
        report: String,
    },
    /// A run stopped with requests outstanding: nothing was queued and no
    /// replica could step, the run exceeded `max_iterations` (the
    /// loop-termination backstop a stalling control plane can trip), or a
    /// replica's engine step broke a scheduler invariant (it had no
    /// runnable row, or its oldest request could not grow its KV cache).
    Stalled {
        /// Why: the completed/total request counts, or the replica id.
        reason: String,
    },
    /// The model layer rejected or failed a run: an invalid
    /// model/device/parameter combination, a failed analyzer gate, or a
    /// kernel that cannot launch on the simulated device.
    Model(resoftmax_model::Error),
}

/// Fails with `Error::Config { reason }` unless `ok`.
pub(crate) fn require(ok: bool, reason: impl FnOnce() -> String) -> Result<(), Error> {
    if ok {
        Ok(())
    } else {
        Err(Error::Config { reason: reason() })
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config { reason } => write!(f, "invalid fleet configuration: {reason}"),
            Error::Admission { reason } => write!(f, "KV admission infeasible: {reason}"),
            Error::Stalled { reason } => write!(f, "fleet stalled: {reason}"),
            Error::Analysis { errors, report } => write!(
                f,
                "schedule failed static analysis ({errors} errors):\n{report}"
            ),
            Error::Model(e) => write!(f, "model error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<resoftmax_model::Error> for Error {
    fn from(e: resoftmax_model::Error) -> Self {
        // Analyzer rejections keep their dedicated variant so callers can
        // distinguish "your schedule is illegal" from "your config is".
        if let resoftmax_model::Error::Analysis { errors, report } = e {
            Error::Analysis { errors, report }
        } else {
            Error::Model(e)
        }
    }
}

impl From<resoftmax_gpusim::LaunchError> for Error {
    fn from(e: resoftmax_gpusim::LaunchError) -> Self {
        Error::Model(resoftmax_model::Error::from(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = Error::Config {
            reason: "a fleet needs at least one replica".into(),
        };
        assert!(e.to_string().contains("at least one replica"));
        let e = Error::Admission {
            reason: "replica 2: weights exceed HBM".into(),
        };
        assert!(e.to_string().contains("replica 2"));
        let e = Error::Analysis {
            errors: 3,
            report: "E001 ...".into(),
        };
        assert!(e.to_string().contains("3 errors"));
    }

    #[test]
    fn model_errors_convert_and_chain() {
        let m = resoftmax_model::Error::InvalidConfig {
            reason: "batch must be nonzero".into(),
        };
        let e: Error = m.into();
        assert!(matches!(e, Error::Model(_)));
        assert!(std::error::Error::source(&e).is_some());
        assert!(e.to_string().contains("batch must be nonzero"));
    }

    #[test]
    fn model_analysis_errors_keep_the_analysis_variant() {
        let m = resoftmax_model::Error::Analysis {
            errors: 1,
            report: "E007 fusion".into(),
        };
        let e: Error = m.into();
        assert!(matches!(e, Error::Analysis { errors: 1, .. }));
    }
}
