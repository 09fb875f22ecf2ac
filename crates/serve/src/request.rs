//! Workload description: request arrivals and scheduler configuration.

use crate::error::{require, Error};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Admission-order policy for the waiting queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// First-come, first-served (arrival order).
    Fifo,
    /// Shortest remaining work first (prefill + decode tokens still owed);
    /// ties break on arrival order, so the schedule stays deterministic.
    ShortestRemaining,
    /// Prefill-priority with preemption: requests still owing prefill work
    /// are admitted first, and when the batch is full a ready prefill-owing
    /// waiter may *preempt* the running decode request with the most decode
    /// tokens still owed (never the oldest). A preempted request keeps its
    /// KV blocks resident, so re-admission allocates nothing and decode
    /// resumes where it stopped — distinct from eviction, which drops the
    /// cache. Built for prefill-heavy bursts, where TTFT of the queueing
    /// prompts matters more than the TBT of long decodes.
    PreemptivePriority,
}

impl Policy {
    /// Stable lowercase name, used in report rows and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Policy::Fifo => "fifo",
            Policy::ShortestRemaining => "shortest-remaining",
            Policy::PreemptivePriority => "preemptive-priority",
        }
    }
}

/// One request: arrival time plus prompt/decode token counts.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Arrival {
    /// Simulated arrival time in seconds.
    pub at_s: f64,
    /// Prompt tokens to prefill before the first output token.
    pub prompt: usize,
    /// Output tokens to generate.
    pub decode: usize,
}

/// Serving-simulation configuration (workload + scheduler + pool).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeConfig {
    /// RNG seed for the arrival process.
    pub seed: u64,
    /// Number of requests in the trace.
    pub requests: usize,
    /// Poisson arrival rate (requests per simulated second).
    pub arrival_rate_hz: f64,
    /// Inclusive range of prompt lengths, sampled uniformly.
    pub prompt_tokens: (usize, usize),
    /// Inclusive range of output lengths, sampled uniformly.
    pub decode_tokens: (usize, usize),
    /// Maximum requests resident in one engine iteration.
    pub max_batch: usize,
    /// Prefill chunk size in tokens (chunked prefill à la Sarathi/vLLM:
    /// long prompts are spread over iterations so decode rows keep flowing).
    pub prefill_chunk: usize,
    /// Waiting-queue order.
    pub policy: Policy,
    /// KV pool capacity override in bytes. `None` sizes the pool from the
    /// device HBM minus the model weights; tests and benches set a small
    /// value to exercise admission control and eviction.
    pub kv_capacity_bytes: Option<u64>,
    /// Tokens per KV block.
    pub kv_block_tokens: usize,
    /// Number of distinct sessions the requests belong to; request `i` is
    /// assigned session `i % sessions`. The session id is the
    /// cache-affinity routing key. `0` (the default) gives every request its
    /// own session.
    pub sessions: usize,
    /// Safety bound on engine iterations (a scheduling bug would otherwise
    /// spin forever on the simulated clock).
    pub max_iterations: usize,
}

impl ServeConfig {
    /// Workload sanity checks — everything [`poisson_arrivals`] would reject,
    /// plus the metric-shape requirements. `FleetBuilder::build` calls
    /// this and wraps the message in `Error::Config`.
    ///
    /// # Errors
    ///
    /// A human-readable reason when any field is degenerate (zero requests,
    /// non-positive rate, empty token ranges, zero batch/chunk/block sizes).
    pub fn validate(&self) -> Result<(), String> {
        if self.requests == 0 {
            return Err("workload must submit at least one request".to_owned());
        }
        if !(self.arrival_rate_hz > 0.0 && self.arrival_rate_hz.is_finite()) {
            return Err(format!(
                "arrival rate must be positive and finite, got {}",
                self.arrival_rate_hz
            ));
        }
        if self.prompt_tokens.0 == 0 || self.prompt_tokens.0 > self.prompt_tokens.1 {
            return Err(format!(
                "prompt token range {:?} must be nonempty with a nonzero lower bound",
                self.prompt_tokens
            ));
        }
        if self.decode_tokens.0 < 2 || self.decode_tokens.0 > self.decode_tokens.1 {
            return Err(format!(
                "decode token range {:?} must be nonempty with a lower bound of at \
                 least 2 (the first token is the TTFT sample; TBT needs a second)",
                self.decode_tokens
            ));
        }
        if self.max_batch == 0 {
            return Err("max_batch must be nonzero".to_owned());
        }
        if self.prefill_chunk == 0 {
            return Err("prefill_chunk must be nonzero".to_owned());
        }
        if self.kv_block_tokens == 0 {
            return Err("kv_block_tokens must be nonzero".to_owned());
        }
        Ok(())
    }
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            seed: 0xC0FFEE,
            requests: 64,
            arrival_rate_hz: 32.0,
            prompt_tokens: (128, 768),
            decode_tokens: (16, 128),
            max_batch: 8,
            prefill_chunk: 256,
            policy: Policy::Fifo,
            kv_capacity_bytes: None,
            kv_block_tokens: 16,
            sessions: 0,
            max_iterations: 100_000,
        }
    }
}

/// Checks the token ranges both samplers draw from: nonempty, with
/// nonzero lower bounds.
fn check_token_ranges(cfg: &ServeConfig) -> Result<(), Error> {
    let ((p_lo, p_hi), (d_lo, d_hi)) = (cfg.prompt_tokens, cfg.decode_tokens);
    require(p_lo > 0 && p_lo <= p_hi, || {
        format!("bad prompt range {p_lo}..={p_hi}")
    })?;
    require(d_lo > 0 && d_lo <= d_hi, || {
        format!("bad decode range {d_lo}..={d_hi}")
    })
}

/// Samples the request trace: exponential inter-arrival gaps at
/// `arrival_rate_hz`, uniform prompt/decode lengths. Deterministic in
/// `cfg.seed`.
///
/// # Errors
///
/// Returns [`Error::Config`] on degenerate configs (zero requests,
/// non-positive rate, empty or zero token ranges).
pub fn poisson_arrivals(cfg: &ServeConfig) -> Result<Vec<Arrival>, Error> {
    require(cfg.requests > 0, || {
        "trace needs at least one request".to_owned()
    })?;
    require(cfg.arrival_rate_hz > 0.0, || {
        format!("arrival rate must be positive, got {}", cfg.arrival_rate_hz)
    })?;
    check_token_ranges(cfg)?;
    let ((p_lo, p_hi), (d_lo, d_hi)) = (cfg.prompt_tokens, cfg.decode_tokens);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut now = 0.0f64;
    Ok((0..cfg.requests)
        .map(|_| {
            // Inverse-CDF exponential gap; 1-u keeps the log argument in (0, 1].
            let u: f64 = rng.gen_range(0.0..1.0);
            now += -(1.0 - u).ln() / cfg.arrival_rate_hz;
            Arrival {
                at_s: now,
                prompt: rng.gen_range(p_lo..p_hi + 1),
                decode: rng.gen_range(d_lo..d_hi + 1),
            }
        })
        .collect())
}

/// Samples a *phase-shifting* request trace: a piecewise-constant-rate
/// Poisson process whose rate follows `phases` — a repeating cycle of
/// `(duration_s, rate_hz)` segments — with prompt/decode lengths sampled
/// uniformly from `cfg`'s ranges. This is the workload shape the adaptive
/// control plane is built for: square-wave bursts, diurnal ramps, and
/// overload spikes are all cycles of constant-rate segments.
///
/// The inter-arrival sampling is exact, not approximate: each gap draws one
/// unit-rate exponential and *consumes* it across phase boundaries (a
/// segment at rate `r` lasting `dt` seconds consumes `r · dt` of the
/// exponential), so the instantaneous rate within every segment is exactly
/// that segment's `rate_hz`. Deterministic in `cfg.seed`.
///
/// # Errors
///
/// Returns [`Error::Config`] on degenerate configs (zero requests, empty or
/// zero token ranges, empty `phases`, non-positive durations or rates).
pub fn phased_arrivals(cfg: &ServeConfig, phases: &[(f64, f64)]) -> Result<Vec<Arrival>, Error> {
    require(cfg.requests > 0, || {
        "trace needs at least one request".to_owned()
    })?;
    require(!phases.is_empty(), || {
        "phase schedule needs at least one phase".to_owned()
    })?;
    for &(dur_s, rate_hz) in phases {
        require(dur_s > 0.0 && dur_s.is_finite(), || {
            format!("phase duration must be positive and finite, got {dur_s}")
        })?;
        require(rate_hz > 0.0 && rate_hz.is_finite(), || {
            format!("phase rate must be positive and finite, got {rate_hz}")
        })?;
    }
    check_token_ranges(cfg)?;
    let ((p_lo, p_hi), (d_lo, d_hi)) = (cfg.prompt_tokens, cfg.decode_tokens);
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
    let mut now = 0.0f64;
    let mut phase = 0usize;
    // Simulated time already elapsed inside the current phase.
    let mut into_phase = 0.0f64;
    Ok((0..cfg.requests)
        .map(|_| {
            let u: f64 = rng.gen_range(0.0..1.0);
            // One unit-rate exponential, consumed across phase boundaries.
            let mut e = -(1.0 - u).ln();
            loop {
                let (dur_s, rate_hz) = phases[phase];
                let left_s = dur_s - into_phase;
                let need_s = e / rate_hz;
                if need_s <= left_s {
                    now += need_s;
                    into_phase += need_s;
                    break;
                }
                e -= left_s * rate_hz;
                now += left_s;
                into_phase = 0.0;
                phase = (phase + 1) % phases.len();
            }
            Arrival {
                at_s: now,
                prompt: rng.gen_range(p_lo..p_hi + 1),
                decode: rng.gen_range(d_lo..d_hi + 1),
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrivals_are_deterministic_and_ordered() {
        let cfg = ServeConfig::default();
        let a = poisson_arrivals(&cfg).unwrap();
        let b = poisson_arrivals(&cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), cfg.requests);
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        assert!(a.iter().all(|r| {
            (cfg.prompt_tokens.0..=cfg.prompt_tokens.1).contains(&r.prompt)
                && (cfg.decode_tokens.0..=cfg.decode_tokens.1).contains(&r.decode)
        }));
        // Mean gap should be in the ballpark of 1/rate (loose 3x bounds).
        let mean_gap = a.last().unwrap().at_s / a.len() as f64;
        let expect = 1.0 / cfg.arrival_rate_hz;
        assert!(
            (expect / 3.0..expect * 3.0).contains(&mean_gap),
            "mean gap {mean_gap}"
        );
    }

    #[test]
    fn validate_rejects_degenerate_configs() {
        assert!(ServeConfig::default().validate().is_ok());
        let bad = |f: fn(&mut ServeConfig)| {
            let mut c = ServeConfig::default();
            f(&mut c);
            c.validate().unwrap_err()
        };
        assert!(bad(|c| c.requests = 0).contains("at least one request"));
        assert!(bad(|c| c.arrival_rate_hz = 0.0).contains("positive"));
        assert!(bad(|c| c.arrival_rate_hz = f64::INFINITY).contains("finite"));
        assert!(bad(|c| c.prompt_tokens = (0, 4)).contains("prompt"));
        assert!(bad(|c| c.decode_tokens = (1, 4)).contains("TTFT"));
        assert!(bad(|c| c.max_batch = 0).contains("max_batch"));
        assert!(bad(|c| c.prefill_chunk = 0).contains("prefill_chunk"));
        assert!(bad(|c| c.kv_block_tokens = 0).contains("kv_block_tokens"));
    }

    #[test]
    fn phased_arrivals_follow_the_phase_rates() {
        let cfg = ServeConfig {
            requests: 4000,
            ..ServeConfig::default()
        };
        // Square wave: 10 s at 4 Hz, 10 s at 40 Hz, repeating.
        let phases = [(10.0, 4.0), (10.0, 40.0)];
        let a = phased_arrivals(&cfg, &phases).unwrap();
        assert_eq!(a, phased_arrivals(&cfg, &phases).unwrap());
        assert!(a.windows(2).all(|w| w[0].at_s <= w[1].at_s));
        // Count arrivals inside low vs high segments of the first full
        // cycles; rates should be ~10x apart (loose bounds, it is random).
        let (mut low, mut high) = (0usize, 0usize);
        for r in &a {
            let cycle_pos = r.at_s % 20.0;
            if cycle_pos < 10.0 {
                low += 1;
            } else {
                high += 1;
            }
        }
        assert!(
            high > low * 4,
            "high-rate phases must dominate: {high} vs {low}"
        );
        // Mean overall rate is (4 + 40) / 2 = 22 Hz over whole cycles.
        let mean_rate = a.len() as f64 / a.last().unwrap().at_s;
        assert!(
            (10.0..40.0).contains(&mean_rate),
            "mean rate {mean_rate} should sit between the phase rates"
        );
    }

    #[test]
    fn phased_arrivals_single_phase_matches_poisson() {
        // One phase at the config's rate is exactly the homogeneous process:
        // same RNG consumption order, so the traces are bit-identical.
        let cfg = ServeConfig {
            requests: 256,
            ..ServeConfig::default()
        };
        let homogeneous = poisson_arrivals(&cfg).unwrap();
        let phased = phased_arrivals(&cfg, &[(f64::MAX, cfg.arrival_rate_hz)]).unwrap();
        assert_eq!(homogeneous, phased);
    }

    #[test]
    fn different_seeds_differ() {
        let a = poisson_arrivals(&ServeConfig::default()).unwrap();
        let b = poisson_arrivals(&ServeConfig {
            seed: 1,
            ..ServeConfig::default()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    /// The default config with one field changed by `f`.
    fn broken(f: fn(&mut ServeConfig)) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        f(&mut cfg);
        cfg
    }

    /// The reason of the `Error::Config` a sampler returned.
    fn config_reason(trace: Result<Vec<Arrival>, Error>) -> String {
        match trace {
            Err(Error::Config { reason }) => reason,
            other => panic!("expected Error::Config, got {other:?}"),
        }
    }

    const PHASES: [(f64, f64); 2] = [(1.0, 4.0), (2.0, 40.0)];

    #[test]
    fn poisson_rejects_zero_requests() {
        let trace = poisson_arrivals(&broken(|c| c.requests = 0));
        assert_eq!(config_reason(trace), "trace needs at least one request");
    }

    #[test]
    fn poisson_rejects_non_positive_rate() {
        let trace = poisson_arrivals(&broken(|c| c.arrival_rate_hz = 0.0));
        assert_eq!(config_reason(trace), "arrival rate must be positive, got 0");
    }

    #[test]
    fn poisson_rejects_empty_prompt_range() {
        let trace = poisson_arrivals(&broken(|c| c.prompt_tokens = (8, 4)));
        assert_eq!(config_reason(trace), "bad prompt range 8..=4");
    }

    #[test]
    fn poisson_rejects_zero_decode_lower_bound() {
        let trace = poisson_arrivals(&broken(|c| c.decode_tokens = (0, 4)));
        assert_eq!(config_reason(trace), "bad decode range 0..=4");
    }

    #[test]
    fn phased_rejects_zero_requests() {
        let trace = phased_arrivals(&broken(|c| c.requests = 0), &PHASES);
        assert_eq!(config_reason(trace), "trace needs at least one request");
    }

    #[test]
    fn phased_rejects_an_empty_phase_schedule() {
        let trace = phased_arrivals(&ServeConfig::default(), &[]);
        assert_eq!(
            config_reason(trace),
            "phase schedule needs at least one phase"
        );
    }

    #[test]
    fn phased_rejects_a_non_positive_duration() {
        let trace = phased_arrivals(&ServeConfig::default(), &[(1.0, 4.0), (0.0, 40.0)]);
        assert_eq!(
            config_reason(trace),
            "phase duration must be positive and finite, got 0"
        );
    }

    #[test]
    fn phased_rejects_a_non_finite_rate() {
        let trace = phased_arrivals(&ServeConfig::default(), &[(1.0, f64::INFINITY)]);
        assert_eq!(
            config_reason(trace),
            "phase rate must be positive and finite, got inf"
        );
    }

    #[test]
    fn phased_rejects_empty_prompt_range() {
        let trace = phased_arrivals(&broken(|c| c.prompt_tokens = (0, 4)), &PHASES);
        assert_eq!(config_reason(trace), "bad prompt range 0..=4");
    }

    #[test]
    fn phased_rejects_empty_decode_range() {
        let trace = phased_arrivals(&broken(|c| c.decode_tokens = (9, 3)), &PHASES);
        assert_eq!(config_reason(trace), "bad decode range 9..=3");
    }
}
