//! Latency/throughput aggregation for serving runs.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::control::ControlRecord;

/// Nearest-rank percentiles over a latency sample (seconds).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Percentiles {
    /// Sample count.
    pub n: usize,
    /// Arithmetic mean.
    pub mean_s: f64,
    /// 50th percentile (nearest rank).
    pub p50_s: f64,
    /// 90th percentile (nearest rank).
    pub p90_s: f64,
    /// 99th percentile (nearest rank).
    pub p99_s: f64,
    /// Maximum.
    pub max_s: f64,
}

/// Zero-based index of the nearest-rank `percent`-ile over a sorted sample
/// of `n` items, computed in exact integer arithmetic:
/// `rank = max(1, ceil(n · percent / 100))`, index `rank - 1`.
///
/// Float rank arithmetic (`(p * n as f64).ceil()`) is *not* equivalent: the
/// f64 rounding of `p` can push `p * n` just above an exact integer rank, so
/// `ceil` overshoots by one — e.g. `0.07f64 * 100.0 == 7.000000000000001`,
/// turning the p7 of 100 samples into the 8th sample instead of the 7th.
/// Integer rank math cannot overshoot by construction.
///
/// # Panics
///
/// Panics when `n == 0` or `percent` is outside `1..=100`.
pub fn nearest_rank_index(n: usize, percent: usize) -> usize {
    assert!(n > 0, "nearest rank needs at least one sample");
    assert!(
        (1..=100).contains(&percent),
        "percent must be in 1..=100, got {percent}"
    );
    (n * percent).div_ceil(100).max(1) - 1
}

impl Percentiles {
    /// Computes nearest-rank percentiles with exact integer rank math (see
    /// [`nearest_rank_index`]). Sorting uses total order, so the result is
    /// deterministic for any input permutation.
    ///
    /// # Panics
    ///
    /// Panics on an empty sample — callers report "no data" explicitly
    /// rather than fabricating zeros.
    pub fn from_samples(samples: &[f64]) -> Percentiles {
        assert!(!samples.is_empty(), "percentiles need at least one sample");
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |percent: usize| sorted[nearest_rank_index(sorted.len(), percent)];
        Percentiles {
            n: sorted.len(),
            mean_s: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p50_s: rank(50),
            p90_s: rank(90),
            p99_s: rank(99),
            max_s: *sorted.last().expect("nonempty"),
        }
    }
}

/// A sliding window of timestamped samples on the simulated clock, with
/// nearest-rank percentile queries — the signal source for control-plane
/// decisions (windowed TTFT/TBT) and the windowed rows of a controlled
/// fleet's report.
///
/// Samples arrive tagged with their simulated emission time. The window
/// keeps the most recent `cap` samples at most, and a
/// [`stats`](SlidingWindow::stats) query at time `t` aggregates only samples emitted
/// within `[t - window_s, t]`. Sample times need not be monotone — replicas
/// advance their clocks independently, so a sample from a busy replica can
/// carry an earlier timestamp than one already pushed — which is why
/// `stats` *filters* by timestamp instead of assuming front-of-queue
/// staleness. Percentiles reuse [`Percentiles::from_samples`] and therefore
/// the exact integer [`nearest_rank_index`] rank math.
#[derive(Debug, Clone)]
pub struct SlidingWindow {
    window_s: f64,
    cap: usize,
    buf: VecDeque<(f64, f64)>,
}

impl SlidingWindow {
    /// An empty window of width `window_s` holding at most `cap` samples.
    ///
    /// # Panics
    ///
    /// Panics when `window_s` is not positive or `cap` is zero.
    pub fn new(window_s: f64, cap: usize) -> Self {
        assert!(
            window_s > 0.0 && window_s.is_finite(),
            "window width must be positive and finite, got {window_s}"
        );
        assert!(cap > 0, "window capacity must be nonzero");
        SlidingWindow {
            window_s,
            cap,
            buf: VecDeque::new(),
        }
    }

    /// The window width, seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }

    /// Records one sample emitted at simulated time `at_s`. Samples whose
    /// timestamps have aged past the *pushed* sample's window are dropped
    /// from the front, and the capacity bound drops the oldest insertion.
    pub fn push(&mut self, at_s: f64, value: f64) {
        while let Some(&(t, _)) = self.buf.front() {
            if t + self.window_s < at_s {
                self.buf.pop_front();
            } else {
                break;
            }
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back((at_s, value));
    }

    /// Samples currently retained (some may be out-of-window for a given
    /// query time; [`stats`](SlidingWindow::stats) filters).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Nearest-rank percentiles over the samples emitted within
    /// `[now_s - window_s, now_s]`, or `None` when the window holds none.
    pub fn stats(&self, now_s: f64) -> Option<Percentiles> {
        let in_window: Vec<f64> = self
            .buf
            .iter()
            .filter(|&&(t, _)| t + self.window_s >= now_s && t <= now_s)
            .map(|&(_, v)| v)
            .collect();
        if in_window.is_empty() {
            None
        } else {
            Some(Percentiles::from_samples(&in_window))
        }
    }
}

/// The outcome of one serving simulation on a single replica
/// ([`FleetReport::serve_report`]).
///
/// **TTFT definition.** `ttft` measures the *first decoded token*: under
/// chunked prefill the final prompt chunk's forward pass produces the
/// logits for (and therefore emits) the first output token, so TTFT is the
/// completion of that chunk — not the completion of an earlier prefill
/// chunk, and not the first single-token decode iteration (which emits the
/// *second* token). `tbt` measures the gaps between consecutive output
/// tokens — the simulated time between one token's emission and the next,
/// which includes any stall while the request waits (eviction re-queue, a
/// prefill→decode KV handoff in flight) — so the first token contributes to
/// `ttft` only. Percentiles over both are *nearest-rank* with exact integer
/// rank math (`rank = max(1, ceil(n · p / 100))` — see
/// [`nearest_rank_index`]), never interpolated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Softmax strategy the engine ran ("baseline", "recomposed", ...).
    pub strategy: String,
    /// Admission policy name.
    pub policy: String,
    /// Requests that ran to completion.
    pub completed: usize,
    /// Engine iterations executed.
    pub iterations: usize,
    /// Times a running request was evicted to free KV blocks.
    pub evictions: usize,
    /// Simulated wall-clock at the last completion, seconds.
    pub sim_time_s: f64,
    /// Prompt tokens prefetched into the cache (re-prefill after eviction
    /// counts again — it is real work).
    pub prefill_tokens: u64,
    /// Output tokens generated.
    pub decode_tokens: u64,
    /// Output tokens per simulated second.
    pub decode_tokens_per_s: f64,
    /// Time to first generated token, per request (see the struct docs for
    /// the exact definition under chunked prefill).
    pub ttft: Percentiles,
    /// Time between consecutive output tokens (the first token is excluded
    /// — it is the TTFT sample).
    pub tbt: Percentiles,
    /// Peak KV-pool occupancy in `[0, 1]`.
    pub kv_peak_occupancy: f64,
    /// Mean of the per-iteration KV occupancy samples.
    pub kv_mean_occupancy: f64,
}

/// Per-replica accounting inside a [`FleetReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplicaStats {
    /// Replica index within the fleet.
    pub id: usize,
    /// Device name ("A100", "T4", ...).
    pub device: String,
    /// Serving role ("prefill", "decode", "unified").
    pub role: String,
    /// Engine iterations this replica executed.
    pub iterations: usize,
    /// Evictions this replica performed.
    pub evictions: usize,
    /// Requests that finished on this replica.
    pub completed: usize,
    /// Prompt tokens prefilled here.
    pub prefill_tokens: u64,
    /// Output tokens decoded here.
    pub decode_tokens: u64,
    /// Simulated seconds this replica's GPU was executing iterations.
    pub busy_s: f64,
    /// `busy_s` over the fleet's total simulated time.
    pub utilization: f64,
    /// Peak KV-pool occupancy in `[0, 1]`.
    pub kv_peak_occupancy: f64,
    /// Mean of the per-iteration KV occupancy samples (0 when the replica
    /// never ran an iteration).
    pub kv_mean_occupancy: f64,
    /// KV blocks still allocated when the run ended. A completed workload
    /// leaves every pool empty, so this is 0 for every replica of a
    /// successful run — any other value is an alloc/free accounting leak.
    pub kv_used_blocks_end: u64,
    /// Requests whose finished prefill KV this replica streamed to a decode
    /// replica (prefill→decode disaggregation handoffs).
    pub handoffs_out: usize,
    /// Handed-off requests whose KV landed here for decoding.
    pub handoffs_in: usize,
    /// Running decode requests preempted here by prefill-owing waiters
    /// (`Policy::PreemptivePriority` only; the preempted KV stays resident).
    pub preemptions: usize,
    /// `true` while the replica sits in standby at the end of the run
    /// (declared standby and never scaled up, or scaled back down).
    pub standby: bool,
    /// `true` once a drain event retired this replica.
    pub drained: bool,
    /// `true` once a fail event killed this replica.
    pub failed: bool,
}

/// The outcome of one fleet serving simulation
/// ([`Fleet::run`](crate::Fleet::run)).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Softmax strategy the engines ran.
    pub strategy: String,
    /// Per-replica admission policy name ("fifo", "shortest-remaining").
    pub policy: String,
    /// Fleet routing policy name ("round-robin", "least-loaded",
    /// "cache-affinity").
    pub router: String,
    /// Interconnect preset name.
    pub link: String,
    /// Requests submitted (the workload trace length).
    pub submitted: usize,
    /// Requests that ran to completion. Always equals `submitted` when the
    /// run returns `Ok` — a shortfall is a scheduling bug and panics.
    pub completed: usize,
    /// Engine iterations across all replicas.
    pub iterations: usize,
    /// Evictions across all replicas.
    pub evictions: usize,
    /// Requests whose KV pages moved across the interconnect (eviction
    /// spill-over to a sibling, or drain redistribution).
    pub migrations: usize,
    /// Rebalanced requests whose KV could *not* be placed remotely and was
    /// dropped (re-prefilled from scratch at the destination).
    pub migration_drops: usize,
    /// KV bytes that crossed the interconnect.
    pub kv_migrated_bytes: u64,
    /// Simulated seconds spent on the wire by migrated KV.
    pub migration_time_s: f64,
    /// Prefill→decode handoffs: requests whose finished prefill KV streamed
    /// from a prefill replica to a decode replica over the link (distinct
    /// from rebalancing `migrations`).
    pub handoffs: usize,
    /// KV bytes that crossed the interconnect in handoffs.
    pub kv_handoff_bytes: u64,
    /// Simulated seconds spent on the wire by handed-off KV.
    pub kv_handoff_time_s: f64,
    /// Prompt tokens prefilled on `Role::Decode` replicas. Nonzero only in
    /// the degenerate path where a handed-off request lost its cache to
    /// memory pressure on the decode side and had to re-prefill there; an
    /// amply-provisioned disaggregated fleet keeps this at 0.
    pub decode_side_prefill_tokens: u64,
    /// Simulated wall-clock at the last completion, seconds.
    pub sim_time_s: f64,
    /// Prompt tokens prefilled fleet-wide.
    pub prefill_tokens: u64,
    /// Output tokens generated fleet-wide.
    pub decode_tokens: u64,
    /// Output tokens per simulated second, fleet-wide.
    pub decode_tokens_per_s: f64,
    /// Time to first generated token, per request (see [`ServeReport`] for
    /// the definition).
    pub ttft: Percentiles,
    /// Time between consecutive output tokens (first token excluded).
    pub tbt: Percentiles,
    /// Decode preemptions fleet-wide (`Policy::PreemptivePriority`).
    pub preemptions: usize,
    /// Standby replicas brought into rotation by the control plane.
    pub scale_ups: usize,
    /// Active replicas returned to standby by the control plane.
    pub scale_downs: usize,
    /// The control plane's decision log, in decision order — empty when no
    /// control plane was attached. Every row carries the windowed signal
    /// snapshot it decided on, so the log doubles as the report's
    /// windowed-percentile time series, and replaying the recorded actions
    /// reproduces this report bit-identically.
    pub decisions: Vec<ControlRecord>,
    /// Per-replica accounting, ascending id.
    pub replicas: Vec<ReplicaStats>,
}

impl FleetReport {
    /// The single-replica view of this report, in the [`ServeReport`]
    /// shape. Calling it on a fleet of more than one replica folds
    /// the per-replica KV occupancies by taking replica 0's (the aggregate
    /// latency/throughput fields are fleet-wide either way).
    pub fn serve_report(&self) -> ServeReport {
        let r0 = &self.replicas[0];
        ServeReport {
            strategy: self.strategy.clone(),
            policy: self.policy.clone(),
            completed: self.completed,
            iterations: self.iterations,
            evictions: self.evictions,
            sim_time_s: self.sim_time_s,
            prefill_tokens: self.prefill_tokens,
            decode_tokens: self.decode_tokens,
            decode_tokens_per_s: self.decode_tokens_per_s,
            ttft: self.ttft,
            tbt: self.tbt,
            kv_peak_occupancy: r0.kv_peak_occupancy,
            kv_mean_occupancy: r0.kv_mean_occupancy,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p = Percentiles::from_samples(&s);
        assert_eq!(p.p50_s, 50.0);
        assert_eq!(p.p90_s, 90.0);
        assert_eq!(p.p99_s, 99.0);
        assert_eq!(p.max_s, 100.0);
        assert!((p.mean_s - 50.5).abs() < 1e-12);

        let one = Percentiles::from_samples(&[0.25]);
        assert_eq!(one.p50_s, 0.25);
        assert_eq!(one.p99_s, 0.25);
    }

    #[test]
    fn permutation_invariant() {
        let a = Percentiles::from_samples(&[3.0, 1.0, 2.0, 5.0, 4.0]);
        let b = Percentiles::from_samples(&[5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!(a, b);
    }

    /// The float rank path this replaced: `ceil(p · n)` with `p` an f64.
    fn float_rank_index(n: usize, p: f64) -> usize {
        ((p * n as f64).ceil() as usize).max(1) - 1
    }

    #[test]
    fn integer_rank_is_exact_at_small_sample_counts() {
        // p90 of 10 samples is the 9th sample (rank ceil(10·0.9) = 9), never
        // the max; p90 of 20 is the 18th; p99 of 1000 is the 990th.
        let n10: Vec<f64> = (1..=10).map(f64::from).collect();
        let p = Percentiles::from_samples(&n10);
        assert_eq!(p.p90_s, 9.0, "p90 of 10 samples is the 9th, not the max");
        assert_eq!(p.p50_s, 5.0);
        assert_eq!(p.p99_s, 10.0);

        let n20: Vec<f64> = (1..=20).map(f64::from).collect();
        let p = Percentiles::from_samples(&n20);
        assert_eq!(p.p90_s, 18.0);
        assert_eq!(p.p50_s, 10.0);

        let n1000: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = Percentiles::from_samples(&n1000);
        assert_eq!(p.p90_s, 900.0);
        assert_eq!(p.p99_s, 990.0);
        assert_eq!(p.p50_s, 500.0);
    }

    #[test]
    fn float_rank_overshoots_where_integer_rank_cannot() {
        // The float path is provably wrong for percentiles whose f64
        // rounding lands *above* the decimal value: 0.07 rounds up, so
        // 0.07 · 100 == 7.000000000000001 and ceil overshoots to rank 8.
        // (0.50/0.90/0.99 happen to round safely on IEEE-754 — 0.90 rounds
        // up but by less than a half-ulp of its products, and 0.99 rounds
        // down, which ceil forgives — so the three shipped percentiles
        // agreed by luck; the integer path removes the luck.)
        assert_eq!(0.07f64 * 100.0, 7.000000000000001);
        assert_eq!(float_rank_index(100, 0.07), 7, "float path overshoots");
        assert_eq!(nearest_rank_index(100, 7), 6, "exact rank is the 7th");
        // More float-path overshoots at other sample counts, all of which
        // the integer path gets right.
        for (n, percent) in [(200usize, 7usize), (50, 14), (400, 28), (25, 28)] {
            let exact = (n * percent).div_ceil(100) - 1;
            assert_eq!(nearest_rank_index(n, percent), exact);
            assert_eq!(
                float_rank_index(n, percent as f64 / 100.0),
                exact + 1,
                "expected the float path to overshoot at p{percent} of {n}"
            );
        }
        // And the shipped percentiles stay in exact agreement at every
        // realistic sample count (documents the "no BENCH shift" claim).
        for n in 1..=4096usize {
            for percent in [50usize, 90, 99] {
                assert_eq!(
                    nearest_rank_index(n, percent),
                    float_rank_index(n, percent as f64 / 100.0),
                    "p{percent} of {n}"
                );
            }
        }
    }

    #[test]
    fn nearest_rank_index_bounds() {
        assert_eq!(nearest_rank_index(1, 1), 0);
        assert_eq!(nearest_rank_index(1, 100), 0);
        assert_eq!(nearest_rank_index(10, 1), 0, "low percentiles clamp to 1");
        assert_eq!(nearest_rank_index(10, 100), 9);
        assert_eq!(nearest_rank_index(3, 50), 1);
    }

    #[test]
    #[should_panic(expected = "percent")]
    fn nearest_rank_index_rejects_percent_zero() {
        let _ = nearest_rank_index(10, 0);
    }

    #[test]
    fn sliding_window_ages_out_samples() {
        let mut w = SlidingWindow::new(10.0, 1024);
        assert!(w.is_empty());
        assert_eq!(w.stats(0.0), None);
        for t in 0..20 {
            w.push(f64::from(t), f64::from(t));
        }
        // At t=19 the window [9, 19] holds samples 9..=19.
        let p = w.stats(19.0).unwrap();
        assert_eq!(p.n, 11);
        assert_eq!(p.p50_s, 14.0);
        assert_eq!(p.max_s, 19.0);
        // Querying later shrinks the window without new pushes.
        let p = w.stats(25.0).unwrap();
        assert_eq!(p.n, 5);
        assert_eq!(p.max_s, 19.0);
        // Past every sample's window: no data, not fabricated zeros.
        assert_eq!(w.stats(100.0), None);
    }

    #[test]
    fn sliding_window_tolerates_out_of_order_timestamps() {
        // Replica clocks advance independently, so pushes are not monotone:
        // a stale-timestamped sample behind a fresh one must still be
        // filtered out of stats (and a fresh one behind it kept).
        let mut w = SlidingWindow::new(5.0, 1024);
        w.push(100.0, 1.0);
        w.push(90.0, 2.0); // stale relative to the query below
        w.push(101.0, 3.0);
        let p = w.stats(101.0).unwrap();
        assert_eq!(p.n, 2, "the t=90 sample is outside [96, 101]");
        assert_eq!(p.max_s, 3.0);
    }

    #[test]
    fn sliding_window_capacity_bounds_memory() {
        let mut w = SlidingWindow::new(1e9, 4);
        for t in 0..100 {
            w.push(f64::from(t), f64::from(t));
        }
        assert_eq!(w.len(), 4);
        let p = w.stats(99.0).unwrap();
        assert_eq!(p.n, 4, "only the 4 newest samples are retained");
        assert_eq!(p.max_s, 99.0);
        assert_eq!(p.p50_s, 97.0);
    }

    #[test]
    fn sliding_window_uses_exact_integer_rank_math() {
        // Regression against the float nearest-rank fix: the window's
        // percentiles go through `nearest_rank_index`, so sample counts
        // where float `ceil(p·n)` overshoots must still land on the exact
        // rank. 100 in-window samples: p50 is the 50th (49.0 here), which
        // the float path got right by luck — but the underlying index
        // matches `nearest_rank_index` at every count, including the
        // overshoot-prone ones exercised in
        // `float_rank_overshoots_where_integer_rank_cannot`.
        let mut w = SlidingWindow::new(1e9, 4096);
        for t in 0..100 {
            w.push(f64::from(t), f64::from(t));
        }
        let p = w.stats(99.0).unwrap();
        assert_eq!(p.n, 100);
        assert_eq!(nearest_rank_index(100, 50), 49);
        assert_eq!(p.p50_s, 49.0);
        assert_eq!(p.p90_s, 89.0);
        assert_eq!(p.p99_s, 98.0);
    }

    #[test]
    #[should_panic(expected = "window width")]
    fn sliding_window_rejects_zero_width() {
        let _ = SlidingWindow::new(0.0, 16);
    }
}
