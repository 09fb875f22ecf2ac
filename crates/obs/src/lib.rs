//! Observability for the resoftmax workspace: spans, counters, and a
//! unified trace export — with **zero overhead when disabled**.
//!
//! The paper's argument is a traffic/latency accounting story (Fig. 2/5/8:
//! where time and DRAM bytes go per kernel category). This crate is the
//! substrate that lets the rest of the workspace tell that story *live*:
//!
//! * **Spans** ([`span!`], [`span()`]) — RAII wall-clock intervals on the
//!   thread that opened them. The engine wraps each run, the simulator wraps
//!   each heterogeneous kernel, the pool wraps each parallel region.
//! * **Counters** ([`counter`], [`float_counter`]) — process-wide atomics
//!   for host aggregates: kernels launched, per-category DRAM bytes, pool
//!   tasks executed/stolen per worker, wave-fast-path waves vs event-loop
//!   steps, pricing-memo traffic. Per-run counts are not kept here: a
//!   serving run's live in its report, a tuner's in the tuner, so two runs
//!   in one process never mix.
//! * **Recorder** ([`recorder`]) — collects spans and *simulated* kernel
//!   timelines (streams), and exports them through pluggable [`Sink`]s: a
//!   JSON metrics snapshot ([`JsonMetricsSink`]), a human summary table
//!   ([`SummarySink`]), and a Chrome-trace exporter ([`ChromeTraceSink`])
//!   that merges simulator timelines with real wall-clock spans onto one
//!   timeline (open in `chrome://tracing` or <https://ui.perfetto.dev>).
//!
//! # Enabling
//!
//! Everything is off by default. Two independent switches:
//!
//! * `RESOFTMAX_TRACE` — spans + sim-stream recording. Set to `1` (or any
//!   value other than `0`/empty) to enable; a value ending in `.json` also
//!   names the output path the `resoftmax-bench` driver writes the merged
//!   trace to (default `resoftmax_trace.json`).
//! * `RESOFTMAX_METRICS` — counter updates.
//!
//! Both can be overridden programmatically ([`set_trace_enabled`],
//! [`set_metrics_enabled`]), which is how the bench driver's
//! `figures --smoke` gate opts a process in without touching the
//! environment.
//!
//! When disabled, every instrumentation site costs one relaxed atomic load
//! and a predictable branch: every counter update in the workspace sits
//! behind [`metrics_enabled`], so none takes the registry's lock. No measurement backs that cost claim; the
//! closest check is `resoftmax-bench figures --smoke`, which reruns the
//! figures with tracing and metrics on and requires bit-identical rows (it
//! checks output identity and times nothing).
//!
//! # Example
//!
//! ```
//! use resoftmax_obs as obs;
//!
//! obs::set_trace_enabled(Some(true));
//! obs::set_metrics_enabled(Some(true));
//! {
//!     let _outer = obs::span!("outer", "example");
//!     let _inner = obs::span!("inner", "example");
//!     obs::counter("example.events").add(3);
//! }
//! let spans = obs::recorder().spans();
//! assert!(spans.iter().any(|s| s.name == "outer"));
//! assert_eq!(obs::counter("example.events").get(), 3);
//! let trace = obs::recorder().export(&obs::ChromeTraceSink);
//! assert!(trace.starts_with('['));
//! obs::set_trace_enabled(Some(false));
//! obs::set_metrics_enabled(Some(false));
//! # obs::reset();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
mod metrics;
mod recorder;
mod span;

pub use metrics::{
    counter, float_counter, metrics_snapshot, reset_metrics, Counter, FloatCounter, MetricsSnapshot,
};
pub use recorder::{
    recorder, ChromeTraceSink, JsonMetricsSink, Recorder, SimEvent, SimStream, Sink, SpanRecord,
    SummarySink,
};
pub use span::{span, Span};

use std::sync::atomic::{AtomicU8, Ordering};

/// Tri-state switch: 0 = uninitialized (read the environment on first use),
/// 1 = off, 2 = on.
struct Switch {
    state: AtomicU8,
    env_var: &'static str,
}

impl Switch {
    const fn new(env_var: &'static str) -> Switch {
        Switch {
            state: AtomicU8::new(0),
            env_var,
        }
    }

    /// The hot-path check: one relaxed load; falls back to the environment
    /// only on the very first call.
    fn enabled(&self) -> bool {
        match self.state.load(Ordering::Relaxed) {
            0 => self.init_from_env(),
            1 => false,
            _ => true,
        }
    }

    #[cold]
    fn init_from_env(&self) -> bool {
        let on = std::env::var(self.env_var).is_ok_and(|v| !matches!(v.trim(), "" | "0"));
        // Racing initializers agree (the env does not change under us).
        self.state.store(if on { 2 } else { 1 }, Ordering::Relaxed);
        on
    }

    fn set(&self, v: Option<bool>) {
        let s = match v {
            None => 0,
            Some(false) => 1,
            Some(true) => 2,
        };
        self.state.store(s, Ordering::Relaxed);
    }
}

static TRACE: Switch = Switch::new("RESOFTMAX_TRACE");
static METRICS: Switch = Switch::new("RESOFTMAX_METRICS");

/// `true` if span/stream recording is on (`RESOFTMAX_TRACE` or programmatic
/// override).
#[inline]
pub fn trace_enabled() -> bool {
    TRACE.enabled()
}

/// `true` if counter updates are on (`RESOFTMAX_METRICS` or programmatic
/// override).
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS.enabled()
}

/// Overrides the trace switch: `Some(v)` forces it, `None` restores
/// environment-driven resolution (re-read on next check).
pub fn set_trace_enabled(v: Option<bool>) {
    TRACE.set(v);
}

/// Overrides the metrics switch: `Some(v)` forces it, `None` restores
/// environment-driven resolution.
pub fn set_metrics_enabled(v: Option<bool>) {
    METRICS.set(v);
}

/// Where the merged chrome-trace should be written, if tracing is enabled.
///
/// `RESOFTMAX_TRACE=out.json` (any value ending in `.json`) names the path;
/// any other truthy value yields the default `resoftmax_trace.json`. Returns
/// `None` when tracing is disabled. The library never writes files itself —
/// the `resoftmax-bench` driver consults this and writes at exit.
pub fn trace_output_path() -> Option<String> {
    if !trace_enabled() {
        return None;
    }
    match std::env::var("RESOFTMAX_TRACE") {
        Ok(v) if v.trim().ends_with(".json") => Some(v.trim().to_owned()),
        _ => Some("resoftmax_trace.json".to_owned()),
    }
}

/// Clears all recorded state: spans, sim streams, and counters. Switches are
/// left as they are. Intended for tests and long-lived processes that export
/// periodic snapshots.
pub fn reset() {
    recorder().clear();
    reset_metrics();
}

/// Serializes unit tests that mutate the process-global switches/recorder.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
use std::sync::Mutex;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switches_force_and_restore() {
        let _g = test_lock();
        set_trace_enabled(Some(true));
        assert!(trace_enabled());
        set_trace_enabled(Some(false));
        assert!(!trace_enabled());
        // Restore env-driven resolution; the test env has no RESOFTMAX_TRACE
        // (or CI sets it — accept either, just require a stable answer).
        set_trace_enabled(None);
        let a = trace_enabled();
        assert_eq!(a, trace_enabled());
    }

    #[test]
    fn trace_path_none_when_disabled() {
        let _g = test_lock();
        set_trace_enabled(Some(false));
        assert_eq!(trace_output_path(), None);
        set_trace_enabled(Some(true));
        let p = trace_output_path().expect("enabled implies a path");
        assert!(p.ends_with(".json"));
        set_trace_enabled(None);
    }
}
