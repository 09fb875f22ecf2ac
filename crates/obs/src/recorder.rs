//! The process-wide [`Recorder`] and its export [`Sink`]s.

use crate::json;
use crate::metrics::metrics_snapshot;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Memory backstop: spans beyond this are counted but not stored
/// (tier-1 test suites run with `RESOFTMAX_TRACE=1` in CI).
const MAX_SPANS: usize = 1 << 18;
/// Memory backstop for recorded simulator streams.
const MAX_STREAMS: usize = 4096;

/// One completed wall-clock span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name (e.g. `"Session::run"`, or a kernel name).
    pub name: Cow<'static, str>,
    /// Category, by convention the instrumented crate's name.
    pub category: &'static str,
    /// Stable id of the thread the span ran on (1-based).
    pub thread: u64,
    /// Nesting depth on that thread when the span opened (0 = top level).
    pub depth: u32,
    /// Start, in microseconds since the recorder epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// One event of a *simulated* timeline (virtual time, not wall clock).
#[derive(Debug, Clone, PartialEq)]
pub struct SimEvent {
    /// Event name (kernel name).
    pub name: String,
    /// Category label (kernel category).
    pub category: String,
    /// Swim lane within the stream (category index).
    pub track: u32,
    /// Start in simulated microseconds from the stream origin.
    pub start_us: f64,
    /// Duration in simulated microseconds.
    pub dur_us: f64,
    /// Accounting details rendered into the trace's `args`.
    pub args: Vec<(&'static str, f64)>,
}

/// A named simulated timeline anchored at a wall-clock instant, so the
/// merged trace shows the virtual kernel sequence under the real span of the
/// run that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStream {
    /// Stream name (e.g. `"BERT-large/SDF"`).
    pub name: String,
    /// Wall-clock anchor (µs since the recorder epoch) the virtual t=0 maps
    /// to in the merged trace.
    pub anchor_us: f64,
    /// The events, in execution order.
    pub events: Vec<SimEvent>,
}

/// Collects spans and simulated streams; exports through [`Sink`]s.
///
/// One process-wide instance exists ([`recorder`]); sessions and binaries
/// share it. All methods are thread-safe.
pub struct Recorder {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
    streams: Mutex<Vec<SimStream>>,
    dropped_spans: AtomicU64,
    dropped_streams: AtomicU64,
}

/// The process-wide recorder.
pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(|| Recorder {
        epoch: Instant::now(),
        spans: Mutex::new(Vec::new()),
        streams: Mutex::new(Vec::new()),
        dropped_spans: AtomicU64::new(0),
        dropped_streams: AtomicU64::new(0),
    })
}

impl Recorder {
    /// Microseconds elapsed since the recorder epoch (first use).
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Stores one completed span (drops it beyond the memory backstop).
    pub fn push_span(&self, rec: SpanRecord) {
        let mut spans = self.spans.lock().expect("recorder poisoned");
        if spans.len() < MAX_SPANS {
            spans.push(rec);
        } else {
            self.dropped_spans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Adds a simulated stream anchored at `anchor_us` (µs since the epoch,
    /// typically the wall-clock start of the run that was simulated).
    pub fn add_sim_stream(&self, name: impl Into<String>, anchor_us: f64, events: Vec<SimEvent>) {
        let mut streams = self.streams.lock().expect("recorder poisoned");
        if streams.len() < MAX_STREAMS {
            streams.push(SimStream {
                name: name.into(),
                anchor_us,
                events,
            });
        } else {
            self.dropped_streams.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A copy of all recorded spans.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("recorder poisoned").clone()
    }

    /// A copy of all recorded simulated streams.
    pub fn sim_streams(&self) -> Vec<SimStream> {
        self.streams.lock().expect("recorder poisoned").clone()
    }

    /// Spans + streams dropped at the memory backstop.
    pub fn dropped(&self) -> (u64, u64) {
        (
            self.dropped_spans.load(Ordering::Relaxed),
            self.dropped_streams.load(Ordering::Relaxed),
        )
    }

    /// Clears recorded spans and streams (counters live in
    /// [`crate::reset_metrics`]; [`crate::reset`] clears both).
    pub fn clear(&self) {
        self.spans.lock().expect("recorder poisoned").clear();
        self.streams.lock().expect("recorder poisoned").clear();
        self.dropped_spans.store(0, Ordering::Relaxed);
        self.dropped_streams.store(0, Ordering::Relaxed);
    }

    /// Renders this recorder's state through `sink`.
    pub fn export(&self, sink: &dyn Sink) -> String {
        sink.render(self)
    }

    /// Renders through `sink` and writes the result to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the I/O error if the path is not writable.
    pub fn write(&self, sink: &dyn Sink, path: &str) -> std::io::Result<()> {
        std::fs::write(path, self.export(sink))
    }
}

/// An export format over the recorder's state.
///
/// The three built-ins cover the workspace's needs ([`ChromeTraceSink`],
/// [`JsonMetricsSink`], [`SummarySink`]); downstream tools can implement
/// their own.
pub trait Sink {
    /// Short name for logs (`"chrome-trace"`, `"metrics-json"`, ...).
    fn label(&self) -> &'static str;
    /// Renders the recorder's current state.
    fn render(&self, recorder: &Recorder) -> String;
}

/// Chrome Trace Event Format (viewable in `chrome://tracing` /
/// <https://ui.perfetto.dev>) merging wall-clock spans (pid 1, one tid per
/// thread) with every simulated stream (pid 100+i, one tid per kernel
/// category), anchored at the wall-clock start of its run.
pub struct ChromeTraceSink;

/// JSON snapshot of every counter plus span aggregates.
pub struct JsonMetricsSink;

/// Human-readable table of counters and span aggregates.
pub struct SummarySink;

impl Sink for ChromeTraceSink {
    fn label(&self) -> &'static str {
        "chrome-trace"
    }

    fn render(&self, recorder: &Recorder) -> String {
        let spans = recorder.spans();
        let streams = recorder.sim_streams();
        let mut out = String::from("[\n");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            // Closure keeps the separator logic in one place.
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str("  ");
            out.push_str(&s);
        };

        push(
            r#"{"name":"process_name","ph":"M","pid":1,"args":{"name":"wall-clock"}}"#.to_owned(),
            &mut first,
        );
        let mut threads: Vec<u64> = spans.iter().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for t in &threads {
            push(
                format!(
                    r#"{{"name":"thread_name","ph":"M","pid":1,"tid":{t},"args":{{"name":"thread-{t}"}}}}"#
                ),
                &mut first,
            );
        }
        for s in &spans {
            push(
                format!(
                    r#"{{"name":{},"cat":{},"ph":"X","pid":1,"tid":{},"ts":{},"dur":{},"args":{{"depth":{}}}}}"#,
                    json::string(&s.name),
                    json::string(s.category),
                    s.thread,
                    json::number(s.start_us),
                    json::number(s.dur_us),
                    s.depth,
                ),
                &mut first,
            );
        }
        for (i, stream) in streams.iter().enumerate() {
            let pid = 100 + i;
            push(
                format!(
                    r#"{{"name":"process_name","ph":"M","pid":{pid},"args":{{"name":{}}}}}"#,
                    json::string(&format!("sim:{}", stream.name)),
                ),
                &mut first,
            );
            for e in &stream.events {
                let mut args = String::new();
                for (k, v) in &e.args {
                    if !args.is_empty() {
                        args.push(',');
                    }
                    let _ = write!(args, "{}:{}", json::string(k), json::number(*v));
                }
                push(
                    format!(
                        r#"{{"name":{},"cat":{},"ph":"X","pid":{pid},"tid":{},"ts":{},"dur":{},"args":{{{args}}}}}"#,
                        json::string(&e.name),
                        json::string(&e.category),
                        e.track + 1,
                        json::number(stream.anchor_us + e.start_us),
                        json::number(e.dur_us),
                    ),
                    &mut first,
                );
            }
        }
        out.push_str("\n]\n");
        out
    }
}

/// Aggregates spans by name: (count, total µs).
fn span_rollup(spans: &[SpanRecord]) -> BTreeMap<(String, &'static str), (u64, f64)> {
    let mut agg: BTreeMap<(String, &'static str), (u64, f64)> = BTreeMap::new();
    for s in spans {
        let e = agg
            .entry((s.name.clone().into_owned(), s.category))
            .or_insert((0, 0.0));
        e.0 += 1;
        e.1 += s.dur_us;
    }
    agg
}

impl Sink for JsonMetricsSink {
    fn label(&self) -> &'static str {
        "metrics-json"
    }

    fn render(&self, recorder: &Recorder) -> String {
        let snap = metrics_snapshot();
        let spans = recorder.spans();
        let (dropped_spans, dropped_streams) = recorder.dropped();
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &snap.counts {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {v}", json::string(name));
        }
        for (name, v) in &snap.values {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {}", json::string(name), json::number(*v));
        }
        out.push_str("\n  },\n  \"spans\": {");
        let rollup = span_rollup(&spans);
        let mut first = true;
        for ((name, cat), (count, total_us)) in &rollup {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {}: {{\"category\": {}, \"count\": {count}, \"total_us\": {}}}",
                json::string(name),
                json::string(cat),
                json::number(*total_us),
            );
        }
        let _ = write!(
            out,
            "\n  }},\n  \"recorded_spans\": {},\n  \"sim_streams\": {},\n  \"dropped_spans\": {dropped_spans},\n  \"dropped_streams\": {dropped_streams}\n}}\n",
            spans.len(),
            recorder.sim_streams().len(),
        );
        out
    }
}

impl Sink for SummarySink {
    fn label(&self) -> &'static str {
        "summary"
    }

    fn render(&self, recorder: &Recorder) -> String {
        let snap = metrics_snapshot();
        let spans = recorder.spans();
        let mut out = String::new();
        let _ = writeln!(out, "== resoftmax observability summary ==");
        if snap.counts.is_empty() && snap.values.is_empty() {
            let _ = writeln!(out, "(no counters registered)");
        } else {
            let _ = writeln!(out, "-- counters --");
            for (name, v) in &snap.counts {
                let _ = writeln!(out, "{name:<44} {v:>16}");
            }
            for (name, v) in &snap.values {
                let _ = writeln!(out, "{name:<44} {v:>16.3e}");
            }
        }
        let rollup = span_rollup(&spans);
        if rollup.is_empty() {
            let _ = writeln!(out, "(no spans recorded)");
        } else {
            let _ = writeln!(out, "-- spans (by name) --");
            let _ = writeln!(
                out,
                "{:<36} {:<10} {:>8} {:>14}",
                "name", "category", "count", "total ms"
            );
            for ((name, cat), (count, total_us)) in &rollup {
                let _ = writeln!(
                    out,
                    "{name:<36} {cat:<10} {count:>8} {:>14.3}",
                    total_us / 1e3
                );
            }
        }
        let streams = recorder.sim_streams();
        if !streams.is_empty() {
            let _ = writeln!(out, "-- simulated streams --");
            for s in &streams {
                let total_ms: f64 = s.events.iter().map(|e| e.dur_us).sum::<f64>() / 1e3;
                let _ = writeln!(
                    out,
                    "{:<44} {:>6} kernels {:>12.3} ms simulated",
                    s.name,
                    s.events.len(),
                    total_ms
                );
            }
        }
        let (ds, dt) = recorder.dropped();
        if ds + dt > 0 {
            let _ = writeln!(out, "(dropped at backstop: {ds} spans, {dt} streams)");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, thread: u64, start: f64, dur: f64) -> SpanRecord {
        SpanRecord {
            name: Cow::Borrowed(name),
            category: "test",
            thread,
            depth: 0,
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn chrome_trace_merges_spans_and_streams() {
        let _g = crate::test_lock();
        let rec = recorder();
        rec.clear();
        rec.push_span(span("alpha", 1, 10.0, 5.0));
        rec.add_sim_stream(
            "unit/SDF",
            10.0,
            vec![SimEvent {
                name: "qk".into(),
                category: "MatMulQk".into(),
                track: 2,
                start_us: 0.0,
                dur_us: 3.0,
                args: vec![("dram_read_mb", 1.25)],
            }],
        );
        let json = rec.export(&ChromeTraceSink);
        assert!(json.contains("\"alpha\""));
        assert!(json.contains("sim:unit/SDF"));
        assert!(json.contains("\"dram_read_mb\":1.25"));
        // sim event anchored at the stream anchor
        assert!(json.contains("\"ts\":10,"));
        rec.clear();
    }

    #[test]
    fn summary_and_json_render_without_panicking() {
        let _g = crate::test_lock();
        let rec = recorder();
        rec.clear();
        rec.push_span(span("beta", 1, 0.0, 2.0));
        rec.push_span(span("beta", 2, 1.0, 4.0));
        let summary = rec.export(&SummarySink);
        assert!(summary.contains("beta"));
        let json = rec.export(&JsonMetricsSink);
        assert!(json.contains("\"beta\""));
        assert!(json.contains("\"count\": 2"));
        rec.clear();
    }

    #[test]
    fn clear_resets_everything() {
        let _g = crate::test_lock();
        let rec = recorder();
        rec.clear();
        rec.push_span(span("gamma", 1, 0.0, 1.0));
        rec.add_sim_stream("s", 0.0, Vec::new());
        rec.clear();
        assert!(rec.spans().is_empty());
        assert!(rec.sim_streams().is_empty());
        assert_eq!(rec.dropped(), (0, 0));
    }
}
