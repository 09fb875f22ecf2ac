//! The process-wide [`Recorder`] and its two renderings.

use crate::json;
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

/// Collects spans and simulated streams; renders them as a Chrome trace
/// ([`Recorder::chrome_trace`]) or a summary table ([`Recorder::summary`]).
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

    /// Clears recorded spans and streams. The trace switch is left as it is.
    pub fn clear(&self) {
        self.spans.lock().expect("recorder poisoned").clear();
        self.streams.lock().expect("recorder poisoned").clear();
        self.dropped_spans.store(0, Ordering::Relaxed);
        self.dropped_streams.store(0, Ordering::Relaxed);
    }

    /// Renders everything recorded in the Chrome Trace Event Format
    /// (viewable in `chrome://tracing` / <https://ui.perfetto.dev>), merging
    /// wall-clock spans (pid 1, one tid per thread) with every simulated
    /// stream (pid 100+i, one tid per kernel category), anchored at the
    /// wall-clock start of its run.
    pub fn chrome_trace(&self) -> String {
        let spans = self.spans();
        let streams = self.sim_streams();
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

    /// A human-readable table of span aggregates by name and of the
    /// simulated streams.
    pub fn summary(&self) -> String {
        // Spans aggregated by name: (count, total µs).
        let mut rollup: BTreeMap<(String, &'static str), (u64, f64)> = BTreeMap::new();
        for s in self.spans() {
            let e = rollup
                .entry((s.name.into_owned(), s.category))
                .or_insert((0, 0.0));
            e.0 += 1;
            e.1 += s.dur_us;
        }
        let mut out = String::new();
        let _ = writeln!(out, "== resoftmax observability summary ==");
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
        let streams = self.sim_streams();
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
        let (ds, dt) = self.dropped();
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
        let json = rec.chrome_trace();
        assert!(json.contains("\"alpha\""));
        assert!(json.contains("sim:unit/SDF"));
        assert!(json.contains("\"dram_read_mb\":1.25"));
        // sim event anchored at the stream anchor
        assert!(json.contains("\"ts\":10,"));
        rec.clear();
    }

    #[test]
    fn summary_rolls_spans_up_by_name() {
        let _g = crate::test_lock();
        let rec = recorder();
        rec.clear();
        rec.push_span(span("beta", 1, 0.0, 2.0));
        rec.push_span(span("beta", 2, 1.0, 4.0));
        let summary = rec.summary();
        let row = summary
            .lines()
            .find(|l| l.starts_with("beta"))
            .expect("a row for beta");
        // name, category, count, total ms
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            ["beta", "test", "2", "0.006"]
        );
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
