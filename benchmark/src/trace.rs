//! Spans the benchmark records around its own calls into each layer.
//!
//! Spans stay in memory and are written once, at exit, as a chrome trace
//! (`chrome://tracing`, <https://ui.perfetto.dev>). A disabled tracer
//! records nothing, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::time::Instant;

use serde::Serialize;

/// Index of a recorded span, `None` when tracing is off.
pub type SpanId = Option<usize>;

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Call name, e.g. `"fused_qk_ls"`.
    pub name: &'static str,
    /// The crate the call goes into (`"kernels"`, `"gpusim"`, …) or
    /// `"bench"` for the benchmark's own work.
    pub layer: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// The span this call happened inside.
    pub parent: Option<usize>,
    /// The unit of work (head, rep, fleet run) the call belongs to.
    pub unit: usize,
}

impl Span {
    /// Duration, seconds.
    pub fn dur_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    unit: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`on`) or ignores every span.
    pub fn new(on: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            on,
            unit: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags the spans recorded from now on with `unit`.
    pub fn set_unit(&mut self, unit: usize) {
        self.unit = unit;
    }

    fn at(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, layer: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name,
            layer,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            unit: self.unit,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        Some(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_s = self.at(Instant::now());
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, layer);
        let r = f();
        self.end(id);
        r
    }

    /// Records a call timed elsewhere (inside a hook the program calls
    /// back into) as a child of `parent`.
    pub fn record(
        &mut self,
        name: &'static str,
        layer: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            layer,
            start_s: self.at(start),
            end_s: self.at(end),
            parent,
            unit: self.unit,
        });
    }

    /// Every recorded span, in start order of their `begin` calls.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many units recorded spans.
    pub fn units(&self) -> usize {
        self.spans.iter().map(|s| s.unit + 1).max().unwrap_or(0)
    }

    /// Durations of the spans named `name` in `unit`, seconds.
    pub fn durations(&self, unit: usize, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.unit == unit && s.name == name)
            .map(Span::dur_s)
            .collect()
    }

    /// Total duration of the spans named `name` in `unit`, seconds.
    pub fn total_s(&self, unit: usize, name: &str) -> f64 {
        self.durations(unit, name).iter().fold(0.0, |a, b| a + b)
    }

    /// Self time per layer over the spans of `unit`: each span's duration
    /// minus the part of it its child spans cover.
    pub fn self_time_by_layer(&self, unit: usize) -> BTreeMap<&'static str, f64> {
        let mut child_s = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_s[p] += s.dur_s();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.unit == unit {
                *by_layer.entry(s.layer).or_insert(0.0) += s.dur_s() - child_s[i];
            }
        }
        by_layer
    }

    /// Writes the spans as chrome-trace JSON.
    pub fn write_chrome(&self, path: &Path) -> io::Result<()> {
        #[derive(Serialize)]
        struct Args {
            unit: usize,
            parent: Option<usize>,
            id: usize,
        }
        #[derive(Serialize)]
        struct Event {
            name: String,
            cat: String,
            ph: String,
            ts: f64,
            dur: f64,
            pid: u32,
            tid: u32,
            args: Args,
        }
        #[derive(Serialize)]
        #[allow(non_snake_case)]
        struct Trace {
            traceEvents: Vec<Event>,
            displayTimeUnit: String,
        }
        let trace = Trace {
            traceEvents: self
                .spans
                .iter()
                .enumerate()
                .map(|(id, s)| Event {
                    name: s.name.to_owned(),
                    cat: s.layer.to_owned(),
                    ph: "X".to_owned(),
                    ts: s.start_s * 1e6,
                    dur: s.dur_s() * 1e6,
                    pid: 1,
                    tid: 1,
                    args: Args {
                        unit: s.unit,
                        parent: s.parent,
                        id,
                    },
                })
                .collect(),
            displayTimeUnit: "ms".to_owned(),
        };
        let json = serde_json::to_string(&trace).map_err(io::Error::other)?;
        std::fs::write(path, json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::new(true);
        tr.set_unit(3);
        let outer = tr.begin("run", "serve");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.span("build", "model", || {
            std::thread::sleep(std::time::Duration::from_millis(4));
        });
        tr.end(outer);
        let by = tr.self_time_by_layer(3);
        let spans = tr.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!((by["serve"] + by["model"] - spans[0].dur_s()).abs() < 1e-12);
        assert!(by["model"] >= 0.004 && by["serve"] >= 0.002);
        assert!(tr.self_time_by_layer(0).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.begin("run", "serve");
        assert_eq!(tr.span("x", "y", || 7), 7);
        tr.end(id);
        assert!(tr.spans().is_empty());
    }
}
