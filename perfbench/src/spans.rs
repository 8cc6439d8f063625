//! In-memory spans around the benchmark's calls into each layer,
//! per-layer self times derived from them, and a hand-written Chrome
//! trace-event export.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.simulate.ls`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Workload unit (or request round) the span belongs to.
    pub unit: u64,
    /// Thread lane for the trace viewer.
    pub tid: u64,
    /// Free-form detail: application, policy or request id.
    pub label: String,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans; nested spans on the calling thread via
/// [`Tracer::enter`]/[`Tracer::exit`], spans measured on other threads
/// via [`Tracer::push`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            unit: 0,
        }
    }

    /// Tags subsequent spans with workload unit `unit`.
    pub fn set_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Nanoseconds from the tracer's origin to `t`.
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str, label: impl Into<String>) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit: self.unit,
            tid: 0,
            label: label.into(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Times `f` as a span nested in the innermost open one.
    pub fn time<T>(&mut self, name: &'static str, label: &str, f: impl FnOnce() -> T) -> T {
        let id = self.enter(name, label);
        let out = f();
        self.exit(id);
        out
    }

    /// Records an already-measured span (e.g. one timed on a client
    /// thread) under `parent`.
    pub fn push(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        tid: u64,
        label: impl Into<String>,
    ) -> usize {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            unit: self.unit,
            tid,
            label: label.into(),
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// All spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its child spans cover (children on several threads
    /// may overlap; their union is subtracted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = s.start_ns;
                for (a, b) in kids {
                    let a = a.max(reach);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered.min(s.dur_ns())
            })
            .collect()
    }

    /// Per unit, the summed self time (ms) of the spans named `name`;
    /// every unit that has a root span appears, with 0 when the layer
    /// did no work in it.
    pub fn self_ms_per_unit(&self, name: &str) -> Vec<f64> {
        let selfs = self.self_ns();
        self.per_unit(|i, s| (s.name == name).then_some(selfs[i]))
    }

    /// Per unit, the summed inclusive duration (ms) of spans named
    /// `name`.
    pub fn total_ms_per_unit(&self, name: &str) -> Vec<f64> {
        self.per_unit(|_, s| (s.name == name).then_some(s.dur_ns()))
    }

    /// Per unit, the summed self time (ms) of every non-root span
    /// except those named in `exclude` — the part of a unit the layer
    /// spans account for.
    pub fn attributed_ms_per_unit(&self, exclude: &[&str]) -> Vec<f64> {
        let selfs = self.self_ns();
        self.per_unit(|i, s| (s.parent.is_some() && !exclude.contains(&s.name)).then_some(selfs[i]))
    }

    fn per_unit(&self, pick: impl Fn(usize, &Span) -> Option<u64>) -> Vec<f64> {
        let mut units: BTreeMap<u64, u64> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                units.entry(s.unit).or_insert(0);
            }
            if let Some(ns) = pick(i, s) {
                *units.entry(s.unit).or_insert(0) += ns;
            }
        }
        units.into_values().map(|ns| ns as f64 / 1e6).collect()
    }

    /// The spans as Chrome trace-event objects (complete `X` events,
    /// times in microseconds from this tracer's origin) under `pid`.
    fn events(&self, pid: usize, out: &mut String) {
        for (i, s) in self.spans.iter().enumerate() {
            if !out.ends_with('[') {
                out.push(',');
            }
            let parent = match s.parent {
                Some(p) => p.to_string(),
                None => "null".to_string(),
            };
            let _ = write!(
                out,
                "\n{{\"name\":{},\"cat\":{},\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"unit\":{},\"label\":{}}}}}",
                json_str(s.name),
                json_str(s.name.split('.').next().unwrap_or(s.name)),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.unit,
                json_str(&s.label),
            );
        }
    }
}

/// Chrome trace-event JSON for several tracers, one trace-viewer
/// process each (named), with `meta` recorded under `otherData`.
pub fn chrome_trace(tracers: &[(&str, &Tracer)], meta: &[(&str, String)]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (k, (name, tracer)) in tracers.iter().enumerate() {
        if !out.ends_with('[') {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"args\":{{\"name\":{}}}}}",
            k + 1,
            json_str(name)
        );
        tracer.events(k + 1, &mut out);
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}:{}", json_str(k), json_str(v));
    }
    out.push_str("}}\n");
    out
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
