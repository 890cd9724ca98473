//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around calls into each
//! layer's public functions: name, start, end, and the span that caused
//! it. They stay in memory while the workload runs and are written out
//! once at exit. A layer's self time is its spans' durations minus the
//! part covered by their child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name (`ooo.run`, `core.flush`, ...).
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start: u64,
    /// End, ns since the origin.
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    /// Indices of the currently open spans, innermost last.
    open: Vec<usize>,
    counters: BTreeMap<&'static str, f64>,
}

/// A shared span recorder. Spans nest by call order, so one tracer must be
/// driven from one thread at a time (every workload runs one simulation
/// worker, inline on the calling thread).
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    state: Arc<Mutex<State>>,
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
            state: Arc::default(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start = self.now();
        let mut st = self.state.lock().expect("tracer lock");
        let parent = st.open.last().copied();
        let index = st.spans.len();
        st.spans.push(Span {
            name,
            start,
            end: start,
            parent,
        });
        st.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let _g = self.span(name);
        f()
    }

    /// Adds `v` to the counter `name`.
    pub fn add(&self, name: &'static str, v: f64) {
        *self
            .state
            .lock()
            .expect("tracer lock")
            .counters
            .entry(name)
            .or_default() += v;
    }

    /// The counter `name` (0 when never added to).
    pub fn counter(&self, name: &str) -> f64 {
        let st = self.state.lock().expect("tracer lock");
        st.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Total and self time in seconds per span name.
    pub fn times(&self) -> BTreeMap<&'static str, (f64, f64)> {
        let st = self.state.lock().expect("tracer lock");
        span_times(&st.spans)
    }

    /// All closed spans plus counters as tab-separated text: one
    /// `span<TAB>index<TAB>name<TAB>start_ns<TAB>end_ns<TAB>parent` line per
    /// span, then one `counter<TAB>name<TAB>value` line per counter.
    pub fn render(&self) -> String {
        let st = self.state.lock().expect("tracer lock");
        let mut out = String::new();
        for (i, s) in st.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{i}\t{}\t{}\t{}\t{parent}",
                s.name, s.start, s.end
            );
        }
        for (name, v) in &st.counters {
            let _ = writeln!(out, "counter\t{name}\t{v}");
        }
        out
    }
}

/// Closes its span on drop.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now();
        let mut st = self.tracer.state.lock().expect("tracer lock");
        st.spans[self.index].end = end;
        let popped = st.open.pop();
        debug_assert_eq!(popped, Some(self.index), "spans must close innermost first");
    }
}

/// Total and self seconds per span name: self time is a span's duration
/// minus the durations of its direct children.
pub fn span_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end - s.start;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, child) in spans.iter().zip(&child_ns) {
        let total = (s.end - s.start) as f64 * 1e-9;
        let own = (s.end - s.start).saturating_sub(*child) as f64 * 1e-9;
        let e = out.entry(s.name).or_default();
        e.0 += total;
        e.1 += own;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("job", 0, 100, None),
            span("ooo.run", 10, 60, Some(0)),
            span("inner", 20, 30, Some(1)),
            span("core.flush", 60, 70, Some(0)),
        ];
        let t = span_times(&spans);
        let ns = |(total, own): (f64, f64)| ((total * 1e9).round(), (own * 1e9).round());
        assert_eq!(ns(t["job"]), (100.0, 40.0));
        assert_eq!(ns(t["ooo.run"]), (50.0, 40.0));
        assert_eq!(ns(t["inner"]), (10.0, 10.0));
        assert_eq!(ns(t["core.flush"]), (10.0, 10.0));
    }

    #[test]
    fn guards_nest_and_render() {
        let tracer = Tracer::new();
        {
            let _outer = tracer.span("outer");
            tracer.time("inner", || ());
        }
        tracer.add("bytes", 3.0);
        tracer.add("bytes", 4.0);
        assert_eq!(tracer.counter("bytes"), 7.0);
        let text = tracer.render();
        assert!(text.contains("span\t0\touter\t"), "{text}");
        assert!(text.lines().nth(1).unwrap().ends_with("\t0"), "{text}");
        assert!(text.contains("counter\tbytes\t7"), "{text}");
        let t = tracer.times();
        assert!(t["outer"].0 >= t["inner"].0);
    }
}
