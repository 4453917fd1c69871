//! In-memory wall-clock spans recorded around the benchmark's calls into
//! the library. Tracing is opt-in: a disabled [`Tracer`] runs the wrapped
//! closure and records nothing.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One timed call: host nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `serve.table` (the first dotted segment
    /// names the layer).
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation the span belongs to.
    pub op: usize,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
}

/// Records nested spans when enabled. `Sync`, so an in-loop objective the
/// search holds behind an `Arc` can record its own calls.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    /// A tracer that records spans.
    pub fn on() -> Self {
        Tracer { enabled: true, origin: Instant::now(), state: Mutex::default() }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer { enabled: false, ..Tracer::on() }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the operation id stamped on spans recorded from now on.
    pub fn begin_op(&self, op: usize) {
        self.lock().op = op;
    }

    /// Runs `f` inside a span named `name` (just runs it when disabled).
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let index = {
            let mut state = self.lock();
            let index = state.spans.len();
            let (parent, op) = (state.stack.last().copied(), state.op);
            state.spans.push(Span { name, start_ns: self.now_ns(), end_ns: 0, parent, op });
            state.stack.push(index);
            index
        };
        let out = f();
        let end = self.now_ns();
        let mut state = self.lock();
        state.stack.pop();
        state.spans[index].end_ns = end;
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer state poisoned by a panicking span")
    }
}

/// Per-operation span totals: each name's summed duration and self time
/// (its duration minus the time its direct child spans cover), in ms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanTotals {
    /// Summed duration per span name.
    pub total_ms: BTreeMap<&'static str, f64>,
    /// Summed self time per span name.
    pub self_ms: BTreeMap<&'static str, f64>,
}

impl SpanTotals {
    /// Totals over the spans of operation `op`.
    pub fn of(spans: &[Span], op: usize) -> Self {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter().filter(|s| s.op == op) {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut totals = SpanTotals::default();
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.op == op) {
            *totals.total_ms.entry(s.name).or_default() += s.dur_ns() as f64 / 1e6;
            *totals.self_ms.entry(s.name).or_default() +=
                s.dur_ns().saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        totals
    }

    /// Summed duration of spans named `name` (0 when absent).
    pub fn total(&self, name: &str) -> f64 {
        self.total_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Summed self time of spans named `name` (0 when absent).
    pub fn self_time(&self, name: &str) -> f64 {
        self.self_ms.get(name).copied().unwrap_or(0.0)
    }

    /// Summed self time of every span whose layer (first dotted segment)
    /// is `layer`.
    pub fn layer_self(&self, layer: &str) -> f64 {
        self.self_ms
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .fold(0.0, |sum, (_, ms)| sum + ms)
    }
}

/// Renders spans as a JSON array (one object per span).
pub fn spans_json(spans: &[Span]) -> String {
    let rows: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )
        })
        .collect();
    format!("[\n{}\n]\n", rows.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let t = Tracer::on();
        t.begin_op(3);
        t.span("op", || t.span("serve.table", || std::hint::black_box(1 + 1)));
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 3 && s.end_ns >= s.start_ns));
        let totals = SpanTotals::of(&spans, 3);
        let op = totals.total("op");
        assert!((totals.self_time("op") + totals.total("serve.table") - op).abs() < 1e-9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::off();
        assert_eq!(t.span("op", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
