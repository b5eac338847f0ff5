//! Real-time spans recorded from the benchmark's own files, around its calls
//! into each layer's public functions. Spans stay in memory until the run
//! ends; a span's *self time* is its duration minus the part of it that its
//! child spans cover. Spans inside the crates themselves are a later change.
//!
//! A span's layer is its name up to the first `.` (`partition.hdrf` belongs
//! to `partition`), and the crate names are the layer names. All spans come
//! from the main thread: worker threads live inside the layers.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock; equals `start_ns` while the span is open.
    pub end_ns: u64,
    /// Index of the enclosing span, the span that caused this one.
    pub parent: Option<usize>,
    /// Which part of the run: `setup`, `rep` or `probe`.
    pub phase: &'static str,
    /// Repetition (or probe iteration) the span belongs to; spans of one
    /// repetition share it.
    pub rep: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The span's layer: its name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Inner {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    phase: &'static str,
    rep: u32,
}

/// In-memory span recorder. Disabled, `span` only calls its closure.
pub struct Tracer {
    inner: RefCell<Inner>,
}

/// Closes its span on drop, so a panic unwinding through `Tracer::span`
/// (caught further up by the op check) leaves the span stack consistent.
struct Close<'a> {
    tracer: &'a Tracer,
    index: usize,
}

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let mut inner = self.tracer.inner.borrow_mut();
        let now = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans[self.index].end_ns = now;
        inner.open.pop();
    }
}

impl Tracer {
    /// New tracer; `enabled = false` makes every `span` call a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            inner: RefCell::new(Inner {
                enabled,
                epoch: Instant::now(),
                spans: Vec::new(),
                open: Vec::new(),
                phase: "setup",
                rep: 0,
            }),
        }
    }

    /// Switch recording on or off (the traced run alternates, to price the
    /// tracing itself on identical inputs).
    pub fn set_enabled(&self, enabled: bool) {
        self.inner.borrow_mut().enabled = enabled;
    }

    /// Label the spans that follow with a phase and repetition id.
    pub fn set_context(&self, phase: &'static str, rep: u32) {
        let mut inner = self.inner.borrow_mut();
        inner.phase = phase;
        inner.rep = rep;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let index = {
            let mut inner = self.inner.borrow_mut();
            if !inner.enabled {
                drop(inner);
                return f();
            }
            let now = inner.epoch.elapsed().as_nanos() as u64;
            let span = Span {
                name,
                start_ns: now,
                end_ns: now,
                parent: inner.open.last().copied(),
                phase: inner.phase,
                rep: inner.rep,
            };
            inner.spans.push(span);
            let index = inner.spans.len() - 1;
            inner.open.push(index);
            index
        };
        let _close = Close {
            tracer: self,
            index,
        };
        f()
    }

    /// Position in the span log; two marks delimit a range of it.
    pub fn mark(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Total seconds of the spans named `name` within a range of the log.
    pub fn seconds_in(&self, range: Range<usize>, name: &str) -> f64 {
        let inner = self.inner.borrow();
        let ns: u64 = inner.spans[range]
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self seconds per layer over a range of the log.
    pub fn layer_self_seconds_in(&self, range: Range<usize>) -> BTreeMap<&'static str, f64> {
        let inner = self.inner.borrow();
        let selfs = self_ns(&inner.spans);
        let mut by_layer = BTreeMap::new();
        for i in range {
            *by_layer.entry(inner.spans[i].layer()).or_insert(0.0) += selfs[i] as f64 * 1e-9;
        }
        by_layer
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner.borrow().spans.len()
    }

    /// Chrome trace-event JSON (load in Perfetto or `chrome://tracing`) on
    /// the real-time clock. `pid` 2 keeps these tracks apart from
    /// gp-telemetry's simulated-clock trace, which uses `pid` 1.
    pub fn chrome_trace_json(&self, workload: &str) -> String {
        let inner = self.inner.borrow();
        let selfs = self_ns(&inner.spans);
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\
             \"args\":{{\"name\":\"benchmark {workload} (host real time)\"}}}}"
        ));
        for (id, (s, self_ns)) in inner.spans.iter().zip(selfs).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":2,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{id},\"parent\":{parent},\
                 \"workload\":\"{workload}\",\"phase\":\"{}\",\"rep\":{},\"self_us\":{:.3}}}}}",
                s.name,
                s.layer(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.phase,
                s.rep,
                self_ns as f64 / 1e3,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the interval its direct
/// children cover. Children are merged as intervals, so overlapping or
/// out-of-range children can never push a self time below zero.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Children appear after their parent in start order; `frontier[p]` is
    // how far into parent `p` its earlier children already reach.
    let mut frontier: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for child in spans {
        let Some(p) = child.parent else { continue };
        let start = child.start_ns.max(frontier[p]);
        let end = child.end_ns.min(spans[p].end_ns);
        if end > start {
            covered[p] += end - start;
            frontier[p] = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns() - c)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            phase: "rep",
            rep: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            span("harness.rep", 0, 100, None),
            span("partition.hdrf", 10, 40, Some(0)),
            span("store.scan", 15, 25, Some(1)),
            span("partition.report", 50, 70, Some(0)),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_merged_not_double_counted() {
        let spans = vec![
            span("a.root", 0, 100, None),
            span("b.one", 10, 60, Some(0)),
            span("b.two", 40, 80, Some(0)),
            span("b.late", 90, 130, Some(0)),
        ];
        // Cover is [10,80) plus [90,100): 80 of the root's 100.
        assert_eq!(self_ns(&spans)[0], 20);
    }

    #[test]
    fn recorded_spans_nest_and_carry_their_context() {
        let t = Tracer::new(true);
        t.set_context("rep", 3);
        let mark = t.mark();
        let got = t.span("harness.rep", || t.span("engine.sync_pagerank", || 7));
        assert_eq!(got, 7);
        assert_eq!(t.len(), 2);
        let inner = t.inner.borrow();
        assert_eq!(inner.spans[1].parent, Some(0));
        assert_eq!(inner.spans[1].layer(), "engine");
        assert_eq!((inner.spans[1].phase, inner.spans[1].rep), ("rep", 3));
        assert!(inner.spans[0].dur_ns() >= inner.spans[1].dur_ns());
        drop(inner);
        let layers = t.layer_self_seconds_in(mark..t.mark());
        assert_eq!(
            layers.keys().copied().collect::<Vec<_>>(),
            ["engine", "harness"]
        );
        let total: f64 = layers.values().sum();
        assert!((total - t.seconds_in(mark..t.mark(), "harness.rep")).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing_and_a_panic_closes_its_span() {
        let t = Tracer::new(false);
        assert_eq!(t.span("gen.generate", || 1), 1);
        assert_eq!(t.len(), 0);
        t.set_enabled(true);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.span("harness.rep", || t.span("serve.run", || panic!("boom")))
        }));
        assert!(caught.is_err());
        assert!(t.inner.borrow().open.is_empty());
        // A later span is a root again, not a child of the dead one.
        t.span("harness.rep", || ());
        assert_eq!(t.inner.borrow().spans[2].parent, None);
    }

    #[test]
    fn chrome_trace_is_one_event_per_span_plus_the_process_name() {
        let t = Tracer::new(true);
        t.span("harness.rep", || t.span("store.open_verify", || ()));
        let json = t.chrome_trace_json("ingress-stream");
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 1);
        assert!(json.contains("\"cat\":\"store\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
