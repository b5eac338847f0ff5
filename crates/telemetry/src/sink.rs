//! The sink handle threaded through engines, partitioners and pipeline.

use crate::export;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::recorder::Recorder;
use crate::span::{SpanEvent, Track};
use std::fmt;
use std::sync::{Arc, Mutex};

/// Fixed bucket boundaries for duration histograms, simulated seconds.
pub const SECONDS_BUCKETS: [f64; 10] = [0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 15.0, 60.0];

/// Fixed bucket boundaries for byte-volume histograms (1 KiB … 4 GiB in
/// powers of four).
pub const BYTES_BUCKETS: [f64; 12] = [
    1024.0,
    4096.0,
    16384.0,
    65536.0,
    262144.0,
    1048576.0,
    4194304.0,
    16777216.0,
    67108864.0,
    268435456.0,
    1073741824.0,
    4294967296.0,
];

/// Fixed bucket boundaries for simulated-work-unit histograms (powers of
/// ten; per-loader ingress work spans roughly 1e3–1e7 units on the
/// analogue graphs).
pub const WORK_BUCKETS: [f64; 8] = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9];

/// A cheap-to-clone telemetry handle.
///
/// The default [`TelemetrySink::Disabled`] is guaranteed inert: every
/// method bails on a single discriminant check before any allocation,
/// formatting or locking, so instrumented code produces bit-identical
/// results to uninstrumented code. [`TelemetrySink::recording`] turns
/// instrumentation on; clones share one [`Recorder`], which is how the
/// partition, engine and pipeline layers write into a single trace.
#[derive(Clone, Default)]
pub enum TelemetrySink {
    /// Inert default: record calls are no-ops.
    #[default]
    Disabled,
    /// Recording into a shared in-memory trace.
    Enabled(Arc<Mutex<Recorder>>),
}

impl TelemetrySink {
    /// A fresh recording sink.
    pub fn recording() -> Self {
        TelemetrySink::Enabled(Arc::new(Mutex::new(Recorder::default())))
    }

    /// Whether record calls will do anything. Gate any instrumentation
    /// that needs to *compute* something (format a name, sum a vector) on
    /// this so disabled runs pay nothing.
    pub fn is_enabled(&self) -> bool {
        matches!(self, TelemetrySink::Enabled(_))
    }

    fn with_recorder<T: Default>(&self, f: impl FnOnce(&mut Recorder) -> T) -> T {
        match self {
            TelemetrySink::Disabled => T::default(),
            // Poison is ignored: the recorder only appends spans and bumps
            // metrics, so it is valid wherever another holder panicked.
            TelemetrySink::Enabled(r) => f(&mut r.lock().unwrap_or_else(|p| p.into_inner())),
        }
    }

    /// Shift subsequently recorded spans by `offset_s` simulated seconds.
    pub fn set_time_offset(&self, offset_s: f64) {
        self.with_recorder(|r| r.set_time_offset(offset_s));
    }

    /// Advance the span offset by `delta_s` simulated seconds (see
    /// [`Recorder::advance_time_offset`]).
    pub fn advance_time_offset(&self, delta_s: f64) {
        self.with_recorder(|r| r.advance_time_offset(delta_s));
    }

    /// Record a completed span on the cluster track (prefer the lazier
    /// [`crate::span!`] macro at instrumentation sites).
    pub fn record_span(&self, cat: &'static str, name: String, start_s: f64, dur_s: f64) {
        self.with_recorder(|r| r.record_span(cat, name, Track::Cluster, start_s, dur_s));
    }

    /// Record a completed span on one machine's track (prefer
    /// [`crate::machine_span!`]).
    pub fn record_machine_span(
        &self,
        cat: &'static str,
        name: String,
        machine: u32,
        start_s: f64,
        dur_s: f64,
    ) {
        self.with_recorder(|r| r.record_span(cat, name, Track::Machine(machine), start_s, dur_s));
    }

    /// Add to a counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        self.with_recorder(|r| r.metrics_mut().counter_add(name, delta));
    }

    /// Set a gauge.
    pub fn gauge_set(&self, name: &str, value: f64) {
        self.with_recorder(|r| r.metrics_mut().gauge_set(name, value));
    }

    /// Record into a fixed-boundary histogram (bounds fix on first touch).
    pub fn histogram_record(&self, name: &str, bounds: &[f64], value: f64) {
        self.with_recorder(|r| r.metrics_mut().histogram_record(name, bounds, value));
    }

    /// Snapshot of all recorded spans (empty when disabled).
    pub fn spans(&self) -> Vec<SpanEvent> {
        self.with_recorder(|r| r.spans().to_vec())
    }

    /// Snapshot of the metrics registry (empty when disabled).
    pub fn metrics(&self) -> MetricsRegistry {
        self.with_recorder(|r| r.metrics().clone())
    }

    /// A counter's current value (0 when disabled).
    pub fn counter(&self, name: &str) -> u64 {
        self.with_recorder(|r| r.metrics().counter(name))
    }

    /// A histogram snapshot, if created.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.with_recorder(|r| r.metrics().histogram(name).cloned())
    }

    /// Nesting depth per span (see [`Recorder::nesting_depths`]).
    pub fn nesting_depths(&self) -> Vec<u32> {
        self.with_recorder(|r| r.nesting_depths())
    }

    /// Chrome trace-event JSON for the whole trace; loadable in
    /// `chrome://tracing` and Perfetto. Deterministic: integer-microsecond
    /// timestamps and a stable event order. Empty when disabled.
    pub fn chrome_trace_json(&self) -> String {
        self.with_recorder(|r| export::chrome_trace_json(r))
    }

    /// Flat CSV of every metric. Empty when disabled.
    pub fn metrics_csv(&self) -> String {
        self.with_recorder(|r| export::metrics_csv(r))
    }

    /// Plain-text per-run summary of spans and metrics. Empty when
    /// disabled.
    pub fn summary(&self) -> String {
        self.with_recorder(|r| export::summary(r))
    }
}

impl fmt::Debug for TelemetrySink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TelemetrySink::Disabled => f.write_str("TelemetrySink::Disabled"),
            TelemetrySink::Enabled(_) => f.write_str("TelemetrySink::Enabled"),
        }
    }
}

/// Sinks compare by mode only: two enabled sinks are equal as *settings*
/// even though they record into different traces (this keeps config
/// structs' derived `PartialEq` meaningful).
impl PartialEq for TelemetrySink {
    fn eq(&self, other: &Self) -> bool {
        self.is_enabled() == other.is_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing_and_exports_empty() {
        let sink = TelemetrySink::default();
        assert!(!sink.is_enabled());
        sink.record_span("t", "x".into(), 0.0, 1.0);
        sink.counter_add("c", 7);
        sink.gauge_set("g", 1.0);
        sink.histogram_record("h", &SECONDS_BUCKETS, 0.5);
        assert!(sink.spans().is_empty());
        assert!(sink.metrics().is_empty());
        assert_eq!(sink.counter("c"), 0);
        assert_eq!(sink.chrome_trace_json(), "");
        assert_eq!(sink.metrics_csv(), "");
        assert_eq!(sink.summary(), "");
    }

    #[test]
    fn clones_share_one_recorder() {
        let sink = TelemetrySink::recording();
        let clone = sink.clone();
        clone.counter_add("c", 2);
        sink.counter_add("c", 3);
        assert_eq!(sink.counter("c"), 5);
        clone.record_span("t", "x".into(), 0.0, 1.0);
        assert_eq!(sink.spans().len(), 1);
    }

    #[test]
    fn span_macros_format_lazily() {
        let sink = TelemetrySink::recording();
        let i = 7;
        crate::span!(sink, "superstep", 0.0, 1.0, "superstep.{i}");
        crate::machine_span!(sink, "phase", 2, 0.0, 0.5, "work");
        let spans = sink.spans();
        assert_eq!(spans[0].name, "superstep.7");
        assert_eq!(spans[1].track, Track::Machine(2));
    }

    #[test]
    fn equality_is_by_mode() {
        assert_eq!(TelemetrySink::Disabled, TelemetrySink::Disabled);
        assert_eq!(TelemetrySink::recording(), TelemetrySink::recording());
        assert_ne!(TelemetrySink::Disabled, TelemetrySink::recording());
    }

    #[test]
    fn debug_does_not_leak_trace_contents() {
        let sink = TelemetrySink::recording();
        sink.counter_add("secret", 1);
        assert_eq!(format!("{sink:?}"), "TelemetrySink::Enabled");
        assert_eq!(
            format!("{:?}", TelemetrySink::Disabled),
            "TelemetrySink::Disabled"
        );
    }
}
