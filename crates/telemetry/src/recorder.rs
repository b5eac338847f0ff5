//! The in-memory trace recorder behind an enabled sink.

use crate::metrics::MetricsRegistry;
use crate::span::{SpanEvent, Track};

/// Collected spans and metrics for one run, on the simulated clock.
///
/// Instrumented components each keep their own local clock starting at
/// zero (an engine knows nothing about how long ingress took); the
/// pipeline stitches phases together by setting [`Recorder::set_time_offset`]
/// between them, and the offset is baked into spans at record time.
#[derive(Debug, Default)]
pub struct Recorder {
    spans: Vec<SpanEvent>,
    metrics: MetricsRegistry,
    offset_s: f64,
}

impl Recorder {
    /// Shift all subsequently recorded spans by `offset_s` simulated
    /// seconds (e.g. engine spans start after ingress ends).
    pub fn set_time_offset(&mut self, offset_s: f64) {
        self.offset_s = offset_s;
    }

    /// Advance the offset by `delta_s`. Components that run back-to-back on
    /// the simulated clock (a k-core sweep is eleven engine runs) advance by
    /// their own duration when they finish, so the next run's spans tile
    /// after theirs instead of overlapping.
    pub fn advance_time_offset(&mut self, delta_s: f64) {
        self.offset_s += delta_s;
    }

    /// Record a completed span; `start_s` is local to the caller's clock.
    pub fn record_span(
        &mut self,
        cat: &'static str,
        name: String,
        track: Track,
        start_s: f64,
        dur_s: f64,
    ) {
        self.spans.push(SpanEvent {
            name,
            cat,
            track,
            start_s: start_s + self.offset_s,
            dur_s,
        });
    }

    /// All spans in record order.
    pub fn spans(&self) -> &[SpanEvent] {
        &self.spans
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable metrics registry.
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Nesting depth of each span: the number of other spans on the same
    /// track that strictly contain it. Chrome/Perfetto derive the same
    /// tree from interval containment; this is the testable mirror of it.
    pub fn nesting_depths(&self) -> Vec<u32> {
        self.spans
            .iter()
            .map(|s| self.spans.iter().filter(|o| o.contains(s)).count() as u32)
            .collect()
    }

    /// End of the last span, in simulated seconds (0 for an empty trace).
    pub fn end_s(&self) -> f64 {
        self.spans.iter().map(SpanEvent::end_s).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offset_applies_at_record_time() {
        let mut r = Recorder::default();
        r.record_span("ingress", "ingress".into(), Track::Cluster, 0.0, 10.0);
        r.set_time_offset(10.0);
        r.record_span("superstep", "superstep.0".into(), Track::Cluster, 0.0, 2.0);
        assert_eq!(r.spans()[1].start_s, 10.0);
        assert_eq!(r.end_s(), 12.0);
        // Changing the offset later must not move already-recorded spans.
        r.set_time_offset(0.0);
        assert_eq!(r.spans()[1].start_s, 10.0);
    }

    #[test]
    fn nesting_depths_count_containing_spans() {
        let mut r = Recorder::default();
        r.record_span("superstep", "superstep.0".into(), Track::Cluster, 0.0, 10.0);
        r.record_span("phase", "compute".into(), Track::Cluster, 0.0, 4.0);
        r.record_span("phase", "network".into(), Track::Cluster, 4.0, 6.0);
        r.record_span("phase", "work".into(), Track::Machine(0), 0.0, 4.0);
        assert_eq!(r.nesting_depths(), vec![0, 1, 1, 0]);
    }
}
