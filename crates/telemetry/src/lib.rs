//! Instrumentation for the simulated cluster: spans, metrics, exporters.
//!
//! Every conclusion in the source paper is a claim about *where time and
//! bytes go* — ingress vs. compute vs. replication-driven communication —
//! so the repro needs per-phase observability, not just end-of-run
//! aggregates. This crate provides it in three layers:
//!
//! 1. **Spans** ([`SpanEvent`]): named intervals on simulated time, one
//!    track per simulated machine plus a cluster-wide track. Engines emit a
//!    span per superstep with nested `compute`/`network`/`barrier` phase
//!    spans (the three additive terms of the superstep wall formula), and
//!    per-machine spans exposing imbalance.
//! 2. **Metrics** ([`MetricsRegistry`]): counters (edges placed, replicas
//!    created, bytes shipped, checkpoint bytes), gauges (replication
//!    factor), and fixed-boundary histograms (per-superstep wall seconds
//!    and inbound bytes).
//! 3. **Exporters**: Chrome trace-event JSON loadable in `chrome://tracing`
//!    or Perfetto ([`TelemetrySink::chrome_trace_json`]), a flat CSV of
//!    metrics, and a plain-text per-run summary.
//!
//! The whole surface hangs off [`TelemetrySink`], a cheap-to-clone handle
//! with a [`TelemetrySink::Disabled`] variant. Disabled is the default and
//! is *guaranteed inert*: every record call is gated on one enum
//! discriminant check, no formatting or allocation happens, and
//! instrumented code paths produce bit-identical results to uninstrumented
//! ones (the same contract as `gp-fault`'s inactive model; asserted by the
//! `telemetry_identity` integration tests).
//!
//! Time is **simulated seconds**, never wall-clock: callers pass the
//! simulated start/duration they computed from the cost model, so traces
//! are deterministic — the same seed yields byte-identical JSON.

pub mod export;
pub mod metrics;
pub mod recorder;
pub mod sink;
pub mod span;

pub use metrics::{Histogram, MetricsRegistry};
pub use recorder::Recorder;
pub use sink::TelemetrySink;
pub use span::{SpanEvent, Track};

/// Record a span on the cluster track, formatting the name lazily.
///
/// The name is a `format!` pattern evaluated **only when the sink is
/// enabled**, so instrumentation sites pay nothing for string construction
/// in the disabled default:
///
/// ```
/// use gp_telemetry::{span, TelemetrySink};
/// let sink = TelemetrySink::recording();
/// let superstep = 3;
/// span!(sink, "superstep", 1.5, 0.25, "superstep.{superstep}");
/// assert_eq!(sink.spans()[0].name, "superstep.3");
/// ```
#[macro_export]
macro_rules! span {
    ($sink:expr, $cat:expr, $start_s:expr, $dur_s:expr, $($name:tt)+) => {
        if $sink.is_enabled() {
            $sink.record_span($cat, format!($($name)+), $start_s, $dur_s);
        }
    };
}

/// Record a span on one machine's track, formatting the name lazily.
///
/// Same contract as [`span!`], with an explicit machine id mapped to its
/// own trace track (`tid = machine + 1` in the Chrome export).
#[macro_export]
macro_rules! machine_span {
    ($sink:expr, $cat:expr, $machine:expr, $start_s:expr, $dur_s:expr, $($name:tt)+) => {
        if $sink.is_enabled() {
            $sink.record_machine_span($cat, format!($($name)+), $machine, $start_s, $dur_s);
        }
    };
}

/// Peak resident-set size of this process in bytes, read from the kernel's
/// `VmHWM` high-water mark in `/proc/self/status`. This is *real* memory,
/// not simulated — the out-of-core experiments use it to prove a streamed
/// ingress run stayed within its budget. Returns `None` on platforms
/// without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        for line in status.lines() {
            if let Some(rest) = line.strip_prefix("VmHWM:") {
                let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
                return Some(kb * 1024);
            }
        }
        None
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

#[cfg(all(test, target_os = "linux"))]
mod rss_tests {
    #[test]
    fn peak_rss_is_positive_and_plausible() {
        let rss = super::peak_rss_bytes().expect("procfs available on linux");
        assert!(rss > 1024 * 1024, "peak RSS {rss} below 1 MiB?");
        assert!(rss < 1 << 40, "peak RSS {rss} above 1 TiB?");
    }
}
