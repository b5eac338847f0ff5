//! Exporters: Chrome trace-event JSON, metrics CSV, plain-text summary.
//!
//! All three are deterministic functions of the recorded trace: stable
//! ordering (track, then time), integer-microsecond timestamps, and
//! Rust's shortest-roundtrip float formatting — so the same seed yields
//! byte-identical artifacts, which the golden tests rely on.

use crate::recorder::Recorder;
use crate::span::{SpanEvent, Track};
use std::collections::BTreeSet;
use std::fmt::Write;

/// Chrome trace `pid` for the one simulated cluster process.
const PID: u32 = 1;

/// Escape a string for a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Simulated seconds → integer trace microseconds.
fn micros(s: f64) -> i64 {
    (s * 1e6).round() as i64
}

/// The whole trace as Chrome trace-event JSON (the "JSON object format":
/// a `traceEvents` array of `ph: "M"` metadata and `ph: "X"` complete
/// events), loadable in `chrome://tracing` and Perfetto.
pub fn chrome_trace_json(r: &Recorder) -> String {
    let mut events: Vec<String> = Vec::new();
    events.push(format!(
        r#"{{"name":"process_name","ph":"M","pid":{PID},"tid":0,"args":{{"name":"distgraph simulated cluster"}}}}"#
    ));
    let tracks: BTreeSet<Track> = r.spans().iter().map(|s| s.track).collect();
    for track in &tracks {
        events.push(format!(
            r#"{{"name":"thread_name","ph":"M","pid":{PID},"tid":{},"args":{{"name":"{}"}}}}"#,
            track.tid(),
            json_escape(&track.label())
        ));
    }
    // A span's duration is its rounded end minus its rounded start, so a
    // span ending where the next begins exports `ts + dur == next.ts`.
    let dur = |s: &SpanEvent| micros(s.end_s()) - micros(s.start_s);
    // Stable order: by track, then start time, longest span first so
    // parents precede the children their interval contains.
    let mut spans: Vec<_> = r.spans().iter().collect();
    spans.sort_by(|a, b| {
        (a.track.tid(), micros(a.start_s), dur(b)).cmp(&(b.track.tid(), micros(b.start_s), dur(a)))
    });
    for s in spans {
        events.push(format!(
            r#"{{"name":"{}","cat":"{}","ph":"X","ts":{},"dur":{},"pid":{PID},"tid":{}}}"#,
            json_escape(&s.name),
            json_escape(s.cat),
            micros(s.start_s),
            dur(s),
            s.track.tid()
        ));
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        events.join(",\n")
    )
}

/// Every metric as flat CSV with a `kind,name,field,value` header.
/// Histograms expand to one row per bucket (`le_<bound>` fields, plus the
/// `le_inf` overflow bucket, `sum` and `count`).
pub fn metrics_csv(r: &Recorder) -> String {
    let m = r.metrics();
    let mut out = String::from("kind,name,field,value\n");
    for (name, v) in m.counters() {
        let _ = writeln!(out, "counter,{name},,{v}");
    }
    for (name, v) in m.gauges() {
        let _ = writeln!(out, "gauge,{name},,{v}");
    }
    for (name, h) in m.histograms() {
        for (bound, count) in h.bounds().iter().zip(h.counts()) {
            let _ = writeln!(out, "histogram,{name},le_{bound},{count}");
        }
        let _ = writeln!(
            out,
            "histogram,{name},le_inf,{}",
            h.counts()[h.bounds().len()]
        );
        let _ = writeln!(out, "histogram,{name},sum,{}", h.sum());
        let _ = writeln!(out, "histogram,{name},count,{}", h.count());
    }
    out
}

/// Plain-text per-run summary: span totals by category and every metric.
pub fn summary(r: &Recorder) -> String {
    let mut out = String::from("== telemetry summary ==\n");
    let tracks: BTreeSet<Track> = r.spans().iter().map(|s| s.track).collect();
    let _ = writeln!(
        out,
        "trace: {} spans on {} tracks, {:.3} s simulated",
        r.spans().len(),
        tracks.len(),
        r.end_s()
    );
    // Category totals over the cluster track only: machine tracks mirror
    // the cluster phases and would double-count the same simulated time.
    let cats: BTreeSet<&'static str> = r
        .spans()
        .iter()
        .filter(|s| s.track == Track::Cluster)
        .map(|s| s.cat)
        .collect();
    if !cats.is_empty() {
        let _ = writeln!(out, "cluster span time by category:");
        for cat in cats {
            let total: f64 = r
                .spans()
                .iter()
                .filter(|s| s.track == Track::Cluster && s.cat == cat)
                .map(|s| s.dur_s)
                .sum();
            let _ = writeln!(out, "  {cat:<12} {total:>10.3} s");
        }
    }
    let m = r.metrics();
    if m.counters().next().is_some() {
        let _ = writeln!(out, "counters:");
        for (name, v) in m.counters() {
            let _ = writeln!(out, "  {name:<36} {v}");
        }
    }
    if m.gauges().next().is_some() {
        let _ = writeln!(out, "gauges:");
        for (name, v) in m.gauges() {
            let _ = writeln!(out, "  {name:<36} {v:.4}");
        }
    }
    if m.histograms().next().is_some() {
        let _ = writeln!(out, "histograms (count, mean):");
        for (name, h) in m.histograms() {
            let _ = writeln!(out, "  {name:<36} {:>8} {:.6}", h.count(), h.mean());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Track;

    fn sample() -> Recorder {
        let mut r = Recorder::default();
        r.record_span("ingress", "ingress.hdrf".into(), Track::Cluster, 0.0, 1.5);
        r.set_time_offset(1.5);
        r.record_span("superstep", "superstep.0".into(), Track::Cluster, 0.0, 0.5);
        r.record_span("phase", "compute".into(), Track::Cluster, 0.0, 0.3);
        r.record_span("phase", "work".into(), Track::Machine(1), 0.0, 0.3);
        r.metrics_mut().counter_add("ingress.replicas_created", 42);
        r.metrics_mut()
            .gauge_set("ingress.replication_factor", 1.75);
        r.metrics_mut()
            .histogram_record("superstep.wall_seconds", &[0.1, 1.0], 0.5);
        r
    }

    #[test]
    fn chrome_trace_has_schema_fields_and_integer_micros() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"));
        // Metadata names the cluster process and each used track.
        assert!(json.contains(r#""name":"process_name","ph":"M""#));
        assert!(json.contains(r#""tid":2,"args":{"name":"machine 1"}"#));
        // Complete events carry ph/ts/dur/pid/tid with microsecond ints.
        assert!(json.contains(
            r#"{"name":"ingress.hdrf","cat":"ingress","ph":"X","ts":0,"dur":1500000,"pid":1,"tid":0}"#
        ));
        // The offset moved the superstep to t = 1.5 s.
        assert!(json.contains(
            r#"{"name":"superstep.0","cat":"superstep","ph":"X","ts":1500000,"dur":500000,"pid":1,"tid":0}"#
        ));
    }

    /// A span that ends where the next one starts exports `ts + dur ==
    /// next.ts`, even when its start and length each round the other way.
    #[test]
    fn a_span_ending_on_the_next_start_meets_it_in_integer_micros() {
        let mut r = Recorder::default();
        // 0.3 µs rounds down and 1.4 µs rounds down, but their sum rounds up.
        r.record_span(
            "fault",
            "checkpoint.0".into(),
            Track::Cluster,
            0.3e-6,
            1.4e-6,
        );
        let end = r.spans()[0].end_s();
        r.record_span(
            "superstep",
            "superstep.1".into(),
            Track::Cluster,
            end,
            1.0e-6,
        );
        let json = chrome_trace_json(&r);
        let field = |name: &str, key: &str| -> i64 {
            let event = json.lines().find(|l| l.contains(name)).unwrap();
            let rest = &event[event.find(&format!("\"{key}\":")).unwrap() + key.len() + 3..];
            rest[..rest.find(',').unwrap()].parse().unwrap()
        };
        let (ts, dur) = (field("checkpoint.0", "ts"), field("checkpoint.0", "dur"));
        assert_eq!((ts, dur), (0, 2));
        assert_eq!(ts + dur, field("superstep.1", "ts"));
    }

    #[test]
    fn chrome_trace_orders_parents_before_children() {
        let json = chrome_trace_json(&sample());
        let parent = json.find(r#""name":"superstep.0""#).unwrap();
        let child = json.find(r#""name":"compute""#).unwrap();
        assert!(parent < child, "longer span must precede its nested child");
    }

    #[test]
    fn names_are_json_escaped() {
        let mut r = Recorder::default();
        r.record_span("t", "a\"b\\c\nd".into(), Track::Cluster, 0.0, 1.0);
        let json = chrome_trace_json(&r);
        assert!(json.contains(r#""name":"a\"b\\c\nd""#));
    }

    #[test]
    fn csv_lists_every_metric_kind() {
        let csv = metrics_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,field,value");
        assert!(lines.contains(&"counter,ingress.replicas_created,,42"));
        assert!(lines.contains(&"gauge,ingress.replication_factor,,1.75"));
        assert!(lines.contains(&"histogram,superstep.wall_seconds,le_0.1,0"));
        assert!(lines.contains(&"histogram,superstep.wall_seconds,le_1,1"));
        assert!(lines.contains(&"histogram,superstep.wall_seconds,le_inf,0"));
        assert!(lines.contains(&"histogram,superstep.wall_seconds,sum,0.5"));
        assert!(lines.contains(&"histogram,superstep.wall_seconds,count,1"));
    }

    #[test]
    fn summary_reports_trace_shape_and_metrics() {
        let text = summary(&sample());
        assert!(text.contains("4 spans on 2 tracks"));
        assert!(text.contains("ingress"));
        assert!(text.contains("ingress.replicas_created"));
        assert!(text.contains("superstep.wall_seconds"));
    }

    #[test]
    fn empty_recorder_exports_are_valid() {
        let r = Recorder::default();
        let json = chrome_trace_json(&r);
        assert!(json.contains("traceEvents"));
        assert_eq!(metrics_csv(&r), "kind,name,field,value\n");
        assert!(summary(&r).contains("0 spans on 0 tracks"));
    }
}
