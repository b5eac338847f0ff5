//! Spans: named intervals on the simulated clock.

/// The track a span is drawn on: one per simulated machine, plus a
/// cluster-wide track for phases that span the whole job (ingress,
/// supersteps, barriers, checkpoints).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Cluster-wide events (tid 0 in the Chrome export).
    Cluster,
    /// One simulated machine (tid `machine + 1` in the Chrome export).
    Machine(u32),
}

impl Track {
    /// Chrome trace `tid` for this track.
    pub fn tid(self) -> u32 {
        match self {
            Track::Cluster => 0,
            Track::Machine(m) => m + 1,
        }
    }

    /// Human-readable track name (Chrome `thread_name` metadata).
    pub fn label(self) -> String {
        match self {
            Track::Cluster => "cluster".to_string(),
            Track::Machine(m) => format!("machine {m}"),
        }
    }
}

/// One completed span. Hierarchy is positional: a span nests under another
/// span on the same track whenever its interval is contained in the
/// other's, which is exactly how Chrome/Perfetto reconstruct the tree from
/// complete (`ph: "X"`) events.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Span name, e.g. `superstep.3` or `ingress.hdrf`.
    pub name: String,
    /// Category, e.g. `ingress`, `superstep`, `phase`, `fault`.
    pub cat: &'static str,
    /// Track the span is drawn on.
    pub track: Track,
    /// Simulated start time, seconds.
    pub start_s: f64,
    /// Simulated duration, seconds.
    pub dur_s: f64,
}

impl SpanEvent {
    /// Simulated end time, seconds.
    pub fn end_s(&self) -> f64 {
        self.start_s + self.dur_s
    }

    /// Whether `other` is strictly nested inside this span's interval on
    /// the same track (used by the summary's depth computation and the
    /// nesting tests).
    pub fn contains(&self, other: &SpanEvent) -> bool {
        self.track == other.track
            && self.start_s <= other.start_s
            && other.end_s() <= self.end_s()
            && (self.start_s, other.end_s()) != (other.start_s, self.end_s())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(track: Track, start_s: f64, dur_s: f64) -> SpanEvent {
        SpanEvent {
            name: "s".into(),
            cat: "test",
            track,
            start_s,
            dur_s,
        }
    }

    #[test]
    fn tids_map_cluster_then_machines() {
        assert_eq!(Track::Cluster.tid(), 0);
        assert_eq!(Track::Machine(0).tid(), 1);
        assert_eq!(Track::Machine(24).tid(), 25);
    }

    #[test]
    fn containment_requires_same_track() {
        let outer = span(Track::Cluster, 0.0, 10.0);
        let inner = span(Track::Cluster, 2.0, 3.0);
        let elsewhere = span(Track::Machine(1), 2.0, 3.0);
        assert!(outer.contains(&inner));
        assert!(!outer.contains(&elsewhere));
        assert!(!inner.contains(&outer));
    }

    #[test]
    fn identical_intervals_do_not_nest() {
        let a = span(Track::Cluster, 1.0, 2.0);
        let b = span(Track::Cluster, 1.0, 2.0);
        assert!(!a.contains(&b));
    }

    #[test]
    fn shared_endpoint_still_nests() {
        let outer = span(Track::Cluster, 0.0, 4.0);
        let prefix = span(Track::Cluster, 0.0, 1.0);
        let suffix = span(Track::Cluster, 3.0, 1.0);
        assert!(outer.contains(&prefix));
        assert!(outer.contains(&suffix));
    }
}
