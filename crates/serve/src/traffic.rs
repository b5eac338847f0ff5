//! Traffic plans: a deterministic, seeded schedule of streaming updates and
//! query traffic, the serving analogue of `gp-fault`'s `FaultPlan`.
//!
//! Traffic is drawn as a set of independent **user sessions**, each a Poisson
//! process over the serving horizon: inter-arrival gaps are exponential in
//! the session's aggregate rate, and each arrival picks an event kind with
//! probability proportional to the per-kind rates. Every session reads its
//! own ChaCha12 keystream (seeded from the plan seed and the session index),
//! so the plan is a pure function of `(seed, topology, rates)` — the same
//! inputs always produce the byte-identical event sequence, which is what
//! makes serve reports reproducible.

use gp_core::{ChaCha12, Edge, Rng, VertexId};

/// One scheduled traffic event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// Insert a new edge into the live graph.
    Insert(Edge),
    /// Delete a live edge. The victim is resolved *at apply time* from
    /// `draw` against the edges then alive (a plan cannot name edge indices
    /// it has not seen inserted yet).
    Delete {
        /// Uniform draw the server maps onto a live edge.
        draw: u64,
    },
    /// k-hop neighborhood read from `start`.
    KHop {
        /// Query root.
        start: VertexId,
        /// Traversal depth (1 or 2).
        hops: u32,
    },
    /// Per-vertex application-state read (master lookup + value fetch).
    ReadState {
        /// Vertex whose state is read.
        vertex: VertexId,
    },
}

/// An event with its arrival time and provenance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrafficEvent {
    /// Simulated arrival time in seconds since serving started.
    pub time_s: f64,
    /// Session that issued the event.
    pub session: u32,
    /// Sequence number within the session (tie-break for the merge).
    pub seq: u32,
    /// What happens.
    pub kind: EventKind,
}

/// Per-session event rates (events per simulated second).
#[derive(Debug, Clone)]
pub struct TrafficRates {
    /// Edge inserts per second.
    pub inserts_per_s: f64,
    /// Edge deletes per second.
    pub deletes_per_s: f64,
    /// k-hop queries per second.
    pub khop_per_s: f64,
    /// Vertex-state reads per second.
    pub reads_per_s: f64,
    /// Maximum k-hop depth (each query draws `1..=max_hops` uniformly).
    pub max_hops: u32,
}

impl Default for TrafficRates {
    fn default() -> Self {
        TrafficRates {
            inserts_per_s: 40.0,
            deletes_per_s: 20.0,
            khop_per_s: 30.0,
            reads_per_s: 60.0,
            max_hops: 2,
        }
    }
}

impl TrafficRates {
    /// Aggregate arrival rate of one session.
    pub fn total(&self) -> f64 {
        self.inserts_per_s + self.deletes_per_s + self.khop_per_s + self.reads_per_s
    }

    /// Scale the churn (insert/delete) rates, leaving query rates alone —
    /// the knob for the latency-vs-churn experiment.
    pub fn with_churn_scale(mut self, factor: f64) -> Self {
        self.inserts_per_s *= factor;
        self.deletes_per_s *= factor;
        self
    }
}

/// A deterministic schedule of traffic for one serve run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficPlan {
    /// Seed the plan was drawn from.
    pub seed: u64,
    /// Serving horizon in simulated seconds.
    pub horizon_s: f64,
    /// Events in global arrival order (time, then session, then seq).
    pub events: Vec<TrafficEvent>,
}

impl TrafficPlan {
    /// Draw a plan: `sessions` independent Poisson streams over
    /// `horizon_s` seconds, edges and query roots drawn uniformly from
    /// `0..num_vertices`.
    pub fn generate(
        seed: u64,
        num_vertices: u64,
        sessions: u32,
        horizon_s: f64,
        rates: &TrafficRates,
    ) -> Self {
        assert!(num_vertices >= 2, "need at least two vertices for edges");
        assert!(horizon_s > 0.0, "horizon must be positive");
        let total = rates.total();
        let mut events = Vec::new();
        if total > 0.0 {
            for session in 0..sessions {
                // Same derivation style as the per-loader ingress seeds:
                // the keystream constructor splitmixes, so nearby session
                // seeds give unrelated streams.
                let mut rng = ChaCha12::new(seed ^ (0x5e55_0000 + session as u64));
                let mut t = 0.0f64;
                let mut seq = 0u32;
                loop {
                    // Exponential inter-arrival gap.
                    t += -(1.0 - rng.next_f64()).ln() / total;
                    if t >= horizon_s {
                        break;
                    }
                    let kind = Self::draw_kind(&mut rng, num_vertices, rates);
                    events.push(TrafficEvent {
                        time_s: t,
                        session,
                        seq,
                        kind,
                    });
                    seq += 1;
                }
            }
        }
        // k-way merge of the session streams; (time, session, seq) is a
        // total order because each session's times strictly increase.
        events.sort_by(|a, b| {
            a.time_s
                .total_cmp(&b.time_s)
                .then(a.session.cmp(&b.session))
                .then(a.seq.cmp(&b.seq))
        });
        TrafficPlan {
            seed,
            horizon_s,
            events,
        }
    }

    fn draw_kind(rng: &mut ChaCha12, n: u64, rates: &TrafficRates) -> EventKind {
        let roll = rng.next_f64() * rates.total();
        if roll < rates.inserts_per_s {
            let src = rng.next_below(n);
            let mut dst = rng.next_below(n);
            if dst == src {
                dst = (dst + 1) % n;
            }
            EventKind::Insert(Edge::new(src, dst))
        } else if roll < rates.inserts_per_s + rates.deletes_per_s {
            EventKind::Delete {
                draw: rng.next_u64(),
            }
        } else if roll < rates.inserts_per_s + rates.deletes_per_s + rates.khop_per_s {
            EventKind::KHop {
                start: VertexId(rng.next_below(n)),
                hops: 1 + rng.next_below(rates.max_hops.max(1) as u64) as u32,
            }
        } else {
            EventKind::ReadState {
                vertex: VertexId(rng.next_below(n)),
            }
        }
    }

    /// Number of query (k-hop/state-read) events.
    pub fn query_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::KHop { .. } | EventKind::ReadState { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let r = TrafficRates::default();
        let a = TrafficPlan::generate(9, 1_000, 4, 10.0, &r);
        let b = TrafficPlan::generate(9, 1_000, 4, 10.0, &r);
        assert_eq!(a, b);
        assert!(!a.events.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let r = TrafficRates::default();
        let a = TrafficPlan::generate(1, 1_000, 4, 10.0, &r);
        let b = TrafficPlan::generate(2, 1_000, 4, 10.0, &r);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn events_are_time_ordered_within_horizon() {
        let plan = TrafficPlan::generate(7, 500, 3, 5.0, &TrafficRates::default());
        let mut last = 0.0;
        for e in &plan.events {
            assert!(e.time_s >= last, "events out of order");
            assert!(e.time_s < 5.0, "event past horizon");
            last = e.time_s;
        }
    }

    #[test]
    fn event_mix_tracks_rates() {
        // ~150 events/s/session over 20 s x 2 sessions: the law of large
        // numbers holds loosely enough for a 2x tolerance.
        let r = TrafficRates::default();
        let plan = TrafficPlan::generate(3, 2_000, 2, 20.0, &r);
        let queries = plan.query_count() as f64;
        let churn = plan.events.len() as f64 - queries;
        let expect_ratio = (r.inserts_per_s + r.deletes_per_s) / (r.khop_per_s + r.reads_per_s);
        let got_ratio = churn / queries;
        assert!(
            (got_ratio / expect_ratio) > 0.5 && (got_ratio / expect_ratio) < 2.0,
            "churn/query ratio {got_ratio:.2} vs expected {expect_ratio:.2}"
        );
    }

    #[test]
    fn zero_rates_yield_empty_plan() {
        let r = TrafficRates {
            inserts_per_s: 0.0,
            deletes_per_s: 0.0,
            khop_per_s: 0.0,
            reads_per_s: 0.0,
            max_hops: 2,
        };
        assert!(TrafficPlan::generate(5, 100, 4, 10.0, &r).events.is_empty());
    }

    #[test]
    fn inserts_never_self_loop() {
        let r = TrafficRates {
            inserts_per_s: 100.0,
            deletes_per_s: 0.0,
            khop_per_s: 0.0,
            reads_per_s: 0.0,
            max_hops: 1,
        };
        // Tiny vertex count maximizes collision pressure.
        let plan = TrafficPlan::generate(11, 2, 2, 5.0, &r);
        for e in &plan.events {
            if let EventKind::Insert(edge) = e.kind {
                assert_ne!(edge.src, edge.dst);
            }
        }
    }

    #[test]
    fn churn_scale_multiplies_only_churn() {
        let r = TrafficRates::default().with_churn_scale(3.0);
        assert_eq!(r.inserts_per_s, 120.0);
        assert_eq!(r.deletes_per_s, 60.0);
        assert_eq!(r.khop_per_s, 30.0);
        assert_eq!(r.reads_per_s, 60.0);
    }
}
