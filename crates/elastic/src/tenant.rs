//! Multi-tenant scheduling over one simulated cluster.
//!
//! Two or more jobs share the machines; the scheduler decides who runs
//! when, and the network prices what sharing costs. Jobs arrive as
//! superstep timelines ([`TenantJob`]) — per-step wall seconds and wire
//! bytes lifted from a solo `ComputeReport` — so the scheduler stays
//! engine-agnostic and deterministic.
//!
//! * **FIFO** runs jobs to completion in arrival order. A sole tenant owns
//!   the cluster, so steps run at solo speed and interference is zero;
//!   the entire cost of sharing is queue wait.
//! * **Fair-share** admits every job at arrival and round-robins one
//!   superstep per active job per round. With `k` active tenants each gets
//!   a `1/k` capacity slice (steps stretch `k×`), and the shared NICs
//!   collide: `gp_net::contention_loss_rate(k, per_tenant)` feeds the
//!   retry model's closed forms, pricing retransmitted bytes and timeout
//!   stalls exactly as flaky links are priced in ch11.
//!
//! The classic trade falls out: FIFO minimizes makespan and interference,
//! fair-share minimizes the wait a late-arriving job suffers.

use gp_cluster::ClusterSpec;
use gp_net::{contention_loss_rate, expected_retransmissions, expected_timeout_stall_s};
use gp_telemetry::{span, TelemetrySink};

/// Scheduling discipline for co-tenant jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Run-to-completion in arrival order; one tenant at a time.
    Fifo,
    /// Round-robin one superstep per active job; capacity split evenly.
    FairShare,
}

impl SchedulePolicy {
    /// Short label for tables and spans.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulePolicy::Fifo => "fifo",
            SchedulePolicy::FairShare => "fair-share",
        }
    }
}

/// One tenant's job: its solo superstep timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantJob {
    /// Display name, used in spans and tables.
    pub name: String,
    /// Simulated submission time, seconds.
    pub arrival_s: f64,
    /// Solo wall seconds per superstep.
    pub step_walls: Vec<f64>,
    /// Wire bytes each superstep puts on the network.
    pub step_bytes: Vec<f64>,
}

impl TenantJob {
    /// Build a job from parallel per-step vectors (bytes padded with zeros
    /// if shorter than walls).
    pub fn new(name: &str, arrival_s: f64, step_walls: Vec<f64>, mut step_bytes: Vec<f64>) -> Self {
        step_bytes.resize(step_walls.len(), 0.0);
        TenantJob {
            name: name.to_string(),
            arrival_s: arrival_s.max(0.0),
            step_walls,
            step_bytes,
        }
    }

    /// Solo wall-clock of the whole job.
    pub fn solo_seconds(&self) -> f64 {
        self.step_walls.iter().sum()
    }
}

/// Where one tenant's time went under the schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantOutcome {
    /// Job name.
    pub name: String,
    /// Submission time, seconds.
    pub arrival_s: f64,
    /// First superstep start, seconds.
    pub start_s: f64,
    /// Last superstep end, seconds.
    pub finish_s: f64,
    /// Queue wait: `start_s - arrival_s`.
    pub wait_seconds: f64,
    /// Slowdown versus the solo run while executing:
    /// `(finish - start) - solo_seconds`.
    pub interference_seconds: f64,
    /// Extra bytes retransmitted because co-tenants collided on the NICs.
    pub interference_bytes: f64,
}

/// The deterministic result of one schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantReport {
    /// Discipline that produced it.
    pub policy: SchedulePolicy,
    /// Time the last job finished, seconds.
    pub makespan_s: f64,
    /// Per-job accounting, in arrival order.
    pub outcomes: Vec<TenantOutcome>,
}

impl TenantReport {
    /// Total retransmitted bytes across jobs.
    pub fn total_interference_bytes(&self) -> f64 {
        self.outcomes.iter().map(|o| o.interference_bytes).sum()
    }
}

/// Per-co-tenant collision probability on the shared NICs.
const PER_TENANT_LOSS: f64 = 0.02;

/// Deterministic multi-tenant scheduler over one cluster. Fair-share prices
/// collisions on the shared NICs with gp-net's retry closed forms.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantScheduler {
    /// The shared cluster.
    pub spec: ClusterSpec,
    /// Scheduling discipline.
    pub policy: SchedulePolicy,
}

impl TenantScheduler {
    /// Scheduler for `spec` under `policy`.
    pub fn new(spec: ClusterSpec, policy: SchedulePolicy) -> Self {
        TenantScheduler { spec, policy }
    }

    /// Run `jobs` under the schedule. Jobs are processed in arrival order
    /// (ties broken by input order); the result is a pure function of the
    /// inputs. `telemetry` gets one `elastic`-category wait span per job
    /// plus tenant counters; pass `TelemetrySink::Disabled` for none.
    pub fn run(&self, jobs: &[TenantJob], telemetry: &TelemetrySink) -> TenantReport {
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        order.sort_by(|&a, &b| {
            jobs[a]
                .arrival_s
                .partial_cmp(&jobs[b].arrival_s)
                .unwrap()
                .then(a.cmp(&b))
        });
        let report = match self.policy {
            SchedulePolicy::Fifo => self.run_fifo(jobs, &order),
            SchedulePolicy::FairShare => self.run_fair(jobs, &order),
        };
        if telemetry.is_enabled() {
            for o in &report.outcomes {
                let name = &o.name;
                span!(
                    telemetry,
                    "elastic",
                    o.arrival_s,
                    o.wait_seconds,
                    "tenant.wait.{name}"
                );
            }
            telemetry.counter_add("elastic.tenant_jobs", report.outcomes.len() as u64);
            telemetry.counter_add(
                "elastic.tenant_interference_bytes",
                report.total_interference_bytes() as u64,
            );
        }
        report
    }

    fn run_fifo(&self, jobs: &[TenantJob], order: &[usize]) -> TenantReport {
        let mut now = 0.0f64;
        let mut outcomes = Vec::with_capacity(order.len());
        for &j in order {
            let job = &jobs[j];
            let start = now.max(job.arrival_s);
            let finish = start + job.solo_seconds();
            now = finish;
            outcomes.push(TenantOutcome {
                name: job.name.clone(),
                arrival_s: job.arrival_s,
                start_s: start,
                finish_s: finish,
                wait_seconds: start - job.arrival_s,
                interference_seconds: 0.0,
                interference_bytes: 0.0,
            });
        }
        TenantReport {
            policy: self.policy,
            makespan_s: now,
            outcomes,
        }
    }

    fn run_fair(&self, jobs: &[TenantJob], order: &[usize]) -> TenantReport {
        struct Live {
            job: usize,
            next_step: usize,
            start_s: Option<f64>,
            finish_s: f64,
            extra_bytes: f64,
        }
        let mut pending: std::collections::VecDeque<usize> = order.iter().copied().collect();
        let mut active: Vec<Live> = Vec::new();
        let mut done: Vec<Live> = Vec::new();
        let mut now = 0.0f64;
        let link = self.spec.machines as f64 * self.spec.bandwidth_bytes_per_s;
        while !pending.is_empty() || !active.is_empty() {
            // Admit everything that has arrived; if idle, jump to the next
            // arrival (arrivals are sorted, so the front is the earliest).
            while let Some(&j) = pending.front() {
                if jobs[j].arrival_s <= now {
                    pending.pop_front();
                    active.push(Live {
                        job: j,
                        next_step: 0,
                        start_s: None,
                        finish_s: 0.0,
                        extra_bytes: 0.0,
                    });
                } else {
                    break;
                }
            }
            if active.is_empty() {
                now = jobs[*pending.front().unwrap()].arrival_s;
                continue;
            }
            // One round: every active job runs one superstep concurrently
            // on a 1/k capacity slice; the round ends when the slowest
            // stretched step does.
            let k = active.len() as u32;
            let loss = contention_loss_rate(k, PER_TENANT_LOSS);
            let retrans = expected_retransmissions(loss);
            let stall = expected_timeout_stall_s(loss);
            let mut round = 0.0f64;
            for live in active.iter_mut() {
                let job = &jobs[live.job];
                live.start_s.get_or_insert(now);
                let bytes = job.step_bytes[live.next_step];
                let extra = bytes * retrans;
                let dur = job.step_walls[live.next_step] * k as f64 + extra / link + stall;
                live.extra_bytes += extra;
                live.next_step += 1;
                live.finish_s = now + dur;
                round = round.max(dur);
            }
            now += round;
            let mut i = 0;
            while i < active.len() {
                if active[i].next_step >= jobs[active[i].job].step_walls.len() {
                    done.push(active.swap_remove(i));
                } else {
                    i += 1;
                }
            }
        }
        done.sort_by(|a, b| {
            let (ja, jb) = (&jobs[a.job], &jobs[b.job]);
            ja.arrival_s
                .partial_cmp(&jb.arrival_s)
                .unwrap()
                .then(a.job.cmp(&b.job))
        });
        let outcomes: Vec<TenantOutcome> = done
            .iter()
            .map(|l| {
                let job = &jobs[l.job];
                let start = l.start_s.unwrap_or(job.arrival_s);
                TenantOutcome {
                    name: job.name.clone(),
                    arrival_s: job.arrival_s,
                    start_s: start,
                    finish_s: l.finish_s,
                    wait_seconds: start - job.arrival_s,
                    interference_seconds: (l.finish_s - start) - job.solo_seconds(),
                    interference_bytes: l.extra_bytes,
                }
            })
            .collect();
        let makespan = outcomes.iter().map(|o| o.finish_s).fold(0.0, f64::max);
        TenantReport {
            policy: self.policy,
            makespan_s: makespan,
            outcomes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_jobs() -> Vec<TenantJob> {
        vec![
            TenantJob::new("alpha", 0.0, vec![1.0; 6], vec![5_000.0; 6]),
            TenantJob::new("beta", 1.0, vec![0.5; 4], vec![2_000.0; 4]),
        ]
    }

    fn spec() -> ClusterSpec {
        ClusterSpec::local_9()
    }

    #[test]
    fn fifo_runs_solo_in_arrival_order() {
        let r = TenantScheduler::new(spec(), SchedulePolicy::Fifo)
            .run(&two_jobs(), &TelemetrySink::Disabled);
        assert_eq!(r.outcomes[0].name, "alpha");
        assert_eq!(r.outcomes[0].wait_seconds, 0.0);
        assert!((r.outcomes[0].finish_s - 6.0).abs() < 1e-12);
        // beta arrived at 1.0 but waits for alpha.
        assert!((r.outcomes[1].wait_seconds - 5.0).abs() < 1e-12);
        assert!((r.makespan_s - 8.0).abs() < 1e-12);
        assert_eq!(r.total_interference_bytes(), 0.0);
    }

    #[test]
    fn fair_share_cuts_wait_but_pays_interference() {
        let jobs = two_jobs();
        let fifo =
            TenantScheduler::new(spec(), SchedulePolicy::Fifo).run(&jobs, &TelemetrySink::Disabled);
        let fair = TenantScheduler::new(spec(), SchedulePolicy::FairShare)
            .run(&jobs, &TelemetrySink::Disabled);
        let late_fifo = &fifo.outcomes[1];
        let late_fair = &fair.outcomes[1];
        assert!(
            late_fair.wait_seconds < late_fifo.wait_seconds,
            "fair wait {} vs fifo wait {}",
            late_fair.wait_seconds,
            late_fifo.wait_seconds
        );
        assert!(fair.total_interference_bytes() > 0.0);
        assert!(
            fair.makespan_s >= fifo.makespan_s,
            "sharing can't shrink makespan"
        );
        assert!(late_fair.interference_seconds > 0.0);
    }

    #[test]
    fn schedules_are_deterministic() {
        let jobs = two_jobs();
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::FairShare] {
            let s = TenantScheduler::new(spec(), policy);
            let a = s.run(&jobs, &TelemetrySink::Disabled);
            let b = s.run(&jobs, &TelemetrySink::Disabled);
            assert_eq!(format!("{a:?}"), format!("{b:?}"), "{policy:?}");
        }
    }

    #[test]
    fn sole_tenant_pays_nothing_under_either_policy() {
        let jobs = vec![TenantJob::new("solo", 0.5, vec![2.0, 1.0], vec![1e4, 1e4])];
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::FairShare] {
            let r = TenantScheduler::new(spec(), policy).run(&jobs, &TelemetrySink::Disabled);
            let o = &r.outcomes[0];
            assert_eq!(o.wait_seconds, 0.0, "{policy:?}");
            assert_eq!(o.interference_bytes, 0.0, "{policy:?}");
            assert!(o.interference_seconds.abs() < 1e-12, "{policy:?}");
            assert!((r.makespan_s - 3.5).abs() < 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn idle_gaps_jump_to_the_next_arrival() {
        let jobs = vec![
            TenantJob::new("early", 0.0, vec![1.0], vec![0.0]),
            TenantJob::new("late", 10.0, vec![1.0], vec![0.0]),
        ];
        for policy in [SchedulePolicy::Fifo, SchedulePolicy::FairShare] {
            let r = TenantScheduler::new(spec(), policy).run(&jobs, &TelemetrySink::Disabled);
            assert_eq!(r.outcomes[1].wait_seconds, 0.0, "{policy:?}");
            assert!((r.makespan_s - 11.0).abs() < 1e-12, "{policy:?}");
        }
    }

    #[test]
    fn telemetry_gets_wait_spans_and_counters() {
        let sink = TelemetrySink::recording();
        TenantScheduler::new(spec(), SchedulePolicy::FairShare).run(&two_jobs(), &sink);
        let spans = sink.spans();
        assert!(spans.iter().any(|s| s.name == "tenant.wait.alpha"));
        assert!(spans.iter().any(|s| s.name == "tenant.wait.beta"));
        assert!(spans.iter().all(|s| s.cat == "elastic"));
        assert_eq!(sink.counter("elastic.tenant_jobs"), 2);
    }
}
