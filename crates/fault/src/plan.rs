//! Fault plans: which machine misbehaves, how, and at which superstep.
//!
//! A [`FaultPlan`] is built before the run — by hand, or drawn by
//! [`FaultPlan::random_crashes`] from a seeded ChaCha stream
//! ([`gp_core::ChaCha12`]) — then applied deterministically by the engines:
//! the same plan against the same job always produces byte-identical
//! reports.

use gp_cluster::ClusterSpec;
use gp_core::{ChaCha12, Rng};

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The machine dies and is replaced by a cold spare: all partitions it
    /// hosted must be re-fetched and every superstep since the last
    /// checkpoint replayed.
    Crash,
    /// CPU straggler: the machine retires work at `1/factor` of its normal
    /// rate for `duration_steps` supersteps (a barrier engine waits for it).
    Straggler {
        /// Slowdown factor (> 1.0).
        factor: f64,
        /// Supersteps the slowdown lasts.
        duration_steps: u32,
    },
    /// Flaky link: messages arriving at the machine's NIC are lost for
    /// `duration_steps` supersteps. A reliable-delivery protocol (gp-net)
    /// turns losses into retransmissions and timeout stalls; without one
    /// the messages are assumed delivered by an idealized network and the
    /// event is inert.
    Flaky {
        /// Probability a message on the link is lost and must be resent.
        loss_rate: f64,
        /// Supersteps the flakiness lasts.
        duration_steps: u32,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEvent {
    /// Superstep (0-based) at which the fault strikes.
    pub superstep: u32,
    /// Machine index in `0..spec.machines`.
    pub machine: u32,
    /// The fault.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Events sorted by superstep, then machine.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Crashes drawn for `horizon` supersteps on `spec`, seeded: each
    /// machine crashes in a given superstep with probability `per_step`, at
    /// most once per superstep (correlated simultaneous failures are out of
    /// scope — the paper's systems would lose data they cannot recover). A
    /// zero rate yields the empty plan for every seed.
    pub fn random_crashes(seed: u64, spec: &ClusterSpec, horizon: u32, per_step: f64) -> Self {
        let mut plan = FaultPlan::none();
        let mut rng = ChaCha12::new(seed);
        for superstep in 0..horizon {
            let mut crashed_this_step = false;
            for machine in 0..spec.machines {
                let roll = rng.next_f64();
                // Each cell spends four uniforms, as the four-hazard draw
                // these schedules were recorded on did.
                for _ in 0..3 {
                    rng.next_f64();
                }
                if roll < per_step && !crashed_this_step {
                    crashed_this_step = true;
                    plan.events.push(FaultEvent {
                        superstep,
                        machine,
                        kind: FaultKind::Crash,
                    });
                }
            }
        }
        plan
    }

    /// Hand-built plan: one crash of `machine` at `superstep`.
    pub fn crash_at(superstep: u32, machine: u32) -> Self {
        FaultPlan {
            events: vec![FaultEvent {
                superstep,
                machine,
                kind: FaultKind::Crash,
            }],
        }
    }

    /// Hand-built plan: every machine's link drops messages at `loss_rate`
    /// for the whole `horizon` (the ch11 sweep and the CLI `--loss-rate`
    /// flag, where the loss rate must be the *only* variable). A
    /// non-positive loss rate yields the empty plan, so `--loss-rate 0` is
    /// bit-identical to no plan at all.
    pub fn uniform_flaky(loss_rate: f64, machines: u32, horizon: u32) -> Self {
        if loss_rate <= 0.0 {
            return FaultPlan::none();
        }
        FaultPlan {
            events: (0..machines)
                .map(|machine| FaultEvent {
                    superstep: 0,
                    machine,
                    kind: FaultKind::Flaky {
                        loss_rate,
                        duration_steps: horizon,
                    },
                })
                .collect(),
        }
    }

    /// Add an event (kept sorted by superstep, then machine).
    pub fn push(&mut self, event: FaultEvent) {
        let at = self
            .events
            .partition_point(|e| (e.superstep, e.machine) <= (event.superstep, event.machine));
        self.events.insert(at, event);
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Crash events only, in superstep order.
    pub fn crashes(&self) -> impl Iterator<Item = &FaultEvent> {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash))
    }

    /// Combined straggler factor active at `superstep` for `machine`, ≥ 1.0.
    /// Overlapping windows multiply (two 2x stragglers → 4x).
    pub fn slowdown_at(&self, superstep: u32, machine: u32) -> f64 {
        let mut factor = 1.0;
        for e in &self.events {
            if let FaultKind::Straggler {
                factor: f,
                duration_steps,
            } = e.kind
            {
                if e.machine == machine
                    && superstep >= e.superstep
                    && superstep < e.superstep + duration_steps
                {
                    factor *= f;
                }
            }
        }
        factor
    }

    /// Composed loss rate of `machine`'s link at `superstep`, or `None` when
    /// every flaky window misses. Independent losses of overlapping windows
    /// compose as `1 - Π(1 - lᵢ)`.
    pub fn flaky_at(&self, superstep: u32, machine: u32) -> Option<f64> {
        let mut link: Option<f64> = None;
        for e in &self.events {
            if let FaultKind::Flaky {
                loss_rate,
                duration_steps,
            } = e.kind
            {
                if e.machine == machine
                    && superstep >= e.superstep
                    && superstep < e.superstep + duration_steps
                {
                    let l = link.get_or_insert(0.0);
                    *l = 1.0 - (1.0 - *l) * (1.0 - loss_rate);
                }
            }
        }
        link
    }

    /// True when the plan schedules at least one flaky-link window.
    pub fn has_flaky(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Flaky { .. }))
    }

    /// True when the plan schedules at least one straggler window (the
    /// fault speculative execution can mitigate).
    pub fn has_slowdowns(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::Straggler { .. }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(plan: &FaultPlan) -> Vec<(u32, u32)> {
        plan.events
            .iter()
            .map(|e| (e.superstep, e.machine))
            .collect()
    }

    #[test]
    fn zero_rates_empty_plan_for_any_seed() {
        let spec = ClusterSpec::local_9();
        for seed in [0u64, 1, 42, 1 << 40, u64::MAX] {
            let plan = FaultPlan::random_crashes(seed, &spec, 100, 0.0);
            assert!(plan.is_empty(), "seed {seed} produced events");
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let spec = ClusterSpec::ec2_16();
        let a = FaultPlan::random_crashes(99, &spec, 60, 0.01);
        let b = FaultPlan::random_crashes(99, &spec, 60, 0.01);
        assert_eq!(a, b);
        assert!(
            !a.is_empty(),
            "this rate over 60 steps x 16 machines should fire"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let spec = ClusterSpec::ec2_16();
        let a = FaultPlan::random_crashes(1, &spec, 80, 0.02);
        let b = FaultPlan::random_crashes(2, &spec, 80, 0.02);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn at_most_one_crash_per_superstep() {
        let spec = ClusterSpec::ec2_25();
        let plan = FaultPlan::random_crashes(7, &spec, 200, 0.05);
        for step in 0..200 {
            let crashes = plan.crashes().filter(|e| e.superstep == step).count();
            assert!(crashes <= 1, "superstep {step} has {crashes} crashes");
        }
        assert!(plan.crashes().count() > 0);
    }

    /// The schedules Table 10.2 prices: each (superstep, machine) cell
    /// spends four uniforms of the seeded stream, so a draw that spent fewer
    /// would move every crash after the first cell.
    #[test]
    fn random_crashes_keeps_the_recorded_schedule() {
        let spec = ClusterSpec::ec2_16();
        for (seed, rate, recorded) in [
            (7, 0.01, &[(12, 8), (16, 2)][..]),
            (7, 0.03, &[(0, 8), (12, 8), (14, 2), (16, 2), (17, 7)][..]),
            (42, 0.01, &[(1, 6), (12, 8)][..]),
            (
                42,
                0.03,
                &[(1, 6), (8, 14), (9, 7), (10, 3), (11, 5), (12, 8), (16, 1)][..],
            ),
        ] {
            let plan = FaultPlan::random_crashes(seed, &spec, 20, rate);
            assert_eq!(cells(&plan), recorded, "seed {seed}, rate {rate}");
            assert_eq!(plan.crashes().count(), recorded.len());
        }
    }

    #[test]
    fn slowdown_windows_cover_duration() {
        let mut plan = FaultPlan::none();
        for (superstep, factor, duration_steps) in [(5, 3.0, 2), (6, 2.0, 1)] {
            plan.push(FaultEvent {
                superstep,
                machine: 2,
                kind: FaultKind::Straggler {
                    factor,
                    duration_steps,
                },
            });
        }
        assert_eq!(plan.slowdown_at(4, 2), 1.0);
        assert_eq!(plan.slowdown_at(5, 2), 3.0);
        assert_eq!(plan.slowdown_at(6, 2), 6.0, "overlapping windows multiply");
        assert_eq!(plan.slowdown_at(7, 2), 1.0);
        assert_eq!(plan.slowdown_at(6, 3), 1.0, "other machines unaffected");
        assert!(plan.has_slowdowns() && !plan.has_flaky());
    }

    #[test]
    fn overlapping_flaky_windows_compose() {
        let mut plan = FaultPlan::none();
        for (superstep, duration_steps) in [(2, 3), (3, 1)] {
            plan.push(FaultEvent {
                superstep,
                machine: 1,
                kind: FaultKind::Flaky {
                    loss_rate: 0.5,
                    duration_steps,
                },
            });
        }
        assert_eq!(plan.flaky_at(1, 1), None);
        assert_eq!(plan.flaky_at(2, 1), Some(0.5));
        let both = plan.flaky_at(3, 1).unwrap();
        assert!((both - 0.75).abs() < 1e-12, "1 - 0.5*0.5");
        assert_eq!(plan.flaky_at(3, 0), None, "other machines unaffected");
        // Flaky windows do not masquerade as slowdowns.
        assert_eq!(plan.slowdown_at(3, 1), 1.0);
        assert!(!plan.has_slowdowns());
    }

    #[test]
    fn uniform_flaky_covers_every_machine_and_zero_is_empty() {
        let plan = FaultPlan::uniform_flaky(0.05, 4, 30);
        assert_eq!(plan.events.len(), 4);
        for m in 0..4 {
            let loss = plan.flaky_at(29, m).expect("whole horizon");
            assert!((loss - 0.05).abs() < 1e-12);
        }
        assert_eq!(plan.flaky_at(30, 0), None);
        assert!(FaultPlan::uniform_flaky(0.0, 4, 30).is_empty());
        assert!(FaultPlan::uniform_flaky(-1.0, 4, 30).is_empty());
    }

    #[test]
    fn push_keeps_events_sorted() {
        let mut plan = FaultPlan::none();
        for (superstep, machine) in [(9, 0), (3, 1), (3, 0)] {
            plan.push(FaultEvent {
                superstep,
                machine,
                kind: FaultKind::Crash,
            });
        }
        assert_eq!(cells(&plan), vec![(3, 0), (3, 1), (9, 0)]);
    }
}
