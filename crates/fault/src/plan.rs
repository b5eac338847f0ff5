//! Fault plans: which machine misbehaves, how, and at which superstep.
//!
//! A [`FaultPlan`] is drawn *before* the run from a seeded ChaCha stream
//! ([`gp_core::ChaCha12`]) and a set of per-superstep hazard rates
//! ([`FaultRates`]), then applied deterministically by the engines: the same
//! plan against the same job always produces byte-identical reports. The
//! seed is stored in the plan so a run can be reproduced from its printout.

use gp_cluster::ClusterSpec;
use gp_core::{ChaCha12, Rng};

/// What goes wrong.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The machine dies and is replaced by a cold spare: all partitions it
    /// hosted must be re-fetched and every superstep since the last
    /// checkpoint replayed.
    Crash,
    /// Transient network degradation: the machine's NIC runs at `1/factor`
    /// of its bandwidth for `duration_steps` supersteps.
    Degrade {
        /// Slowdown factor (> 1.0); 4.0 means quarter bandwidth.
        factor: f64,
        /// Supersteps the degradation lasts.
        duration_steps: u32,
    },
    /// CPU straggler: the machine retires work at `1/factor` of its normal
    /// rate for `duration_steps` supersteps (a barrier engine waits for it).
    Straggler {
        /// Slowdown factor (> 1.0).
        factor: f64,
        /// Supersteps the slowdown lasts.
        duration_steps: u32,
    },
    /// Flaky link: messages crossing the machine's NIC are lost, duplicated
    /// or delayed for `duration_steps` supersteps. A reliable-delivery
    /// protocol (gp-net) turns losses into retransmissions and timeout
    /// stalls; without one the messages are assumed delivered by an
    /// idealized network and the event is inert.
    Flaky {
        /// Probability a message on the link is lost and must be resent.
        loss_rate: f64,
        /// Probability a message is delivered twice (wasted bytes).
        dup_rate: f64,
        /// Extra one-way latency spike added to the step's barrier, seconds.
        delay_spike_s: f64,
        /// Supersteps the flakiness lasts.
        duration_steps: u32,
    },
}

/// The composed unreliability of one machine's link at one superstep (all
/// overlapping [`FaultKind::Flaky`] windows folded together).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FlakyLink {
    /// Per-message loss probability (independent losses compose as
    /// `1 - Π(1 - lᵢ)`).
    pub loss_rate: f64,
    /// Per-message duplication probability (sums across windows).
    pub dup_rate: f64,
    /// Latency spike in seconds (sums across windows).
    pub delay_spike_s: f64,
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

/// Per-machine, per-superstep hazard rates used to draw a plan.
#[derive(Debug, Clone)]
pub struct FaultRates {
    /// Probability a machine crashes in a given superstep.
    pub crash_per_step: f64,
    /// Probability a machine's network degrades in a given superstep.
    pub degrade_per_step: f64,
    /// Probability a machine straggles in a given superstep.
    pub straggler_per_step: f64,
    /// Probability a machine's link turns flaky in a given superstep.
    pub flaky_per_step: f64,
    /// Degrade/straggler slowdown factors are drawn uniformly from this
    /// range.
    pub slowdown_range: (f64, f64),
    /// Degrade/straggler/flaky durations are drawn uniformly from this
    /// range (supersteps, inclusive bounds).
    pub duration_range: (u32, u32),
    /// Flaky loss rates are drawn uniformly from this range.
    pub loss_range: (f64, f64),
    /// Flaky duplication rates are drawn uniformly from this range.
    pub dup_range: (f64, f64),
    /// Flaky delay spikes (seconds) are drawn uniformly from this range.
    pub delay_spike_range: (f64, f64),
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates {
            crash_per_step: 0.0,
            degrade_per_step: 0.0,
            straggler_per_step: 0.0,
            flaky_per_step: 0.0,
            slowdown_range: (2.0, 6.0),
            duration_range: (1, 4),
            loss_range: (0.01, 0.2),
            dup_range: (0.0, 0.05),
            delay_spike_range: (0.0, 0.02),
        }
    }
}

impl FaultRates {
    /// Rates with only crashes enabled.
    pub fn crashes(per_step: f64) -> Self {
        FaultRates {
            crash_per_step: per_step,
            ..Self::default()
        }
    }

    /// True when every hazard is zero (a draw yields an empty plan).
    pub fn all_zero(&self) -> bool {
        self.crash_per_step == 0.0
            && self.degrade_per_step == 0.0
            && self.straggler_per_step == 0.0
            && self.flaky_per_step == 0.0
    }
}

/// A deterministic schedule of faults for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed the plan was drawn from (0 for hand-built plans).
    pub seed: u64,
    /// Events sorted by superstep, then machine.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: no faults ever fire.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Draw a plan for `horizon` supersteps on `spec` from `rates`, seeded.
    /// Zero rates produce an empty plan for every seed. At most one crash is
    /// scheduled per superstep (correlated simultaneous failures are out of
    /// scope — the paper's systems would lose data they cannot recover).
    pub fn generate(seed: u64, spec: &ClusterSpec, horizon: u32, rates: &FaultRates) -> Self {
        let mut plan = FaultPlan {
            seed,
            events: Vec::new(),
        };
        if rates.all_zero() {
            return plan;
        }
        let mut rng = ChaCha12::new(seed);
        let (lo_f, hi_f) = rates.slowdown_range;
        let (lo_d, hi_d) = rates.duration_range;
        for superstep in 0..horizon {
            let mut crashed_this_step = false;
            for machine in 0..spec.machines {
                // Draw in a fixed order so the stream layout is stable.
                let crash_roll = rng.next_f64();
                let degrade_roll = rng.next_f64();
                let straggle_roll = rng.next_f64();
                let flaky_roll = rng.next_f64();
                if crash_roll < rates.crash_per_step && !crashed_this_step {
                    crashed_this_step = true;
                    plan.events.push(FaultEvent {
                        superstep,
                        machine,
                        kind: FaultKind::Crash,
                    });
                    continue;
                }
                if degrade_roll < rates.degrade_per_step {
                    plan.events.push(FaultEvent {
                        superstep,
                        machine,
                        kind: FaultKind::Degrade {
                            factor: lo_f + rng.next_f64() * (hi_f - lo_f),
                            duration_steps: lo_d + rng.next_below((hi_d - lo_d + 1) as u64) as u32,
                        },
                    });
                }
                if straggle_roll < rates.straggler_per_step {
                    plan.events.push(FaultEvent {
                        superstep,
                        machine,
                        kind: FaultKind::Straggler {
                            factor: lo_f + rng.next_f64() * (hi_f - lo_f),
                            duration_steps: lo_d + rng.next_below((hi_d - lo_d + 1) as u64) as u32,
                        },
                    });
                }
                if flaky_roll < rates.flaky_per_step {
                    let (lo_l, hi_l) = rates.loss_range;
                    let (lo_u, hi_u) = rates.dup_range;
                    let (lo_s, hi_s) = rates.delay_spike_range;
                    plan.events.push(FaultEvent {
                        superstep,
                        machine,
                        kind: FaultKind::Flaky {
                            loss_rate: lo_l + rng.next_f64() * (hi_l - lo_l),
                            dup_rate: lo_u + rng.next_f64() * (hi_u - lo_u),
                            delay_spike_s: lo_s + rng.next_f64() * (hi_s - lo_s),
                            duration_steps: lo_d + rng.next_below((hi_d - lo_d + 1) as u64) as u32,
                        },
                    });
                }
            }
        }
        plan
    }

    /// Hand-built plan: one crash of `machine` at `superstep`.
    pub fn crash_at(superstep: u32, machine: u32) -> Self {
        FaultPlan {
            seed: 0,
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
            seed: 0,
            events: (0..machines)
                .map(|machine| FaultEvent {
                    superstep: 0,
                    machine,
                    kind: FaultKind::Flaky {
                        loss_rate,
                        dup_rate: 0.0,
                        delay_spike_s: 0.0,
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

    /// Combined slowdown penalties active at `superstep` for `machine`:
    /// returns `(compute_factor, network_factor)`, each ≥ 1.0. Overlapping
    /// events multiply (two 2x stragglers → 4x).
    pub fn slowdown_at(&self, superstep: u32, machine: u32) -> (f64, f64) {
        let mut compute = 1.0;
        let mut network = 1.0;
        for e in &self.events {
            if e.machine != machine {
                continue;
            }
            match e.kind {
                FaultKind::Crash => {}
                FaultKind::Degrade {
                    factor,
                    duration_steps,
                } => {
                    if superstep >= e.superstep && superstep < e.superstep + duration_steps {
                        network *= factor;
                    }
                }
                FaultKind::Straggler {
                    factor,
                    duration_steps,
                } => {
                    if superstep >= e.superstep && superstep < e.superstep + duration_steps {
                        compute *= factor;
                    }
                }
                // Flaky links are priced by the reliable-delivery protocol
                // (gp-net), not as a bandwidth slowdown.
                FaultKind::Flaky { .. } => {}
            }
        }
        (compute, network)
    }

    /// Composed link unreliability active at `superstep` for `machine`, or
    /// `None` when every window misses. Overlapping windows compose:
    /// independent losses as `1 - Π(1 - lᵢ)`, duplication rates and delay
    /// spikes additively.
    pub fn flaky_at(&self, superstep: u32, machine: u32) -> Option<FlakyLink> {
        let mut link: Option<FlakyLink> = None;
        for e in &self.events {
            if e.machine != machine {
                continue;
            }
            if let FaultKind::Flaky {
                loss_rate,
                dup_rate,
                delay_spike_s,
                duration_steps,
            } = e.kind
            {
                if superstep >= e.superstep && superstep < e.superstep + duration_steps {
                    let l = link.get_or_insert_with(FlakyLink::default);
                    l.loss_rate = 1.0 - (1.0 - l.loss_rate) * (1.0 - loss_rate);
                    l.dup_rate += dup_rate;
                    l.delay_spike_s += delay_spike_s;
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

    /// True when the plan schedules at least one straggler or degraded-link
    /// window (the faults speculative execution can mitigate).
    pub fn has_slowdowns(&self) -> bool {
        self.events.iter().any(|e| {
            matches!(
                e.kind,
                FaultKind::Straggler { .. } | FaultKind::Degrade { .. }
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_rates_empty_plan_for_any_seed() {
        let spec = ClusterSpec::local_9();
        for seed in [0u64, 1, 42, 1 << 40, u64::MAX] {
            let plan = FaultPlan::generate(seed, &spec, 100, &FaultRates::default());
            assert!(plan.is_empty(), "seed {seed} produced events");
            assert_eq!(plan.seed, seed);
        }
    }

    #[test]
    fn same_seed_same_plan() {
        let spec = ClusterSpec::ec2_16();
        let rates = FaultRates {
            crash_per_step: 0.01,
            degrade_per_step: 0.02,
            straggler_per_step: 0.02,
            ..FaultRates::default()
        };
        let a = FaultPlan::generate(99, &spec, 60, &rates);
        let b = FaultPlan::generate(99, &spec, 60, &rates);
        assert_eq!(a, b);
        assert!(
            !a.is_empty(),
            "these rates over 60 steps x 16 machines should fire"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let spec = ClusterSpec::ec2_16();
        let rates = FaultRates::crashes(0.02);
        let a = FaultPlan::generate(1, &spec, 80, &rates);
        let b = FaultPlan::generate(2, &spec, 80, &rates);
        assert_ne!(a.events, b.events);
    }

    #[test]
    fn at_most_one_crash_per_superstep() {
        let spec = ClusterSpec::ec2_25();
        let plan = FaultPlan::generate(7, &spec, 200, &FaultRates::crashes(0.05));
        for step in 0..200 {
            let crashes = plan.crashes().filter(|e| e.superstep == step).count();
            assert!(crashes <= 1, "superstep {step} has {crashes} crashes");
        }
        assert!(plan.crashes().count() > 0);
    }

    #[test]
    fn slowdown_windows_cover_duration() {
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent {
            superstep: 5,
            machine: 2,
            kind: FaultKind::Straggler {
                factor: 3.0,
                duration_steps: 2,
            },
        });
        plan.push(FaultEvent {
            superstep: 6,
            machine: 2,
            kind: FaultKind::Degrade {
                factor: 2.0,
                duration_steps: 1,
            },
        });
        assert_eq!(plan.slowdown_at(4, 2), (1.0, 1.0));
        assert_eq!(plan.slowdown_at(5, 2), (3.0, 1.0));
        assert_eq!(plan.slowdown_at(6, 2), (3.0, 2.0));
        assert_eq!(plan.slowdown_at(7, 2), (1.0, 1.0));
        assert_eq!(
            plan.slowdown_at(6, 3),
            (1.0, 1.0),
            "other machines unaffected"
        );
    }

    #[test]
    fn flaky_rates_schedule_flaky_windows() {
        let spec = ClusterSpec::ec2_16();
        let rates = FaultRates {
            flaky_per_step: 0.05,
            ..Default::default()
        };
        let plan = FaultPlan::generate(11, &spec, 60, &rates);
        assert!(plan.has_flaky(), "flaky rates over 60x16 cells should fire");
        assert!(!plan.has_slowdowns());
        assert_eq!(plan.crashes().count(), 0);
        let b = FaultPlan::generate(11, &spec, 60, &rates);
        assert_eq!(plan, b, "flaky draws must be deterministic per seed");
        for e in &plan.events {
            if let FaultKind::Flaky {
                loss_rate,
                dup_rate,
                delay_spike_s,
                duration_steps,
            } = e.kind
            {
                assert!((0.01..=0.2).contains(&loss_rate));
                assert!((0.0..=0.05).contains(&dup_rate));
                assert!((0.0..=0.02).contains(&delay_spike_s));
                assert!((1..=4).contains(&duration_steps));
            } else {
                panic!("unexpected kind {:?}", e.kind);
            }
        }
    }

    #[test]
    fn overlapping_flaky_windows_compose() {
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent {
            superstep: 2,
            machine: 1,
            kind: FaultKind::Flaky {
                loss_rate: 0.5,
                dup_rate: 0.01,
                delay_spike_s: 0.1,
                duration_steps: 3,
            },
        });
        plan.push(FaultEvent {
            superstep: 3,
            machine: 1,
            kind: FaultKind::Flaky {
                loss_rate: 0.5,
                dup_rate: 0.02,
                delay_spike_s: 0.2,
                duration_steps: 1,
            },
        });
        assert_eq!(plan.flaky_at(1, 1), None);
        assert_eq!(plan.flaky_at(2, 1).unwrap().loss_rate, 0.5);
        let both = plan.flaky_at(3, 1).unwrap();
        assert!((both.loss_rate - 0.75).abs() < 1e-12, "1 - 0.5*0.5");
        assert!((both.dup_rate - 0.03).abs() < 1e-12);
        assert!((both.delay_spike_s - 0.3).abs() < 1e-12);
        assert_eq!(plan.flaky_at(3, 0), None, "other machines unaffected");
        // Flaky windows do not masquerade as bandwidth slowdowns.
        assert_eq!(plan.slowdown_at(3, 1), (1.0, 1.0));
    }

    #[test]
    fn uniform_flaky_covers_every_machine_and_zero_is_empty() {
        let plan = FaultPlan::uniform_flaky(0.05, 4, 30);
        assert_eq!(plan.events.len(), 4);
        for m in 0..4 {
            let link = plan.flaky_at(29, m).expect("whole horizon");
            assert!((link.loss_rate - 0.05).abs() < 1e-12);
            assert_eq!(link.dup_rate, 0.0);
        }
        assert_eq!(plan.flaky_at(30, 0), None);
        assert!(FaultPlan::uniform_flaky(0.0, 4, 30).is_empty());
        assert!(FaultPlan::uniform_flaky(-1.0, 4, 30).is_empty());
    }

    #[test]
    fn push_keeps_events_sorted() {
        let mut plan = FaultPlan::none();
        plan.push(FaultEvent {
            superstep: 9,
            machine: 0,
            kind: FaultKind::Crash,
        });
        plan.push(FaultEvent {
            superstep: 3,
            machine: 1,
            kind: FaultKind::Crash,
        });
        plan.push(FaultEvent {
            superstep: 3,
            machine: 0,
            kind: FaultKind::Crash,
        });
        let order: Vec<(u32, u32)> = plan
            .events
            .iter()
            .map(|e| (e.superstep, e.machine))
            .collect();
        assert_eq!(order, vec![(3, 0), (3, 1), (9, 0)]);
    }
}
