//! Speculative re-execution of straggling machines (backup tasks).
//!
//! MapReduce-style straggler mitigation adapted to superstep barriers: the
//! runtime watches per-machine projected completion times for the step;
//! when the slowest machine's projection exceeds `THRESHOLD` times the
//! median, it re-executes that machine's partition work on the
//! least-loaded peer and the barrier takes whichever copy finishes first.
//! The clone is not free — its compute work and the re-shipping of its
//! inputs are charged to the backup machine — and the model never lets a
//! speculation "win" more than the straggler's fault penalty, so a healthy
//! run cannot be undercut by turning speculation on.

/// A machine is declared a straggler when its projected step time exceeds
/// `THRESHOLD ×` the median machine's.
const THRESHOLD: f64 = 1.5;

/// One launched backup task and its accounting consequences.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeculationOutcome {
    /// The straggling machine whose work was cloned.
    pub slow_machine: usize,
    /// The least-loaded peer that ran the clone.
    pub backup_machine: usize,
    /// Work units re-executed on the backup machine.
    pub clone_work: f64,
    /// Input bytes re-shipped to the backup machine.
    pub shipped_bytes: f64,
    /// How long the clone ran (at healthy rates), seconds.
    pub clone_seconds: f64,
    /// Barrier time recovered by taking the first finisher, seconds.
    /// Always `>= 0` and `<=` the straggler's fault penalty.
    pub saved_seconds: f64,
}

/// Decide whether a backup task launches for this step and price it.
///
/// `projected_s[m]` is machine `m`'s projected completion time for the
/// step *including* active fault penalties; `penalty_s[m]` is the penalty
/// component alone (zero on a healthy machine). `work`/`in_bytes` are the
/// step's per-machine loads, re-priced at healthy rates for the clone.
///
/// The timeline: the straggler is detected when the median machine
/// finishes, the clone starts then on the least-loaded peer (assumed to
/// have idle threads — its own finish time is unchanged), and the barrier
/// releases at `max(other machines, min(straggler, clone))`. Returns
/// `None` when nothing exceeds the threshold, the slowest machine carries
/// no fault penalty (never second-guess honest load imbalance — that
/// keeps clean runs bit-identical), or the clone wouldn't actually save
/// time.
pub fn plan_speculation(
    projected_s: &[f64],
    penalty_s: &[f64],
    work: &[f64],
    in_bytes: &[f64],
    compute_rate: f64,
    bandwidth: f64,
) -> Option<SpeculationOutcome> {
    let n = projected_s.len();
    if n < 2 {
        return None;
    }
    let slow = argmax(projected_s)?;
    let penalty = penalty_s.get(slow).copied().unwrap_or(0.0);
    if penalty <= 1e-12 {
        return None;
    }
    let mut sorted = projected_s.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite projections"));
    let median = sorted[(n - 1) / 2];
    if projected_s[slow] <= THRESHOLD * median {
        return None;
    }
    let backup = argmin_excluding(projected_s, slow)?;
    let clone_work = work.get(slow).copied().unwrap_or(0.0);
    let shipped_bytes = in_bytes.get(slow).copied().unwrap_or(0.0);
    let clone_seconds = clone_work / compute_rate + shipped_bytes / bandwidth;
    let clone_finish = median + clone_seconds;
    let partition_ready = projected_s[slow].min(clone_finish);
    let others = projected_s
        .iter()
        .enumerate()
        .filter(|&(m, _)| m != slow)
        .map(|(_, &t)| t)
        .fold(0.0, f64::max);
    let new_finish = partition_ready.max(others);
    let saved_seconds = (projected_s[slow] - new_finish).clamp(0.0, penalty);
    if saved_seconds <= 1e-12 {
        return None;
    }
    Some(SpeculationOutcome {
        slow_machine: slow,
        backup_machine: backup,
        clone_work,
        shipped_bytes,
        clone_seconds,
        saved_seconds,
    })
}

fn argmax(xs: &[f64]) -> Option<usize> {
    xs.iter()
        .enumerate()
        .max_by(|(ai, a), (bi, b)| a.partial_cmp(b).unwrap().then(bi.cmp(ai)))
        .map(|(i, _)| i)
}

fn argmin_excluding(xs: &[f64], skip: usize) -> Option<usize> {
    xs.iter()
        .enumerate()
        .filter(|&(i, _)| i != skip)
        .min_by(|(ai, a), (bi, b)| a.partial_cmp(b).unwrap().then(ai.cmp(bi)))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: f64 = 1e6;
    const BW: f64 = 1e9;

    #[test]
    fn straggler_with_penalty_triggers_backup_on_least_loaded_peer() {
        // Machine 2 projects 10s where the median is 1s, all of it penalty.
        let projected = [1.0, 0.5, 10.0, 1.0];
        let penalty = [0.0, 0.0, 9.0, 0.0];
        let work = [1e6, 5e5, 1e6, 1e6];
        let bytes = [0.0, 0.0, 1e6, 0.0];
        let o = plan_speculation(&projected, &penalty, &work, &bytes, RATE, BW)
            .expect("should trigger");
        assert_eq!(o.slow_machine, 2);
        assert_eq!(o.backup_machine, 1, "least-loaded peer");
        assert_eq!(o.clone_work, 1e6);
        assert_eq!(o.shipped_bytes, 1e6);
        // Clone: detected at median 1.0, runs 1.0s compute + 0.001s ship →
        // partition ready at ~2.001, others done by 1.0 → saved ≈ 8.
        assert!((o.clone_seconds - 1.001).abs() < 1e-9);
        assert!((o.saved_seconds - (10.0 - 2.001)).abs() < 1e-9);
        assert!(o.saved_seconds <= penalty[2]);
    }

    #[test]
    fn honest_load_imbalance_is_left_alone() {
        // Same skewed projections but no fault penalty behind them.
        let projected = [1.0, 0.5, 10.0, 1.0];
        let penalty = [0.0; 4];
        let work = [1e6; 4];
        let bytes = [0.0; 4];
        assert_eq!(
            plan_speculation(&projected, &penalty, &work, &bytes, RATE, BW),
            None
        );
    }

    #[test]
    fn below_threshold_does_not_trigger() {
        let projected = [1.0, 1.1, 1.4, 1.0];
        let penalty = [0.0, 0.0, 0.4, 0.0];
        let work = [1e6; 4];
        let bytes = [0.0; 4];
        assert_eq!(
            plan_speculation(&projected, &penalty, &work, &bytes, RATE, BW),
            None,
            "1.4 <= 1.5 x median 1.0"
        );
    }

    #[test]
    fn saving_never_exceeds_the_fault_penalty() {
        // Penalty is only 2s of the 10s projection; the clone could win
        // more, but the clamp keeps healthy wall time sacrosanct.
        let projected = [1.0, 1.0, 10.0];
        let penalty = [0.0, 0.0, 2.0];
        let work = [1e5, 1e5, 1e5];
        let bytes = [0.0; 3];
        let o = plan_speculation(&projected, &penalty, &work, &bytes, RATE, BW)
            .expect("should trigger");
        assert_eq!(o.saved_seconds, 2.0);
    }

    #[test]
    fn a_single_machine_never_speculates() {
        assert_eq!(
            plan_speculation(&[5.0], &[4.0], &[1e5], &[0.0], RATE, BW),
            None,
            "single machine has no peer"
        );
    }

    #[test]
    fn slow_clone_that_cannot_help_is_not_launched() {
        // The clone would finish after the straggler itself.
        let projected = [1.0, 1.0, 2.0];
        let penalty = [0.0, 0.0, 1.0];
        let work = [5e6, 5e6, 5e6]; // clone alone takes 5s
        let bytes = [0.0; 3];
        assert_eq!(
            plan_speculation(&projected, &penalty, &work, &bytes, RATE, BW),
            None
        );
    }
}
